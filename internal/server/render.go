package server

import (
	"net/http"
	"strconv"
	"sync"
	"unicode/utf8"

	"repro/internal/ecrpq"
	"repro/internal/graph"
)

// A query response is appended straight into a pooled byte buffer and
// sent in one Write. The bytes are exactly what a json.Encoder with
// SetEscapeHTML(false) writes for the queryResponse the result maps to
// (TestWriteResultMatchesEncodingJSON, FuzzWriteResult): a cache hit
// renders its shown answers without reflection and without building
// the per-answer structs. queryResponse and answerJSON stay the schema.

// respBufs holds response buffers between requests. A buffer that grew
// past maxPooledResp (a large page of witness paths) is dropped instead
// of being kept idle.
var respBufs = sync.Pool{New: func() any { b := make([]byte, 0, 4<<10); return &b }}

const maxPooledResp = 256 << 10

// writeResult renders a successful (possibly degraded) evaluation.
func (s *Server) writeResult(w http.ResponseWriter, name string, snap *graph.Snapshot, res *ecrpq.Result, lag uint64, degraded, cached bool, elapsedNs int64, limit int) {
	s.ok.Add(1)
	bp := respBufs.Get().(*[]byte)
	b := appendResult((*bp)[:0], name, snap.Epoch(), res, lag, degraded, cached, elapsedNs, limit)
	h := w.Header()
	if degraded {
		h.Set("X-Degraded", "true")
	}
	h.Set("Content-Type", "application/json")
	// An explicit length keeps net/http from chunking bodies past its
	// 2 KiB buffer.
	h.Set("Content-Length", strconv.Itoa(len(b)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(b)
	if cap(b) <= maxPooledResp {
		*bp = b
		respBufs.Put(bp)
	}
}

// appendResult appends the response line for res at epoch: the fields
// of queryResponse in declaration order and the encoder's trailing
// newline. At most limit answers are shown; truncated appears only when
// more exist, and paths only on answers that carry witnesses.
func appendResult(b []byte, name string, epoch uint64, res *ecrpq.Result, lag uint64, degraded, cached bool, elapsedNs int64, limit int) []byte {
	shown := res.Answers
	truncated := len(shown) > limit
	if truncated {
		shown = shown[:limit]
	}
	b = append(b, `{"query":`...)
	b = appendString(b, name)
	b = append(b, `,"epoch":`...)
	b = strconv.AppendUint(b, epoch, 10)
	b = append(b, `,"lag":`...)
	b = strconv.AppendUint(b, lag, 10)
	b = append(b, `,"degraded":`...)
	b = strconv.AppendBool(b, degraded)
	b = append(b, `,"cached":`...)
	b = strconv.AppendBool(b, cached)
	b = append(b, `,"count":`...)
	b = strconv.AppendInt(b, int64(len(res.Answers)), 10)
	b = append(b, `,"fingerprint":"`...)
	fp := res.Fingerprint()
	for shift := 60; shift >= 0; shift -= 4 {
		b = append(b, hexDigits[fp>>shift&0xf])
	}
	b = append(b, `","answers":[`...)
	// Names come from the result's own snapshot: a degraded result may
	// be older than the request's, and node ids are only meaningful at
	// its epoch.
	names := res.Snap
	for i, a := range shown {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"nodes":`...)
		b = appendNames(b, names, a.Nodes)
		if len(a.Paths) > 0 {
			b = append(b, `,"paths":[`...)
			for j, p := range a.Paths {
				if j > 0 {
					b = append(b, ',')
				}
				b = append(b, `{"nodes":`...)
				b = appendNames(b, names, p.Nodes)
				b = append(b, `,"labels":[`...)
				for k, l := range p.Labels {
					if k > 0 {
						b = append(b, ',')
					}
					b = appendLabel(b, l)
				}
				b = append(b, "]}"...)
			}
			b = append(b, ']')
		}
		b = append(b, '}')
	}
	b = append(b, ']')
	if truncated {
		b = append(b, `,"truncated":true`...)
	}
	b = append(b, `,"elapsed_ns":`...)
	b = strconv.AppendInt(b, elapsedNs, 10)
	return append(b, "}\n"...)
}

// appendNames appends the JSON array of the names of vs.
func appendNames(b []byte, names *graph.Snapshot, vs []graph.Node) []byte {
	b = append(b, '[')
	for i, v := range vs {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendString(b, names.Name(v))
	}
	return append(b, ']')
}

// appendLabel appends an edge label as the JSON string string(l), which
// is U+FFFD for a rune that is not valid.
func appendLabel(b []byte, l rune) []byte {
	b = append(b, '"')
	switch {
	case 0 <= l && l < utf8.RuneSelf:
		b = appendASCII(b, byte(l))
	case l == '\u2028' || l == '\u2029':
		b = append(b, `\u202`...)
		b = append(b, hexDigits[l&0xf])
	default:
		b = utf8.AppendRune(b, l)
	}
	return append(b, '"')
}

// appendString appends s as a JSON string. A string of printable ASCII
// other than '"' and '\\' is copied as it is; any other goes through
// appendEscaped.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c == '"' || c == '\\' || c >= utf8.RuneSelf {
			return appendEscaped(b, s)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// appendEscaped appends s as a JSON string the way encoding/json does
// with HTML escaping off: '<', '>' and '&' stay as they are, control
// bytes and '"' and '\\' are escaped, each byte of invalid UTF-8 becomes
// \ufffd, and U+2028 and U+2029 become \u2028 and \u2029.
func appendEscaped(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			b = appendASCII(b, c)
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, `\u202`...)
			b = append(b, hexDigits[r&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// appendASCII appends the ASCII byte c inside a JSON string: as it is
// when printable, otherwise its escape.
func appendASCII(b []byte, c byte) []byte {
	switch c {
	case '"', '\\':
		return append(b, '\\', c)
	case '\b':
		return append(b, '\\', 'b')
	case '\f':
		return append(b, '\\', 'f')
	case '\n':
		return append(b, '\\', 'n')
	case '\r':
		return append(b, '\\', 'r')
	case '\t':
		return append(b, '\\', 't')
	}
	if c < ' ' {
		return append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
	}
	return append(b, c)
}

const hexDigits = "0123456789abcdef"
