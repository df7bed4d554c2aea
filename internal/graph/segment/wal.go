package segment

import (
	"encoding/binary"
	"os"
)

// WAL record kinds. Every record carries the epoch the mutation
// advanced the store to; epochs in a valid log are strictly contiguous,
// which is what lets recovery distinguish a clean prefix from silent
// data loss.
const (
	RecNode       = 1 // a node addition: body is the node name
	RecEdge       = 2 // an edge addition: body is from, label, to
	RecCheckpoint = 3 // a checkpoint marker: the log was truncated at Epoch
)

// maxRecordLen bounds a record payload; anything larger in a length
// field is treated as corruption rather than allocated.
const maxRecordLen = 1 << 24

// Record is one decoded WAL record. Name is set for RecNode; From,
// Label, To for RecEdge; a RecCheckpoint carries only the epoch.
type Record struct {
	Kind  byte
	Epoch uint64
	Name  string
	From  uint64
	To    uint64
	Label int32
}

// appendRecord encodes r onto buf and returns the extended slice. The
// wire format is portable (little-endian, varints):
//
//	length:u32 | crc32c(payload):u32 | payload
//	payload = kind:u8 epoch:uvarint body
//	body(node) = name bytes; body(edge) = from:uvarint label:uvarint to:uvarint
func appendRecord(buf []byte, r Record) []byte {
	payload := make([]byte, 0, 1+binary.MaxVarintLen64+len(r.Name)+2*binary.MaxVarintLen64)
	payload = append(payload, r.Kind)
	payload = binary.AppendUvarint(payload, r.Epoch)
	switch r.Kind {
	case RecNode:
		payload = append(payload, r.Name...)
	case RecEdge:
		payload = binary.AppendUvarint(payload, r.From)
		payload = binary.AppendUvarint(payload, uint64(uint32(r.Label)))
		payload = binary.AppendUvarint(payload, r.To)
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = binary.LittleEndian.AppendUint32(buf, checksum(payload))
	return append(buf, payload...)
}

// decodeRecord parses one payload; it must be fully consumed.
func decodeRecord(payload []byte) (Record, bool) {
	if len(payload) < 2 {
		return Record{}, false
	}
	r := Record{Kind: payload[0]}
	rest := payload[1:]
	ep, n := binary.Uvarint(rest)
	if n <= 0 {
		return Record{}, false
	}
	r.Epoch = ep
	rest = rest[n:]
	switch r.Kind {
	case RecNode:
		r.Name = string(rest)
	case RecEdge:
		var vals [3]uint64
		for i := range vals {
			v, n := binary.Uvarint(rest)
			if n <= 0 {
				return Record{}, false
			}
			vals[i] = v
			rest = rest[n:]
		}
		if len(rest) != 0 || vals[1] > 1<<32-1 {
			return Record{}, false
		}
		r.From, r.Label, r.To = vals[0], int32(uint32(vals[1])), vals[2]
	case RecCheckpoint:
		if len(rest) != 0 {
			return Record{}, false
		}
	default:
		return Record{}, false
	}
	return r, true
}

// ScanWAL decodes the longest valid record prefix of data and returns
// it together with its byte length. A torn or corrupt tail — short
// header, implausible length, checksum mismatch, undecodable payload —
// terminates the scan without error: crash recovery truncates the log
// to the returned offset and loses exactly the unacknowledged suffix.
// ScanWAL is the fuzz entry point of the log read path.
func ScanWAL(data []byte) (recs []Record, valid int) {
	off := 0
	for off+8 <= len(data) {
		ln := int(binary.LittleEndian.Uint32(data[off:]))
		crc := binary.LittleEndian.Uint32(data[off+4:])
		if ln < 2 || ln > maxRecordLen || off+8+ln > len(data) {
			break
		}
		payload := data[off+8 : off+8+ln]
		if checksum(payload) != crc {
			break
		}
		r, ok := decodeRecord(payload)
		if !ok {
			break
		}
		recs = append(recs, r)
		off += 8 + ln
	}
	return recs, off
}

// WAL is an append-only log writer over wal.log. It is not
// goroutine-safe; the graph store serializes appends under its write
// mutex.
type WAL struct {
	f    *os.File
	size int64
	buf  []byte
}

// OpenWAL opens (creating if absent) the log at path for appending,
// first truncating it to validLen — the clean-prefix length recovery
// established with ScanWAL — so a torn tail from a previous crash is
// physically discarded before new records land after it.
func OpenWAL(path string, validLen int64) (*WAL, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	if err := f.Truncate(validLen); err != nil {
		f.Close()
		return nil, err
	}
	if _, err := f.Seek(validLen, 0); err != nil {
		f.Close()
		return nil, err
	}
	return &WAL{f: f, size: validLen}, nil
}

// Append writes one record; with sync set the record is fsynced before
// returning (group-commit callers pass false and Sync explicitly).
// Without sync the record still reaches the kernel before the mutation
// is acknowledged, so only an OS crash — not a process crash — can lose
// it.
func (w *WAL) Append(r Record, sync bool) error {
	w.buf = appendRecord(w.buf[:0], r)
	if _, err := w.f.Write(w.buf); err != nil {
		return err
	}
	w.size += int64(len(w.buf))
	if sync {
		return w.f.Sync()
	}
	return nil
}

// Truncate resets the log after a checkpoint at epoch: the file is cut
// to zero, a checkpoint marker carrying epoch is appended, and the
// result is fsynced. The marker is what makes silent gaps detectable —
// if recovery later falls back to an older segment, the marker's epoch
// exceeds the segment's and replay refuses instead of resurrecting a
// pre-checkpoint state as if it were current.
func (w *WAL) Truncate(epoch uint64) error {
	if err := w.f.Truncate(0); err != nil {
		return err
	}
	if _, err := w.f.Seek(0, 0); err != nil {
		return err
	}
	w.size = 0
	return w.Append(Record{Kind: RecCheckpoint, Epoch: epoch}, true)
}

// Sync fsyncs the log.
func (w *WAL) Sync() error { return w.f.Sync() }

// Size returns the current log length in bytes.
func (w *WAL) Size() int64 { return w.size }

// Close closes the log file (without an implicit sync).
func (w *WAL) Close() error {
	if w.f == nil {
		return nil
	}
	err := w.f.Close()
	w.f = nil
	return err
}
