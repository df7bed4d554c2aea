// Package segment implements the durable storage substrate of the graph
// store: a versioned, checksummed, page-aligned flat segment file that
// holds one compacted base CSR (node table, label-sorted edge array,
// LabelRun index, interned-name string table), plus the write-ahead log
// that records every mutation since the last checkpoint.
//
// The package deliberately knows nothing about the graph package's Edge
// and LabelRun struct layouts: sections are opaque byte ranges here, and
// the graph layer casts them (the page alignment of every section makes
// the casts safe for any record alignment up to the page size). What the
// segment layer DOES own is container integrity — magic, version, byte
// order, record-size tags, per-section CRCs — so a truncated, bit-rotted
// or foreign-architecture file is rejected before a single byte of it is
// interpreted structurally.
package segment

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"unsafe"
)

// magic and version identify the segment container format. version
// bumps whenever the header or section set changes incompatibly.
const (
	magic   = "ECRPQSG1"
	version = 1
)

// pageSize is the alignment unit of the layout: the header occupies the
// first page and every section starts on a page boundary, so a mapped
// section is aligned for any record type and reads fault in
// page-granular units.
const pageSize = 4096

// Section indices of the segment payload. The semantic validation of
// each section's content (offset monotonicity, sortedness, name
// uniqueness) belongs to the graph layer; here they are byte ranges.
const (
	SecNodeOff   = iota // per-node edge offsets, n+1 int32 records
	SecRunOff           // per-node label-run offsets, n+1 int32 records
	SecRuns             // LabelRun records (RecRun bytes each)
	SecEdges            // Edge records (RecEdge bytes each), CSR order
	SecAlphabet         // distinct labels, int32 records, sorted
	SecNameOff          // name string offsets, n+1 int32 records
	SecNameBytes        // concatenated interned node names, UTF-8
	NumSections
)

// castagnoli is the CRC32-C table used for every checksum in the format
// (header, sections, WAL records).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// checksum is the checksum function of the format.
func checksum(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }

// hostEndian returns the byte-order tag of the running host: 1 for
// little-endian, 2 for big-endian. Section payloads are written with
// native layout (they are memory images), so a segment is only readable
// on a host with the same byte order — the header records which.
func hostEndian() byte {
	var one uint16 = 1
	if *(*byte)(unsafe.Pointer(&one)) == 1 {
		return 1
	}
	return 2
}

// Data is the logical content of a segment file: the epoch stamp of the
// graph state it captures, the record-size tags of the host that wrote
// it (an architecture guard for the native-layout sections), and the
// raw bytes of each section. On the read side the section slices alias
// the file mapping and must be treated as read-only.
type Data struct {
	Epoch    uint64
	RecEdge  uint32 // bytes per edge record, as written
	RecRun   uint32 // bytes per label-run record, as written
	Sections [NumSections][]byte
}

// Header field offsets within the first page. All header scalars are
// little-endian regardless of host (the header is parsed, not cast).
const (
	hdrMagic    = 0  // 8 bytes
	hdrVersion  = 8  // uint32
	hdrEndian   = 12 // byte; 3 bytes pad
	hdrRecEdge  = 16 // uint32
	hdrRecRun   = 20 // uint32
	hdrEpoch    = 24 // uint64
	hdrCRC      = 32 // uint32 over the header page with this field zeroed
	hdrSections = 40 // NumSections × {off uint64, len uint64, crc uint32, pad uint32}
	hdrSecSize  = 24
)

// align rounds n up to the next page boundary.
func align(n int) int { return (n + pageSize - 1) &^ (pageSize - 1) }

// encodeHeader builds the header page for d, given the already-computed
// section offsets (into the file) and CRCs.
func encodeHeader(d *Data, offs [NumSections]int) []byte {
	h := make([]byte, pageSize)
	copy(h[hdrMagic:], magic)
	binary.LittleEndian.PutUint32(h[hdrVersion:], version)
	h[hdrEndian] = hostEndian()
	binary.LittleEndian.PutUint32(h[hdrRecEdge:], d.RecEdge)
	binary.LittleEndian.PutUint32(h[hdrRecRun:], d.RecRun)
	binary.LittleEndian.PutUint64(h[hdrEpoch:], d.Epoch)
	for i := 0; i < NumSections; i++ {
		f := h[hdrSections+i*hdrSecSize:]
		binary.LittleEndian.PutUint64(f[0:], uint64(offs[i]))
		binary.LittleEndian.PutUint64(f[8:], uint64(len(d.Sections[i])))
		binary.LittleEndian.PutUint32(f[16:], checksum(d.Sections[i]))
	}
	binary.LittleEndian.PutUint32(h[hdrCRC:], checksum(h))
	return h
}

// Parse validates a complete segment image and returns its content with
// section slices aliasing data. It checks container integrity only —
// magic, version, host byte order, header CRC, section bounds,
// alignment and CRCs — and never interprets section contents; callers
// layer their own structural validation on top. Parse is the fuzz entry
// point of the read path.
func Parse(data []byte) (*Data, error) {
	if len(data) < pageSize {
		return nil, fmt.Errorf("segment: short file (%d bytes)", len(data))
	}
	h := data[:pageSize]
	if string(h[hdrMagic:hdrMagic+8]) != magic {
		return nil, fmt.Errorf("segment: bad magic")
	}
	if v := binary.LittleEndian.Uint32(h[hdrVersion:]); v != version {
		return nil, fmt.Errorf("segment: unsupported version %d", v)
	}
	if e := h[hdrEndian]; e != hostEndian() {
		return nil, fmt.Errorf("segment: byte-order tag %d does not match host", e)
	}
	want := binary.LittleEndian.Uint32(h[hdrCRC:])
	cp := make([]byte, pageSize)
	copy(cp, h)
	binary.LittleEndian.PutUint32(cp[hdrCRC:], 0)
	if got := checksum(cp); got != want {
		return nil, fmt.Errorf("segment: header checksum mismatch (got %08x want %08x)", got, want)
	}
	d := &Data{
		Epoch:   binary.LittleEndian.Uint64(h[hdrEpoch:]),
		RecEdge: binary.LittleEndian.Uint32(h[hdrRecEdge:]),
		RecRun:  binary.LittleEndian.Uint32(h[hdrRecRun:]),
	}
	for i := 0; i < NumSections; i++ {
		f := h[hdrSections+i*hdrSecSize:]
		off := binary.LittleEndian.Uint64(f[0:])
		ln := binary.LittleEndian.Uint64(f[8:])
		crc := binary.LittleEndian.Uint32(f[16:])
		if off%pageSize != 0 {
			return nil, fmt.Errorf("segment: section %d offset %d not page-aligned", i, off)
		}
		if off > uint64(len(data)) || ln > uint64(len(data))-off {
			return nil, fmt.Errorf("segment: section %d [%d,+%d) out of bounds (file %d)", i, off, ln, len(data))
		}
		sec := data[off : off+ln : off+ln]
		if got := checksum(sec); got != crc {
			return nil, fmt.Errorf("segment: section %d checksum mismatch (got %08x want %08x)", i, got, crc)
		}
		d.Sections[i] = sec
	}
	return d, nil
}
