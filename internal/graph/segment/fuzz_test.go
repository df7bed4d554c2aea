package segment

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzParse drives the segment container parser with arbitrary bytes:
// it must never panic, and anything it accepts must be self-consistent
// (sections in bounds, checksums matching a recompute).
func FuzzParse(f *testing.F) {
	path := filepath.Join(f.TempDir(), "seed.seg")
	if err := Write(path, testData()); err != nil {
		f.Fatal(err)
	}
	seed, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte{})
	f.Add([]byte(magic))
	f.Add(bytes.Repeat([]byte{0}, pageSize))
	truncated := append([]byte(nil), seed[:pageSize]...)
	f.Add(truncated)
	flipped := append([]byte(nil), seed...)
	flipped[pageSize+3] ^= 0x40
	f.Add(flipped)
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := Parse(data)
		if err != nil {
			return
		}
		for i := 0; i < NumSections; i++ {
			sec := d.Sections[i]
			if len(sec) > len(data) {
				t.Fatalf("accepted section %d longer than file", i)
			}
			if checksum(sec) != checksum(append([]byte(nil), sec...)) {
				t.Fatalf("section %d aliasing broken", i)
			}
		}
	})
}

// FuzzScanWAL drives the log scanner with arbitrary bytes: no panics,
// the valid prefix is idempotent under rescan, and every decoded record
// survives a re-encode/re-decode round trip.
func FuzzScanWAL(f *testing.F) {
	var seed []byte
	seed = appendRecord(seed, Record{Kind: RecNode, Epoch: 1, Name: "alice"})
	seed = appendRecord(seed, Record{Kind: RecEdge, Epoch: 2, From: 0, Label: 'x', To: 1})
	seed = appendRecord(seed, Record{Kind: RecCheckpoint, Epoch: 2})
	f.Add(seed)
	f.Add(seed[:len(seed)-3])
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, valid := ScanWAL(data)
		if valid < 0 || valid > len(data) {
			t.Fatalf("valid offset %d out of range", valid)
		}
		again, validAgain := ScanWAL(data[:valid])
		if validAgain != valid || len(again) != len(recs) {
			t.Fatalf("rescan of valid prefix disagrees: %d/%d vs %d/%d", len(again), validAgain, len(recs), valid)
		}
		var re []byte
		for _, r := range recs {
			re = appendRecord(re, r)
		}
		back, n := ScanWAL(re)
		if n != len(re) || len(back) != len(recs) {
			t.Fatalf("re-encoded records do not scan back: %d records in %d/%d bytes", len(back), n, len(re))
		}
		for i := range recs {
			if back[i] != recs[i] {
				t.Fatalf("record %d not stable under re-encode: %+v vs %+v", i, back[i], recs[i])
			}
		}
	})
}
