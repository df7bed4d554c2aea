package segment

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// testData builds a small well-formed Data with distinguishable section
// payloads (the segment layer treats them as opaque bytes).
func testData() *Data {
	d := &Data{Epoch: 42, RecEdge: 16, RecRun: 12}
	for i := 0; i < NumSections; i++ {
		sec := make([]byte, 8*(i+1))
		for j := range sec {
			sec[j] = byte(i*31 + j)
		}
		d.Sections[i] = sec
	}
	return d
}

func TestWriteOpenRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "seg-0000000000000042.seg")
	d := testData()
	if err := Write(path, d); err != nil {
		t.Fatal(err)
	}
	f, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if f.Data.Epoch != 42 || f.Data.RecEdge != 16 || f.Data.RecRun != 12 {
		t.Fatalf("header round trip: %+v", f.Data)
	}
	for i := 0; i < NumSections; i++ {
		if !bytes.Equal(f.Data.Sections[i], d.Sections[i]) {
			t.Fatalf("section %d corrupted in round trip", i)
		}
	}
}

func TestParseRejectsCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "seg.seg")
	if err := Write(path, testData()); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Parse(good); err != nil {
		t.Fatalf("pristine image rejected: %v", err)
	}
	cases := map[string]func([]byte){
		"magic":          func(b []byte) { b[0] ^= 0xff },
		"version":        func(b []byte) { b[hdrVersion] = 9 },
		"endian":         func(b []byte) { b[hdrEndian] ^= 3 },
		"header-crc":     func(b []byte) { b[hdrEpoch] ^= 1 },
		"section-bytes":  func(b []byte) { b[pageSize] ^= 1 },
		"section-offset": func(b []byte) { b[hdrSections] = 1 },
	}
	for name, corrupt := range cases {
		b := append([]byte(nil), good...)
		corrupt(b)
		if _, err := Parse(b); err == nil {
			t.Errorf("%s corruption not detected", name)
		}
	}
	for _, n := range []int{0, 1, pageSize - 1, pageSize} {
		if n >= len(good) {
			continue
		}
		if _, err := Parse(good[:n]); err == nil {
			t.Errorf("truncation to %d bytes not detected", n)
		}
	}
}

func TestWALRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, err := OpenWAL(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	recs := []Record{
		{Kind: RecNode, Epoch: 1, Name: "alice"},
		{Kind: RecNode, Epoch: 2, Name: ""},
		{Kind: RecEdge, Epoch: 3, From: 0, Label: 'x', To: 1},
		{Kind: RecEdge, Epoch: 4, From: 1, Label: -1 & 0x7fffffff, To: 0},
		{Kind: RecCheckpoint, Epoch: 4},
	}
	for _, r := range recs {
		if err := w.Append(r, false); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got, valid := ScanWAL(data)
	if valid != len(data) {
		t.Fatalf("clean log scanned to %d of %d bytes", valid, len(data))
	}
	if len(got) != len(recs) {
		t.Fatalf("got %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Fatalf("record %d: got %+v want %+v", i, got[i], recs[i])
		}
	}
}

func TestWALTornTail(t *testing.T) {
	var buf []byte
	buf = appendRecord(buf, Record{Kind: RecNode, Epoch: 1, Name: "a"})
	whole := len(buf)
	buf = appendRecord(buf, Record{Kind: RecEdge, Epoch: 2, From: 0, Label: 'x', To: 0})
	// Every strict prefix of the second record must scan to exactly the
	// first — a torn tail never destroys the clean prefix and never
	// yields a phantom record.
	for cut := whole; cut < len(buf); cut++ {
		recs, valid := ScanWAL(buf[:cut])
		if valid != whole || len(recs) != 1 {
			t.Fatalf("cut %d: valid=%d records=%d, want %d/1", cut, valid, len(recs), whole)
		}
	}
	// A corrupted byte in the tail record likewise.
	b := append([]byte(nil), buf...)
	b[whole+9] ^= 0xff
	if recs, valid := ScanWAL(b); valid != whole || len(recs) != 1 {
		t.Fatalf("corrupt tail: valid=%d records=%d, want %d/1", valid, len(recs), whole)
	}
}

func TestWALTruncateWritesMarker(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, err := OpenWAL(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	for ep := uint64(1); ep <= 3; ep++ {
		if err := w.Append(Record{Kind: RecNode, Epoch: ep, Name: "n"}, false); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Truncate(3); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(Record{Kind: RecNode, Epoch: 4, Name: "m"}, false); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	recs, valid := ScanWAL(data)
	if valid != len(data) || len(recs) != 2 {
		t.Fatalf("after truncate: %d records in %d/%d bytes, want marker+1", len(recs), valid, len(data))
	}
	if recs[0].Kind != RecCheckpoint || recs[0].Epoch != 3 {
		t.Fatalf("first record = %+v, want checkpoint marker at 3", recs[0])
	}
}

func TestOpenWALDropsTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	var buf []byte
	buf = appendRecord(buf, Record{Kind: RecNode, Epoch: 1, Name: "a"})
	valid := len(buf)
	buf = append(buf, 0xde, 0xad, 0xbe) // torn garbage
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	w, err := OpenWAL(path, int64(valid))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(Record{Kind: RecNode, Epoch: 2, Name: "b"}, true); err != nil {
		t.Fatal(err)
	}
	w.Close()
	data, _ := os.ReadFile(path)
	recs, n := ScanWAL(data)
	if n != len(data) || len(recs) != 2 {
		t.Fatalf("torn tail not physically dropped: %d records, %d/%d bytes", len(recs), n, len(data))
	}
}
