package server

import (
	"net/http"
	"testing"
)

// TestWorkersParam pins the request-level worker override: any worker
// count returns the same fingerprint (the fan-out is deterministic), a
// malformed count is a client error, and results computed at different
// worker counts share one cache entry (the option is not part of the
// cache key, since it cannot change the result).
func TestWorkersParam(t *testing.T) {
	_, ts := newTestServer(t, "ababab", Config{})

	var seq queryResponse
	if code := getJSON(t, ts.URL+"/query/aplus?workers=1", &seq); code != 200 {
		t.Fatalf("workers=1 status = %d", code)
	}
	for _, w := range []string{"2", "8", "0"} {
		var qr queryResponse
		if code := getJSON(t, ts.URL+"/query/aplus?workers="+w, &qr); code != 200 {
			t.Fatalf("workers=%s status = %d", w, code)
		}
		if qr.Fingerprint != seq.Fingerprint {
			t.Fatalf("workers=%s fingerprint %s, sequential %s", w, qr.Fingerprint, seq.Fingerprint)
		}
		if qr.Count != seq.Count {
			t.Fatalf("workers=%s count %d, sequential %d", w, qr.Count, seq.Count)
		}
		// The workers=1 read computed the entry; every other count at the
		// same epoch reads it.
		if !qr.Cached {
			t.Fatalf("workers=%s after workers=1: cached=%v, want a cache hit", w, qr.Cached)
		}
	}

	resp, err := http.Get(ts.URL + "/query/aplus?workers=banana")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("workers=banana status = %d, want 400", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/query/aplus?workers=-2")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("workers=-2 status = %d, want 400", resp.StatusCode)
	}
}
