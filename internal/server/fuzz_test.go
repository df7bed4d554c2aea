package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

// FuzzQueryParams is the daemon's parameter front door: any raw query
// string on GET /query/{name} (timeout, budget, maxstale, fresh, limit,
// workers and repeated bind, or anything else) is either rejected with a
// 400 that carries a JSON error body and bumps bad_request, or answered
// with a 200 or the status of a typed qerr failure — and never panics.
// The string reaches the handler verbatim: the request is served
// in-process, so no client re-encodes it. The seed corpus
// (testdata/fuzz/FuzzQueryParams) is drawn from the parameter tests.
func FuzzQueryParams(f *testing.F) {
	s := New(Config{DB: lineGraph("ababab"), Env: testEnv()})
	if err := s.Register("aplus", "Ans(x,y) <- (x,p,y), a+(p)"); err != nil {
		f.Fatal(err)
	}
	h := s.Handler()
	typed := map[int]bool{
		http.StatusUnprocessableEntity: true, // budget
		http.StatusGatewayTimeout:      true, // deadline
		statusClientClosedRequest:      true, // canceled
		http.StatusTooManyRequests:     true, // overloaded
		http.StatusServiceUnavailable:  true, // draining, stale
	}
	f.Fuzz(func(t *testing.T, raw string) {
		before := s.Stats()
		req := httptest.NewRequest(http.MethodGet, "/query/aplus", nil)
		req.URL.RawQuery = raw
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		after := s.Stats()
		code, body := rec.Code, rec.Body.Bytes()

		if after.Panics != before.Panics {
			t.Fatalf("%q: the handler panicked: %s", raw, body)
		}
		rejected := after.BadRequest - before.BadRequest
		switch {
		case code == http.StatusBadRequest:
			var e struct {
				Error  string `json:"error"`
				Status int    `json:"status"`
			}
			if err := json.Unmarshal(body, &e); err != nil || e.Error == "" || e.Status != code {
				t.Fatalf("%q: 400 without a JSON error body (%v): %s", raw, err, body)
			}
			if rejected != 1 {
				t.Fatalf("%q: 400 moved bad_request by %d, want 1", raw, rejected)
			}
		case rejected != 0:
			t.Fatalf("%q: status %d moved bad_request by %d", raw, code, rejected)
		case code == http.StatusOK:
			var qr queryResponse
			if err := json.Unmarshal(body, &qr); err != nil || qr.Fingerprint == "" || len(qr.Answers) > qr.Count {
				t.Fatalf("%q: malformed 200 body (%v): %s", raw, err, body)
			}
		case !typed[code]:
			t.Fatalf("%q: status %d is neither a 400, a 200 nor a typed failure: %s", raw, code, body)
		}
	})
}
