package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"
)

// witnessQuery returns every a-path of the line graph with its witness:
// n(n+1)/2 answers carrying about n³/6 path nodes and labels, all of
// which the response fingerprint covers and limit=1 keeps off the wire.
const witnessQuery = "Ans(x,y,p) <- (x,p,y), a+(p)"

// hitHandler returns the handler of a server over the line graph aⁿ with
// the witness query registered and its result cached, and the request
// that hits it.
func hitHandler(tb testing.TB, n int) (http.Handler, *http.Request) {
	tb.Helper()
	s := New(Config{DB: lineGraph(strings.Repeat("a", n)), Env: testEnv()})
	if err := s.Register("paths", witnessQuery); err != nil {
		tb.Fatal(err)
	}
	h := s.Handler()
	req := httptest.NewRequest(http.MethodGet, "/query/paths?limit=1", nil)
	for i := 0; i < 2; i++ { // compute, then prove the next one is a hit
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			tb.Fatalf("priming request %d: status %d: %s", i, rec.Code, rec.Body)
		}
		if hit := strings.Contains(rec.Body.String(), `"cached":true`); hit != (i == 1) {
			tb.Fatalf("priming request %d: cached = %v", i, hit)
		}
		if want := fmt.Sprintf(`"count":%d,`, n*(n+1)/2); !strings.Contains(rec.Body.String(), want) {
			tb.Fatalf("priming request %d: no %s in %s", i, want, rec.Body)
		}
	}
	return h, req
}

// BenchmarkHandlerHit times one cache-hit response through the handler,
// without a network, at two cached result sizes and the same limit. The
// response fingerprint is memoized on the cached result, so ns/op must
// not follow the answer count (120 → 7 260 answers, ~300 000 hashed
// words). On a 2-core AMD EPYC host both sizes read about 1.7 µs,
// 1 971 B and 21 allocations per hit with the response appended into a
// pooled buffer; reflecting it through encoding/json read 3.0 µs,
// 2 296 B and 30 allocations.
func BenchmarkHandlerHit(b *testing.B) {
	for _, n := range []int{4, 120} {
		b.Run(fmt.Sprintf("answers=%d", n*(n+1)/2), func(b *testing.B) {
			h, req := hitHandler(b, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h.ServeHTTP(httptest.NewRecorder(), req)
			}
		})
	}
}

// TestHitDoesNotRehashAnswers is the benchmark's claim as a test: a hit
// on a result seven hundred times larger, truncated to the same single
// answer, costs about what a hit on the small one does. Rehashing the
// answers per response made it two orders of magnitude dearer; the bound
// leaves one order for noise.
func TestHitDoesNotRehashAnswers(t *testing.T) {
	small, sreq := hitHandler(t, 4)
	large, lreq := hitHandler(t, 120)
	median := func(h http.Handler, req *http.Request) time.Duration {
		d := make([]time.Duration, 101)
		for i := range d {
			t0 := time.Now()
			h.ServeHTTP(httptest.NewRecorder(), req)
			d[i] = time.Since(t0)
		}
		slices.Sort(d)
		return d[len(d)/2]
	}
	// Interleave so a slow stretch of the host hits both sides.
	var s, l time.Duration
	for round := 0; round < 3; round++ {
		s += median(small, sreq)
		l += median(large, lreq)
	}
	if l > 10*s {
		t.Fatalf("hit on 7260 answers takes %v, on 10 answers %v: the response cost follows the cached answer count", l/3, s/3)
	}
}
