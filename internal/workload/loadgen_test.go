package workload_test

// External test package: the load generator drives a real server over
// HTTP, and internal/server imports internal/workload's graph types,
// so the test lives outside the package to keep imports acyclic.

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/qcache"
	"repro/internal/server"
	"repro/internal/workload"
)

// TestRunLoadSmoke is the in-process version of the CI daemon smoke
// job: a short fixed-seed closed-loop run against a real serving core,
// asserting zero 5xx and sane accounting.
func TestRunLoadSmoke(t *testing.T) {
	m := workload.NewMixedServing(20)
	srv := server.New(server.Config{
		DB:          m.Graph,
		Env:         m.Env(),
		Cache:       qcache.New(64 << 20),
		MaxStaleLag: 8,
	})
	// The serving shapes, each bound to a tail (sparse) node: the aⁿbⁿ
	// ECRPQ at two bindings, the relation-free chain, a selective RPQ.
	const (
		anbn  = "Ans(x,y) <- (x,p1,z), (z,p2,y), a+(p1), b+(p2), el(p1,p2)"
		chain = "Ans(x,y) <- (x,p1,z), (z,p2,y), a+(p1), b+(p2)"
		rpq   = "Ans(x,y) <- (x,p,y), a+b(p)"
	)
	queries := []struct {
		name, text string
		x          graph.Node
	}{
		{"anbn-tail", anbn, 15000},
		{"anbn-tail2", anbn, 10007},
		{"chain-tail", chain, 15000},
		{"rpq-tail", rpq, 10013},
	}
	names := make([]string, len(queries))
	binds := make([]string, len(queries))
	for i, sq := range queries {
		names[i] = sq.name
		if err := srv.Register(sq.name, sq.text); err != nil {
			t.Fatalf("register %s: %v", sq.name, err)
		}
		binds[i] = "x=" + m.Graph.Name(sq.x)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	rep, err := workload.RunLoad(context.Background(), workload.LoadConfig{
		BaseURL:    ts.URL,
		Queries:    names,
		Binds:      binds,
		Clients:    4,
		Duration:   1500 * time.Millisecond,
		WritePct:   10,
		WriteNodes: m.Graph.NumNodes(),
		WriteSigma: m.Sigma,
		MaxStale:   8,
		Seed:       7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ops == 0 || rep.Writes == 0 {
		t.Fatalf("no traffic generated: %+v", rep)
	}
	if rep.Any5xx() {
		t.Fatalf("5xx under nominal load: %v", rep.Statuses)
	}
	if rep.Errors != 0 {
		t.Fatalf("transport errors: %d", rep.Errors)
	}
	if rep.Statuses[200] == 0 {
		t.Fatalf("no successful queries: %v", rep.Statuses)
	}
	if rep.P50 == 0 || rep.P99 < rep.P50 || rep.Max < rep.P99 {
		t.Fatalf("latency percentiles inconsistent: p50=%v p99=%v max=%v", rep.P50, rep.P99, rep.Max)
	}
	if rep.Throughput <= 0 {
		t.Fatalf("throughput = %f", rep.Throughput)
	}
	st := srv.Stats()
	if st.Panics != 0 {
		t.Fatalf("server panicked %d time(s) under load", st.Panics)
	}
}

func TestRunLoadConfigValidation(t *testing.T) {
	if _, err := workload.RunLoad(context.Background(), workload.LoadConfig{}); err == nil {
		t.Fatal("empty config must fail")
	}
	if _, err := workload.RunLoad(context.Background(), workload.LoadConfig{
		BaseURL: "http://x", Queries: []string{"a", "b"}, Binds: []string{"only-one"},
	}); err == nil {
		t.Fatal("mismatched Binds must fail")
	}
}
