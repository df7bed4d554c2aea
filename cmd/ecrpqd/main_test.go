package main

import (
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/leakcheck"
	"repro/internal/server"
)

// TestDaemonLifecycle boots the daemon on an ephemeral port, serves a
// preloaded query, applies a write, and then drains via context
// cancellation (the SIGTERM path) — verifying the process leaves no
// goroutines behind.
func TestDaemonLifecycle(t *testing.T) {
	leakcheck.Check(t)

	dir := t.TempDir()
	gf := filepath.Join(dir, "g.graph")
	if err := os.WriteFile(gf, []byte("edge v0 a v1\nedge v1 b v2\nedge v2 a v3\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := config{
		addr:         "127.0.0.1:0",
		graphFile:    gf,
		queries:      []string{"aplus=Ans(x,y) <- (x,p,y), a+(p)"},
		timeout:      2 * time.Second,
		maxTimeout:   30 * time.Second,
		maxStale:     8,
		cacheBytes:   1 << 20,
		drainTimeout: 5 * time.Second,
	}
	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() { done <- run(ctx, cfg, ready, io.Discard) }()
	// Drain runs as a cleanup so it happens on every exit path, before
	// leakcheck's final count. Idle client keep-alive connections would
	// hold server goroutines open, so they are closed first.
	t.Cleanup(func() {
		http.DefaultClient.CloseIdleConnections()
		cancel()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("drain failed: %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Error("daemon did not drain")
		}
	})

	var addr string
	select {
	case addr = <-ready:
	case err := <-done:
		t.Fatalf("daemon exited before ready: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("daemon never became ready")
	}
	base := "http://" + addr

	resp, err := http.Get(base + "/query/aplus")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || !strings.Contains(string(body), `"fingerprint"`) {
		t.Fatalf("query = %d %s", resp.StatusCode, body)
	}
	resp, err = http.Post(base+"/write", "text/plain", strings.NewReader("edge v3 a v0\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("write = %d", resp.StatusCode)
	}
	resp, err = http.Get(base + "/statz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), `"write_lines":1`) {
		t.Fatalf("statz missing write count: %s", body)
	}
}

// TestLoadModeAgainstDaemon runs the -load client half against a live
// daemon — the in-process version of the CI smoke pairing: a short
// fixed-seed run must complete with zero 5xx and zero transport
// errors, and the daemon must drain clean afterwards.
func TestLoadModeAgainstDaemon(t *testing.T) {
	leakcheck.Check(t)

	cfg := config{
		addr:         "127.0.0.1:0",
		sigma:        "ab",
		queries:      []string{"aplus=Ans(x,y) <- (x,p,y), a+(p)"},
		timeout:      2 * time.Second,
		maxTimeout:   30 * time.Second,
		maxStale:     8,
		cacheBytes:   1 << 20,
		drainTimeout: 5 * time.Second,
	}
	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() { done <- run(ctx, cfg, ready, io.Discard) }()
	t.Cleanup(func() {
		http.DefaultClient.CloseIdleConnections()
		cancel()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("drain failed: %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Error("daemon did not drain")
		}
	})
	var addr string
	select {
	case addr = <-ready:
	case err := <-done:
		t.Fatalf("daemon exited before ready: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("daemon never became ready")
	}

	lcfg := cfg
	lcfg.load = "http://" + addr
	lcfg.loadDuration = 1500 * time.Millisecond
	lcfg.loadClients = 3
	lcfg.loadWritePct = 10
	lcfg.loadSeed = 42
	var out strings.Builder
	if err := runLoad(context.Background(), lcfg, &out); err != nil {
		t.Fatalf("load run failed: %v\nreport: %s", err, out.String())
	}
	if !strings.Contains(out.String(), `"ops"`) {
		t.Fatalf("report missing ops: %s", out.String())
	}
}

func TestLoadModeNoRegistry(t *testing.T) {
	// A target with an empty registry is a configuration mistake the
	// load client must name, not a zero-op "success".
	cfg := config{addr: "127.0.0.1:0", sigma: "a", drainTimeout: 5 * time.Second,
		timeout: time.Second, maxTimeout: time.Second, cacheBytes: 1 << 20}
	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() { done <- run(ctx, cfg, ready, io.Discard) }()
	t.Cleanup(func() {
		http.DefaultClient.CloseIdleConnections()
		cancel()
		<-done
	})
	addr := <-ready
	lcfg := cfg
	lcfg.load = "http://" + addr
	err := runLoad(context.Background(), lcfg, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "no registered queries") {
		t.Fatalf("empty registry error = %v", err)
	}
}

func TestDaemonBadPreload(t *testing.T) {
	cfg := config{
		addr:    "127.0.0.1:0",
		queries: []string{"bad=not a query"},
		sigma:   "ab",
	}
	err := run(context.Background(), cfg, nil, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "preload") {
		t.Fatalf("bad preload error = %v", err)
	}
}

func TestDaemonBadGraphFile(t *testing.T) {
	cfg := config{addr: "127.0.0.1:0", graphFile: filepath.Join(t.TempDir(), "missing.graph")}
	if err := run(context.Background(), cfg, nil, io.Discard); err == nil {
		t.Fatal("missing graph file must fail startup")
	}
	bad := filepath.Join(t.TempDir(), "bad.graph")
	if err := os.WriteFile(bad, []byte("edge only-two-fields\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg.graphFile = bad
	if err := run(context.Background(), cfg, nil, io.Discard); err == nil {
		t.Fatal("malformed graph file must fail startup")
	}
}

// TestSlowHeaderConnectionClosed: a peer that opens a connection, sends
// part of a request line and stalls must be cut off by the listener's
// header timeout — it used to hold a goroutine and a descriptor for as
// long as it liked — while a peer that sends its request promptly on the
// same daemon is served.
func TestSlowHeaderConnectionClosed(t *testing.T) {
	leakcheck.Check(t)
	cfg := config{
		addr:              "127.0.0.1:0",
		sigma:             "ab",
		queries:           []string{"aplus=Ans(x,y) <- (x,p,y), a+(p)"},
		cacheBytes:        1 << 20,
		drainTimeout:      5 * time.Second,
		readHeaderTimeout: 150 * time.Millisecond,
	}
	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() { done <- run(ctx, cfg, ready, io.Discard) }()
	t.Cleanup(func() {
		http.DefaultClient.CloseIdleConnections()
		cancel()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("drain failed: %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Error("daemon did not drain")
		}
	})
	var addr string
	select {
	case addr = <-ready:
	case err := <-done:
		t.Fatalf("daemon exited before ready: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("daemon never became ready")
	}

	slow, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Close()
	if _, err := slow.Write([]byte("GET /query/aplus HTTP/1.1\r\nHost: x\r\nX-Stall")); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + addr + "/query/aplus")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("prompt request beside the stalled one: status %d", resp.StatusCode)
	}

	// The stalled connection must reach EOF (or a reset) on its own, well
	// inside the read deadline below; anything the server says first (a
	// 408) is read past.
	slow.SetReadDeadline(time.Now().Add(5 * time.Second))
	start := time.Now()
	if _, err := io.Copy(io.Discard, slow); err != nil {
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			t.Fatalf("stalled connection still open %v after a %v header timeout", time.Since(start), cfg.readHeaderTimeout)
		}
	}
}

// TestHTTPServerTimeouts: every timeout is set, and the write timeout
// follows the configured maximum request deadline.
func TestHTTPServerTimeouts(t *testing.T) {
	srv := server.New(server.Config{DB: graph.NewDB(), MaxTimeout: 7 * time.Second})
	hs := newHTTPServer(srv, config{})
	if hs.ReadHeaderTimeout != defaultReadHeaderTimeout || hs.IdleTimeout != defaultIdleTimeout {
		t.Fatalf("defaults: ReadHeaderTimeout %v, IdleTimeout %v", hs.ReadHeaderTimeout, hs.IdleTimeout)
	}
	if want := 7*time.Second + responseWriteSlack; hs.WriteTimeout != want {
		t.Fatalf("WriteTimeout = %v, want %v (max request deadline + slack)", hs.WriteTimeout, want)
	}
	if hs = newHTTPServer(server.New(server.Config{DB: graph.NewDB()}), config{}); hs.WriteTimeout != 30*time.Second+responseWriteSlack {
		t.Fatalf("WriteTimeout with the default clamp = %v", hs.WriteTimeout)
	}
}
