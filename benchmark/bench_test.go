package main

import (
	"encoding/json"
	"os"
	"regexp"
	"slices"
	"testing"
	"time"
)

// TestDeclaredMetrics is the drift check between the program and
// BENCHMARK.json: every workload the file names runs (300 ms windows),
// passes its correctness checks, and emits exactly the end-to-end metrics
// untraced and exactly the per-layer metrics traced, units included.
func TestDeclaredMetrics(t *testing.T) {
	type decl struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	var spec struct {
		Workloads []decl `json:"workloads"`
		EndToEnd  []decl `json:"end_to_end"`
		PerLayer  []decl `json:"per_layer"`
	}
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var declared []string
	for _, w := range spec.Workloads {
		declared = append(declared, w.Name)
	}
	if want := slices.Sorted(slices.Values(workloads)); !slices.Equal(slices.Sorted(slices.Values(declared)), want) {
		t.Fatalf("BENCHMARK.json workloads %v, program has %v", declared, want)
	}

	start := time.Now()
	cfg := config{seed: 7, seconds: 0.3, tmp: t.TempDir()}
	// The probes are the same in every traced run; one pass serves all four.
	probes := map[string]metric{}
	if err := runProbes(probes, cfg); err != nil {
		t.Fatalf("probes: %v", err)
	}
	// One set-up where a real run times several.
	untraced := func(w string, cfg config) (*result, error) {
		t0 := time.Now()
		fx, err := setup(w, cfg)
		if err != nil {
			return nil, err
		}
		defer fx.close()
		s := time.Since(t0).Seconds()
		res := untracedWindow(w, cfg, fx)
		res.Metrics["setup_s"] = metric{s, "s"}
		return res, nil
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	for _, w := range workloads {
		for _, mode := range []struct {
			name string
			run  func(string, config) (*result, error)
			want []decl
		}{{"untraced", untraced, spec.EndToEnd}, {"traced", tracedWindows, spec.PerLayer}} {
			res, err := mode.run(w, cfg)
			if err != nil {
				t.Fatalf("%s %s: %v", w, mode.name, err)
			}
			if !res.Correct || res.Attempted < 1 {
				t.Errorf("%s %s: attempted %d, failed %d", w, mode.name, res.Attempted, res.Failed)
			}
			if mode.name == "traced" {
				for k, v := range probes {
					res.Metrics[k] = v
				}
			}
			want := map[string]string{}
			for _, d := range mode.want {
				want[d.Name] = d.Unit
			}
			for name, m := range res.Metrics {
				if !nameRE.MatchString(name) {
					t.Errorf("%s %s: metric name %q is outside the naming rule", w, mode.name, name)
				}
				unit, ok := want[name]
				if !ok {
					t.Errorf("%s %s: emits %s, which BENCHMARK.json does not name", w, mode.name, name)
				} else if unit != m.Unit {
					t.Errorf("%s %s: %s has unit %q, BENCHMARK.json says %q", w, mode.name, name, m.Unit, unit)
				}
				delete(want, name)
			}
			for name := range want {
				t.Errorf("%s %s: BENCHMARK.json names %s, which is not emitted", w, mode.name, name)
			}
		}
	}
	if d := time.Since(start); d > 20*time.Second {
		t.Errorf("smoke run took %v, want under 20s", d)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 37, 4, 7, 29, 11, 16, 22})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
}
