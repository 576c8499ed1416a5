package main

import (
	"bufio"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func splitFragment(t *testing.T, frag []byte) (op, text string) {
	t.Helper()
	var m map[string]string
	if err := json.Unmarshal(append(append([]byte{'{'}, frag...), '}'), &m); err != nil || len(m) != 1 {
		t.Fatalf("fragment %s: %v", frag, err)
	}
	for op, text = range m {
	}
	return op, text
}

// The smoke run drives every workload for half a second against an
// in-process server — no child process, data directory under t.TempDir — and
// then replays it with spans. It must attempt work, fail nothing, and fill in
// every metric BENCHMARK.json names.
func TestSmokeAllWorkloads(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct {
			Name, Unit string
			Bound      float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	if len(decl.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(decl.Workloads), len(specs))
	}
	for _, w := range decl.Workloads {
		sp, ok := specByName(w.Name)
		if !ok {
			t.Fatalf("BENCHMARK.json names workload %q, which the benchmark does not have", w.Name)
		}
		dir := t.TempDir()
		cfg := smokeConfig(runConfig{spec: sp, seed: 2, nconn: 2, workdir: dir})
		cfg.trace, cfg.spans = true, filepath.Join(dir, "spans.json")
		rep, err := run(context.Background(), cfg)
		if err != nil {
			t.Fatalf("%s: %v", sp.name, err)
		}
		if rep.attempted < 1000 || rep.failed != 0 {
			t.Errorf("%s: %d attempted, %d failed: %+v, %d missing\n%v", sp.name, rep.attempted, rep.failed, rep.failures, rep.missing, rep.notes)
		}
		for _, m := range decl.EndToEnd {
			got, ok := rep.e2e[m.Name]
			if !ok || got.Unit != m.Unit || got.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %+v (present %v), want a positive value in %s", sp.name, m.Name, got, ok, m.Unit)
			}
			if b, ok := bounds[m.Name]; !ok || b != m.Bound {
				t.Errorf("bound of %s: BENCHMARK.json says %g, agree.go says %g", m.Name, m.Bound, b)
			}
		}
		if len(rep.e2e) != len(decl.EndToEnd) {
			t.Errorf("%s: %d end-to-end metrics reported, %d declared", sp.name, len(rep.e2e), len(decl.EndToEnd))
		}
		for _, m := range decl.PerLayer {
			if got, ok := rep.layer[m.Name]; !ok || got.Unit != m.Unit {
				t.Errorf("%s: per-layer metric %s = %+v (present %v), want unit %s", sp.name, m.Name, got, ok, m.Unit)
			}
		}
		if len(rep.layer) != len(decl.PerLayer) {
			t.Errorf("%s: %d per-layer metrics reported, %d declared", sp.name, len(rep.layer), len(decl.PerLayer))
		}
		if sp.durable {
			if rep.layer["wal.bytes_per_query"].Value <= 0 || rep.layer["durable.recovery_s"].Value <= 0 || rep.layer["durable.ckpt_stall_ms"].Value <= 0 {
				t.Errorf("%s: the storage metrics are empty: %v", sp.name, rep.layer)
			}
		} else if rep.layer["wal.bytes_per_query"].Value != 0 || rep.layer["wal.append_us"].Value != 0 {
			t.Errorf("%s: WAL metrics are not zero on a workload without a WAL", sp.name)
		}

		// The span file holds one JSON span per line, parents before children.
		f, err := os.Open(cfg.spans)
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		n := 0
		for ; sc.Scan(); n++ {
			var s span
			if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
				t.Fatalf("%s: span %d: %v", sp.name, n, err)
			}
			if s.End < s.Start || int(s.Parent) >= n || s.Name == "" {
				t.Fatalf("%s: span %d is malformed: %+v", sp.name, n, s)
			}
		}
		f.Close()
		if n < cfg.traced {
			t.Errorf("%s: span file holds %d spans for %d traced queries", sp.name, n, cfg.traced)
		}
	}
}

func TestAgreementFlagsOnlyWhatLeavesItsBound(t *testing.T) {
	mk := func(coord float64) []*report {
		return []*report{{workload: "w", e2e: map[string]metric{
			"coord_p50_ms": {coord, "ms"}, "sat_qps": {20000, "1/s"}}}}
	}
	within := 1 + bounds["coord_p50_ms"]/2
	if !printAgreement([][]*report{mk(1), mk(within)}) {
		t.Error("a difference of half the bound was flagged")
	}
	if printAgreement([][]*report{mk(1), mk(1 + 2*bounds["coord_p50_ms"])}) {
		t.Error("a difference of twice the bound was not flagged")
	}
}
