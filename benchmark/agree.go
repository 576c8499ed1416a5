package main

import (
	"fmt"
	"math"
	"sort"
)

// bounds is by how much of its value each end-to-end metric may worsen
// before a change counts as a regression; BENCHMARK.json carries the same
// numbers for the driver.
var bounds = map[string]float64{
	"setup_s":                 0.25,
	"coord_p50_ms":            0.25,
	"ack_p50_ms":              0.25,
	"sat_qps":                 0.25,
	"cpu_us_per_query":        0.25,
	"rss_peak_mb":             0.15,
	"written_bytes_per_query": 0.01,
}

// printAgreement prints, per end-to-end metric and workload, the value of
// each set, the largest relative difference between two sets and the bound,
// and reports whether every pair stayed inside its bound.
func printAgreement(sets [][]*report) bool {
	ok := true
	fmt.Printf("== agreement of %d sets\n", len(sets))
	fmt.Printf("   %-16s %-24s %-30s %8s %6s\n", "workload", "metric", "values", "diff", "bound")
	for wi, first := range sets[0] {
		for _, name := range sortedKeys(first.e2e) {
			var vals []float64
			lo, hi := math.Inf(1), math.Inf(-1)
			for _, set := range sets {
				v := set[wi].e2e[name].Value
				vals = append(vals, v)
				lo, hi = math.Min(lo, v), math.Max(hi, v)
			}
			diff := 0.0
			if lo > 0 {
				diff = (hi - lo) / lo
			}
			flag := ""
			if diff > bounds[name] {
				flag, ok = "  OUTSIDE", false
			}
			fmt.Printf("   %-16s %-24s %-30s %7.1f%% %5.0f%%%s\n",
				first.workload, name, fmt.Sprintf("%.4g", vals), 100*diff, 100*bounds[name], flag)
		}
	}
	return ok
}

func sortedKeys[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
