package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// metricSpec is a metric's entry in BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// loadSpecs reads the metric directions and bounds from BENCHMARK.json in
// the working directory.
func loadSpecs() (map[string]metricSpec, error) {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	var b struct {
		EndToEnd []metricSpec `json:"end_to_end"`
		PerLayer []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	specs := map[string]metricSpec{}
	for _, m := range append(b.EndToEnd, b.PerLayer...) {
		specs[m.Name] = m
	}
	return specs, nil
}

// loadResults reads every result record in dir, keyed by workload (with a
// " trace" suffix for traced runs, whose metrics differ).
func loadResults(dir string) (map[string][]*result, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	out := map[string][]*result{}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r result
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		key := r.Workload
		if r.Trace {
			key += " trace"
		}
		out[key] = append(out[key], &r)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no result records in %s", dir)
	}
	return out, nil
}

// quartiles returns Q1, median and Q3 exactly as Python's
// statistics.quantiles(values, n=4) computes them (the default
// "exclusive" method, extrapolating at the ends).
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// verdict judges change B against parent A on one metric, following the
// choosing-metrics rules: a gain needs at least ten seed-paired runs, nine
// tenths of pairs won, and a median difference larger than the parent's
// interquartile spread; a regression is a median worse by more than the
// metric's bound; a spread wider than the bound is unresolved unless every
// run of B beats every run of A.
func verdict(spec metricSpec, a, b []float64, wins, losses, pairs int) string {
	aq1, am, aq3 := quartiles(a)
	bq1, bm, bq3 := quartiles(b)
	gain := bm - am
	if spec.Better == "lower" {
		gain = -gain
	}
	spreadA := aq3 - aq1
	if pairs >= 10 && gain > spreadA && 10*wins >= 9*pairs {
		return "better"
	}
	relSpread := func(q1, m, q3 float64) float64 {
		if m == 0 {
			return 0
		}
		return (q3 - q1) / abs(m)
	}
	if spec.Bound > 0 {
		if -gain > spec.Bound*abs(am) {
			return "worse"
		}
		if relSpread(aq1, am, aq3) > spec.Bound || relSpread(bq1, bm, bq3) > spec.Bound {
			if allBetter(spec, a, b) {
				return "unchanged"
			}
			return "unresolved"
		}
		return "unchanged"
	}
	if pairs >= 10 && -gain > spreadA && 10*losses >= 9*pairs {
		return "worse"
	}
	if abs(gain) <= spreadA {
		return "unchanged"
	}
	return "unresolved"
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// allBetter reports whether every value of b beats every value of a.
func allBetter(spec metricSpec, a, b []float64) bool {
	for _, x := range a {
		for _, y := range b {
			if (spec.Better == "lower" && y >= x) || (spec.Better != "lower" && y <= x) {
				return false
			}
		}
	}
	return true
}

// compareDirs prints, per workload and metric, both sides' median and
// quartiles, the seed-paired win count, and a verdict for B against A.
func compareDirs(dirA, dirB string, w io.Writer) error {
	specs, err := loadSpecs()
	if err != nil {
		return err
	}
	ra, err := loadResults(dirA)
	if err != nil {
		return err
	}
	rb, err := loadResults(dirB)
	if err != nil {
		return err
	}
	keys := make([]string, 0, len(ra))
	for k := range ra {
		if _, ok := rb[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	if len(keys) == 0 {
		return fmt.Errorf("no workload appears in both %s and %s", dirA, dirB)
	}
	fmt.Fprintf(w, "%-22s %-34s %28s %28s %8s %7s  %s\n", "workload", "metric",
		"A median [q1 q3]", "B median [q1 q3]", "delta", "B wins", "verdict")
	for _, k := range keys {
		names := map[string]bool{}
		for _, r := range ra[k] {
			for n := range r.Metrics {
				names[n] = true
			}
		}
		sorted := make([]string, 0, len(names))
		for n := range names {
			sorted = append(sorted, n)
		}
		sort.Strings(sorted)
		for _, n := range sorted {
			spec, ok := specs[n]
			if !ok {
				continue
			}
			a, b := values(ra[k], n), values(rb[k], n)
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			wins, losses, pairs := pairUp(spec, ra[k], rb[k], n)
			_, am, _ := quartiles(a)
			_, bm, _ := quartiles(b)
			delta := "n/a"
			if am != 0 {
				delta = fmt.Sprintf("%+.1f%%", 100*(bm-am)/abs(am))
			}
			fmt.Fprintf(w, "%-22s %-34s %28s %28s %8s %7s  %s\n", k, n, spread(a), spread(b),
				delta, fmt.Sprintf("%d/%d", wins, pairs), verdict(spec, a, b, wins, losses, pairs))
		}
	}
	return nil
}

func values(rs []*result, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// pairUp matches runs of A and B by seed (the first run of each seed) and
// counts the pairs B wins and loses; ties count for neither.
func pairUp(spec metricSpec, a, b []*result, name string) (wins, losses, pairs int) {
	bySeed := map[int64]float64{}
	for _, r := range a {
		if _, seen := bySeed[r.Seed]; !seen {
			bySeed[r.Seed] = r.Metrics[name].Value
		}
	}
	used := map[int64]bool{}
	for _, r := range b {
		x, ok := bySeed[r.Seed]
		if !ok || used[r.Seed] {
			continue
		}
		used[r.Seed] = true
		pairs++
		y := r.Metrics[name].Value
		switch {
		case y == x:
		case (y < x) == (spec.Better == "lower"):
			wins++
		default:
			losses++
		}
	}
	return wins, losses, pairs
}

func spread(xs []float64) string {
	q1, m, q3 := quartiles(xs)
	return strings.TrimSpace(fmt.Sprintf("%.4g [%.4g %.4g] n=%d", m, q1, q3, len(xs)))
}
