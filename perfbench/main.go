// Command perfbench is the repository's end-to-end benchmark. It serves the
// real internal/server handler on loopback HTTP over a session opened the
// way eagr-serve opens it, drives one named workload against it from a
// seeded load generator, checks the answers against a brute-force model,
// and prints every metric by name and unit. The last line of standard
// output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// Usage (from the repository root; see README.md):
//
//	bash perfbench/run.sh --workload push-feed --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh --compare <results-dir-A> <results-dir-B>
//
// --trace 1 adds an in-process traced replay of the same seed and reports
// the per-layer metrics instead of the end-to-end ones.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"
)

func main() {
	os.Exit(mainErr())
}

func mainErr() int {
	var (
		name    = flag.String("workload", "", "workload: push-feed | alerts-sse | churn-durable")
		seed    = flag.Int64("seed", 1, "workload seed: graph, stream and reads derive from it")
		seconds = flag.Float64("seconds", 20, "measured length of one run")
		trace   = flag.Int("trace", 0, "1: add the traced in-process run and report per-layer metrics")
		out     = flag.String("results", filepath.Join(".bench_build", "results"), "directory for the per-run result records")
		compare = flag.Bool("compare", false, "compare two result directories given as arguments")
		commit  = flag.String("commit", "unknown", "commit of the checkout, recorded in the run metadata (run.sh passes it)")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: perfbench --compare <results-A> <results-B>")
			return 2
		}
		if err := compareDirs(flag.Arg(0), flag.Arg(1), os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 2
		}
		return 0
	}
	w := findWorkload(*name)
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (push-feed | alerts-sse | churn-durable), --seconds > 0, --trace 0|1\n")
		return 2
	}
	res, err := benchmark(w, *seed, *seconds, *trace == 1, *out, *commit)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// setups is the number of setups in the untraced run; setup_s is their
// median (the traced run sets up once).
const setups = 3

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run's record, kept in the results directory for the
// comparator.
type result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Trace     bool              `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Meta      map[string]any    `json:"meta"`
}

// benchmark runs one workload: the untraced HTTP run, then with trace the
// traced in-process run of the same stream.
func benchmark(w *workloadDef, seed int64, seconds float64, trace bool, outDir, commit string) (*result, error) {
	genStart := time.Now()
	st := generate(w, seed, seconds)
	genS := time.Since(genStart).Seconds()
	workDir, err := tempRoot()
	if err != nil {
		return nil, err
	}
	p := pacer{epoch: time.Now()}

	d := &driver{w: w, st: st, seed: seed, reps: setups, p: p, workDir: workDir}
	rs, err := d.run(openHTTP)
	if err != nil {
		return nil, fmt.Errorf("%s run: %w", w.name, err)
	}
	r := &result{Workload: w.name, Seed: seed, Trace: trace,
		Attempted: rs.attempted, Failed: rs.failed, Metrics: map[string]metric{}}
	checked, mismatches, notes := rs.checked, rs.mismatches, rs.notes
	e2e := endToEnd(rs)
	rep := newReport(w.name, e2e, sampleNotes(rs, ""))
	tail := tails(rs)
	for _, name := range slices.Sorted(maps.Keys(tail)) {
		rep.extra(name, tail[name].Value, tail[name].Unit, "not gated: see README")
	}
	rep.extra("recover_s", rs.recoverS, "s", "churn-durable only")
	rep.extra("error_rate", ratio(rs.failed, rs.attempted), "ratio", fmt.Sprintf("%d/%d", rs.failed, rs.attempted))

	rep.print(os.Stdout)

	var traced *runStats
	var l *layerStats
	var tr *tracer
	if trace {
		runtime.GC()
		tr = &tracer{p: p}
		l = &layerStats{sendUs: newSamples(4 * st.batches()), structuralMs: newSamples(st.batches()),
			readNs: newSamples(len(st.reads)), topoNs: newSamples(len(st.reads))}
		td := &driver{w: w, st: st, seed: seed, reps: 1, p: p, tr: tr, workDir: workDir}
		traced, err = td.run(openTraced(tr, l))
		if err != nil {
			return nil, fmt.Errorf("%s traced run: %w", w.name, err)
		}
		checked += traced.checked
		mismatches += traced.mismatches
		notes = append(notes, traced.notes...)
		r.Attempted += traced.attempted
		r.Failed += traced.failed
		r.Metrics = perLayer(rs, traced, l, e2e)
		newReport(w.name+" (per layer)", r.Metrics, sampleNotes(traced, "traced.")).print(os.Stdout)
	} else {
		r.Metrics = e2e
	}
	// A run is correct only if every sampled answer matched and no
	// operation failed (error_rate = 0).
	r.Correct = mismatches == 0 && checked >= 1000 && r.Failed == 0
	r.Meta = meta(w, st, seed, seconds, genS, commit, rs, traced, checked, mismatches, notes)

	fmt.Printf("# correctness: %d answers checked, %d mismatches; %d of %d operations failed\n",
		checked, mismatches, r.Failed, r.Attempted)
	for _, n := range notes {
		fmt.Printf("#   %s\n", n)
	}
	metaJSON, _ := json.Marshal(r.Meta)
	fmt.Printf("# meta %s\n", metaJSON)
	if err := saveResult(r, outDir); err != nil {
		return nil, err
	}
	if tr != nil {
		path := filepath.Join(outDir, fmt.Sprintf("spans-%s-s%d.jsonl", w.name, seed))
		if err := tr.write(path); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
		fmt.Printf("# %d spans written to %s\n", len(tr.spans), path)
	}
	return r, nil
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// finite maps the NaN of an empty distribution to 0 for JSON.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

func median(xs []float64) float64 {
	s := newSamples(len(xs))
	for _, x := range xs {
		s.add(x)
	}
	return s.quantile(0.5)
}

// endToEnd derives the end-to-end metrics of one run.
func endToEnd(rs *runStats) map[string]metric {
	return map[string]metric{
		"setup_s":           {median(rs.setupS), "s"},
		"heap_mb":           {rs.heapMB, "MB"},
		"ingest_eps":        {rs.eps, "events/s"},
		"ingest_ack_p50_ms": {finite(rs.ack.quantile(0.5)), "ms"},
		"read_p50_us":       {finite(rs.read.quantile(0.5)), "us"},
		"delivery_p50_ms":   {finite(rs.delivery.quantile(0.5)), "ms"},
		"cpu_us_per_event":  {rs.cpuUs, "us"},
	}
}

// tails are the p90 and p99 of each end-to-end latency over its whole
// phase. They are recorded as per-layer metrics rather than gated: on a
// shared VM they follow hypervisor steal more than the program.
func tails(rs *runStats) map[string]metric {
	m := map[string]metric{}
	for _, d := range []struct {
		name, unit string
		s          *samples
	}{{"ingest_ack", "ms", rs.ack}, {"read", "us", rs.read}, {"delivery", "ms", rs.delivery}} {
		m["tail."+d.name+"_p90_"+d.unit] = metric{finite(d.s.quantile(0.9)), d.unit}
		m["tail."+d.name+"_p99_"+d.unit] = metric{finite(d.s.quantile(0.99)), d.unit}
	}
	return m
}

// perLayer derives the per-layer metrics from the untraced run (counters
// the session exposes, HTTP-side numbers) and the traced run (timed calls),
// plus the traced run's own end-to-end numbers and their difference from
// the untraced ones: HTTP plus tracing overhead.
func perLayer(rs, tr *runStats, l *layerStats, e2e map[string]metric) map[string]metric {
	per := func(x float64, n int) float64 {
		if n == 0 {
			return 0
		}
		return x / float64(n)
	}
	inProcReads := &samples{vals: append(slices.Clone(l.readNs.vals), l.topoNs.vals...)}
	readOverhead := 0.0
	if rs.read.n() > 0 && inProcReads.n() > 0 {
		readOverhead = rs.read.quantile(0.5) - inProcReads.quantile(0.5)/1e3
	}
	m := map[string]metric{
		"loadgen.late_p99_ms":             {finite(rs.late.quantile(0.99)), "ms"},
		"server.parse_ns_per_event":       {per(l.parseNs, l.parsed), "ns"},
		"server.read_overhead_us":         {readOverhead, "us"},
		"server.sse_frames_per_event":     {per(float64(rs.frames), int(rs.watchedWrites)), "count"},
		"ingestor.send_wait_us_p50":       {finite(l.sendUs.quantile(0.5)), "us"},
		"ingestor.queue_depth_max":        {float64(l.queueDepthMax), "count"},
		"ingestor.batches":                {float64(l.batches), "count"},
		"exec.apply_content_ns_per_event": {per(l.contentNs, l.contentEvents), "ns"},
		"exec.read_ns_p50":                {finite(l.readNs.quantile(0.5)), "ns"},
		"exec.read_ns_p99":                {finite(l.readNs.quantile(0.99)), "ns"},
		"notify.updates_per_event":        {per(float64(tr.frames), int(tr.watchedWrites)), "count"},
		"notify.lag_us_p50":               {finite(tr.delivery.quantile(0.5)) * 1e3, "us"},
		"notify.dropped":                  {float64(tr.dropped), "count"},
		"core.structural_run_ms_p50":      {finite(l.structuralMs.quantile(0.5)), "ms"},
		"core.structural_run_ms_p99":      {finite(l.structuralMs.quantile(0.99)), "ms"},
		"core.structural_runs":            {float64(l.structuralMs.n()), "count"},
		"compile.register_s":              {l.registerS, "s"},
		"overlay.partials":                {float64(rs.partials), "count"},
		"overlay.sharing_index":           {rs.sharingIndex, "ratio"},
		"overlay.avg_depth":               {rs.avgDepth, "count"},
		"topo.read_ns_p50":                {finite(l.topoNs.quantile(0.5)), "ns"},
		"topo.ebc_recompute_ms":           {tr.recomputeMs, "ms"},
		"wal.bytes_per_event":             {per(rs.walBytes, rs.steadyEvents), "bytes"},
		"wal.syncs_per_batch":             {per(rs.walSyncs, rs.steadyBatches), "count"},
		"wal.checkpoint_ms":               {l.checkpointMs, "ms"},
		"wal.replay_events_per_s":         {l.replayEPS, "events/s"},
		"recover_s":                       {rs.recoverS, "s"},
		"gc.cycles_per_mevent":            {per(rs.gcCycles*1e6, rs.steadyEvents), "count"},
		"gc.pause_ms":                     {rs.gcPauseMs, "ms"},
		"alloc_bytes_per_event":           {per(rs.allocBytes, rs.steadyEvents), "bytes"},
	}
	for name, v := range tails(rs) {
		m[name] = v
	}
	for name, v := range endToEnd(tr) {
		m["traced."+name] = v
		m["overhead."+name] = metric{v.Value - e2e[name].Value, v.Unit}
	}
	return m
}

// meta is the run's metadata: where and how it ran, and how many samples
// stand behind each percentile.
func meta(w *workloadDef, st *stream, seed int64, seconds float64, genS float64, commit string,
	rs, traced *runStats, checked, mismatches int, notes []string) map[string]any {
	host, _ := os.Hostname()
	m := map[string]any{
		"host":               host,
		"nproc":              runtime.NumCPU(),
		"gomaxprocs":         runtime.GOMAXPROCS(0),
		"go_version":         runtime.Version(),
		"commit":             commit,
		"seed":               seed,
		"workload":           w.name,
		"offered_rate_eps":   w.rate,
		"batch_events":       st.batch,
		"tick_ms":            ms(w.tick),
		"run_seconds":        seconds,
		"steady_s":           (time.Duration(st.steady) * w.tick).Seconds(),
		"probe_s":            (time.Duration(st.probe) * w.tick).Seconds(),
		"saturate_s":         rs.satSecs,
		"saturate_batches":   rs.satN,
		"saturate_slice_eps": rs.satSliceEPS,
		"saturate_exhausted": rs.satN == st.saturate,
		"setup_s_all":        rs.setupS,
		"generate_s":         genS,
		"distributions":      distributions(rs),
		"sse_frames":         rs.frames,
		"sse_dropped":        rs.dropped,
		"recover_s":          rs.recoverS,
		"error_rate":         ratio(rs.failed, rs.attempted),
		"answers_checked":    checked,
		"answers_mismatched": mismatches,
	}
	if len(notes) > 0 {
		m["notes"] = notes
	}
	if traced != nil {
		m["traced_distributions"] = distributions(traced)
		m["traced_ebc_tick_dirty_egos"] = traced.recomputeEgos
	}
	return m
}

// sampleNotes gives the sample count behind each end-to-end percentile,
// keyed by metric name with prefix.
func sampleNotes(rs *runStats, prefix string) map[string]string {
	n := func(s *samples) string { return fmt.Sprintf("n=%d", s.n()) }
	notes := map[string]string{
		"setup_s":           fmt.Sprintf("median of n=%d", len(rs.setupS)),
		"ingest_eps":        fmt.Sprintf("n=%d batches", rs.satN),
		"ingest_ack_p50_ms": n(rs.ack),
		"read_p50_us":       n(rs.read),
		"delivery_p50_ms":   n(rs.delivery),
	}
	out := make(map[string]string, len(notes))
	for k, v := range notes {
		out[prefix+k] = v
	}
	return out
}

// distributions describes each latency distribution behind a percentile:
// its sample count, percentiles and maximum.
func distributions(rs *runStats) map[string]map[string]float64 {
	out := map[string]map[string]float64{}
	for name, s := range map[string]*samples{
		"ingest_ack_ms": rs.ack, "read_us": rs.read, "delivery_ms": rs.delivery,
		"loadgen_late_ms": rs.late, "reader_late_ms": rs.readLate,
	} {
		out[name] = map[string]float64{
			"n": float64(s.n()), "not_kept": float64(s.overflow),
			"p50": finite(s.quantile(0.5)), "p90": finite(s.quantile(0.9)), "p95": finite(s.quantile(0.95)),
			"p99": finite(s.quantile(0.99)), "max": finite(s.max()),
		}
	}
	out["setup_s"] = map[string]float64{"n": float64(len(rs.setupS)), "median": median(rs.setupS)}
	return out
}

func saveResult(r *result, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	trace := 0
	if r.Trace {
		trace = 1
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-s%d-t%d-%d.json", r.Workload, r.Seed, trace, time.Now().UnixNano()))
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
