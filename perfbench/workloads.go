package main

import (
	"time"

	eagr "repro"
	"repro/internal/workload"
)

// workloadDef is one named traffic mix driven against eagr-serve.
type workloadDef struct {
	name    string
	graph   func() *eagr.Graph
	queries []eagr.QuerySpec
	durable bool
	// rate is the steady phase's offered load in events per second, sent
	// as one /ingest batch of rate×tick events every tick. It is at most a
	// quarter of what the workload's own mix sustains: on a shared host
	// that loses up to a fifth of its CPU time to other tenants, half
	// leaves too little headroom and latency follows the host.
	rate int
	tick time.Duration
	// saturateEPS sizes the pre-generated saturate stream: enough events
	// to run the closed loop at saturateEPS events per second for the
	// whole phase, about a third above the fastest rate seen. The phase
	// ends early if they run out (saturate_exhausted in the metadata).
	saturateEPS int
	// churn is the number of edge-add/edge-remove events each batch
	// carries, as one burst that opens the batch.
	churn int
	// Content values are drawn uniformly from [1, values].
	values int
	// readEvery is the write:read ratio: one read per readEvery content
	// writes, spread over the queries named in reads.
	readEvery int
	reads     []int
	// watch is the query one SSE subscriber watches (every node) during
	// the steady phase; -1 means the steady phase reads instead. The
	// probe phase does whichever of the two the steady phase did not, so
	// every end-to-end metric is measured on every workload.
	watch      int
	probeWatch int
	// recompute is the ego-betweenness query whose recompute the traced
	// run times over the steady phase's churn (-1: none).
	recompute int
	// checked lists the queries the correctness gate compares against the
	// brute-force model (ego-betweenness is left out: one exact read of a
	// hub takes about a second).
	checked []int
}

// datasetSeed fixes each workload's graph and its nodes' Zipf popularity
// ranking: they are the dataset, like the paper's fixed SNAP and LAW
// graphs. --seed drives everything drawn from them — which nodes write
// and read, the values, the edge churn — so runs with different seeds
// differ in their stream, not in the graph they measure.
const datasetSeed = 1

// popularity is the dataset's Zipf(1.0) weight per node.
func popularity(n int) []float64 { return workload.ZipfWeights(n, 1.0, 1, datasetSeed) }

// Query time windows are in event ordinals, the stream's timestamps.
var workloads = []*workloadDef{
	{
		name:  "push-feed",
		graph: func() *eagr.Graph { return workload.SocialGraph(20000, 10, datasetSeed) },
		queries: []eagr.QuerySpec{
			{Aggregate: "sum", WindowTuples: 4},
			{Aggregate: "max", WindowTime: 60000},
			{Aggregate: "topk(5)"},
		},
		rate:        12000,
		saturateEPS: 320000,
		tick:        5 * time.Millisecond,
		values:      50,
		readEvery:   8,
		reads:       []int{0, 1, 2},
		watch:       -1,
		probeWatch:  0,
		recompute:   -1,
		checked:     []int{0, 1, 2},
	},
	{
		name:  "alerts-sse",
		graph: func() *eagr.Graph { return workload.WebGraph(10000, 40, 10, datasetSeed) },
		queries: []eagr.QuerySpec{
			{Aggregate: "count", WindowTime: 8000, Continuous: true},
			{Aggregate: "max", WindowTime: 8000, Continuous: true},
		},
		rate:        1500,
		saturateEPS: 120000,
		tick:        10 * time.Millisecond,
		values:      1000,
		readEvery:   2,
		reads:       []int{0, 1},
		watch:       0,
		probeWatch:  -1,
		recompute:   -1,
		checked:     []int{0, 1},
	},
	{
		name:  "churn-durable",
		graph: func() *eagr.Graph { return workload.SocialGraph(10000, 10, datasetSeed) },
		queries: []eagr.QuerySpec{
			{Aggregate: "sum", WindowTuples: 4},
			{Aggregate: "triangles"},
			{Aggregate: "ego-betweenness"},
		},
		durable:     true,
		rate:        2000,
		saturateEPS: 40000,
		tick:        70 * time.Millisecond,
		churn:       8,
		values:      50,
		readEvery:   8,
		reads:       []int{0, 1},
		watch:       -1,
		probeWatch:  0,
		recompute:   2,
		checked:     []int{0, 1},
	},
}

func findWorkload(name string) *workloadDef {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// batchSize is the number of events in one /ingest batch.
func (w *workloadDef) batchSize() int {
	return max(1, int(float64(w.rate)*w.tick.Seconds()+0.5))
}
