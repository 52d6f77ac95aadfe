package main

import (
	"math"
	"math/rand"
	"strconv"
	"time"

	eagr "repro"
	"repro/internal/graph"
	"repro/internal/workload"
)

// Shares of --seconds given to each timed phase. The probe phase measures
// the end-to-end metrics the steady traffic of a workload does not produce.
const (
	steadyShare   = 0.5
	probeShare    = 0.25
	saturateShare = 0.25
	// saturateGroup is the number of consecutive batches one saturate
	// request carries: the closed loop measures how fast the program
	// applies the stream, not the HTTP round trip of a small batch.
	saturateGroup = 8
)

// readOp is one scheduled GET /queries/{id}/read.
type readOp struct {
	q    int
	node graph.NodeID
}

// stream is a workload's complete pre-generated input: the batches of all
// three phases (steady, probe, saturate, in that order), their NDJSON
// bodies, and the read schedule. Event i carries timestamp i+1.
type stream struct {
	batch  int // events per batch
	events []graph.Event
	ndjson []byte
	offs   []int // NDJSON body of batch k is ndjson[offs[k]:offs[k+1]]

	steady, probe, saturate int // batch counts per phase
	saturateFor             time.Duration

	// reads holds the steady phase's reads followed by the probe phase's
	// (only one of the two phases reads); one read is due every readPeriod.
	reads       []readOp
	steadyReads int
	readPeriod  time.Duration
}

func (s *stream) batches() int { return s.steady + s.probe + s.saturate }

// body is the NDJSON of batches [lo, hi), one /ingest request.
func (s *stream) body(lo, hi int) []byte { return s.ndjson[s.offs[lo]:s.offs[hi]] }

// batchOf maps a timestamp back to the batch that carried it.
func (s *stream) batchOf(ts int64) int { return int((ts - 1) / int64(s.batch)) }

// edgeSet is the generator's copy of the edge set, with O(1) sampling of a
// present edge.
type edgeSet struct {
	list []uint64
	idx  map[uint64]int
}

func edgeKey(u, v graph.NodeID) uint64 { return uint64(u)<<32 | uint64(uint32(v)) }

func newEdgeSet(g *eagr.Graph) *edgeSet {
	es := &edgeSet{idx: make(map[uint64]int, g.NumEdges())}
	for _, u := range g.Nodes() {
		for _, v := range g.Out(u) {
			es.add(edgeKey(u, v))
		}
	}
	return es
}

func (es *edgeSet) add(k uint64) {
	es.idx[k] = len(es.list)
	es.list = append(es.list, k)
}

func (es *edgeSet) remove(k uint64) {
	i := es.idx[k]
	last := es.list[len(es.list)-1]
	es.list[i] = last
	es.idx[last] = i
	es.list = es.list[:len(es.list)-1]
	delete(es.idx, k)
}

// generate builds the stream of one run from the seed alone. Content
// writes and reads target Zipf(1.0)-distributed nodes; structural bursts
// add an absent edge or remove a present one, so every event applies.
func generate(w *workloadDef, seed int64, seconds float64) *stream {
	g := w.graph()
	n := g.MaxID()
	rng := rand.New(rand.NewSource(seed))
	weights := popularity(n)
	writers := workload.NewSampler(weights, seed+1)
	readers := workload.NewSampler(weights, seed+2)
	es := newEdgeSet(g)

	b := w.batchSize()
	phaseBatches := func(share float64) int {
		return max(1, int(math.Round(seconds*share/w.tick.Seconds())))
	}
	st := &stream{batch: b, steady: phaseBatches(steadyShare),
		saturateFor: time.Duration(seconds * saturateShare * float64(time.Second))}
	if w.probeWatch >= 0 {
		// A delivery probe needs writes: it sends the steady batches again.
		// A read probe runs against the otherwise idle server, so it adds
		// no contention the workload itself does not have.
		st.probe = phaseBatches(probeShare)
	}
	satEvents := float64(w.saturateEPS) * seconds * saturateShare
	st.saturate = saturateGroup * max(1, int(math.Ceil(satEvents/float64(b*saturateGroup))))

	total := st.batches() * b
	st.events = make([]graph.Event, 0, total)
	st.ndjson = make([]byte, 0, total*44)
	st.offs = make([]int, 0, st.batches()+1)
	for k := 0; k < st.batches(); k++ {
		st.offs = append(st.offs, len(st.ndjson))
		// The burst opens the batch, so every batch is one structural run
		// followed by one content run and a write's delivery always waits
		// for the same work.
		for j := 0; j < w.churn; j++ {
			st.appendEvent(churnEvent(rng, es, n))
		}
		for i := w.churn; i < b; i++ {
			st.appendEvent(graph.Event{Kind: graph.ContentWrite, Node: writers.Sample(),
				Value: int64(1 + rng.Intn(w.values))})
		}
	}
	st.offs = append(st.offs, len(st.ndjson))

	if w.readEvery > 0 {
		writesPerBatch := float64(b - w.churn)
		st.readPeriod = time.Duration(float64(w.tick) * float64(w.readEvery) / writesPerBatch)
		if w.watch < 0 {
			st.steadyReads = int(time.Duration(st.steady) * w.tick / st.readPeriod)
		}
		probeReads := 0
		if w.probeWatch < 0 {
			probeReads = int(seconds * probeShare * float64(time.Second) / float64(st.readPeriod))
		}
		nreads := st.steadyReads + probeReads
		st.reads = make([]readOp, nreads)
		for i := range st.reads {
			st.reads[i] = readOp{q: w.reads[rng.Intn(len(w.reads))], node: readers.Sample()}
		}
	}
	return st
}

// churnEvent picks an edge-add of an absent edge or an edge-remove of a
// present one with equal odds, keeping the edge count stationary.
func churnEvent(rng *rand.Rand, es *edgeSet, n int) graph.Event {
	if rng.Intn(2) == 0 && len(es.list) > 0 {
		k := es.list[rng.Intn(len(es.list))]
		es.remove(k)
		return graph.Event{Kind: graph.EdgeRemove, Node: graph.NodeID(k >> 32), Peer: graph.NodeID(uint32(k))}
	}
	for {
		u, v := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
		k := edgeKey(u, v)
		if _, ok := es.idx[k]; u != v && !ok {
			es.add(k)
			return graph.Event{Kind: graph.EdgeAdd, Node: u, Peer: v}
		}
	}
}

// appendEvent stamps ev with its ordinal and appends it with its NDJSON
// line, in the /ingest wire grammar.
func (s *stream) appendEvent(ev graph.Event) {
	ev.TS = int64(len(s.events) + 1)
	s.events = append(s.events, ev)
	buf := s.ndjson
	switch ev.Kind {
	case graph.ContentWrite:
		buf = append(buf, `{"node":`...)
		buf = strconv.AppendInt(buf, int64(ev.Node), 10)
		buf = append(buf, `,"value":`...)
		buf = strconv.AppendInt(buf, ev.Value, 10)
	default:
		buf = append(buf, `{"kind":"`...)
		buf = append(buf, ev.Kind.String()...)
		buf = append(buf, `","from":`...)
		buf = strconv.AppendInt(buf, int64(ev.Node), 10)
		buf = append(buf, `,"to":`...)
		buf = strconv.AppendInt(buf, int64(ev.Peer), 10)
	}
	buf = append(buf, `,"ts":`...)
	buf = strconv.AppendInt(buf, ev.TS, 10)
	s.ndjson = append(buf, "}\n"...)
}
