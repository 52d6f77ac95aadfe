package main

import (
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"strings"

	eagr "repro"
	"repro/internal/graph"
	"repro/internal/workload"
)

// model is the brute-force reference the correctness gate compares the
// server against: the generator's own copy of the graph plus every
// writer's write history, folded forward over the stream prefix sent so
// far. Answers are recomputed from scratch per (query, node).
type model struct {
	w    *workloadDef
	st   *stream
	g    *eagr.Graph
	hist [][]int32 // per writer: indexes of its content writes, in order
	upto int       // events folded in

	mark, seen []int32 // stamp arrays for the triangle count
	stamp      int32
}

func newModel(w *workloadDef, st *stream) *model {
	g := w.graph()
	n := g.MaxID()
	return &model{w: w, st: st, g: g, hist: make([][]int32, n),
		mark: make([]int32, n), seen: make([]int32, n)}
}

// advance folds events [m.upto, upto) into the model.
func (m *model) advance(upto int) error {
	for i := m.upto; i < upto; i++ {
		ev := m.st.events[i]
		var err error
		switch ev.Kind {
		case graph.ContentWrite:
			m.hist[ev.Node] = append(m.hist[ev.Node], int32(i))
		case graph.EdgeAdd:
			err = m.g.AddEdge(ev.Node, ev.Peer)
		case graph.EdgeRemove:
			err = m.g.RemoveEdge(ev.Node, ev.Peer)
		}
		if err != nil {
			return fmt.Errorf("model: event %d (%v %d→%d): %w", i, ev.Kind, ev.Node, ev.Peer, err)
		}
	}
	m.upto = upto
	return nil
}

// inWindow returns writer u's in-window values. The watermark is the
// newest timestamp applied (lateness 0), and a time window of width T
// keeps values with ts > watermark−T.
func (m *model) inWindow(spec eagr.QuerySpec, u graph.NodeID, dst []int64) []int64 {
	h := m.hist[u]
	switch {
	case spec.WindowTime > 0:
		cut := int64(m.upto) - spec.WindowTime
		for _, i := range h {
			if ts := m.st.events[i].TS; ts > cut {
				dst = append(dst, m.st.events[i].Value)
			}
		}
	default:
		c := max(spec.WindowTuples, 1)
		for _, i := range h[max(0, len(h)-c):] {
			dst = append(dst, m.st.events[i].Value)
		}
	}
	return dst
}

// want computes query q's answer at node v from scratch.
func (m *model) want(q int, v graph.NodeID) eagr.Result {
	spec := m.w.queries[q]
	if spec.Aggregate == "triangles" {
		return eagr.Result{Scalar: m.triangles(v), Valid: true}
	}
	var vals []int64
	for _, u := range m.g.In(v) {
		vals = m.inWindow(spec, u, vals)
	}
	switch {
	case spec.Aggregate == "sum":
		var s int64
		for _, x := range vals {
			s += x
		}
		return eagr.Result{Scalar: s, Valid: len(vals) > 0}
	case spec.Aggregate == "count":
		return eagr.Result{Scalar: int64(len(vals)), Valid: true}
	case spec.Aggregate == "max":
		if len(vals) == 0 {
			return eagr.Result{}
		}
		return eagr.Result{Scalar: slices.Max(vals), Valid: true}
	case strings.HasPrefix(spec.Aggregate, "topk("):
		k, _ := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(spec.Aggregate, "topk("), ")"))
		return topK(vals, k)
	}
	panic("model: no reference for aggregate " + spec.Aggregate)
}

// topK returns the k most frequent values, most frequent first, ties
// toward the smaller value.
func topK(vals []int64, k int) eagr.Result {
	if len(vals) == 0 {
		return eagr.Result{List: []int64{}}
	}
	freq := map[int64]int{}
	for _, x := range vals {
		freq[x]++
	}
	keys := make([]int64, 0, len(freq))
	for x := range freq {
		keys = append(keys, x)
	}
	slices.SortFunc(keys, func(a, b int64) int {
		if freq[a] != freq[b] {
			return freq[b] - freq[a]
		}
		return int(a - b)
	})
	return eagr.Result{List: keys[:min(k, len(keys))], Valid: true}
}

// triangles counts the neighbor pairs of v, in its undirected ego
// network, that are themselves connected.
func (m *model) triangles(v graph.NodeID) int64 {
	m.stamp++
	nv := m.stamp
	var ego []graph.NodeID
	for _, nbrs := range [][]graph.NodeID{m.g.In(v), m.g.Out(v)} {
		for _, u := range nbrs {
			if u != v && m.mark[u] != nv {
				m.mark[u] = nv
				ego = append(ego, u)
			}
		}
	}
	var twice int64
	for _, a := range ego {
		m.stamp++
		for _, nbrs := range [][]graph.NodeID{m.g.In(a), m.g.Out(a)} {
			for _, b := range nbrs {
				if b != a && m.mark[b] == nv && m.seen[b] != m.stamp {
					m.seen[b] = m.stamp
					twice++
				}
			}
		}
	}
	return twice / 2
}

// checkPair is one sampled (query, node) answer to compare.
type checkPair struct {
	q    int
	node graph.NodeID
}

// checkSample draws checkPerQuery nodes per checked query: half
// Zipf-weighted (the written, frequently read nodes) and half uniform.
const checkPerQuery = 500

func checkSample(w *workloadDef, seed int64) []checkPair {
	nodes := w.graph().MaxID()
	rng := rand.New(rand.NewSource(seed + 3))
	hot := workload.NewSampler(popularity(nodes), seed+4)
	var out []checkPair
	for _, q := range w.checked {
		for i := 0; i < checkPerQuery; i++ {
			v := graph.NodeID(rng.Intn(nodes))
			if i%2 == 0 {
				v = hot.Sample()
			}
			out = append(out, checkPair{q, v})
		}
	}
	return out
}

// sameResult compares a served answer with the model's.
func sameResult(got, want eagr.Result) bool {
	if got.Valid != want.Valid {
		return false
	}
	if !want.Valid {
		return true
	}
	if want.List != nil {
		return slices.Equal(got.List, want.List)
	}
	return got.Scalar == want.Scalar
}

// check compares every sampled answer with the model at its current
// prefix and reports the mismatches (the first few spelled out).
func check(m *model, pairs []checkPair, answer func(q int, v graph.NodeID) (eagr.Result, error)) (int, []string) {
	bad := 0
	var notes []string
	for _, p := range pairs {
		got, err := answer(p.q, p.node)
		want := m.want(p.q, p.node)
		if err == nil && sameResult(got, want) {
			continue
		}
		bad++
		if len(notes) < 5 {
			notes = append(notes, fmt.Sprintf("%s@%d: got %+v (err %v), want %+v",
				m.w.queries[p.q].Aggregate, p.node, got, err, want))
		}
	}
	return bad, notes
}
