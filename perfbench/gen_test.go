package main

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/server"
)

// TestGenerateDeterministic: one seed gives byte-identical NDJSON and the
// same read schedule; another seed gives a different stream.
func TestGenerateDeterministic(t *testing.T) {
	for _, w := range workloads {
		a, b := generate(w, 7, 1), generate(w, 7, 1)
		if !bytes.Equal(a.ndjson, b.ndjson) {
			t.Errorf("%s: same seed, different NDJSON", w.name)
		}
		if len(a.reads) != len(b.reads) {
			t.Fatalf("%s: same seed, %d vs %d reads", w.name, len(a.reads), len(b.reads))
		}
		for i := range a.reads {
			if a.reads[i] != b.reads[i] {
				t.Fatalf("%s: same seed, read %d differs", w.name, i)
			}
		}
		if c := generate(w, 8, 1); bytes.Equal(a.ndjson, c.ndjson) {
			t.Errorf("%s: seeds 7 and 8 gave the same NDJSON", w.name)
		}
	}
}

// TestStreamApplies: every line parses with the server's own parser to
// the generated event, timestamps are the event ordinals, and replaying
// the structural events over a fresh copy of the graph never adds a
// present edge or removes an absent one, so apply errors are zero by
// construction.
func TestStreamApplies(t *testing.T) {
	for _, w := range workloads {
		st := generate(w, 3, 1)
		g := w.graph()
		structural := 0
		for k := 0; k < st.batches(); k++ {
			lines := bytes.Split(bytes.TrimSuffix(st.body(k, k+1), []byte("\n")), []byte("\n"))
			if len(lines) != st.batch {
				t.Fatalf("%s batch %d: %d lines, want %d", w.name, k, len(lines), st.batch)
			}
			for i, line := range lines {
				idx := k*st.batch + i
				ev, err := server.ParseIngestLine(line)
				if err != nil {
					t.Fatalf("%s event %d: %v", w.name, idx, err)
				}
				if ev != st.events[idx] || ev.TS != int64(idx+1) {
					t.Fatalf("%s event %d: parsed %+v, generated %+v", w.name, idx, ev, st.events[idx])
				}
				switch ev.Kind {
				case graph.EdgeAdd:
					err = g.AddEdge(ev.Node, ev.Peer)
				case graph.EdgeRemove:
					err = g.RemoveEdge(ev.Node, ev.Peer)
				}
				if err != nil {
					t.Fatalf("%s event %d (%v %d→%d): %v", w.name, idx, ev.Kind, ev.Node, ev.Peer, err)
				}
				if ev.IsStructural() {
					structural++
				}
			}
		}
		if want := st.batches() * w.churn; structural != want {
			t.Errorf("%s: %d structural events, want %d", w.name, structural, want)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1, 9, 2}, [3]float64{1.25, 3.5, 8}},
	} {
		q1, m, q3 := quartiles(c.in)
		for i, got := range []float64{q1, m, q3} {
			if math.Abs(got-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v %v %v, want %v", c.in, q1, m, q3, c.want)
				break
			}
		}
	}
}

// TestModelTriangles checks the model's triangle count on a small graph
// with a reciprocal edge.
func TestModelTriangles(t *testing.T) {
	g := graph.NewWithNodes(5)
	for _, e := range [][2]graph.NodeID{{0, 1}, {1, 0}, {1, 2}, {2, 0}, {0, 3}, {3, 4}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	m := &model{g: g, mark: make([]int32, 5), seen: make([]int32, 5)}
	for v, want := range []int64{1, 1, 1, 0, 0} {
		if got := m.triangles(graph.NodeID(v)); got != want {
			t.Errorf("triangles(%d) = %d, want %d", v, got, want)
		}
	}
}
