package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"sync"
	"time"

	eagr "repro"
	"repro/internal/graph"
	"repro/internal/server"
)

// span is one timed call across a layer boundary. Spans of one batch or
// read share req; parent indexes the enclosing span (-1 for a root).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int64  `json:"req"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs share the driver code.
type tracer struct {
	p     pacer
	mu    sync.Mutex
	spans []span
}

// add records a finished span and returns its index.
func (t *tracer) add(name string, start, end time.Duration, parent int, req int64) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name, int64(start), int64(end), parent, req})
	return len(t.spans) - 1
}

// begin opens a span whose end is filled in by end.
func (t *tracer) begin(name string, parent int, req int64) int {
	if t == nil {
		return -1
	}
	now := t.p.now()
	return t.add(name, now, now, parent, req)
}

func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	now := t.p.now()
	t.mu.Lock()
	t.spans[i].End = int64(now)
	t.mu.Unlock()
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerStats are the traced run's per-layer measurements.
type layerStats struct {
	parseNs       float64
	parsed        int
	sendUs        *samples
	queueDepthMax int
	batches       int64 // Ingestor.Stats().Batches, summed over the run's Ingestors
	contentNs     float64
	contentEvents int
	structuralMs  *samples
	readNs        *samples
	topoNs        *samples
	registerS     float64
	checkpointMs  float64
	replayEPS     float64
}

// tracedTarget replays the stream in process, calling each layer's public
// entry point in the order the server would and timing every call.
type tracedTarget struct {
	st    *stream
	sess  *eagr.Session
	ids   []int
	topo  []bool
	dir   string
	spare *eagr.Graph
	ing   *eagr.Ingestor
	tr    *tracer
	l     *layerStats

	slab []graph.Event // owned by the sender goroutine
	res  eagr.Result   // owned by the reader goroutine
}

// ingestOptions are the options internal/server opens its shared Ingestor
// with; every event here carries its own ts, so the clock is never read.
func ingestOptions() eagr.IngestOptions {
	return eagr.IngestOptions{
		BatchSize:     512,
		FlushInterval: 25 * time.Millisecond,
		QueueDepth:    16,
		Backpressure:  eagr.BackpressureBlock,
		Clock:         eagr.LogicalClock(),
	}
}

func openTraced(tr *tracer, l *layerStats) opener {
	return func(w *workloadDef, st *stream, g, spare *eagr.Graph, dir string) (target, error) {
		t := &tracedTarget{st: st, dir: dir, spare: spare, tr: tr, l: l,
			slab: make([]graph.Event, 0, saturateGroup*st.batch)}
		root := tr.begin("compile.setup", -1, -1)
		sess, ids, err := openSession(w, g, dir, func(d time.Duration) {
			now := tr.p.now()
			tr.add("compile.register", now-d, now, root, -1)
			l.registerS += d.Seconds()
		})
		tr.end(root)
		if err != nil {
			return nil, err
		}
		t.sess, t.ids = sess, ids
		topoNames := eagr.TopoAggregates()
		for _, spec := range w.queries {
			t.topo = append(t.topo, slices.Contains(topoNames, spec.Aggregate))
		}
		if t.ing, err = sess.Ingest(ingestOptions()); err != nil {
			_ = sess.SimulateCrash()
			return nil, err
		}
		return t, nil
	}
}

func (t *tracedTarget) session() *eagr.Session { return t.sess }

func (t *tracedTarget) closeIngestor() {
	t.l.batches += t.ing.Stats().Batches
	_ = t.ing.Close()
}

func (t *tracedTarget) close() {
	t.closeIngestor()
	_ = t.sess.SimulateCrash()
}

// ingest parses the batch's NDJSON lines with the server's own parser,
// then sends and flushes each maximal content or structural run, so apply
// time splits by run kind.
func (t *tracedTarget) ingest(k, hi int) error {
	p := t.tr.p
	root := t.tr.begin("batch", -1, int64(k))
	defer t.tr.end(root)

	s := p.now()
	t.slab = t.slab[:0]
	for body := t.st.body(k, hi); len(body) > 0; {
		i := bytes.IndexByte(body, '\n')
		ev, err := server.ParseIngestLine(body[:i])
		if err != nil {
			return fmt.Errorf("parse batch %d: %w", k, err)
		}
		t.slab = append(t.slab, ev)
		body = body[i+1:]
	}
	e := p.now()
	t.tr.add("server.parse", s, e, root, int64(k))
	t.l.parseNs += float64(e - s)
	t.l.parsed += len(t.slab)

	for i := 0; i < len(t.slab); {
		structural := t.slab[i].IsStructural()
		j := i
		for j < len(t.slab) && t.slab[j].IsStructural() == structural {
			j++
		}
		s := p.now()
		if _, err := t.ing.SendEvents(t.slab[i:j]); err != nil {
			return fmt.Errorf("send batch %d: %w", k, err)
		}
		e := p.now()
		t.tr.add("ingestor.send", s, e, root, int64(k))
		t.l.sendUs.add(us(e - s))
		t.l.queueDepthMax = max(t.l.queueDepthMax, t.ing.Stats().QueueDepth)

		err := t.ing.Flush()
		f := p.now()
		if structural {
			t.tr.add("core.structural_run", e, f, root, int64(k))
			t.l.structuralMs.add(ms(f - e))
		} else {
			t.tr.add("exec.apply_content", e, f, root, int64(k))
			t.l.contentNs += float64(f - e)
			t.l.contentEvents += j - i
		}
		if err != nil {
			return fmt.Errorf("apply batch %d: %w", k, err)
		}
		i = j
	}
	return nil
}

func (t *tracedTarget) read(op readOp) error {
	s := t.tr.p.now()
	err := t.sess.Query(t.ids[op.q]).ReadInto(op.node, &t.res)
	e := t.tr.p.now()
	if t.topo[op.q] {
		t.tr.add("topo.read", s, e, -1, -1)
		t.l.topoNs.add(float64(e - s))
	} else {
		t.tr.add("exec.read", s, e, -1, -1)
		t.l.readNs.add(float64(e - s))
	}
	return err
}

func (t *tracedTarget) answer(q int, v graph.NodeID) (eagr.Result, error) {
	return t.sess.Query(t.ids[q]).Read(v)
}

// watch subscribes to every node of query q and receives its updates on
// one goroutine, as the server's SSE handler does.
func (t *tracedTarget) watch(q int, frame func(ts int64)) (func() int64, error) {
	ch, cancel, err := t.sess.Query(t.ids[q]).Subscribe(watchBuffer)
	if err != nil {
		return nil, err
	}
	var updates int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for u := range ch {
			updates++
			frame(u.TS)
		}
	}()
	return func() int64 {
		cancel()
		wg.Wait()
		return updates
	}, nil
}

// recover closes the Ingestor (every event was already acknowledged),
// abandons the durability layer, reopens the directory, and then times a
// checkpoint of the recovered session.
func (t *tracedTarget) recover() (time.Duration, error) {
	p := t.tr.p
	t.closeIngestor()
	if err := t.sess.SimulateCrash(); err != nil {
		return 0, fmt.Errorf("simulate crash: %w", err)
	}
	s := p.now()
	sess, rec, err := eagr.OpenDurable(t.spare, eagr.DurabilityOptions{Dir: t.dir, Fsync: eagr.FsyncPerBatch}, eagr.Options{Iterations: 6})
	e := p.now()
	if err != nil {
		return 0, fmt.Errorf("recover: %w", err)
	}
	t.tr.add("wal.recover", s, e, -1, -1)
	t.sess = sess
	if rec.Duration > 0 {
		t.l.replayEPS = float64(rec.ReplayedEvents) / rec.Duration.Seconds()
	}
	c := p.now()
	if err := sess.Checkpoint(); err != nil {
		return 0, fmt.Errorf("checkpoint: %w", err)
	}
	d := p.now()
	t.tr.add("wal.checkpoint", c, d, -1, -1)
	t.l.checkpointMs = ms(d - c)
	if t.ing, err = sess.Ingest(ingestOptions()); err != nil {
		return 0, err
	}
	return e - s, nil
}

func (t *tracedTarget) query(i int) *eagr.Query { return t.sess.Query(t.ids[i]) }
