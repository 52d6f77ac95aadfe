package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	eagr "repro"
	"repro/internal/graph"
	"repro/internal/topo"
)

// target is the system under test as the load generator sees it: the
// HTTP server in the untraced run, the in-process layers in the traced
// run. Calls on one target come from at most two goroutines: the sender
// (ingest, recover, answer) and the reader or watch goroutine.
type target interface {
	// ingest sends batches [k, hi) as one request and returns once they
	// are acknowledged (applied).
	ingest(k, hi int) error
	read(op readOp) error
	answer(q int, v graph.NodeID) (eagr.Result, error)
	// watch subscribes to every node of query q and calls frame with the
	// ts of each update on one goroutine; the returned stop ends the
	// subscription, waits for that goroutine and returns the frame count.
	watch(q int, frame func(ts int64)) (stop func() int64, err error)
	// recover abandons the durable session as a crash would and reopens
	// it from its directory, returning the time OpenDurable took.
	recover() (time.Duration, error)
	session() *eagr.Session
	// query returns the workload's i-th registered query.
	query(i int) *eagr.Query
	close()
}

// opener opens a session on g (durable in dir when dir is set), registers
// the workload's queries and returns once the target serves requests.
// spare is a copy of the input graph for recovery to start from.
type opener func(w *workloadDef, st *stream, g, spare *eagr.Graph, dir string) (target, error)

// runStats is everything one run of a workload measured.
type runStats struct {
	setupS      []float64
	heapMB      float64
	cpuUs       float64 // CPU per event over the steady phase
	eps         float64 // saturate throughput, events acknowledged per second
	satSecs     float64
	satN        int
	satSliceEPS []float64

	// ack and late cover the steady phase; read and delivery whichever
	// phase produced them.
	ack, late, read, readLate, delivery *samples

	frames, watchedWrites int64 // SSE frames and the content writes sent while watched
	dropped               int64
	recoverS              float64
	// traced only: one scheduled ego-betweenness tick over the steady churn
	recomputeMs   float64
	recomputeEgos int

	gcCycles, gcPauseMs, allocBytes float64 // steady-phase deltas
	walBytes, walSyncs              float64
	steadyEvents, steadyBatches     int

	partials               int
	sharingIndex, avgDepth float64

	attempted, failed int
	checked           int
	mismatches        int
	notes             []string
}

// driver runs one workload against one target: the open-loop steady
// phase, the probe phase, and the closed-loop saturate phase, with the
// correctness gate after the timed phases.
type driver struct {
	w       *workloadDef
	st      *stream
	seed    int64
	reps    int // setups per run; setup_s is their median
	p       pacer
	tr      *tracer
	workDir string

	tgt  target
	rs   *runStats
	dues []time.Duration // due time of each steady/probe batch
	mu   sync.Mutex      // guards rs.failed and rs.attempted across goroutines
}

func (d *driver) fail(err error) { d.failN(1, err) }

func (d *driver) failN(n int, err error) {
	d.mu.Lock()
	d.rs.failed += n
	if len(d.rs.notes) < 5 {
		d.rs.notes = append(d.rs.notes, err.Error())
	}
	d.mu.Unlock()
}

func (d *driver) attempt(n int) {
	d.mu.Lock()
	d.rs.attempted += n
	d.mu.Unlock()
}

func heapAlloc() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// run executes the whole run and leaves the target closed.
func (d *driver) run(open opener) (*runStats, error) {
	w, st := d.w, d.st
	m := newModel(w, st)
	pairs := checkSample(w, d.seed)
	graphs := make([]*eagr.Graph, d.reps+1)
	for i := range graphs {
		graphs[i] = w.graph()
	}
	watchedWrites := st.steady * (st.batch - w.churn)
	if w.watch < 0 {
		watchedWrites = st.probe * (st.batch - w.churn)
	}
	d.rs = &runStats{
		ack:      newSamples(st.batches()),
		late:     newSamples(st.batches()),
		read:     newSamples(len(st.reads)),
		readLate: newSamples(len(st.reads)),
		delivery: newSamples(min(32*watchedWrites, 1<<21)),
	}
	d.dues = make([]time.Duration, st.steady+st.probe)
	rs := d.rs

	base := heapAlloc()
	var dirs []string
	defer func() {
		for _, dir := range dirs {
			_ = os.RemoveAll(dir)
		}
	}()
	for i := 0; i < d.reps; i++ {
		dir := ""
		if w.durable {
			var err error
			if dir, err = os.MkdirTemp(d.workDir, w.name+"-"); err != nil {
				return nil, err
			}
			dirs = append(dirs, dir)
		}
		t0 := time.Now()
		tgt, err := open(w, st, graphs[i], graphs[d.reps], dir)
		if err != nil {
			return nil, err
		}
		rs.setupS = append(rs.setupS, time.Since(t0).Seconds())
		if i < d.reps-1 {
			tgt.close()
			runtime.GC()
			continue
		}
		d.tgt = tgt
	}
	defer d.tgt.close()
	d.overlayStats()

	// Steady phase: open loop at the offered rate.
	var ms0, ms1 runtime.MemStats
	s := d.p.now()
	runtime.ReadMemStats(&ms0)
	d.tr.add("runtime.memstats", s, d.p.now(), -1, -1)
	wal0 := d.tgt.session().DurabilityStats()
	cpu0 := cpuTime()
	if err := d.phase(0, st.steady, 0, st.steadyReads, w.watch, rs.ack, rs.late); err != nil {
		return nil, err
	}
	cpu := cpuTime() - cpu0
	wal1 := d.tgt.session().DurabilityStats()
	s = d.p.now()
	runtime.ReadMemStats(&ms1)
	d.tr.add("runtime.memstats", s, d.p.now(), -1, -1)
	rs.steadyBatches = st.steady
	rs.steadyEvents = st.steady * st.batch
	rs.cpuUs = us(cpu) / float64(rs.steadyEvents)
	rs.gcCycles = float64(ms1.NumGC - ms0.NumGC)
	rs.gcPauseMs = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6
	rs.allocBytes = float64(ms1.TotalAlloc - ms0.TotalAlloc)
	rs.walBytes = float64(wal1.WALBytes - wal0.WALBytes)
	rs.walSyncs = float64(wal1.WALSyncs - wal0.WALSyncs)
	rs.heapMB = float64(int64(heapAlloc())-int64(base)) / (1 << 20)
	if d.tr != nil && w.recompute >= 0 {
		if err := d.timeRecompute(); err != nil {
			return nil, err
		}
	}

	// Probe phase: the steady rate again, with the second connection in
	// the role the steady phase did not give it.
	probeAck, probeLate := newSamples(st.probe), newSamples(st.probe)
	if err := d.phase(st.steady, st.steady+st.probe, st.steadyReads, len(st.reads), w.probeWatch, probeAck, probeLate); err != nil {
		return nil, err
	}

	sent := (st.steady + st.probe) * st.batch
	if err := d.check(m, pairs, sent); err != nil {
		return nil, err
	}
	if w.durable {
		rec, err := d.tgt.recover()
		if err != nil {
			return nil, err
		}
		rs.recoverS = rec.Seconds()
		if err := d.check(m, pairs, sent); err != nil {
			return nil, err
		}
	}

	// Saturate phase: closed loop, batches back to back.
	lo := st.steady + st.probe
	acked := make([]time.Duration, 0, st.saturate/saturateGroup)
	t0 := d.p.now()
	k := lo
	ok := 0
	for ; k < st.batches() && d.p.now()-t0 < st.saturateFor; k += saturateGroup {
		s := d.p.now()
		d.attempt(1)
		if err := d.tgt.ingest(k, k+saturateGroup); err != nil {
			d.fail(err)
		} else {
			ok++
		}
		e := d.p.now()
		acked = append(acked, e-t0)
		d.tr.add("loadgen.saturate", s, e, -1, int64(k))
	}
	rs.satN = k - lo
	rs.satSecs = (d.p.now() - t0).Seconds()
	rs.eps = float64(ok*saturateGroup*st.batch) / rs.satSecs
	rs.satSliceEPS = sliceRates(acked, saturateGroup*st.batch)
	return rs, d.check(m, pairs, k*st.batch)
}

// rateSlices is the number of consecutive slices the saturate phase's
// requests are split into for the run metadata.
const rateSlices = 10

// sliceRates gives the events-per-second of each of up to rateSlices
// consecutive slices of a closed loop's requests, given each request's
// ack time and the events per request. They show how steady the phase
// ran; ingest_eps is the rate over the whole phase.
func sliceRates(acked []time.Duration, batch int) []float64 {
	n := len(acked)
	parts := min(rateSlices, n)
	rates := make([]float64, 0, parts)
	prev := time.Duration(0)
	for c := 0; c < parts; c++ {
		lo, hi := c*n/parts, (c+1)*n/parts
		end := acked[hi-1]
		rates = append(rates, float64((hi-lo)*batch)/(end-prev).Seconds())
		prev = end
	}
	return rates
}

// timeRecompute times one scheduled recompute tick of a windowed
// ego-betweenness view over the steady phase's churn. The session's own
// ego-betweenness query is exact-on-read, so the tick runs on a topo
// engine of its own: it mirrors the input graph, takes the steady phase's
// edge events through the structural-listener hook (which marks the egos
// each change dirties), and then one WatermarkAdvanced recomputes every
// dirty ego, as the session's tick would.
func (d *driver) timeRecompute() error {
	st := d.st
	spec, err := topo.Parse(d.w.queries[d.w.recompute].Aggregate)
	if err != nil {
		return err
	}
	eng := topo.NewEngine(d.w.graph())
	end := int64(st.steady * st.batch)
	vw, err := eng.Acquire(spec, end)
	if err != nil {
		return err
	}
	defer vw.Release()
	eng.WatermarkAdvanced(0) // arms the schedule; nothing is dirty yet
	for _, ev := range st.events[:end] {
		switch ev.Kind {
		case graph.EdgeAdd:
			eng.EdgeAdded(ev.Node, ev.Peer, ev.TS)
		case graph.EdgeRemove:
			eng.EdgeRemoved(ev.Node, ev.Peer, ev.TS)
		}
	}
	d.rs.recomputeEgos = vw.Dirty()
	s := d.p.now()
	eng.WatermarkAdvanced(end)
	e := d.p.now()
	if vw.Ticks() != 2 || vw.Dirty() != 0 {
		return fmt.Errorf("ego-betweenness tick: %d ticks, %d egos still dirty", vw.Ticks(), vw.Dirty())
	}
	d.tr.add("topo.ebc_tick", s, e, -1, -1)
	d.rs.recomputeMs = ms(e - s)
	return nil
}

// overlayStats records the compiled overlays of the numeric queries.
func (d *driver) overlayStats() {
	n := 0
	for _, q := range d.tgt.session().Queries() {
		s := q.Stats()
		d.rs.partials += s.Partials
		if s.Algorithm == "incremental" || s.Algorithm == "windowed-recompute" {
			continue
		}
		d.rs.sharingIndex += s.SharingIndex
		d.rs.avgDepth += s.AvgDepth
		n++
	}
	if n > 0 {
		d.rs.sharingIndex /= float64(n)
		d.rs.avgDepth /= float64(n)
	}
}

// check folds the first sent events into the model and compares the
// sampled answers.
func (d *driver) check(m *model, pairs []checkPair, sent int) error {
	if err := m.advance(sent); err != nil {
		return err
	}
	bad, notes := check(m, pairs, d.tgt.answer)
	d.rs.checked += len(pairs)
	d.rs.mismatches += bad
	d.rs.notes = append(d.rs.notes, notes...)
	return nil
}

// phase sends batches [lo, hi) on the sender's tick, one every w.tick,
// while the second goroutine either reads reads[rlo:rhi] on their own
// schedule or, when watch >= 0, holds a subscription to that query.
func (d *driver) phase(lo, hi, rlo, rhi, watch int, ack, late *samples) error {
	w, st, rs := d.w, d.st, d.rs
	// Leave time for the watch handshake before the first batch is due.
	start := d.p.now() + 50*time.Millisecond
	for k := lo; k < hi; k++ {
		d.dues[k] = start + time.Duration(k-lo)*w.tick
	}
	var stop func() int64
	var droppedBefore int64
	var wg sync.WaitGroup
	if watch >= 0 {
		droppedBefore = d.tgt.query(watch).Stats().DroppedUpdates
		lastK := -1
		var err error
		stop, err = d.tgt.watch(watch, func(ts int64) {
			k := st.batchOf(ts)
			if ts <= 0 || k < lo || k >= hi {
				return
			}
			now := d.p.now()
			rs.delivery.add(ms(now - d.dues[k]))
			if k != lastK {
				// One span per batch: its first update to arrive.
				d.tr.add("notify.recv", d.dues[k], now, -1, int64(k))
				lastK = k
			}
		})
		if err != nil {
			return fmt.Errorf("watch: %w", err)
		}
		rs.watchedWrites += int64((hi - lo) * (st.batch - w.churn))
	} else if rhi > rlo {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d.readLoop(start, rlo, rhi)
		}()
	}

	sl, err := newSleeper()
	if err != nil {
		return err
	}
	defer sl.close()
	for k := lo; k < hi; k++ {
		lateBy := sl.until(d.p, d.dues[k])
		late.add(ms(lateBy))
		d.attempt(1)
		if err := d.tgt.ingest(k, k+1); err != nil {
			d.fail(err)
		}
		done := d.p.now()
		ack.add(ms(done - d.dues[k]))
		d.tr.add("loadgen.batch", d.dues[k], done, -1, int64(k))
	}
	wg.Wait()
	if stop != nil {
		// Let the last batches' updates arrive before closing the watch.
		time.Sleep(200 * time.Millisecond)
		frames := stop()
		rs.frames += frames
		dropped := d.tgt.query(watch).Stats().DroppedUpdates - droppedBefore
		rs.dropped += dropped
		d.attempt(int(frames + dropped))
		if dropped > 0 {
			d.failN(int(dropped), fmt.Errorf("%d SSE updates dropped", dropped))
		}
	}
	return nil
}

// readLoop issues reads[lo:hi], read i due at start + (i-lo)·readPeriod,
// timing each from its due time.
func (d *driver) readLoop(start time.Duration, lo, hi int) {
	sl, err := newSleeper()
	if err != nil {
		d.fail(err)
		return
	}
	defer sl.close()
	st, rs := d.st, d.rs
	for i := lo; i < hi; i++ {
		due := start + time.Duration(i-lo)*st.readPeriod
		rs.readLate.add(ms(sl.until(d.p, due)))
		d.attempt(1)
		if err := d.tgt.read(st.reads[i]); err != nil {
			d.fail(err)
		}
		now := d.p.now()
		rs.read.add(us(now - due))
		d.tr.add("loadgen.read", due, now, -1, int64(i))
	}
}

// tempRoot is where durable sessions put their WAL: inside the checkout,
// next to the build output.
func tempRoot() (string, error) {
	dir := filepath.Join(".bench_build", "tmp")
	return dir, os.MkdirAll(dir, 0o755)
}
