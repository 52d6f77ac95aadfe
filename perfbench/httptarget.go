package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	eagr "repro"
	"repro/internal/graph"
	"repro/internal/server"
)

// httpTarget serves the real internal/server handler on loopback HTTP
// and drives it over two client connections: one for /ingest, one for
// reads or the SSE watch.
type httpTarget struct {
	st    *stream
	sess  *eagr.Session
	ids   []int // query index → server query id
	dir   string
	spare *eagr.Graph // handed to OpenDurable on recovery (ignored there)

	api    *server.Server
	srv    *http.Server
	served chan error
	base   string

	ingestC, otherC *http.Client
}

func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}
}

// openHTTP opens the session the way eagr-serve does, registers the
// workload's queries and serves them; it returns once the server has
// answered its first request.
func openHTTP(w *workloadDef, st *stream, g, spare *eagr.Graph, dir string) (target, error) {
	sess, ids, err := openSession(w, g, dir, nil)
	if err != nil {
		return nil, err
	}
	h := &httpTarget{st: st, sess: sess, ids: ids, dir: dir, spare: spare,
		ingestC: newClient(), otherC: newClient()}
	if err := h.serve(); err != nil {
		_ = sess.SimulateCrash()
		return nil, err
	}
	return h, nil
}

// openSession opens a session with eagr-serve's options (Iterations 6,
// automatic algorithm, no autotune) — durable with per-batch fsync and no
// background checkpoints when dir is set — and registers every query,
// reporting each registration's duration to onRegister when non-nil.
func openSession(w *workloadDef, g *eagr.Graph, dir string, onRegister func(time.Duration)) (*eagr.Session, []int, error) {
	opts := eagr.Options{Iterations: 6}
	var sess *eagr.Session
	var err error
	if dir != "" {
		sess, _, err = eagr.OpenDurable(g, eagr.DurabilityOptions{Dir: dir, Fsync: eagr.FsyncPerBatch}, opts)
	} else {
		sess, err = eagr.Open(g, opts)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("open session: %w", err)
	}
	ids := make([]int, len(w.queries))
	for i, spec := range w.queries {
		t0 := time.Now()
		q, err := sess.Register(spec)
		if err != nil {
			_ = sess.SimulateCrash()
			return nil, nil, fmt.Errorf("register %s: %w", spec.Aggregate, err)
		}
		if onRegister != nil {
			onRegister(time.Since(t0))
		}
		ids[i] = q.ID()
	}
	return sess, ids, nil
}

func (h *httpTarget) serve() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	h.api = server.New(h.sess)
	h.srv = &http.Server{Handler: h.api}
	h.srv.RegisterOnShutdown(h.api.CloseWatchers)
	h.served = make(chan error, 1)
	go func() { h.served <- h.srv.Serve(ln) }()
	h.base = "http://" + ln.Addr().String()
	resp, err := h.ingestC.Get(h.base + "/healthz")
	if err != nil {
		h.shutdown()
		return fmt.Errorf("first request: %w", err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		h.shutdown()
		return fmt.Errorf("first request: status %d", resp.StatusCode)
	}
	return nil
}

// shutdown stops the HTTP server, flushes and closes its Ingestor, and
// waits for the serve goroutine to end.
func (h *httpTarget) shutdown() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = h.srv.Shutdown(ctx)
	h.api.Close()
	<-h.served
	h.ingestC.CloseIdleConnections()
	h.otherC.CloseIdleConnections()
}

func (h *httpTarget) session() *eagr.Session { return h.sess }

func (h *httpTarget) close() {
	h.shutdown()
	_ = h.sess.SimulateCrash() // releases the WAL; a no-op in memory
}

// ingestAck is the /ingest response body.
type ingestAck struct {
	Accepted    int    `json:"accepted"`
	ApplyErrors string `json:"applyErrors"`
	Error       string `json:"error"`
}

func (h *httpTarget) ingest(k, hi int) error {
	resp, err := h.ingestC.Post(h.base+"/ingest", "application/x-ndjson", bytes.NewReader(h.st.body(k, hi)))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("ingest batch %d: status %d: %s", k, resp.StatusCode, body)
	}
	var ack ingestAck
	if err := json.Unmarshal(body, &ack); err != nil {
		return fmt.Errorf("ingest batch %d: %w", k, err)
	}
	if ack.Accepted != (hi-k)*h.st.batch || ack.ApplyErrors != "" || ack.Error != "" {
		return fmt.Errorf("ingest batch %d: %s", k, body)
	}
	return nil
}

func (h *httpTarget) get(q int, v graph.NodeID) ([]byte, error) {
	url := h.base + "/queries/" + strconv.Itoa(h.ids[q]) + "/read?node=" + strconv.Itoa(int(v))
	resp, err := h.otherC.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("read: status %d: %s", resp.StatusCode, body)
	}
	return body, nil
}

func (h *httpTarget) read(op readOp) error {
	_, err := h.get(op.q, op.node)
	return err
}

func (h *httpTarget) answer(q int, v graph.NodeID) (eagr.Result, error) {
	body, err := h.get(q, v)
	if err != nil {
		return eagr.Result{}, err
	}
	var r struct {
		Valid  bool    `json:"valid"`
		Scalar int64   `json:"scalar"`
		List   []int64 `json:"list"`
	}
	if err := json.Unmarshal(body, &r); err != nil {
		return eagr.Result{}, err
	}
	return eagr.Result{Valid: r.Valid, Scalar: r.Scalar, List: r.List}, nil
}

// watchBuffer is the per-watcher buffer requested from the server, its
// maximum: alerts-sse fans a write out to ~15 frames, and a drop counts
// as a failed operation.
const watchBuffer = 1 << 16

// watch holds GET /queries/{id}/watch for every node on the second
// connection and calls frame with the ts of each SSE frame, on the
// stream's own goroutine. It returns once the server has subscribed.
func (h *httpTarget) watch(q int, frame func(ts int64)) (func() int64, error) {
	ctx, cancel := context.WithCancel(context.Background())
	url := fmt.Sprintf("%s/queries/%d/watch?buffer=%d", h.base, h.ids[q], watchBuffer)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		cancel()
		return nil, err
	}
	resp, err := h.otherC.Do(req)
	if err != nil {
		cancel()
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("watch: status %d", resp.StatusCode)
	}
	var frames int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer resp.Body.Close()
		br := bufio.NewReaderSize(resp.Body, 64<<10)
		for {
			line, err := br.ReadSlice('\n')
			if err != nil {
				if !errors.Is(err, bufio.ErrBufferFull) {
					return
				}
				continue
			}
			if ts, ok := frameTS(line); ok {
				frames++
				frame(ts)
			}
		}
	}()
	return func() int64 {
		cancel()
		wg.Wait()
		return frames
	}, nil
}

// frameTS extracts "ts" from one `data: {...}` SSE line without a full
// JSON decode, keeping the client's CPU share small.
func frameTS(line []byte) (int64, bool) {
	if !bytes.HasPrefix(line, []byte("data: ")) {
		return 0, false
	}
	i := bytes.Index(line, []byte(`"ts":`))
	if i < 0 {
		return 0, true
	}
	var ts int64
	for _, c := range line[i+5:] {
		if c < '0' || c > '9' {
			break
		}
		ts = ts*10 + int64(c-'0')
	}
	return ts, true
}

// recover shuts the server down, abandons the durability layer as a kill
// would (no final checkpoint), times OpenDurable on the same directory,
// and serves the recovered session.
func (h *httpTarget) recover() (time.Duration, error) {
	h.shutdown()
	if err := h.sess.SimulateCrash(); err != nil {
		return 0, fmt.Errorf("simulate crash: %w", err)
	}
	t0 := time.Now()
	sess, _, err := eagr.OpenDurable(h.spare, eagr.DurabilityOptions{Dir: h.dir, Fsync: eagr.FsyncPerBatch}, eagr.Options{Iterations: 6})
	d := time.Since(t0)
	if err != nil {
		return 0, fmt.Errorf("recover: %w", err)
	}
	h.sess = sess
	return d, h.serve()
}

func (h *httpTarget) query(i int) *eagr.Query { return h.sess.Query(h.ids[i]) }
