package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"
)

// Surfaces classify requests for latency reporting. Every surface but
// batch and refresh is a read.
const (
	sV1 = iota
	sCursor
	sSearch
	sAutocomplete
	sRecommend
	sTagcloud
	sViz
	sSQL
	sSPARQL
	sCombined
	sBatch
	sRefresh
	nSurfaces
)

var surfaceNames = [nSurfaces]string{"v1", "cursor", "search", "autocomplete",
	"recommend", "tagcloud", "viz", "sql", "sparql", "combined", "batch", "refresh"}

func isRead(s int) bool { return s != sBatch && s != sRefresh }

// request is one HTTP request of a workload mix together with what the
// benchmark needs to verify and attribute it.
type request struct {
	surface int
	method  string
	target  string
	body    []byte
	// check verifies a response body against a direct call into the
	// layers (read-only workloads) or structurally (ingest).
	check func(body []byte) error
	// replay re-issues the request's public layer calls as child spans of
	// the server span, so the server's own share can be derived.
	replay func(t *tracer, parent int32)
	// examined and returned are explain-derived work counts for this
	// request: rows or candidates the executor examined, and rows it
	// returned.
	examined, returned int
	// want is the verified response body; later responses to the same
	// request on a read-only system must equal it byte for byte.
	want []byte
	// baseline names a request the ROADMAP measured alone; traced runs
	// time it alone too.
	baseline string
}

// responseWriter is a reusable http.ResponseWriter: one per client, so
// the client side of the loop allocates next to nothing.
type responseWriter struct {
	header http.Header
	body   bytes.Buffer
	code   int
}

func newResponseWriter() *responseWriter {
	return &responseWriter{header: make(http.Header)}
}

func (w *responseWriter) Header() http.Header { return w.header }

func (w *responseWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}

func (w *responseWriter) Write(p []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.body.Write(p)
}

func (w *responseWriter) reset() {
	clear(w.header)
	w.body.Reset()
	w.code = 0
}

// client issues requests to the handler in a closed loop and records what
// happened. One client belongs to one goroutine.
type client struct {
	srv http.Handler
	w   *responseWriter
	rec *recorder
	tr  *tracer // nil when tracing is off
}

func newClient(srv http.Handler) *client {
	return &client{srv: srv, w: newResponseWriter(), rec: &recorder{}}
}

// do serves one request and returns the response status and body (valid
// until the next call) and the ServeHTTP latency. The request object is
// built before the clock starts.
func (c *client) do(rq *request) (int, []byte, time.Duration) {
	r := httptest.NewRequest(rq.method, rq.target, bytes.NewReader(rq.body))
	c.w.reset()
	var root int32 = -1
	if c.tr != nil {
		c.tr.req++
		root = c.tr.begin("server.ServeHTTP", -1)
	}
	start := time.Now()
	c.srv.ServeHTTP(c.w, r)
	lat := time.Since(start)
	if c.tr != nil {
		c.tr.end(root)
		if rq.replay != nil {
			rq.replay(c.tr, root)
		}
	}
	return c.w.code, c.w.body.Bytes(), lat
}

// run serves a request, verifies the response and records the outcome.
func (c *client) run(rq *request) {
	code, body, lat := c.do(rq)
	var err error
	switch {
	case code != http.StatusOK:
		err = fmt.Errorf("status %d: %.200s", code, body)
	case rq.want != nil:
		if !bytes.Equal(body, rq.want) {
			err = fmt.Errorf("response differs from the verified response (%d vs %d bytes)", len(body), len(rq.want))
		}
	case rq.check != nil:
		err = rq.check(body)
	}
	c.rec.add(rq, lat, len(body), err)
	if c.tr != nil {
		c.rec.examined[rq.surface] += int64(rq.examined)
		c.rec.returned[rq.surface] += int64(rq.returned)
	}
}

// recorder accumulates one client's outcomes.
type recorder struct {
	lat       [nSurfaces][]int64
	attempted int
	failed    int
	respBytes int64
	// examined and returned sum, per surface, the explain-derived rows
	// the executor examined and the rows it returned (traced phases).
	examined [nSurfaces]int64
	returned [nSurfaces]int64
}

func (r *recorder) add(rq *request, lat time.Duration, n int, err error) {
	r.attempted++
	r.lat[rq.surface] = append(r.lat[rq.surface], int64(lat))
	r.respBytes += int64(n)
	if err != nil {
		r.fail("%s %s: %v", rq.method, rq.target, err)
	}
}

// note records one check made outside the closed loop.
func (c *client) note(what string, err error) {
	c.rec.attempted++
	if err != nil {
		c.rec.fail("%s: %v", what, err)
	}
}

// failMu serializes failure reports; failures are rare and go to stderr.
var failMu sync.Mutex

func (r *recorder) fail(format string, args ...any) {
	r.failed++
	failMu.Lock()
	defer failMu.Unlock()
	if r.failed <= 5 {
		fmt.Fprintf(os.Stderr, "check failed: "+format+"\n", args...)
	}
}

// merge folds other into r.
func (r *recorder) merge(other *recorder) {
	for s := range r.lat {
		r.lat[s] = append(r.lat[s], other.lat[s]...)
	}
	r.attempted += other.attempted
	r.failed += other.failed
	r.respBytes += other.respBytes
	for s := range r.examined {
		r.examined[s] += other.examined[s]
		r.returned[s] += other.returned[s]
	}
}

// ops counts the requests that completed.
func (r *recorder) ops() int {
	n := 0
	for _, l := range r.lat {
		n += len(l)
	}
	return n
}

// latencies returns the sorted latencies of the surfaces sel accepts.
func (r *recorder) latencies(sel func(int) bool) []int64 {
	var out []int64
	for s, l := range r.lat {
		if sel(s) {
			out = append(out, l...)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// percentileMs is the nearest-rank percentile of sorted nanosecond
// latencies, in milliseconds (0 when there are none).
func percentileMs(sorted []int64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return float64(sorted[i]) / 1e6
}

// worker is one closed-loop client body: it runs requests until the
// deadline passes.
type worker func(c *client, deadline time.Time)

// deckWorker cycles through a deck of requests in an order shuffled anew
// on every pass, so each pass sends every request exactly once and the
// mix proportions are the deck's whatever the run length.
func deckWorker(deck []*request, rng *rand.Rand) worker {
	order := make([]int, len(deck))
	for i := range order {
		order[i] = i
	}
	next := len(order)
	return func(c *client, deadline time.Time) {
		for time.Now().Before(deadline) {
			if next == len(order) {
				rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
				next = 0
			}
			c.run(deck[order[next]])
			next++
		}
	}
}

// phase is the outcome of one timed closed-loop phase.
type phase struct {
	rec        recorder
	elapsed    time.Duration
	allocBytes uint64
	gcCycles   uint32
	spans      [][]span // per client, when traced
}

// runPhase runs every worker on its own client concurrently for dur and
// waits for all of them to finish their last request.
func runPhase(workers []worker, clients []*client, dur time.Duration, traced bool) *phase {
	for _, c := range clients {
		c.rec = &recorder{}
		c.tr = nil
		if traced {
			c.tr = newTracer()
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for i, w := range workers {
		wg.Add(1)
		go func(w worker, c *client) {
			defer wg.Done()
			w(c, deadline)
		}(w, clients[i])
	}
	wg.Wait()
	p := &phase{elapsed: time.Since(start)}
	runtime.ReadMemStats(&after)
	p.allocBytes = after.TotalAlloc - before.TotalAlloc
	p.gcCycles = after.NumGC - before.NumGC
	for _, c := range clients {
		p.rec.merge(c.rec)
		if c.tr != nil {
			p.spans = append(p.spans, c.tr.spans)
			c.tr = nil
		}
	}
	return p
}

func (p *phase) throughput() float64 {
	return float64(p.rec.ops()) / p.elapsed.Seconds()
}
