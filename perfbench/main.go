// Command perfbench is the repository's benchmark. It builds the seeded
// internal/workload corpus, drives a named workload in process through
// server.ServeHTTP from closed-loop clients, verifies every response
// against a direct call into the layers, and prints every metric by name
// with its unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the run
// is split into an untraced half and a traced half, and the metrics are the
// per-layer ones. See README.md for the workloads and metrics.
//
// Usage:
//
//	perfbench -workload explore|structured|ingest|all -seed 1 -seconds 10 -trace 0
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	sensormeta "repro"
	"repro/internal/relational"
	"repro/internal/server"
)

// setupReps is how many times a run sets the system up; setup_s is the
// median.
const setupReps = 7

// clients is the number of closed-loop clients on every workload.
const clients = 2

type metricDef struct{ name, unit string }

// endToEnd lists the metrics a user of the system sees, reported with
// -trace 0 on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"heap_mb", "MB"},
	{"throughput_ops", "1/s"},
	{"read_p50_ms", "ms"},
	{"read_p90_ms", "ms"},
}

// perLayer lists the metrics of single layers and surfaces, reported
// with -trace 1. A metric whose layer the workload does not exercise
// reads 0.
var perLayer = []metricDef{
	{"sql_p50_ms", "ms"},
	{"sparql_p50_ms", "ms"},
	{"combined_p50_ms", "ms"},
	{"write_p50_ms", "ms"},
	{"write_p90_ms", "ms"},
	{"refresh_p50_ms", "ms"},
	{"wal_bytes_per_user_byte", "ratio"},
	{"error_rate", "ratio"},
	{"server.self_ms", "ms"},
	{"server.response_bytes", "bytes"},
	{"server.allocs_per_req", "count"},
	{"query.unmarshal_us", "us"},
	{"search.execute_ms", "ms"},
	{"search.examined_per_result", "ratio"},
	{"search.snippet_us", "us"},
	{"search.autocomplete_us", "us"},
	{"search.shards", "count"},
	{"recommend.recommend_us", "us"},
	{"tagging.cloud_ms", "ms"},
	{"tagging.cache_hit_ratio", "ratio"},
	{"viz.chart_ms", "ms"},
	{"relational.query_ms", "ms"},
	{"relational.examined_per_row", "ratio"},
	{"relational.index_scan_ratio", "ratio"},
	{"relational.estimate_error_p90", "ratio"},
	{"sparql.parse_us", "us"},
	{"sparql.eval_ms", "ms"},
	{"sparql.allocs_per_query", "count"},
	{"core.execute_ms", "ms"},
	{"core.examined_per_row", "ratio"},
	{"smr.put_batch_ms", "ms"},
	{"wal.syncs_per_batch", "ratio"},
	{"wal.mean_group", "count"},
	{"wal.bytes_per_record", "bytes"},
	{"wal.auto_snapshots", "count"},
	{"sensormeta.refresh_ms", "ms"},
	{"search.pages_applied_per_refresh", "count"},
	{"pagerank.skip_ratio", "ratio"},
	{"recommend.delta_pages", "count"},
	{"tagging.full_rebuilds", "count"},
	{"runtime.alloc_bytes_per_op", "bytes"},
	{"runtime.gc_cycles_per_kop", "count"},
	{"trace.overhead_ratio", "ratio"},
}

var workloads = []string{"explore", "structured", "ingest"}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	work     string // directory for data directories and span files
}

// env is a workload set up and ready to serve.
type env struct {
	sys      *sensormeta.System
	srv      http.Handler
	setup    []float64 // seconds per set-up repetition
	sc       *client   // set-up client: deck building and verification
	deck     []*request
	readOnly bool
	workers  []worker
	facts    [][2]string
	// probes build the other workloads' read decks, for the layers this
	// workload's own traffic does not reach.
	probes []deckBuilder
	// userBytes counts the page-text bytes the ingest writer submitted.
	userBytes int64
	// finish runs the workload's closing checks and releases its
	// resources.
	finish func(rec *recorder) error
}

// result is what one run reports.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "explore", "workload: "+strings.Join(workloads, ", ")+" or all")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the generated requests")
	flag.Float64Var(&o.seconds, "seconds", 10, "measured seconds")
	traceFlag := flag.Int("trace", 0, "1 runs the traced per-layer measurement")
	flag.StringVar(&o.work, "work", filepath.Join(".bench_build", "perfbench"), "directory for data directories and span files")
	flag.Parse()
	o.trace = *traceFlag == 1
	if o.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive")
		os.Exit(2)
	}
	names := []string{o.workload}
	if o.workload == "all" {
		names = workloads
	}
	total := result{Correct: true, Metrics: map[string]metric{}}
	for _, name := range names {
		wo := o
		wo.workload = name
		res, err := run(wo)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
			os.Exit(1)
		}
		total.Correct = total.Correct && res.Correct
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		for k, v := range res.Metrics {
			if len(names) > 1 {
				k = name + "." + k
			}
			total.Metrics[k] = v
		}
		if len(names) > 1 {
			printJSON(res)
		}
	}
	printJSON(&total)
}

func printJSON(r *result) {
	raw, err := json.Marshal(r)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(raw))
}

// setUp builds the named workload's system setupReps times, timing each,
// and keeps the last.
func setUp(o options) (*env, error) {
	switch o.workload {
	case "explore":
		return setUpReadOnly(o, exploreDeck, structuredDeck)
	case "structured":
		return setUpReadOnly(o, structuredDeck, exploreDeck)
	case "ingest":
		return setUpIngest(o)
	}
	return nil, fmt.Errorf("unknown workload %q (want %s or all)", o.workload, strings.Join(workloads, ", "))
}

// deckBuilder builds one pass of a read mix on a system; c runs the
// checks that need more than one request.
type deckBuilder func(c *client, sys *sensormeta.System, rng *rand.Rand) ([]*request, error)

func setUpReadOnly(o options, deckFor, probe deckBuilder) (*env, error) {
	e := &env{readOnly: true, probes: []deckBuilder{probe}}
	for i := 0; i < setupReps; i++ {
		e.sys, e.srv = nil, nil
		runtime.GC()
		start := time.Now()
		sys, err := buildSystem()
		if err != nil {
			return nil, err
		}
		e.sys, e.srv = sys, server.New(sys)
		e.setup = append(e.setup, time.Since(start).Seconds())
	}
	e.sc = newClient(e.srv)
	rng := rand.New(rand.NewSource(o.seed))
	deck, err := deckFor(e.sc, e.sys, rng)
	if err != nil {
		return nil, err
	}
	e.deck = deck
	for i := 0; i < clients; i++ {
		e.workers = append(e.workers, deckWorker(deck, rand.New(rand.NewSource(rng.Int63()))))
	}
	e.facts = [][2]string{{"fsync", "n/a (in-memory system, no WAL)"}, {"group_commit", "n/a"}}
	e.finish = func(*recorder) error { return nil }
	return e, nil
}

func setUpIngest(o options) (*env, error) {
	dir, err := filepath.Abs(filepath.Join(o.work, fmt.Sprintf("ingest-%d", os.Getpid())))
	if err != nil {
		return nil, err
	}
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	g, err := prepareIngest(dir, o.seed)
	if err != nil {
		return nil, fmt.Errorf("preparing %s: %w", dir, err)
	}
	e := &env{}
	for i := 0; i < setupReps; i++ {
		if e.sys != nil {
			if err := e.sys.Close(); err != nil {
				return nil, err
			}
		}
		e.sys, e.srv = nil, nil
		runtime.GC()
		start := time.Now()
		sys, err := sensormeta.Open(dir, serverDurable())
		if err != nil {
			return nil, err
		}
		e.sys, e.srv = sys, server.New(sys)
		e.setup = append(e.setup, time.Since(start).Seconds())
	}
	e.sc = newClient(e.srv)
	rng := rand.New(rand.NewSource(o.seed))
	deck, err := ingestReads(e.sys, rng)
	if err != nil {
		return nil, err
	}
	e.deck = deck
	e.probes = []deckBuilder{exploreDeck, structuredDeck}
	e.workers = []worker{ingestWriter(e.sys, g, &e.userBytes), deckWorker(deck, rand.New(rand.NewSource(rng.Int63())))}
	opts := serverDurable()
	e.facts = [][2]string{{"fsync", opts.Fsync.String()}, {"group_commit", fmt.Sprint(!opts.DisableGroupCommit)},
		{"auto_snapshot_bytes", fmt.Sprint(opts.AutoSnapshotBytes)}, {"batch_rows", fmt.Sprint(batchRows)},
		{"title_pool", fmt.Sprint(poolSize)}, {"relink_batch_pct", fmt.Sprint(relinkPct)}}
	e.finish = func(rec *recorder) error {
		if err := e.sys.Close(); err != nil {
			return err
		}
		if err := checkDurable(dir, g, rec); err != nil {
			return err
		}
		return os.RemoveAll(dir)
	}
	return e, nil
}

// verifyDeck checks every deck request once against a direct call and,
// on a read-only system, keeps the verified body that every later
// response must equal.
func (e *env) verifyDeck() {
	for _, rq := range e.deck {
		code, body, _ := e.sc.do(rq)
		var err error
		switch {
		case code != http.StatusOK:
			err = fmt.Errorf("status %d: %.200s", code, body)
		case rq.check != nil:
			err = rq.check(body)
		}
		e.sc.note(rq.method+" "+rq.target, err)
		if err != nil || !e.readOnly {
			continue
		}
		first := bytes.Clone(body)
		_, again, _ := e.sc.do(rq)
		if !bytes.Equal(first, again) {
			e.sc.note(rq.method+" "+rq.target, fmt.Errorf("two responses on an unchanged system differ"))
		}
		rq.want = first
	}
}

// counters snapshots the system's own activity counters.
type counters struct {
	st sensormeta.RefreshStats
	pl relational.PlannerStats
}

func snapCounters(sys *sensormeta.System) counters {
	return counters{sys.Stats(), sys.PlannerStats()}
}

func run(o options) (*result, error) {
	e, err := setUp(o)
	if err != nil {
		return nil, err
	}
	e.verifyDeck()
	total := &recorder{}
	cs := make([]*client, len(e.workers))
	for i := range cs {
		cs[i] = newClient(e.srv)
	}
	dur := time.Duration(o.seconds * float64(time.Second))
	warm := min(max(dur/10, 200*time.Millisecond), time.Second)
	total.merge(&runPhase(e.workers, cs, warm, false).rec)

	metrics := map[string]float64{}
	var untraced *phase
	if !o.trace {
		// Medians over windows damp bursts of interference from outside the
		// process.
		const windows = 10
		var tp, p50, p90 []float64
		untraced = &phase{}
		for i := 0; i < windows; i++ {
			w := runPhase(e.workers, cs, dur/windows, false)
			reads := w.rec.latencies(isRead)
			tp = append(tp, w.throughput())
			p50 = append(p50, percentileMs(reads, 0.50))
			p90 = append(p90, percentileMs(reads, 0.90))
			fmt.Printf("window %d throughput=%.1f p50=%.4f p90=%.4f\n", i, tp[i], p50[i], p90[i])
			untraced.rec.merge(&w.rec)
			untraced.elapsed += w.elapsed
		}
		total.merge(&untraced.rec)
		metrics["setup_s"] = median(e.setup)
		metrics["throughput_ops"] = median(tp)
		metrics["read_p50_ms"] = median(p50)
		metrics["read_p90_ms"] = median(p90)
	} else {
		before, bytesBefore := snapCounters(e.sys), e.userBytes
		untraced = runPhase(e.workers, cs, dur/2, false)
		after, userBytes := snapCounters(e.sys), e.userBytes-bytesBefore
		traced := runPhase(e.workers, cs, dur/2, true)
		metrics["server.allocs_per_req"], metrics["sparql.allocs_per_query"] = calibrateAllocs(e)
		printBaselines(e)
		probe, err := e.probeLayers(o.seed)
		if err != nil {
			return nil, err
		}
		for _, p := range []*phase{untraced, traced, probe} {
			total.merge(&p.rec)
		}
		if err := writeSpans(filepath.Join(o.work, "trace", o.workload+".jsonl"), append(traced.spans, probe.spans...)); err != nil {
			return nil, err
		}
		layerMetrics(metrics, e, untraced, traced, probe, before, after, userBytes)
	}
	printRun(o, e, untraced)

	if !o.trace {
		// Live heap with the benchmark's own state released: only the
		// system and its server stay reachable.
		for _, rq := range e.deck {
			rq.want = nil
		}
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		metrics["heap_mb"] = float64(ms.HeapAlloc) / (1 << 20)
	}

	if err := e.finish(total); err != nil {
		return nil, err
	}
	total.merge(e.sc.rec)
	if o.trace {
		metrics["error_rate"] = div(float64(total.failed), float64(total.attempted))
	}
	res := &result{Correct: total.failed == 0, Attempted: total.attempted, Failed: total.failed,
		Metrics: map[string]metric{}}
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	for _, d := range defs {
		res.Metrics[d.name] = metric{Value: metrics[d.name], Unit: d.unit}
		fmt.Printf("metric %-34s %14.6g %s\n", d.name, metrics[d.name], d.unit)
	}
	fmt.Printf("checks attempted=%d failed=%d error_rate=%g\n", total.attempted, total.failed,
		div(float64(total.failed), float64(total.attempted)))
	return res, nil
}

// layerMetrics derives the per-layer metrics from the untraced half (its
// counters and latencies) and the traced half (its spans). Where the
// workload's own traffic never reached a layer or surface, the probe's
// figures stand in.
func layerMetrics(m map[string]float64, e *env, u, t, probe *phase, before, after counters, userBytes int64) {
	latencies := func(s int) []int64 {
		only := func(x int) bool { return x == s }
		if l := u.rec.latencies(only); len(l) > 0 {
			return l
		}
		return probe.rec.latencies(only)
	}
	m["sql_p50_ms"] = percentileMs(latencies(sSQL), 0.5)
	m["sparql_p50_ms"] = percentileMs(latencies(sSPARQL), 0.5)
	m["combined_p50_ms"] = percentileMs(latencies(sCombined), 0.5)
	m["refresh_p50_ms"] = percentileMs(latencies(sRefresh), 0.5)
	writes := latencies(sBatch)
	m["write_p50_ms"] = percentileMs(writes, 0.5)
	m["write_p90_ms"] = percentileMs(writes, 0.9)

	bw, aw := before.st.WAL, after.st.WAL
	walBytes := float64(aw.FormatV2.Bytes + aw.FormatV1.Bytes - bw.FormatV2.Bytes - bw.FormatV1.Bytes)
	walRecords := float64(aw.FormatV2.Records + aw.FormatV1.Records - bw.FormatV2.Records - bw.FormatV1.Records)
	m["wal_bytes_per_user_byte"] = div(walBytes, float64(userBytes))
	m["wal.syncs_per_batch"] = div(float64(aw.Syncs-bw.Syncs), float64(len(u.rec.lat[sBatch])))
	m["wal.mean_group"] = div(float64(aw.GroupedAppends-bw.GroupedAppends), float64(aw.GroupCommits-bw.GroupCommits))
	m["wal.bytes_per_record"] = div(walBytes, walRecords)
	m["wal.auto_snapshots"] = float64(aw.AutoSnapshots - bw.AutoSnapshots)

	spans, probed := aggregate(t.spans), aggregate(probe.spans)
	meanOf := func(names ...string) float64 {
		var s spanStats
		for _, n := range names {
			s.calls += spans[n].calls
			s.total += spans[n].total
		}
		if s.calls == 0 {
			for _, n := range names {
				s.calls += probed[n].calls
				s.total += probed[n].total
			}
		}
		return s.meanMs()
	}
	m["server.self_ms"] = spans["server.ServeHTTP"].meanSelfMs()
	m["server.response_bytes"] = div(float64(u.rec.respBytes), float64(u.rec.ops()))
	m["query.unmarshal_us"] = meanOf("query.Unmarshal") * 1e3
	m["search.execute_ms"] = meanOf("search.Execute", "search.SearchWithFacets", "search.FacetCounts")
	m["search.snippet_us"] = meanOf("search.SnippetFor") * 1e3
	m["search.autocomplete_us"] = meanOf("search.Autocomplete") * 1e3
	m["search.shards"] = float64(e.sys.Engine.ShardCount())
	m["recommend.recommend_us"] = meanOf("recommend.Recommend") * 1e3
	m["tagging.cloud_ms"] = meanOf("tagging.Cloud")
	m["viz.chart_ms"] = meanOf("viz.BarChart", "viz.MapSVG")
	m["relational.query_ms"] = meanOf("relational.Query")
	m["sparql.parse_us"] = meanOf("sparql.Parse") * 1e3
	m["sparql.eval_ms"] = meanOf("sparql.Eval")
	m["core.execute_ms"] = meanOf("core.Execute")
	m["smr.put_batch_ms"] = meanOf("smr.PutPages")
	m["sensormeta.refresh_ms"] = meanOf("sensormeta.Refresh")

	examinedPer := func(ss ...int) float64 {
		for _, r := range []*recorder{&t.rec, &probe.rec} {
			var ex, rt int64
			for _, s := range ss {
				ex, rt = ex+r.examined[s], rt+r.returned[s]
			}
			if rt > 0 {
				return float64(ex) / float64(rt)
			}
		}
		return 0
	}
	m["search.examined_per_result"] = examinedPer(sV1, sCursor)
	m["relational.examined_per_row"] = examinedPer(sSQL)
	m["core.examined_per_row"] = examinedPer(sCombined)

	bt, at := before.st.Tagging, after.st.Tagging
	m["tagging.cache_hit_ratio"] = div(float64(at.CacheHits-bt.CacheHits), float64(at.CacheHits+at.CacheMisses-bt.CacheHits-bt.CacheMisses))
	m["tagging.full_rebuilds"] = float64(at.FullRebuilds - bt.FullRebuilds)
	refreshes := float64(after.st.Refreshes - before.st.Refreshes)
	m["search.pages_applied_per_refresh"] = div(float64(after.st.PagesApplied-before.st.PagesApplied), refreshes)
	m["pagerank.skip_ratio"] = div(float64(after.st.PageRankSkipped-before.st.PageRankSkipped), refreshes)
	m["recommend.delta_pages"] = div(float64(after.st.Recommender.PagesApplied-before.st.Recommender.PagesApplied), refreshes)

	bp, ap := before.pl, after.pl
	indexScans := float64(ap.IndexScans + ap.IndexOrderHits - bp.IndexScans - bp.IndexOrderHits)
	m["relational.index_scan_ratio"] = div(indexScans, indexScans+float64(ap.FallbackScans-bp.FallbackScans))
	if ap.PlansBuilt > bp.PlansBuilt {
		m["relational.estimate_error_p90"] = ap.EstimateErrorP90
	}

	ops := float64(u.rec.ops())
	m["runtime.alloc_bytes_per_op"] = div(float64(u.allocBytes), ops)
	m["runtime.gc_cycles_per_kop"] = div(float64(u.gcCycles)*1000, ops)
	m["trace.overhead_ratio"] = div(t.throughput(), u.throughput())
}

// probeReps is how often the probe sends each request.
const probeReps = 3

// probeLayers runs after the traced half and times, through the same
// traced path, the layers this workload's own traffic does not reach, so
// every per-layer timing is measured on every workload: the other
// workloads' read decks, each request sent probeReps times, and on a
// read-only workload a few write batches against its in-memory system,
// alternately through the server and as direct layer calls.
func (e *env) probeLayers(seed int64) (*phase, error) {
	c := newClient(e.srv)
	tr := newTracer()
	c.tr = tr
	rng := rand.New(rand.NewSource(seed))
	for _, build := range e.probes {
		deck, err := build(c, e.sys, rng)
		if err != nil {
			return nil, err
		}
		for _, rq := range deck {
			for i := 0; i < probeReps; i++ {
				c.run(rq)
			}
		}
	}
	if e.readOnly {
		g, err := newRowGen(e.sys, seed)
		if err != nil {
			return nil, err
		}
		var userBytes int64
		for i := 0; i < 2*probeReps; i++ {
			c.tr = nil
			if i%2 == 1 {
				c.tr = tr
			}
			writeBatch(c, e.sys, g, &userBytes)
		}
	}
	return &phase{rec: *c.rec, spans: [][]span{tr.spans}}, nil
}

// printBaselines times each baseline request alone, one goroutine, as
// the ROADMAP measured it: mean ServeHTTP latency untraced, then the
// per-request split of a traced repetition into server self time and
// layer calls.
func printBaselines(e *env) {
	for _, rq := range e.deck {
		if rq.baseline == "" {
			continue
		}
		reps := 200
		if rq.surface == sSPARQL {
			reps = 10
		}
		c := newClient(e.srv)
		var total time.Duration
		for i := 0; i < reps; i++ {
			_, _, lat := c.do(rq)
			total += lat
		}
		c.tr = newTracer()
		for i := 0; i < reps; i++ {
			c.do(rq)
		}
		spans := aggregate([][]span{c.tr.spans})
		names := make([]string, 0, len(spans))
		for n := range spans {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Printf("baseline %s alone: ServeHTTP mean=%.1fus", rq.baseline, float64(total.Microseconds())/float64(reps))
		for _, n := range names {
			fmt.Printf(" %s.self=%.1fus", n, float64(spans[n].self)/float64(reps)/1e3)
		}
		fmt.Println()
	}
}

// calibrateAllocs counts heap allocations per request, one goroutine
// running: per ServeHTTP over the read deck, and per parse plus
// evaluation over the deck's SPARQL queries.
func calibrateAllocs(e *env) (perRequest, perSPARQL float64) {
	const reps = 3
	var before, after runtime.MemStats
	var served, sparqlAllocs float64
	var sparqlQueries int
	for _, rq := range e.deck {
		reqs := make([]*http.Request, reps)
		for i := range reqs {
			reqs[i] = httptest.NewRequest(rq.method, rq.target, bytes.NewReader(rq.body))
		}
		runtime.ReadMemStats(&before)
		for _, r := range reqs {
			e.sc.w.reset()
			e.srv.ServeHTTP(e.sc.w, r)
		}
		runtime.ReadMemStats(&after)
		served += float64(after.Mallocs-before.Mallocs) / reps
		if rq.surface == sSPARQL {
			runtime.ReadMemStats(&before)
			for i := 0; i < reps; i++ {
				rq.replay(nil, -1)
			}
			runtime.ReadMemStats(&after)
			sparqlAllocs += float64(after.Mallocs-before.Mallocs) / reps
			sparqlQueries++
		}
	}
	return div(served, float64(len(e.deck))), div(sparqlAllocs, float64(sparqlQueries))
}

// printRun prints the run's facts and per-surface latencies.
func printRun(o options, e *env, p *phase) {
	fmt.Printf("perfbench workload=%s seed=%d seconds=%g trace=%v\n", o.workload, o.seed, o.seconds, o.trace)
	facts := [][2]string{
		{"seed", fmt.Sprint(o.seed)},
		{"corpus_sensors", fmt.Sprint(corpusOptions().Sensors)},
		{"corpus_pages", fmt.Sprint(e.sys.Repo.Wiki.Len())},
		{"num_cpu", fmt.Sprint(runtime.NumCPU())},
		{"gomaxprocs", fmt.Sprint(runtime.GOMAXPROCS(0))},
		{"go_version", runtime.Version()},
		{"shards", fmt.Sprint(e.sys.Engine.ShardCount())},
		{"clients", fmt.Sprint(len(e.workers))},
		{"deck_requests", fmt.Sprint(len(e.deck))},
		{"setup_reps_s", fmt.Sprintf("%.4f", e.setup)},
	}
	for _, f := range append(facts, e.facts...) {
		fmt.Printf("fact %s=%s\n", f[0], f[1])
	}
	fmt.Printf("phase untraced seconds=%.3f requests=%d throughput=%.1f/s\n",
		p.elapsed.Seconds(), p.rec.ops(), p.throughput())
	for s, name := range surfaceNames {
		l := p.rec.latencies(func(x int) bool { return x == s })
		if len(l) > 0 {
			fmt.Printf("surface %-12s n=%-7d p50=%.4fms p90=%.4fms\n", name, len(l), percentileMs(l, 0.5), percentileMs(l, 0.9))
		}
	}
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
