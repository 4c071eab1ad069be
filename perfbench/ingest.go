package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"time"

	sensormeta "repro"
	"repro/internal/query"
	"repro/internal/search"
	"repro/internal/smr"
	"repro/internal/tagging"
	"repro/internal/wal"
	"repro/internal/workload"
)

// Ingest shape: every batch overwrites batchRows pages drawn from a pool
// of poolSize existing sensor pages, so the corpus keeps its size. A
// relinkPct share of batches moves one page to another deployment.
const (
	batchRows = 16
	poolSize  = 128
	relinkPct = 20
	tailBatch = 32 // batches written after the snapshot during preparation
	// batchInterval paces the writer: a producer registering
	// batchRows revisions every 50 ms.
	batchInterval = 50 * time.Millisecond
)

// serverDurable is smr-server's default durability configuration with
// -data-dir: fsync always, group commit on, auto-snapshot at 64 MiB.
func serverDurable() smr.DurableOptions {
	return smr.DurableOptions{Fsync: wal.SyncAlways, AutoSnapshotBytes: 64 << 20}
}

// sensorFields are the annotations a rewritten sensor page keeps.
type sensorFields struct {
	measures, partOf, lat, lon string
}

// rowGen generates the ingest rows and remembers every acknowledged text.
type rowGen struct {
	rng         *rand.Rand
	seed        int64
	pool        []string
	fields      map[string]*sensorFields
	deployments []string
	batches     int
	acked       map[string]string // title → last acknowledged text
}

func newRowGen(sys *sensormeta.System, seed int64) (*rowGen, error) {
	g := &rowGen{rng: rand.New(rand.NewSource(seed)), seed: seed,
		fields: make(map[string]*sensorFields), acked: make(map[string]string),
		deployments: sys.Repo.Wiki.PagesInNamespace("Deployment")}
	sensors := sys.Repo.Wiki.PagesInNamespace("Sensor")
	for _, i := range g.rng.Perm(len(sensors))[:poolSize] {
		title := sensors[i]
		page, ok := sys.Repo.Wiki.Get(title)
		if !ok {
			return nil, fmt.Errorf("pool page %s missing", title)
		}
		first := func(p string) string {
			if vs := page.PropertyValues(p); len(vs) > 0 {
				return vs[0]
			}
			return ""
		}
		g.fields[title] = &sensorFields{measures: first("measures"), partOf: first("partOf"),
			lat: first("latitude"), lon: first("longitude")}
		g.pool = append(g.pool, title)
		g.acked[title] = page.Text()
	}
	return g, nil
}

// token is the unique search term the text of a batch's row carries.
func (g *rowGen) token(batch, row int) string {
	return fmt.Sprintf("rev%db%dr%d", g.seed, batch, row)
}

// next returns the next batch: metadata-only edits, and in a seeded
// minority of batches one row that changes partOf (a link change).
func (g *rowGen) next() []smr.PageWrite {
	relink := -1
	if g.rng.Intn(100) < relinkPct {
		relink = g.rng.Intn(batchRows)
	}
	rows := make([]smr.PageWrite, batchRows)
	for i, p := range g.rng.Perm(len(g.pool))[:batchRows] {
		title := g.pool[p]
		f := g.fields[title]
		if i == relink {
			f.partOf = pick(g.rng, g.deployments)
		}
		text := fmt.Sprintf("A %s sensor of [[%s]], revision %s.\n[[partOf::%s]]\n[[measures::%s]]\n[[samplingRate::%d]]\n[[latitude::%s]]\n[[longitude::%s]]\n[[status::%s]]\n[[Category:Sensors]]\n",
			f.measures, f.partOf, g.token(g.batches, i), f.partOf, f.measures, []int{1, 10, 60, 600}[g.rng.Intn(4)],
			f.lat, f.lon, []string{"active", "active", "maintenance", "retired"}[g.rng.Intn(4)])
		rows[i] = smr.PageWrite{Title: title, Text: text, Comment: "ingest"}
	}
	g.batches++
	return rows
}

// acknowledge records a batch the server acknowledged.
func (g *rowGen) acknowledge(rows []smr.PageWrite) {
	for _, r := range rows {
		g.acked[r.Title] = r.Text
	}
}

// prepareIngest writes the corpus into a fresh data directory, snapshots
// it and appends a WAL tail, untimed; Open of the directory then pays
// for a snapshot load plus a tail replay.
func prepareIngest(dir string, seed int64) (*rowGen, error) {
	sys, err := sensormeta.Open(dir, smr.DurableOptions{Fsync: wal.SyncNever})
	if err != nil {
		return nil, err
	}
	g, err := fillIngest(sys, seed)
	if cerr := sys.Close(); err == nil {
		err = cerr
	}
	return g, err
}

func fillIngest(sys *sensormeta.System, seed int64) (*rowGen, error) {
	if _, err := workload.BuildCorpus(sys.Repo, corpusOptions()); err != nil {
		return nil, err
	}
	if _, err := sys.Repo.Snapshot(); err != nil {
		return nil, err
	}
	g, err := newRowGen(sys, seed)
	if err != nil {
		return nil, err
	}
	for i := 0; i < tailBatch; i++ {
		rows := g.next()
		if _, err := sys.PutPages(rows); err != nil {
			return nil, err
		}
		g.acknowledge(rows)
	}
	return g, nil
}

// batchBody is the POST /api/v1/pages:batch request body.
type batchBody struct {
	Author string          `json:"author"`
	Pages  []smr.PageWrite `json:"pages"`
}

// ingestWriter sends a batch every batchInterval (at once when the
// previous batch overran it), refreshes, and checks that every row of
// the acknowledged batch is searchable by its unique term.
func ingestWriter(sys *sensormeta.System, g *rowGen, userBytes *int64) worker {
	return func(c *client, deadline time.Time) {
		for start := time.Now(); start.Before(deadline); start = time.Now() {
			writeBatch(c, sys, g, userBytes)
			if due := start.Add(batchInterval); due.Before(deadline) {
				time.Sleep(time.Until(due))
			}
		}
	}
}

var refreshRequest = &request{surface: sRefresh, method: http.MethodPost, target: "/api/refresh"}

// writeBatch writes and refreshes one batch. Under tracing it calls
// PutPages and Refresh directly, timing the layer calls; a write cannot
// be replayed without writing twice.
func writeBatch(c *client, sys *sensormeta.System, g *rowGen, userBytes *int64) {
	b := g.batches
	rows := g.next()
	batch := &request{surface: sBatch, method: http.MethodPost, target: "/api/v1/pages:batch",
		body: mustJSON(batchBody{Author: "perfbench", Pages: rows})}
	if c.tr != nil {
		c.tr.req++
		var err error
		start := time.Now()
		c.tr.call("smr.PutPages", -1, func() { _, err = sys.PutPages(rows) })
		c.rec.add(batch, time.Since(start), 0, err)
		start = time.Now()
		c.tr.call("sensormeta.Refresh", -1, func() { err = sys.Refresh() })
		c.rec.add(refreshRequest, time.Since(start), 0, err)
	} else {
		code, body, lat := c.do(batch)
		var ack struct{ Count int }
		err := json.Unmarshal(body, &ack)
		if err == nil && (code != http.StatusOK || ack.Count != len(rows)) {
			err = fmt.Errorf("status %d, %d of %d rows acknowledged", code, ack.Count, len(rows))
		}
		c.rec.add(batch, lat, len(body), err)
		if err != nil {
			return
		}
		c.run(refreshRequest)
	}
	g.acknowledge(rows)
	for i, r := range rows {
		*userBytes += int64(len(r.Text))
		res, err := sys.Query(query.Keyword{Text: g.token(b, i)}, search.ExecOptions{Limit: 2})
		if err != nil || len(res.Results) != 1 || res.Results[0].Title != r.Title {
			c.rec.fail("batch %d row %d (%s) not searchable after refresh", b, i, r.Title)
		}
	}
}

// ingestReads is the reader's deck: explore's v1 shapes plus the tag
// cloud, checked structurally because the corpus changes under them.
func ingestReads(sys *sensormeta.System, rng *rand.Rand) ([]*request, error) {
	// Twice explore's per-set counts: eight ROADMAP requests, four of each
	// shape and two tag clouds.
	var bodies []v1Body
	for i := 0; i < 8; i++ {
		bodies = append(bodies, roadmapV1())
	}
	for _, q := range queryShapes(rng, 4) {
		in, err := legacyV1(q)
		if err != nil {
			return nil, err
		}
		bodies = append(bodies, in)
	}
	var deck []*request
	for _, in := range bodies {
		rq, err := v1Request(sys, in, sV1)
		if err != nil {
			return nil, err
		}
		rq.check = structuralV1(in.Limit)
		deck = append(deck, rq)
	}
	cloud := tagCloudRequest(sys)
	cloud.check = func(body []byte) error {
		var got tagging.Cloud
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		if len(got.Entries) == 0 {
			return fmt.Errorf("empty tag cloud")
		}
		return nil
	}
	return append(deck, cloud, cloud), nil
}

// structuralV1 checks that a v1 response is a consistent page.
func structuralV1(limit int) func([]byte) error {
	return func(body []byte) error {
		var got v1Response
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		if got.Count != len(got.Results) || got.Matched < got.Count || (limit > 0 && got.Count > limit) {
			return fmt.Errorf("inconsistent page: count %d, %d results, matched %d", got.Count, len(got.Results), got.Matched)
		}
		return nil
	}
}

// checkDurable reopens the data directory and checks that every
// acknowledged page's final text survived.
func checkDurable(dir string, g *rowGen, rec *recorder) error {
	sys, err := sensormeta.Open(dir, serverDurable())
	if err != nil {
		return err
	}
	for title, text := range g.acked {
		rec.attempted++
		page, ok := sys.Repo.Wiki.Get(title)
		if !ok || page.Text() != text {
			rec.fail("after reopen, %s does not hold its last acknowledged text", title)
		}
	}
	return sys.Close()
}
