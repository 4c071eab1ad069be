package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/url"
	"reflect"
	"strings"

	sensormeta "repro"
	"repro/internal/geo"
	"repro/internal/query"
	"repro/internal/search"
	"repro/internal/tagging"
	"repro/internal/viz"
	"repro/internal/workload"
)

// corpusOptions is the ROADMAP baseline corpus: workload.DefaultCorpus
// with 600 sensors. It is fixed; the seed varies the requests, not the
// data they run on.
func corpusOptions() workload.CorpusOptions {
	o := workload.DefaultCorpus()
	o.Sensors = 600
	return o
}

// buildSystem builds the in-memory corpus and refreshes it: everything
// that must happen before the first request can be served.
func buildSystem() (*sensormeta.System, error) {
	sys, err := sensormeta.New()
	if err != nil {
		return nil, err
	}
	if _, err := workload.BuildCorpus(sys.Repo, corpusOptions()); err != nil {
		return nil, err
	}
	if err := sys.Refresh(); err != nil {
		return nil, err
	}
	return sys, nil
}

// v1Body is the POST /api/v1/query request body.
type v1Body struct {
	Query    json.RawMessage `json:"query,omitempty"`
	Sort     string          `json:"sort,omitempty"`
	Order    string          `json:"order,omitempty"`
	Limit    int             `json:"limit,omitempty"`
	Cursor   string          `json:"cursor,omitempty"`
	Facets   []string        `json:"facets,omitempty"`
	Snippets bool            `json:"snippets,omitempty"`
}

// v1Response is the part of the /api/v1/query response the checks read.
type v1Response struct {
	Count   int `json:"count"`
	Matched int `json:"matched"`
	Results []struct {
		Title   string `json:"title"`
		Snippet string `json:"snippet"`
	} `json:"results"`
	Facets     map[string]map[string]int `json:"facets"`
	NextCursor string                    `json:"nextCursor"`
}

func (r *v1Response) titles() []string {
	out := make([]string, len(r.Results))
	for i, it := range r.Results {
		out[i] = it.Title
	}
	return out
}

// roadmapV1 is the ROADMAP baseline request: keyword plus status=active,
// with facets, snippets and a limit of 20.
func roadmapV1() v1Body {
	expr := query.And{Children: []query.Expr{
		query.Keyword{Text: "sensor"},
		query.Property{Name: "status", Op: query.OpEq, Value: "active"},
	}}
	return v1Body{Query: mustMarshalExpr(expr), Limit: 20,
		Facets: []string{"measures", "samplingRate"}, Snippets: true}
}

func mustMarshalExpr(e query.Expr) json.RawMessage {
	raw, err := query.Marshal(e)
	if err != nil {
		panic(err)
	}
	return raw
}

// legacyV1 renders a flat legacy query as a v1 request over its AST.
func legacyV1(q search.Query) (v1Body, error) {
	expr, err := search.LegacyExpr(q)
	if err != nil {
		return v1Body{}, err
	}
	return v1Body{Query: mustMarshalExpr(expr), Sort: string(q.SortBy), Order: string(q.Order), Limit: q.Limit}, nil
}

// keywordText joins the texts of an expression's positive keyword
// leaves, as the server does to build snippets.
func keywordText(e query.Expr) string {
	var texts []string
	var walk func(query.Expr)
	walk = func(e query.Expr) {
		switch v := e.(type) {
		case query.And:
			for _, c := range v.Children {
				walk(c)
			}
		case query.Or:
			for _, c := range v.Children {
				walk(c)
			}
		case query.Keyword:
			texts = append(texts, v.Text)
		}
	}
	walk(e)
	return strings.Join(texts, " ")
}

// v1Request builds a /api/v1/query request whose check compares the
// response with a direct System.Query call.
func v1Request(sys *sensormeta.System, in v1Body, surface int) (*request, error) {
	expr, err := query.Unmarshal(in.Query)
	if err != nil {
		return nil, err
	}
	opts := search.ExecOptions{SortBy: search.SortKey(in.Sort), Order: search.Order(in.Order),
		Limit: in.Limit, Cursor: in.Cursor}
	if opts.SortBy == "" {
		opts.SortBy = search.SortRelevance
	}
	for _, f := range in.Facets {
		opts.Facets = append(opts.Facets, strings.ToLower(f))
	}
	kw := ""
	if in.Snippets {
		kw = keywordText(expr)
	}
	explained := opts
	explained.Explain = true
	plan, err := sys.Query(expr, explained)
	if err != nil {
		return nil, err
	}
	return &request{
		examined: scanRows(plan.Plan),
		returned: len(plan.Results),
		surface:  surface,
		method:   http.MethodPost,
		target:   "/api/v1/query",
		body:     mustJSON(in),
		check: func(body []byte) error {
			var got v1Response
			if err := json.Unmarshal(body, &got); err != nil {
				return err
			}
			want, err := sys.Query(expr, opts)
			if err != nil {
				return err
			}
			if err := checkV1(&got, want); err != nil {
				return err
			}
			for _, it := range got.Results {
				if kw != "" && it.Snippet != sys.Engine.SnippetFor(it.Title, kw, 160) {
					return fmt.Errorf("snippet of %s differs from SnippetFor", it.Title)
				}
			}
			return nil
		},
		replay: func(t *tracer, p int32) {
			var e query.Expr
			t.call("query.Unmarshal", p, func() { e, _ = query.Unmarshal(in.Query) })
			var res *search.ExecResult
			t.call("search.Execute", p, func() { res, _ = sys.Engine.Execute(e, opts) })
			if kw == "" || res == nil {
				return
			}
			for _, r := range res.Results {
				t.call("search.SnippetFor", p, func() { sys.Engine.SnippetFor(r.Title, kw, 160) })
			}
		},
	}, nil
}

// checkV1 compares a v1 response with the direct executor result.
func checkV1(got *v1Response, want *search.ExecResult) error {
	if got.Count != len(got.Results) || got.Matched != want.Matched {
		return fmt.Errorf("count %d / matched %d, want %d / %d", got.Count, got.Matched, len(want.Results), want.Matched)
	}
	wantTitles := make([]string, len(want.Results))
	for i, r := range want.Results {
		wantTitles[i] = r.Title
	}
	if err := equalStrings(got.titles(), wantTitles); err != nil {
		return fmt.Errorf("results: %w", err)
	}
	if got.NextCursor != want.NextCursor {
		return fmt.Errorf("nextCursor differs from System.Query")
	}
	if len(want.Facets) > 0 && !reflect.DeepEqual(got.Facets, want.Facets) {
		return fmt.Errorf("facets %v, want %v", got.Facets, want.Facets)
	}
	return nil
}

// cursorWalk pages through a v1 request over HTTP until the cursor runs
// out, checks that the pages concatenate to the unpaginated order, and
// returns continuation requests for the first pages after the first.
func cursorWalk(c *client, sys *sensormeta.System, in v1Body, keep int) ([]*request, error) {
	all := in
	all.Limit, all.Facets, all.Snippets = 0, nil, false
	full, err := v1Request(sys, all, sV1)
	if err != nil {
		return nil, err
	}
	_, body, _ := c.do(full)
	var whole v1Response
	if err := json.Unmarshal(body, &whole); err != nil {
		c.note("cursor walk", fmt.Errorf("unpaginated request: %w", err))
		return nil, nil
	}
	var walked []string
	var out []*request
	page := in
	for pages := 0; ; pages++ {
		rq, err := v1Request(sys, page, sCursor)
		if err != nil {
			return nil, err
		}
		if pages > 0 && len(out) < keep {
			out = append(out, rq)
		}
		code, body, _ := c.do(rq)
		var got v1Response
		if code != http.StatusOK || json.Unmarshal(body, &got) != nil {
			c.note("cursor walk", fmt.Errorf("page %d: status %d: %.200s", pages, code, body))
			return out, nil
		}
		walked = append(walked, got.titles()...)
		if got.NextCursor == "" || pages > 1000 {
			break
		}
		page.Cursor = got.NextCursor
	}
	err = equalStrings(walked, whole.titles())
	if err != nil {
		err = fmt.Errorf("pages differ from the unpaginated order: %w", err)
	}
	c.note("cursor walk", err)
	return out, nil
}

// legacySearch builds a GET /api/search request checked against
// Engine.SearchWithFacets.
func legacySearch(sys *sensormeta.System, q search.Query, facets []string) *request {
	params := url.Values{}
	if q.Keywords != "" {
		params.Set("q", q.Keywords)
	}
	if q.Namespace != "" {
		params.Set("namespace", q.Namespace)
	}
	for _, f := range q.Filters {
		params.Add("filter", f.Property+":eq:"+f.Value)
	}
	if q.SortBy != "" {
		params.Set("sort", string(q.SortBy))
	}
	if q.Limit > 0 {
		params.Set("limit", fmt.Sprint(q.Limit))
	}
	for _, f := range facets {
		params.Add("facet", f)
	}
	if q.SortBy == "" {
		q.SortBy = search.SortRelevance
	}
	return &request{
		surface: sSearch,
		method:  http.MethodGet,
		target:  getTarget("/api/search", params),
		check: func(body []byte) error {
			var got v1Response
			if err := json.Unmarshal(body, &got); err != nil {
				return err
			}
			rs, fc, matched, err := sys.Engine.SearchWithFacets(q, facets)
			if err != nil {
				return err
			}
			want := &search.ExecResult{Results: rs}
			if len(facets) > 0 {
				want.Facets, want.Matched = fc, matched
			}
			if err := checkV1(&got, want); err != nil {
				return err
			}
			for _, it := range got.Results {
				if q.Keywords != "" && it.Snippet != sys.Engine.SnippetFor(it.Title, q.Keywords, 160) {
					return fmt.Errorf("snippet of %s differs from SnippetFor", it.Title)
				}
			}
			return nil
		},
		replay: func(t *tracer, p int32) {
			var rs []search.Result
			t.call("search.SearchWithFacets", p, func() { rs, _, _, _ = sys.Engine.SearchWithFacets(q, facets) })
			if q.Keywords == "" {
				return
			}
			for _, r := range rs {
				t.call("search.SnippetFor", p, func() { sys.Engine.SnippetFor(r.Title, q.Keywords, 160) })
			}
		},
	}
}

func autocompleteRequest(sys *sensormeta.System, prefix string) *request {
	return &request{
		surface: sAutocomplete,
		method:  http.MethodGet,
		target:  getTarget("/api/autocomplete", url.Values{"prefix": {prefix}}),
		check:   func(body []byte) error { return sameJSON(body, sys.Autocomplete(prefix, 10)) },
		replay: func(t *tracer, p int32) {
			t.call("search.Autocomplete", p, func() { sys.Engine.Autocomplete(prefix, 10) })
		},
	}
}

func recommendRequest(sys *sensormeta.System, seeds []string) *request {
	return &request{
		surface: sRecommend,
		method:  http.MethodGet,
		target:  getTarget("/api/recommend", url.Values{"seed": seeds}),
		check:   func(body []byte) error { return sameJSON(body, sys.Recommend(seeds, "", 10)) },
		replay: func(t *tracer, p int32) {
			t.call("recommend.Recommend", p, func() { sys.Recommend(seeds, "", 10) })
		},
	}
}

// tagCloudRequest is GET /api/tagcloud with the server's default options.
func tagCloudRequest(sys *sensormeta.System) *request {
	opts := tagging.CloudOptions{UsePivot: true}
	return &request{
		surface: sTagcloud,
		method:  http.MethodGet,
		target:  "/api/tagcloud",
		check: func(body []byte) error {
			cloud, err := sys.TagCloud(opts)
			if err != nil {
				return err
			}
			return sameJSON(body, cloud)
		},
		replay: func(t *tracer, p int32) {
			t.call("tagging.Cloud", p, func() { sys.TagCloud(opts) })
		},
	}
}

// barChart is GET /viz/bar.svg streaming facet counts over the matching
// set; the response must equal the chart rendered from a direct
// FacetCounts call.
func barChart(sys *sensormeta.System, prop string, q search.Query, params url.Values) *request {
	params.Set("property", prop)
	render := func(t *tracer, p int32) string {
		var counts map[string]map[string]int
		var matched int
		t.call("search.FacetCounts", p, func() { counts, matched, _ = sys.Engine.FacetCounts(q, []string{prop}) })
		var svg string
		t.call("viz.BarChart", p, func() {
			svg = viz.BarChart(fmt.Sprintf("%s over %d result(s)", prop, matched), viz.DataFromCounts(counts[prop]), 640, 360)
		})
		return svg
	}
	return svgRequest(getTarget("/viz/bar.svg", params), render)
}

// svgRequest is a GET of a rendered SVG whose body must equal the SVG
// rendered from direct calls.
func svgRequest(target string, render func(t *tracer, parent int32) string) *request {
	return &request{
		surface: sViz,
		method:  http.MethodGet,
		target:  target,
		check: func(body []byte) error {
			if string(body) != render(nil, -1) {
				return fmt.Errorf("SVG differs from the one rendered by direct calls")
			}
			return nil
		},
		replay: func(t *tracer, p int32) { render(t, p) },
	}
}

// mapChart is GET /viz/map.svg; the response must equal the map rendered
// from a direct search, marker extraction and clustering.
func mapChart(sys *sensormeta.System, q search.Query, params url.Values) *request {
	if q.SortBy == "" {
		q.SortBy = search.SortRelevance
	}
	render := func(t *tracer, p int32) string {
		var rs []search.Result
		t.call("search.SearchWithFacets", p, func() { rs, _, _, _ = sys.Engine.SearchWithFacets(q, nil) })
		var markers []geo.Marker
		t.call("sensormeta.Markers", p, func() { markers = sys.Markers(rs) })
		var clusters []geo.Cluster
		t.call("geo.ClusterMarkers", p, func() { clusters = geo.ClusterMarkers(markers, 0.05) })
		var svg string
		t.call("viz.MapSVG", p, func() { svg = viz.MapSVG(clusters, 800, 500) })
		return svg
	}
	return svgRequest(getTarget("/viz/map.svg", params), render)
}

// queryShapes draws perShape queries of each of BuildQueryMix's five
// shapes: the seed picks the values, not how many of each shape run.
func queryShapes(rng *rand.Rand, perShape int) []search.Query {
	shape := func(q search.Query) int {
		switch {
		case q.Mode == search.ModeAny:
			return 4 // keyword + operatedBy filter
		case q.Namespace != "":
			return 3 // samplingRate range
		case len(q.Filters) > 0:
			return 2 // measures equality
		case q.SortBy == search.SortRank:
			return 1 // site keyword, rank-sorted
		}
		return 0 // measurand keyword
	}
	var out []search.Query
	var counts [5]int
	for len(out) < len(counts)*perShape {
		for _, q := range workload.BuildQueryMix(workload.QueryMixOptions{Count: 20, Seed: rng.Int63()}) {
			if s := shape(q); counts[s] < perShape {
				counts[s]++
				out = append(out, q)
			}
		}
	}
	return out
}

// pick returns a seeded choice from xs.
func pick(rng *rand.Rand, xs []string) string { return xs[rng.Intn(len(xs))] }

// exploreDeck builds one pass of the explore mix: two request sets, each
// with fixed counts per surface, so that the mix's cost depends less on
// which instances the seed picked.
func exploreDeck(c *client, sys *sensormeta.System, rng *rand.Rand) ([]*request, error) {
	var deck []*request
	for i := 0; i < 2; i++ {
		set, err := exploreSet(c, sys, rng)
		if err != nil {
			return nil, err
		}
		deck = append(deck, set...)
	}
	deck[0].baseline = "roadmap-v1"
	return deck, nil
}

// exploreSet builds one set of explore requests. The counts per surface
// are fixed; the seed picks the query instances, values and seeds.
func exploreSet(c *client, sys *sensormeta.System, rng *rand.Rand) ([]*request, error) {
	measurands, err := sys.Repo.PropertyValues("measures")
	if err != nil {
		return nil, err
	}
	sites := sys.Repo.Wiki.PagesInNamespace("Fieldsite")
	sensors := sys.Repo.Wiki.PagesInNamespace("Sensor")
	siteName := func() string { return strings.TrimPrefix(pick(rng, sites), "Fieldsite:") }

	var deck []*request
	add := func(rq *request, err error) error {
		if err != nil {
			return err
		}
		deck = append(deck, rq)
		return nil
	}
	roadmap := roadmapV1()
	for i := 0; i < 4; i++ {
		if err := add(v1Request(sys, roadmap, sV1)); err != nil {
			return nil, err
		}
	}
	for _, q := range queryShapes(rng, 2) {
		in, err := legacyV1(q)
		if err != nil {
			return nil, err
		}
		if err := add(v1Request(sys, in, sV1)); err != nil {
			return nil, err
		}
	}
	byTitle := v1Body{Query: mustMarshalExpr(query.Property{Name: "measures", Op: query.OpEq, Value: pick(rng, measurands)}),
		Sort: "title", Limit: 10}
	for _, walk := range []v1Body{roadmap, byTitle} {
		pages, err := cursorWalk(c, sys, walk, 3)
		if err != nil {
			return nil, err
		}
		deck = append(deck, pages...)
	}
	m := pick(rng, measurands)
	deck = append(deck,
		legacySearch(sys, search.Query{Keywords: pick(rng, measurands), Limit: 20}, nil),
		legacySearch(sys, search.Query{Keywords: "sensor " + m, Limit: 20}, nil),
		legacySearch(sys, search.Query{Filters: []search.PropertyFilter{{Property: "measures", Op: search.OpEquals, Value: m}},
			SortBy: search.SortTitle, Limit: 20}, []string{"status"}),
		legacySearch(sys, search.Query{Keywords: siteName(), SortBy: search.SortRank, Limit: 10}, nil),
	)
	for _, prefix := range []string{"Sen", "temp", "Deployment:", "wi"} {
		deck = append(deck, autocompleteRequest(sys, prefix))
	}
	for i := 0; i < 4; i++ {
		seeds := make([]string, 1+i%3)
		for j := range seeds {
			seeds[j] = pick(rng, sensors)
		}
		deck = append(deck, recommendRequest(sys, seeds))
	}
	deck = append(deck, tagCloudRequest(sys))
	m = pick(rng, measurands)
	deck = append(deck,
		barChart(sys, "measures", search.Query{Namespace: "Sensor"}, url.Values{"namespace": {"Sensor"}}),
		barChart(sys, "status", search.Query{Keywords: m}, url.Values{"q": {m}}),
	)
	site := siteName()
	m = pick(rng, measurands)
	deck = append(deck,
		mapChart(sys, search.Query{Keywords: site}, url.Values{"q": {site}}),
		mapChart(sys, search.Query{Namespace: "Sensor", Filters: []search.PropertyFilter{{Property: "measures", Op: search.OpEquals, Value: m}}},
			url.Values{"namespace": {"Sensor"}, "filter": {"measures:eq:" + m}}),
	)
	return deck, nil
}
