package search

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/query"
	"repro/internal/smr"
)

// refFuse is the legacy post-hoc fusion, kept here as the oracle of the
// in-executor fusion: normalize relevance and rank by their maxima over the
// result set, order by alpha·rel + (1−alpha)·rank descending, title
// tie-break, with alpha clamped to [0,1]. The executor must reproduce this
// ordering exactly.
func refFuse(rs []Result, alpha float64) []Result {
	if alpha < 0 {
		alpha = 0
	}
	if alpha > 1 {
		alpha = 1
	}
	var maxRel, maxRank float64
	for _, r := range rs {
		if r.Relevance > maxRel {
			maxRel = r.Relevance
		}
		if r.Rank > maxRank {
			maxRank = r.Rank
		}
	}
	combined := func(r Result) float64 {
		rel, rank := 0.0, 0.0
		if maxRel > 0 {
			rel = r.Relevance / maxRel
		}
		if maxRank > 0 {
			rank = r.Rank / maxRank
		}
		return alpha*rel + (1-alpha)*rank
	}
	sort.SliceStable(rs, func(i, j int) bool {
		ci, cj := combined(rs[i]), combined(rs[j])
		if ci != cj {
			return ci > cj
		}
		return rs[i].Title < rs[j].Title
	})
	return rs
}

// fusionFixture equips the execute fixture with a deterministic synthetic
// PageRank vector so fused orderings are non-trivial.
func fusionFixture(t testing.TB, sensors int) *Engine {
	t.Helper()
	_, e := executeFixture(t, sensors)
	e.SetRanks(syntheticRanks(e))
	return e
}

// syntheticRanks is the PageRank vector fusionFixture installs.
func syntheticRanks(e *Engine) map[string]float64 {
	ranks := map[string]float64{}
	for i, title := range e.repo.Wiki.Titles() {
		ranks[title] = float64((i*37)%101) / 101
	}
	return ranks
}

// fusionExprs are the expression shapes the fusion tests run under.
var fusionExprs = []query.Expr{
	query.Keyword{Text: "sensor station", Any: true},
	query.And{Children: []query.Expr{
		query.Keyword{Text: "sensor", Any: true},
		query.Namespace{Name: "Sensor"},
	}},
	query.Property{Name: "measures", Op: query.OpEq, Value: "temperature"}, // relevance all-zero
	query.All{},
}

// TestAlphaFusionMatchesLegacyReSort pins the tentpole equivalence: for a
// spread of alphas and expressions, the executor's in-heap fusion produces
// exactly the ordering of the legacy materialize-then-re-sort path, and a
// Limit returns exactly the head of that ordering.
func TestAlphaFusionMatchesLegacyReSort(t *testing.T) {
	e := fusionFixture(t, 90)
	exprs := fusionExprs
	for _, alpha := range []float64{0, 0.25, 0.5, 0.75, 1} {
		for i, expr := range exprs {
			baseline, err := e.Execute(expr, ExecOptions{})
			if err != nil {
				t.Fatalf("alpha %v expr %d baseline: %v", alpha, i, err)
			}
			want := refFuse(append([]Result(nil), baseline.Results...), alpha)
			a := alpha
			fused, err := e.Execute(expr, ExecOptions{Alpha: &a})
			if err != nil {
				t.Fatalf("alpha %v expr %d fused: %v", alpha, i, err)
			}
			if !reflect.DeepEqual(fused.Results, want) {
				t.Fatalf("alpha %v expr %d: in-executor fusion diverges from legacy re-sort\ngot  %v\nwant %v",
					alpha, i, head(fused.Results, 5), head(want, 5))
			}
			limited, err := e.Execute(expr, ExecOptions{Alpha: &a, Limit: 7})
			if err != nil {
				t.Fatal(err)
			}
			if wantHead := head(want, 7); !reflect.DeepEqual(limited.Results, wantHead) {
				t.Fatalf("alpha %v expr %d: top-7 fused page diverges\ngot  %v\nwant %v",
					alpha, i, limited.Results, wantHead)
			}
		}
	}
}

// TestAlphaFusionClampsAndFillsRank pins what the legacy re-sort's own
// tests checked, now on the executor: an alpha outside [0,1] clamps to the
// nearest end instead of corrupting the order, and every fused result
// carries its page's PageRank score in Rank.
func TestAlphaFusionClampsAndFillsRank(t *testing.T) {
	e := fusionFixture(t, 90)
	ranks := syntheticRanks(e)
	for i, expr := range fusionExprs {
		baseline, err := e.Execute(expr, ExecOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct{ alpha, clamped float64 }{{7, 1}, {-3, 0}} {
			a, edge := c.alpha, c.clamped
			fused, err := e.Execute(expr, ExecOptions{Alpha: &a})
			if err != nil {
				t.Fatalf("expr %d alpha %v: %v", i, a, err)
			}
			want := refFuse(append([]Result(nil), baseline.Results...), a)
			if !reflect.DeepEqual(fused.Results, want) {
				t.Fatalf("expr %d alpha %v: diverges from the legacy re-sort\ngot  %v\nwant %v",
					i, a, head(fused.Results, 5), head(want, 5))
			}
			atEdge, err := e.Execute(expr, ExecOptions{Alpha: &edge})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(fused.Results, atEdge.Results) {
				t.Fatalf("expr %d: alpha %v does not clamp to %v", i, a, edge)
			}
			ranked := 0
			for _, r := range fused.Results {
				if r.Rank != ranks[r.Title] {
					t.Fatalf("expr %d alpha %v: %s has Rank %v, want %v", i, a, r.Title, r.Rank, ranks[r.Title])
				}
				if r.Rank > 0 {
					ranked++
				}
			}
			if len(fused.Results) > 0 && ranked == 0 {
				t.Fatalf("expr %d alpha %v: no fused result carries a rank", i, a)
			}
		}
	}
}

func head(rs []Result, k int) []Result {
	if len(rs) > k {
		rs = rs[:k]
	}
	return rs
}

// TestAlphaCursorWalk checks keyset pagination under fusion: walking every
// page reproduces the unpaginated fused order, and cursors are bound to
// the alpha they were minted under.
func TestAlphaCursorWalk(t *testing.T) {
	e := fusionFixture(t, 60)
	expr := query.Keyword{Text: "sensor", Any: true}
	alpha := 0.4
	all, err := e.Execute(expr, ExecOptions{Alpha: &alpha})
	if err != nil {
		t.Fatal(err)
	}
	if len(all.Results) < 15 {
		t.Fatalf("fixture too small: %d results", len(all.Results))
	}
	var walked []Result
	cursor := ""
	for pages := 0; ; pages++ {
		if pages > 30 {
			t.Fatal("cursor walk did not terminate")
		}
		page, err := e.Execute(expr, ExecOptions{Alpha: &alpha, Limit: 7, Cursor: cursor})
		if err != nil {
			t.Fatalf("page %d: %v", pages, err)
		}
		if page.Matched != all.Matched {
			t.Fatalf("page %d matched=%d, want %d", pages, page.Matched, all.Matched)
		}
		walked = append(walked, page.Results...)
		if page.NextCursor == "" {
			break
		}
		cursor = page.NextCursor
	}
	if !reflect.DeepEqual(walked, all.Results) {
		t.Fatalf("fused cursor walk diverges from unpaginated order:\nwalked %v\nall    %v",
			head(walked, 5), head(all.Results, 5))
	}

	// A cursor minted under one alpha must not page another alpha, nor an
	// unfused request — and vice versa.
	first, err := e.Execute(expr, ExecOptions{Alpha: &alpha, Limit: 3})
	if err != nil || first.NextCursor == "" {
		t.Fatalf("minting fused cursor: %v (cursor %q)", err, first.NextCursor)
	}
	other := 0.6
	cases := []ExecOptions{
		{Alpha: &other, Limit: 3, Cursor: first.NextCursor},
		{Limit: 3, Cursor: first.NextCursor},
	}
	for i, opts := range cases {
		if _, err := e.Execute(expr, opts); err == nil {
			t.Fatalf("case %d: stale cursor accepted across alpha change", i)
		} else if qe, ok := err.(*query.Error); !ok || qe.Code != "bad_cursor" {
			t.Fatalf("case %d: error = %v, want bad_cursor", i, err)
		}
	}
	plain, err := e.Execute(expr, ExecOptions{Limit: 3})
	if err != nil || plain.NextCursor == "" {
		t.Fatalf("minting unfused cursor: %v", err)
	}
	if _, err := e.Execute(expr, ExecOptions{Alpha: &alpha, Limit: 3, Cursor: plain.NextCursor}); err == nil {
		t.Fatal("unfused cursor accepted by fused request")
	}
}

// TestCursorSignatureNoBoundaryCollision pins the length-prefixed hashing:
// caller-controlled parts containing separator-ish bytes must not be able
// to shift bytes across part boundaries and collide (a collision would let
// a cursor minted for one combined query page another).
func TestCursorSignatureNoBoundaryCollision(t *testing.T) {
	cases := [][2][]string{
		{{"q", "p\x00s"}, {"q\x00p", "s"}},
		{{"qp", "s"}, {"q", "ps"}},
		{{"a", "", "b"}, {"a", "b", ""}},
		{{"ab"}, {"a", "b"}},
	}
	for i, c := range cases {
		if CursorSignature(c[0]...) == CursorSignature(c[1]...) {
			t.Errorf("case %d: %q and %q collide", i, c[0], c[1])
		}
	}
	if CursorSignature("a", "b") != CursorSignature("a", "b") {
		t.Error("signature not deterministic")
	}
}

// TestAlphaRejectsExplicitSort checks the executor refuses the ambiguous
// combination: fusion defines the order, so an explicit title/rank sort is
// a bad request.
func TestAlphaRejectsExplicitSort(t *testing.T) {
	e := fusionFixture(t, 10)
	alpha := 0.5
	for _, key := range []SortKey{SortTitle, SortRank} {
		_, err := e.Execute(query.All{}, ExecOptions{Alpha: &alpha, SortBy: key})
		if qe, ok := err.(*query.Error); !ok || qe.Code != "bad_request" || qe.Field != "sort" {
			t.Fatalf("sort %q with alpha: err = %v, want bad_request on sort", key, err)
		}
	}
	if _, err := e.Execute(query.All{}, ExecOptions{Alpha: &alpha, SortBy: SortRelevance}); err != nil {
		t.Fatalf("sort relevance with alpha should be accepted: %v", err)
	}
}

// facetRandomRepo builds a corpus designed to stress the facet fast path's
// exactness claims: mixed-case property names and values (fold siblings),
// duplicate annotations on one page (occurrence counting), multi-valued
// properties, several namespaces and categories.
func facetRandomRepo(t testing.TB, rng *rand.Rand, pages int) *smr.Repository {
	t.Helper()
	repo, err := smr.New()
	if err != nil {
		t.Fatal(err)
	}
	statuses := []string{"Active", "active", "ACTIVE", "retired", "Maintenance"}
	measures := []string{"temperature", "Temperature", "wind speed", "humidity"}
	namespaces := []string{"Sensor", "Deployment", "Fieldsite"}
	for i := 0; i < pages; i++ {
		ns := namespaces[rng.Intn(len(namespaces))]
		text := ""
		for a, n := 0, rng.Intn(4); a < n; a++ {
			text += fmt.Sprintf("[[status::%s]] ", statuses[rng.Intn(len(statuses))])
		}
		if rng.Intn(2) == 0 {
			prop := []string{"measures", "Measures", "MEASURES"}[rng.Intn(3)]
			text += fmt.Sprintf("[[%s::%s]] ", prop, measures[rng.Intn(len(measures))])
		}
		if rng.Intn(2) == 0 {
			text += fmt.Sprintf("[[samplingRate::%d]] ", 1+rng.Intn(30))
		}
		if rng.Intn(3) == 0 {
			text += "[[Category:Stations]] "
		}
		text += "alpine station logger"
		if _, err := repo.PutPage(fmt.Sprintf("%s:P-%03d", ns, i), "t", text, ""); err != nil {
			t.Fatal(err)
		}
	}
	return repo
}

// TestFacetIndexMatchesStreaming is the facet fast path's equivalence
// property: over randomized corpora with fold-sibling values and duplicate
// annotations, index-served facet counts and matched totals are identical
// to per-page evaluation (the refExecute oracle) for every filter-only
// expression shape, and keyword expressions keep working via streaming.
func TestFacetIndexMatchesStreaming(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 5; trial++ {
		repo := facetRandomRepo(t, rng, 60+rng.Intn(60))
		e := NewEngine(repo)
		exprs := []query.Expr{
			query.All{},
			query.Namespace{Name: "sensor"},
			query.Property{Name: "STATUS", Op: query.OpEq, Value: "active"},
			query.Property{Name: "status", Op: query.OpNe, Value: "retired"},
			query.Property{Name: "measures", Op: query.OpContains, Value: "temp"},
			query.Range{Name: "samplingRate", Min: "5", Max: "20"},
			query.HasProperty{Name: "Measures"},
			query.Category{Name: "stations"},
			query.TitlePrefix{Prefix: "Sensor:P-0"},
			query.Not{Child: query.HasProperty{Name: "status"}},
			query.And{Children: []query.Expr{
				query.Namespace{Name: "Sensor"},
				query.Property{Name: "status", Op: query.OpEq, Value: "Active"},
			}},
			query.Or{Children: []query.Expr{
				query.Category{Name: "Stations"},
				query.Range{Name: "samplingRate", Min: "25", Max: ""},
			}},
			query.Keyword{Text: "alpine"}, // keyword: streaming on both sides
		}
		props := []string{"status", "measures", "samplingRate"}
		for i, expr := range exprs {
			label := fmt.Sprintf("trial %d expr %d", trial, i)
			sameAsOracle(t, e, expr, ExecOptions{CountOnly: true, Facets: props}, label)
			// The same equivalence must hold when results are materialized
			// alongside (the /api/search?facet= shape).
			sameAsOracle(t, e, expr, ExecOptions{Facets: props, Limit: 5}, label+" materialized")
		}
	}
}

// TestFacetIndexHonoursACL checks the fast path filters denied pages
// exactly like per-page evaluation (the refExecute oracle) does.
func TestFacetIndexHonoursACL(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	repo := facetRandomRepo(t, rng, 50)
	denied := repo.Wiki.Titles()[:10]
	for _, title := range denied {
		repo.ACL.DenyPage("restricted", title)
	}
	e := NewEngine(repo)
	expr := query.HasProperty{Name: "status"}
	// The keyword expressions stream through per-page evaluation, so the
	// ACL is checked on that path too, not only on the exact set.
	exprs := []query.Expr{
		expr,
		query.Keyword{Text: "alpine"},
		query.And{Children: []query.Expr{query.Keyword{Text: "station"}, expr}},
	}
	for i, ex := range exprs {
		for _, user := range []string{"", "restricted"} {
			opts := ExecOptions{User: user, Facets: []string{"status"}}
			sameAsOracle(t, e, ex, opts, fmt.Sprintf("expr %d user %q", i, user))
			opts.CountOnly = true
			sameAsOracle(t, e, ex, opts, fmt.Sprintf("expr %d user %q count-only", i, user))
		}
	}
	anon, _ := e.Execute(expr, ExecOptions{CountOnly: true})
	restricted, _ := e.Execute(expr, ExecOptions{CountOnly: true, User: "restricted"})
	if restricted.Matched >= anon.Matched {
		t.Fatalf("ACL did not bite: restricted %d vs anonymous %d", restricted.Matched, anon.Matched)
	}
}

// BenchmarkAlphaFusion measures the relevance/PageRank fusion on the
// query shape the interface serves (20 fused results of a keyword query):
// the legacy path materializes and fully sorts every match, then re-sorts
// the whole set under the fused score (refFuse) and truncates; the
// in-executor path buffers the matching set once and heap-selects the
// fused top 20 — O(n log k) instead of two O(n log n) sorts.
func BenchmarkAlphaFusion(b *testing.B) {
	e := fusionFixture(b, 5000)
	expr := query.Keyword{Text: "sensor temperature", Any: true}
	alpha := 0.5
	fused, err := e.Execute(expr, ExecOptions{Alpha: &alpha, Limit: 20})
	if err != nil {
		b.Fatal(err)
	}
	if len(fused.Results) != 20 {
		b.Fatalf("fused page has %d results", len(fused.Results))
	}
	b.Run("legacy-resort", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := e.Execute(expr, ExecOptions{})
			if err != nil {
				b.Fatal(err)
			}
			rs := refFuse(res.Results, alpha)
			if len(rs) > 20 {
				rs = rs[:20]
			}
			if rs[0].Title != fused.Results[0].Title {
				b.Fatalf("orderings diverge: %s vs %s", rs[0].Title, fused.Results[0].Title)
			}
		}
	})
	b.Run("in-executor", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := e.Execute(expr, ExecOptions{Alpha: &alpha, Limit: 20})
			if err != nil {
				b.Fatal(err)
			}
			if res.Results[0].Title != fused.Results[0].Title {
				b.Fatal("orderings diverge")
			}
		}
	})
}
