package search

import (
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"repro/internal/query"
)

// refExecute is the brute-force oracle of Execute: it walks every live
// title of the corpus and, with none of the executor's pruning, driving,
// exact-set or shard fan-out machinery, applies in order
//
//   - liveness and the ACL check;
//   - query.Eval of the normalized expression, keywords scored by the
//     owning shard's kwMatchers;
//   - facet counts into facetAccumulators' maps;
//   - the executor's own display order (resultLessKeyed, or
//     fusedResultLess over the whole matching set's maxima when Alpha is
//     set);
//   - Offset and Limit.
//
// Cursors, Explain and NextCursor are not modelled; callers compare
// Results, Facets and Matched (sameAsOracle).
func refExecute(e *Engine, expr query.Expr, opts ExecOptions) *ExecResult {
	if expr == nil {
		expr = query.All{}
	}
	norm := query.Normalize(expr)
	e.mu.RLock()
	shards, ranks := e.shards, e.ranks
	e.mu.RUnlock()
	kws := make([]*kwMatchers, len(shards))
	for i, sh := range shards {
		kws[i] = newKwMatchers(sh.index)
	}
	props, facets := facetAccumulators(opts.Facets)
	res := &ExecResult{Facets: facets}
	var rs []Result
	var maxRel, maxRank float64
	for _, title := range e.repo.Wiki.Titles() {
		page, ok := e.repo.Wiki.Get(title)
		if !ok || !e.repo.ACL.CanRead(opts.User, title) {
			continue
		}
		m := query.Eval(norm, docView{page: page, title: title, kws: kws[shardOf(title, len(kws))]})
		if !m.OK {
			continue
		}
		res.Matched++
		for _, p := range props {
			for _, v := range page.PropertyValues(p) {
				facets[p][v]++
			}
		}
		r := Result{Title: title, Relevance: m.Score, Rank: ranks[title], Matched: m.Matched}
		maxRel, maxRank = max(maxRel, r.Relevance), max(maxRank, r.Rank)
		rs = append(rs, r)
	}
	if opts.CountOnly {
		return res
	}
	less := resultLessKeyed(opts.SortBy, opts.Order)
	if opts.Alpha != nil {
		less = fusedResultLess(clamp01(*opts.Alpha), maxRel, maxRank, opts.Order)
	}
	sort.Slice(rs, func(i, j int) bool { return less(rs[i], rs[j]) })
	rs = rs[min(opts.Offset, len(rs)):]
	if opts.Limit > 0 && opts.Limit < len(rs) {
		rs = rs[:opts.Limit]
	}
	res.Results = rs
	return res
}

// sameAsOracle runs expr through Execute and refExecute and reports any
// difference in the returned page (order, scores, ranks, matched display
// pairs), the facet counts or the matched total. It returns Execute's
// result for further checks.
func sameAsOracle(t testing.TB, e *Engine, expr query.Expr, opts ExecOptions, label string) *ExecResult {
	t.Helper()
	got, err := e.Execute(expr, opts)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	want := refExecute(e, expr, opts)
	if got.Matched != want.Matched {
		t.Errorf("%s: matched %d, oracle %d", label, got.Matched, want.Matched)
	}
	if !reflect.DeepEqual(got.Facets, want.Facets) {
		t.Errorf("%s: facets diverge from the oracle\n  got  %v\n  want %v", label, got.Facets, want.Facets)
	}
	if (len(got.Results) > 0 || len(want.Results) > 0) && !reflect.DeepEqual(got.Results, want.Results) {
		t.Errorf("%s: results diverge from the oracle\n  got  %+v\n  want %+v", label, got.Results, want.Results)
	}
	return got
}

// benchArm is one side of an executor-versus-oracle benchmark.
type benchArm struct {
	name string
	run  func(b *testing.B) *ExecResult
}

// executeArm and oracleArm build the two sides for one query.
func executeArm(name string, e *Engine, expr query.Expr, opts ExecOptions) benchArm {
	return benchArm{name, func(b *testing.B) *ExecResult {
		res, err := e.Execute(expr, opts)
		if err != nil {
			b.Fatal(err)
		}
		return res
	}}
}

func oracleArm(name string, e *Engine, expr query.Expr, opts ExecOptions) benchArm {
	return benchArm{name, func(*testing.B) *ExecResult { return refExecute(e, expr, opts) }}
}

// BenchmarkFacetIndexVsStream measures filter-only facet counting. The
// indexed arm is Execute, which answers by posting-set arithmetic alone
// (exact match set ∩ per-raw-value postings, occurrence counts summed) —
// no page is fetched or evaluated. The scan arm is the refExecute oracle:
// a corpus scan that fetches and evaluates every live page and
// accumulates its property values. Two query shapes: a broad namespace
// scope (counts over most of the corpus) and a selective property filter.
func BenchmarkFacetIndexVsStream(b *testing.B) {
	_, e := executeFixture(b, 5000)
	props := []string{"measures", "samplingRate"}
	shapes := []struct {
		name string
		expr query.Expr
	}{
		{"broad", query.Namespace{Name: "Sensor"}},
		{"selective", query.Property{Name: "partof", Op: query.OpEq, Value: "Deployment:D-03"}},
	}
	for _, shape := range shapes {
		opts := ExecOptions{CountOnly: true, Facets: props}
		want := refExecute(e, shape.expr, opts)
		for _, arm := range []benchArm{
			oracleArm("scan", e, shape.expr, opts),
			executeArm("indexed", e, shape.expr, opts),
		} {
			b.Run(shape.name+"/"+arm.name, func(b *testing.B) {
				b.ReportMetric(float64(want.Matched), "matches")
				for i := 0; i < b.N; i++ {
					if res := arm.run(b); res.Matched != want.Matched {
						b.Fatalf("matched %d, want %d", res.Matched, want.Matched)
					}
				}
			})
		}
	}
}

// BenchmarkFilterPushdown measures the executor's candidate pruning on a
// selective-filter keyword query (the filter matches under 2% of the
// corpus): the pruned arm is Execute, which intersects the (property,
// value) posting set first and scores keywords only over the survivors;
// the scan arm is the refExecute oracle, a corpus scan that evaluates the
// whole expression on every live page.
func BenchmarkFilterPushdown(b *testing.B) {
	repo, base := executeFixture(b, 5000)
	expr := query.And{Children: []query.Expr{
		query.Keyword{Text: "sensor", Any: true},
		query.Property{Name: "samplingrate", Op: query.OpEq, Value: "7"},
	}}
	sel := refExecute(base, expr, ExecOptions{CountOnly: true})
	if hi := repo.Wiki.Len() / 50; sel.Matched == 0 || sel.Matched > hi {
		b.Fatalf("filter matches %d of %d pages; want selective (<%d)", sel.Matched, repo.Wiki.Len(), hi)
	}
	shardCounts := []int{1}
	if n := runtime.NumCPU(); n > 1 {
		shardCounts = append(shardCounts, n)
	}
	opts := ExecOptions{Limit: 20}
	for _, shards := range shardCounts {
		e := NewEngineShards(repo, shards)
		for _, arm := range []benchArm{
			oracleArm("scan", e, expr, opts),
			executeArm("pruned", e, expr, opts),
		} {
			b.Run(fmt.Sprintf("shards=%d/%s", shards, arm.name), func(b *testing.B) {
				b.ReportMetric(float64(sel.Matched), "matches")
				for i := 0; i < b.N; i++ {
					if res := arm.run(b); res.Matched != sel.Matched {
						b.Fatalf("matched %d, want %d", res.Matched, sel.Matched)
					}
				}
			})
		}
	}
}
