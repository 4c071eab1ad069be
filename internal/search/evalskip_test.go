package search

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/query"
)

// TestFilterOnlyEvalSkipEquivalence pins the Eval-skip materialization: a
// filter-only (keyword-free, exactly index-derivable) query with NO facets
// requested takes the exact-set fast path, and its results — order,
// ranks, matched display pairs, totals — are identical to the refExecute
// oracle that evaluates every page; its cursors resume like offsets.
func TestFilterOnlyEvalSkipEquivalence(t *testing.T) {
	repo, e := executeFixture(t, 150)
	e.SetRanks(map[string]float64{"Sensor:S-0001": 0.4, "Sensor:S-0007": 0.2})
	exprs := []struct {
		expr      query.Expr
		wantPairs bool // positive property/range leaves ⇒ matched display pairs
	}{
		{query.Property{Name: "measures", Op: query.OpEq, Value: "temperature"}, true},
		{query.And{Children: []query.Expr{
			query.Namespace{Name: "Sensor"},
			query.Range{Name: "samplingRate", Min: "5", Max: "30"},
		}}, true},
		{query.Not{Child: query.Property{Name: "measures", Op: query.OpEq, Value: "humidity"}}, false},
		{query.All{}, false},
	}
	for i, tc := range exprs {
		expr := tc.expr
		for _, sortBy := range []SortKey{SortRelevance, SortTitle, SortRank} {
			for _, limit := range []int{0, 7} {
				opts := ExecOptions{SortBy: sortBy, Limit: limit}
				fast := sameAsOracle(t, e, expr, opts, fmt.Sprintf("expr %d sort %s limit %d", i, sortBy, limit))
				if fast.Matched == 0 {
					t.Errorf("expr %d matched nothing; fixture too weak", i)
				}
				// Paginated fast-path pages still carry matched pairs.
				if tc.wantPairs && limit > 0 && len(fast.Results) > 0 && len(fast.Results[0].Matched) == 0 {
					t.Errorf("expr %d: fast path dropped matched display pairs", i)
				}
			}
		}
	}

	// Cursors minted by the fast path resume correctly on the next page.
	expr := query.Namespace{Name: "Sensor"}
	first, err := e.Execute(expr, ExecOptions{SortBy: SortTitle, Limit: 5})
	if err != nil {
		t.Fatal(err)
	}
	if first.NextCursor == "" {
		t.Fatal("fast path minted no cursor")
	}
	second, err := e.Execute(expr, ExecOptions{SortBy: SortTitle, Limit: 5, Cursor: first.NextCursor})
	if err != nil {
		t.Fatal(err)
	}
	offset, err := e.Execute(expr, ExecOptions{SortBy: SortTitle, Limit: 5, Offset: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(second.Results, offset.Results) {
		t.Fatalf("cursor page != offset page\n  cursor %+v\n  offset %+v", second.Results, offset.Results)
	}

	// The fast path still honours the ACL.
	repo.ACL.DenyPage("intruder", "Sensor:S-0000")
	restricted := sameAsOracle(t, e, query.TitlePrefix{Prefix: "Sensor:S-000"},
		ExecOptions{SortBy: SortTitle, User: "intruder"}, "ACL")
	for _, r := range restricted.Results {
		if r.Title == "Sensor:S-0000" {
			t.Fatal("eval-skip path leaked an ACL-denied page")
		}
	}

	// A page deleted since the last refresh is still in the index's exact
	// set, but the fast path must not serve it as a result.
	repo.DeletePage("Sensor:S-0001")
	sameAsOracle(t, e, expr, ExecOptions{SortBy: SortTitle, Limit: 5}, "deleted before refresh")
}

// BenchmarkFilterOnlyMaterialize measures result materialization for a
// filter-only query page — the Eval-skip fast path against the refExecute
// oracle, a corpus scan that evaluates every page.
func BenchmarkFilterOnlyMaterialize(b *testing.B) {
	_, e := executeFixture(b, 2000)
	expr := query.And{Children: []query.Expr{
		query.Namespace{Name: "Sensor"},
		query.Not{Child: query.Property{Name: "measures", Op: query.OpEq, Value: "humidity"}},
	}}
	opts := ExecOptions{SortBy: SortTitle, Limit: 20}
	for _, arm := range []benchArm{
		executeArm("evalskip", e, expr, opts),
		oracleArm("baseline", e, expr, opts),
	} {
		b.Run(arm.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if res := arm.run(b); res.Matched == 0 {
					b.Fatal("no matches")
				}
			}
		})
	}
}
