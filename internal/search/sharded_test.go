package search

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/query"
	"repro/internal/smr"
)

// shardedFixture builds a randomized corpus (puts, overwrites and deletes,
// so freed index slots and retracted postings are in play) and returns the
// repository plus a rank vector to install.
func shardedFixture(t *testing.T, rng *rand.Rand, pages int) (*smr.Repository, map[string]float64) {
	t.Helper()
	repo, err := smr.New()
	if err != nil {
		t.Fatal(err)
	}
	ranks := make(map[string]float64)
	for i := 0; i < pages; i++ {
		title := fmt.Sprintf("Sensor:R%03d", i)
		if _, err := repo.PutPage(title, "t", randomPageText(rng), ""); err != nil {
			t.Fatal(err)
		}
		ranks[title] = rng.Float64()
	}
	for i := 0; i < pages/4; i++ {
		title := fmt.Sprintf("Sensor:R%03d", rng.Intn(pages))
		if rng.Intn(3) == 0 {
			repo.DeletePage(title)
		} else if _, err := repo.PutPage(title, "t", randomPageText(rng), ""); err != nil {
			t.Fatal(err)
		}
	}
	return repo, ranks
}

// shardedExecCases is the query-shape battery the equivalence suite runs:
// keyword-driven (all/any/phrase), filter-pruned, exact-set/facet,
// or-union, alpha-fused, negated, offset/limit and count-only paths.
func shardedExecCases() []struct {
	name string
	expr query.Expr
	opts ExecOptions
} {
	alpha := 0.7
	return []struct {
		name string
		expr query.Expr
		opts ExecOptions
	}{
		{"kw-all", query.Keyword{Text: "wind snow"}, ExecOptions{}},
		{"kw-any", query.Keyword{Text: "wind snow", Any: true}, ExecOptions{SortBy: SortRelevance}},
		{"kw-phrase", query.Keyword{Text: `"wind snow"`}, ExecOptions{}},
		{"kw-limit", query.Keyword{Text: "station", Any: true}, ExecOptions{Limit: 5}},
		{"kw-offset", query.Keyword{Text: "station", Any: true}, ExecOptions{Limit: 4, Offset: 3}},
		{"kw-rank", query.Keyword{Text: "wind", Any: true}, ExecOptions{SortBy: SortRank, Limit: 7}},
		{"kw-title-desc", query.Keyword{Text: "wind", Any: true}, ExecOptions{SortBy: SortTitle, Order: OrderDesc}},
		{"filter-pruned", query.And{Children: []query.Expr{
			query.Keyword{Text: "wind", Any: true},
			query.Property{Name: "samplingRate", Op: query.OpGt, Value: "10"},
		}}, ExecOptions{Limit: 6}},
		{"exact-structural", query.Property{Name: "partOf", Op: query.OpEq, Value: "Deployment:D1"},
			ExecOptions{SortBy: SortTitle, Limit: 5, Facets: []string{"samplingRate", "partOf"}}},
		{"exact-namespace", query.Namespace{Name: "Sensor"}, ExecOptions{SortBy: SortTitle, Limit: 9}},
		{"or-union", query.Or{Children: []query.Expr{
			query.Keyword{Text: "pyranometer", Any: true},
			query.Property{Name: "partOf", Op: query.OpEq, Value: "Deployment:D2"},
		}}, ExecOptions{SortBy: SortTitle}},
		{"negation", query.And{Children: []query.Expr{
			query.Keyword{Text: "wind", Any: true},
			query.Not{Child: query.Property{Name: "partOf", Op: query.OpEq, Value: "Deployment:D0"}},
		}}, ExecOptions{}},
		{"all-scan", query.All{}, ExecOptions{SortBy: SortTitle, Limit: 11, Facets: []string{"partOf"}}},
		{"alpha-fused", query.Keyword{Text: "wind temperature", Any: true}, ExecOptions{Alpha: &alpha, Limit: 8}},
		{"count-only", query.Keyword{Text: "wind", Any: true},
			ExecOptions{CountOnly: true, Facets: []string{"samplingRate"}}},
		{"count-exact", query.Namespace{Name: "Sensor"},
			ExecOptions{CountOnly: true, Facets: []string{"partOf"}}},
		{"filter-unlimited", query.And{Children: []query.Expr{
			query.Keyword{Text: "wind", Any: true},
			query.Property{Name: "samplingRate", Op: query.OpGt, Value: "5"},
		}}, ExecOptions{}},
	}
}

// TestShardedEquivalence is the property suite of the sharded executor:
// for shard counts 1, 2, 3 and 8 over randomized corpora, every execution
// path — results with their float scores, facet counts, matched totals,
// autocomplete and full cursor walks (tokens included, resumed across
// engines) — must be byte-identical to the single-shard engine, and every
// case must match the refExecute oracle. Scores agree bit-for-bit
// because all shards share one global TermStats; orderings agree because
// every comparator is a strict total order, so the k-way merge of
// per-shard heaps reproduces the global selection exactly.
func TestShardedEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			repo, ranks := shardedFixture(t, rng, 60)
			base := NewEngineShards(repo, 1)
			base.SetRanks(ranks)
			for _, p := range []int{1, 2, 3, 8} {
				sharded := NewEngineShards(repo, p)
				sharded.SetRanks(ranks)
				if got := sharded.ShardCount(); got != p {
					t.Fatalf("ShardCount = %d, want %d", got, p)
				}
				for _, tc := range shardedExecCases() {
					want, err := base.Execute(tc.expr, tc.opts)
					if err != nil {
						t.Fatalf("shards=%d case %s (base): %v", p, tc.name, err)
					}
					got, err := sharded.Execute(tc.expr, tc.opts)
					if err != nil {
						t.Fatalf("shards=%d case %s: %v", p, tc.name, err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("shards=%d case %s diverges:\nsharded   = %+v\nunsharded = %+v",
							p, tc.name, got, want)
					}
					sameAsOracle(t, sharded, tc.expr, tc.opts, fmt.Sprintf("shards=%d case %s", p, tc.name))
				}
				for _, prefix := range []string{"s", "wi", "Sensor:", "an", "temp"} {
					got := sharded.Autocomplete(prefix, 10)
					want := base.Autocomplete(prefix, 10)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("shards=%d autocomplete %q: %+v vs %+v", p, prefix, got, want)
					}
				}
				checkCursorWalksAgree(t, base, sharded, p)
			}
		})
	}
}

// checkCursorWalksAgree pages both engines through the same queries and
// asserts every page AND every minted cursor token is byte-identical —
// tokens embed the sort-key values of the last row, so equal tokens are a
// stronger statement than equal pages. It then walks again alternating
// engines page by page, in both starting orders, so every cursor one
// engine minted is resumed on the other; the crossed walks must equal the
// single-engine walk.
func checkCursorWalksAgree(t *testing.T, base, sharded *Engine, p int) {
	t.Helper()
	alpha := 0.4
	walks := []struct {
		name string
		expr query.Expr
		opts ExecOptions
	}{
		{"rel", query.Keyword{Text: "wind snow station", Any: true}, ExecOptions{Limit: 3}},
		{"title", query.Namespace{Name: "Sensor"}, ExecOptions{SortBy: SortTitle, Limit: 4}},
		{"rank-desc", query.Keyword{Text: "wind", Any: true}, ExecOptions{SortBy: SortRank, Limit: 2}},
		{"fused", query.Keyword{Text: "wind temperature", Any: true}, ExecOptions{Alpha: &alpha, Limit: 3}},
	}
	for _, w := range walks {
		wantPages, wantTokens := cursorWalk(t, []*Engine{base}, w.expr, w.opts)
		for _, engines := range []struct {
			name string
			seq  []*Engine
		}{
			{"sharded", []*Engine{sharded}},
			{"unsharded→sharded", []*Engine{base, sharded}},
			{"sharded→unsharded", []*Engine{sharded, base}},
		} {
			gotPages, gotTokens := cursorWalk(t, engines.seq, w.expr, w.opts)
			if !reflect.DeepEqual(gotPages, wantPages) {
				t.Fatalf("shards=%d walk %s (%s) pages diverge:\ngot       = %+v\nunsharded = %+v",
					p, w.name, engines.name, gotPages, wantPages)
			}
			if !reflect.DeepEqual(gotTokens, wantTokens) {
				t.Fatalf("shards=%d walk %s (%s) cursor tokens diverge:\ngot       = %v\nunsharded = %v",
					p, w.name, engines.name, gotTokens, wantTokens)
			}
		}
		if len(wantTokens) < 2 {
			t.Fatalf("walk %s mints %d cursors; too few to cross engines both ways", w.name, len(wantTokens))
		}
	}
}

// cursorWalk follows NextCursor to exhaustion, serving page i from
// engines[i%len(engines)], and returns every page of results and every
// token minted along the way.
func cursorWalk(t *testing.T, engines []*Engine, expr query.Expr, opts ExecOptions) ([][]Result, []string) {
	t.Helper()
	var pages [][]Result
	var tokens []string
	for steps := 0; ; steps++ {
		if steps > 1000 {
			t.Fatal("cursor walk did not terminate")
		}
		res, err := engines[steps%len(engines)].Execute(expr, opts)
		if err != nil {
			t.Fatalf("cursor walk: %v", err)
		}
		pages = append(pages, res.Results)
		if res.NextCursor == "" {
			return pages, tokens
		}
		tokens = append(tokens, res.NextCursor)
		opts.Cursor = res.NextCursor
	}
}

// TestPartitionTitlesIsAPartition checks the shard routing invariant the
// whole design rests on: every title lands in exactly one shard, shard
// lists stay sorted, and placement matches shardOf.
func TestPartitionTitlesIsAPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var all []string
	for i := 0; i < 200; i++ {
		all = append(all, fmt.Sprintf("Sensor:P%03d-%d", i, rng.Intn(10)))
	}
	for _, n := range []int{1, 2, 3, 8, 13} {
		parts := partitionTitles(all, n)
		if len(parts) != max(n, 1) {
			t.Fatalf("n=%d: %d parts", n, len(parts))
		}
		total := 0
		for si, part := range parts {
			total += len(part)
			for i, title := range part {
				if shardOf(title, n) != si {
					t.Fatalf("n=%d: %q in shard %d, shardOf says %d", n, title, si, shardOf(title, n))
				}
				if i > 0 && part[i-1] >= title {
					t.Fatalf("n=%d shard %d: not sorted at %d", n, si, i)
				}
			}
		}
		if total != len(all) {
			t.Fatalf("n=%d: %d titles across shards, want %d", n, total, len(all))
		}
	}
}
