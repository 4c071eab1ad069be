package search

import (
	"strings"
	"sync"

	"repro/internal/smr"
	"repro/internal/wiki"
)

// FilterOp is a property-filter comparison in an advanced query.
type FilterOp string

// Supported filter operators.
const (
	OpEquals   FilterOp = "="
	OpNotEqual FilterOp = "!="
	OpLess     FilterOp = "<"
	OpLessEq   FilterOp = "<="
	OpGreater  FilterOp = ">"
	OpGreatEq  FilterOp = ">="
	OpContains FilterOp = "contains"
)

// PropertyFilter restricts results to pages whose annotation satisfies the
// comparison. Ordered operators compare numerically when both sides parse
// as numbers, lexically otherwise.
type PropertyFilter struct {
	Property string
	Op       FilterOp
	Value    string
}

// SortKey selects the ordering of results.
type SortKey string

// Supported sort keys (the interface's "sort by" drop-down).
const (
	SortRelevance SortKey = "relevance"
	SortTitle     SortKey = "title"
	SortRank      SortKey = "rank" // PageRank score, supplied by the caller
)

// Order is the explicit result direction ("order by" in the interface).
type Order string

// Order values. OrderDefault gives each sort key its natural direction:
// descending for relevance and rank, ascending for title.
const (
	OrderDefault Order = ""
	OrderAsc     Order = "asc"
	OrderDesc    Order = "desc"
)

// Query is the advanced search input: free-text keywords plus structured
// options, mirroring the paper's query interface (keyword, sort by, order
// by, property conditions, namespace scope).
type Query struct {
	Keywords  string
	Mode      Mode
	Filters   []PropertyFilter
	Namespace string // "" means all namespaces
	Category  string // "" means all categories
	SortBy    SortKey
	Order     Order
	Limit     int // 0 means no limit
	Offset    int
	User      string // ACL principal; "" means anonymous
	// Alpha, when non-nil, orders results by the relevance/PageRank fusion
	// alpha·relevance + (1−alpha)·rank (normalized over the matching set)
	// instead of SortBy — the legacy alpha= parameter, executed inside the
	// engine's top-k selection. SortBy and Order are ignored while fusing.
	Alpha *float64
}

// Result is one search result with its component scores.
type Result struct {
	Title     string
	Relevance float64
	Rank      float64 // PageRank score when the engine has one
	Matched   map[string]string
}

// Trie entry weight classes: page titles outrank body terms in the
// completion box.
const (
	titleWeight = 2
	termWeight  = 1
)

// Engine executes advanced queries against an SMR repository. PageRank
// scores are pushed in by the ranking layer (internal/ranking) — the engine
// itself stays ignorant of how they are computed. The engine consumes the
// repository's change journal (Update) to keep its index and trie current
// without rebuilding them; Rebuild remains the from-scratch fallback.
//
// The keyword postings and structural metaIndex are partitioned into hash
// shards over page titles (see shard.go): Execute fans out across shards
// in parallel and k-way merges per-shard results, and Update routes each
// changed page to its owning shard, so refresh and query contend on
// per-shard locks instead of one index-wide lock. The autocomplete trie
// and the TF-IDF term statistics stay global.
type Engine struct {
	mu     sync.RWMutex
	repo   *smr.Repository
	shards []*engineShard
	trie   *Trie
	stats  *TermStats
	ranks  map[string]float64
	seq    uint64 // journal position the index reflects

	// writeMu serializes Rebuild/Update against each other.
	// Applying one journal run is idempotent, but two interleaved runs
	// would each see the pre-apply state (e.g. both observe a page as new)
	// and double-count trie references.
	writeMu sync.Mutex
}

// NewEngine builds an engine with the default shard count
// (min(GOMAXPROCS, 8)) and indexes the current repository content.
func NewEngine(repo *smr.Repository) *Engine {
	return NewEngineShards(repo, 0)
}

// NewEngineShards builds an engine partitioned into the given number of
// shards (<= 0 selects the default) and indexes the current repository
// content. The count is fixed for the engine's lifetime. Results and
// keyset cursors are byte-identical whatever it is; the count only chooses
// how much of the machine a query or refresh can use.
func NewEngineShards(repo *smr.Repository, shards int) *Engine {
	if shards <= 0 {
		shards = DefaultShardCount()
	}
	e := &Engine{repo: repo, ranks: map[string]float64{}, shards: make([]*engineShard, shards)}
	e.Rebuild()
	return e
}

// ShardCount returns the number of index shards.
func (e *Engine) ShardCount() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return len(e.shards)
}

// buildDocText renders the indexable text of a page: title, wikitext and
// annotation text, so both prose and structured values are searchable, as
// in Semantic MediaWiki.
func buildDocText(p *wiki.Page) string {
	var b strings.Builder
	b.WriteString(p.Title.String())
	b.WriteByte('\n')
	b.WriteString(p.Text())
	for _, a := range p.Annotations {
		b.WriteByte('\n')
		b.WriteString(a.Property)
		b.WriteByte(' ')
		b.WriteString(a.Value)
	}
	return b.String()
}

// upsertPage (re)indexes one page into its shard and keeps the trie's
// refcounts, the global term statistics and the structural metaIndex in
// step: one title reference per live page, one term reference per
// (page, term), one posting per structural key, one df count per
// (live page, term).
func upsertPage(sh *engineShard, tr *Trie, stats *TermStats, p *wiki.Page) {
	title := p.Title.String()
	isNew := !sh.index.Has(title)
	added, removed := sh.index.Add(title, buildDocText(p))
	docDelta := 0
	if isNew {
		tr.Insert(title, titleWeight)
		docDelta = 1
	}
	stats.apply(added, removed, docDelta)
	for _, t := range removed {
		tr.Remove(t, termWeight)
	}
	for _, t := range added {
		tr.Insert(t, termWeight)
	}
	sh.meta.upsert(title, pageMetaKeys(p), pageAnnCounts(p))
}

// deletePage drops one page from its shard and releases its trie entries,
// df counts and structural postings.
func deletePage(sh *engineShard, tr *Trie, stats *TermStats, title string) {
	if !sh.index.Has(title) {
		return
	}
	removed := sh.index.Remove(title)
	stats.apply(nil, removed, -1)
	for _, t := range removed {
		tr.Remove(t, termWeight)
	}
	tr.Remove(title, titleWeight)
	sh.meta.remove(title)
}

// Rebuild re-indexes every page from scratch and swaps the fresh structures
// in atomically. Searches running concurrently keep the old snapshot.
func (e *Engine) Rebuild() {
	e.writeMu.Lock()
	defer e.writeMu.Unlock()
	e.rebuildLocked()
}

// rebuildLocked is Rebuild's body; the caller holds writeMu. The shard
// count is fixed at construction, so the fresh partition has as many
// shards as the one it replaces.
func (e *Engine) rebuildLocked() {
	e.mu.RLock()
	n := len(e.shards)
	e.mu.RUnlock()
	// Capture the journal position first: changes racing with the scan may
	// be double-applied by a later Update, which is idempotent.
	seq := e.repo.LastSeq()
	stats := newTermStats()
	shards := make([]*engineShard, n)
	for i := range shards {
		shards[i] = newEngineShard(stats)
	}
	trie := NewTrie()
	e.repo.Wiki.Each(func(p *wiki.Page) {
		upsertPage(shards[shardOf(p.Title.String(), n)], trie, stats, p)
	})
	e.mu.Lock()
	e.shards, e.trie, e.stats, e.seq = shards, trie, stats, seq
	e.mu.Unlock()
}

// UpdateStats reports what one Update call did.
type UpdateStats struct {
	Full         bool   // the journal was truncated past us: a full Rebuild ran
	Applied      int    // pages re-indexed or dropped
	LinksChanged bool   // some applied change altered the link graph
	Seq          uint64 // journal position the engine now reflects
}

// Update consumes the repository's change journal since the engine's last
// position and applies the delta to the live index and trie — O(changed
// pages) instead of Rebuild's O(corpus). When the journal no longer retains
// the engine's position it falls back to a full Rebuild. The stats tell the
// caller whether the link graph changed (and PageRank therefore needs
// recomputing).
func (e *Engine) Update() UpdateStats {
	e.writeMu.Lock()
	defer e.writeMu.Unlock()
	e.mu.RLock()
	since := e.seq
	e.mu.RUnlock()
	changes, ok := e.repo.Changes(since)
	if !ok {
		e.rebuildLocked()
		e.mu.RLock()
		seq := e.seq
		e.mu.RUnlock()
		return UpdateStats{Full: true, LinksChanged: true, Seq: seq}
	}
	if len(changes) == 0 {
		return UpdateStats{Seq: since}
	}
	stats := UpdateStats{Seq: changes[len(changes)-1].Seq}
	// Coalesce to one application per title: the page is re-read from the
	// repository's current state, so the latest revision wins regardless of
	// how many journal entries it accumulated. Tag assignments don't touch
	// the indexed text, so ChangeTag entries only advance the position.
	seen := make(map[string]bool, len(changes))
	titles := make([]string, 0, len(changes))
	for _, c := range changes {
		if c.Kind == smr.ChangeTag {
			continue
		}
		if c.LinksChanged {
			stats.LinksChanged = true
		}
		if !seen[c.Title] {
			seen[c.Title] = true
			titles = append(titles, c.Title)
		}
	}
	e.mu.RLock()
	shards, tr, ts := e.shards, e.trie, e.stats
	e.mu.RUnlock()
	// Route each changed title to its owning shard, then apply the groups
	// in parallel: within a shard application stays sequential (ordering
	// per title matters), across shards only the trie and term stats are
	// shared and both take their own locks. A query touching shard A never
	// waits on a refresh writing shard B.
	groups := make([][]string, len(shards))
	for _, title := range titles {
		s := shardOf(title, len(shards))
		groups[s] = append(groups[s], title)
	}
	apply := func(si int) {
		for _, title := range groups[si] {
			if page, ok := e.repo.Wiki.Get(title); ok {
				upsertPage(shards[si], tr, ts, page)
			} else {
				deletePage(shards[si], tr, ts, title)
			}
		}
	}
	busy := 0
	for si := range groups {
		if len(groups[si]) > 0 {
			busy++
		}
	}
	if busy <= 1 {
		for si := range groups {
			apply(si)
		}
	} else {
		var wg sync.WaitGroup
		for si := range groups {
			if len(groups[si]) == 0 {
				continue
			}
			wg.Add(1)
			go func(si int) {
				defer wg.Done()
				apply(si)
			}(si)
		}
		wg.Wait()
	}
	stats.Applied = len(titles)
	e.mu.Lock()
	if stats.Seq > e.seq {
		e.seq = stats.Seq
	}
	e.mu.Unlock()
	return stats
}

// Seq returns the journal position the engine currently reflects.
func (e *Engine) Seq() uint64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.seq
}

// SetRanks installs PageRank scores for SortRank ordering and for the Rank
// field of results.
func (e *Engine) SetRanks(ranks map[string]float64) {
	e.mu.Lock()
	e.ranks = ranks
	e.mu.Unlock()
}

// Autocomplete suggests completions for a partial query.
func (e *Engine) Autocomplete(prefix string, k int) []Completion {
	e.mu.RLock()
	trie := e.trie
	e.mu.RUnlock()
	return trie.Complete(prefix, k)
}

// Search runs an advanced query. The flat legacy Query is translated onto
// the compositional AST (LegacyExpr) and executed by Execute, so the
// legacy parameter surface and the /api/v1 expression surface share one
// executor — candidate pruning included. When the query carries a Limit,
// candidates stream through a bounded top-(Limit+Offset) selector instead
// of being materialized and fully sorted.
func (e *Engine) Search(q Query) ([]Result, error) {
	rs, _, _, err := e.SearchWithFacets(q, nil)
	return rs, err
}

// SearchWithFacets runs an advanced query and, in the same pass over the
// matching set, accumulates per-property value counts for the given
// properties (deduplicated case-insensitively) — the one-enumeration path
// behind faceted search responses. The facets and matched count cover
// every matching page regardless of Limit/Offset; with no properties it
// behaves exactly like Search plus the matched total.
func (e *Engine) SearchWithFacets(q Query, properties []string) ([]Result, map[string]map[string]int, int, error) {
	expr, err := LegacyExpr(q)
	if err != nil {
		return nil, nil, 0, err
	}
	opts := ExecOptions{
		SortBy: q.SortBy, Order: q.Order,
		Limit: q.Limit, Offset: q.Offset,
		User: q.User, Facets: properties,
		Alpha: q.Alpha,
	}
	if q.Alpha != nil {
		// Legacy surface: alpha always defined the final order, whatever
		// sort/order said (the old path re-sorted after the fact). The
		// executor enforces that pairing strictly, so drop them here.
		opts.SortBy, opts.Order = SortRelevance, OrderDefault
	}
	res, err := e.Execute(expr, opts)
	if err != nil {
		return nil, nil, 0, err
	}
	return res.Results, res.Facets, res.Matched, nil
}

// facetAccumulators prepares the count maps for a property list,
// deduplicated case-insensitively so repeated or differently-cased
// parameters cannot double-count.
func facetAccumulators(properties []string) ([]string, map[string]map[string]int) {
	props := make([]string, 0, len(properties))
	facets := make(map[string]map[string]int, len(properties))
	for _, prop := range properties {
		key := strings.ToLower(prop)
		if _, ok := facets[key]; ok {
			continue
		}
		facets[key] = make(map[string]int)
		props = append(props, key)
	}
	return props, facets
}

// resultLessKeyed builds the comparator of a query's final display order:
// the sort key's natural direction (best-first for scores, A→Z for
// titles), ties broken by title, the whole order negated when an explicit
// Order opposes the natural one. Titles are unique within a result set, so
// this is a strict total order and negation is exactly the reversed list.
// The strict total order is also what makes keyset cursors sound: every
// result has a unique position, so "strictly after the cursor row" is
// unambiguous.
func resultLessKeyed(key SortKey, order Order) func(a, b Result) bool {
	if key == "" {
		key = SortRelevance
	}
	natural := func(a, b Result) bool {
		switch key {
		case SortTitle:
			if a.Title != b.Title {
				return a.Title < b.Title
			}
		case SortRank:
			if a.Rank != b.Rank {
				return a.Rank > b.Rank
			}
		default:
			if a.Relevance != b.Relevance {
				return a.Relevance > b.Relevance
			}
		}
		return a.Title < b.Title
	}
	naturalOrder := OrderDesc
	if key == SortTitle {
		naturalOrder = OrderAsc
	}
	if order != OrderDefault && order != naturalOrder {
		return func(a, b Result) bool { return natural(b, a) }
	}
	return natural
}

// fusedResultLess builds the comparator of the alpha-fused display order:
// combined = alpha·(relevance/maxRel) + (1−alpha)·(rank/maxRank),
// descending, ties broken by title — exactly the arithmetic of the legacy
// post-hoc re-sort (division by the matching set's maxima, zero when a
// maximum is zero; refFuse in the tests is that oracle), so in-executor
// fusion reproduces the legacy ordering bit for bit. An explicit ascending Order reverses the strict total
// order.
func fusedResultLess(alpha, maxRel, maxRank float64, order Order) func(a, b Result) bool {
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
	natural := func(a, b Result) bool {
		ca, cb := combined(a), combined(b)
		if ca != cb {
			return ca > cb
		}
		return a.Title < b.Title
	}
	if order != OrderDefault && order != OrderDesc {
		return func(a, b Result) bool { return natural(b, a) }
	}
	return natural
}

// FacetCounts computes value counts per property over every page matching
// the query, streaming counts directly from the candidate enumeration
// without materializing a []Result — the O(matches) allocation-free path
// behind the bar/pie charts and the dynamic drop-down drill-downs. The
// query's Limit, Offset and sort options are ignored: facets describe the
// whole matching set. It returns the counts (property names lowercased)
// and the number of matching pages.
func (e *Engine) FacetCounts(q Query, properties []string) (map[string]map[string]int, int, error) {
	expr, err := LegacyExpr(q)
	if err != nil {
		return nil, 0, err
	}
	res, err := e.Execute(expr, ExecOptions{User: q.User, Facets: properties, CountOnly: true})
	if err != nil {
		return nil, 0, err
	}
	return res.Facets, res.Matched, nil
}

// Facets computes value counts per property over a result set — the data
// behind the bar/pie charts when the caller has already materialized (and
// possibly truncated) results. For counts over the full matching set
// without building []Result, use FacetCounts. Properties are deduplicated
// case-insensitively, as on every other facet path.
func (e *Engine) Facets(results []Result, properties []string) map[string]map[string]int {
	props, out := facetAccumulators(properties)
	for _, r := range results {
		page, ok := e.repo.Wiki.Get(r.Title)
		if !ok {
			continue
		}
		for _, p := range props {
			for _, v := range page.PropertyValues(p) {
				out[p][v]++
			}
		}
	}
	return out
}
