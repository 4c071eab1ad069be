// Package recommend implements the paper's recommendation mechanism: it
// "presents relevant pages based on the combination of query inputs and
// properties that are high-scored by the PageRank algorithm" (Section II).
//
// Properties inherit importance from the pages that carry them: a
// property's score is the summed PageRank of its annotated pages. Given the
// pages a query matched, the recommender finds other pages sharing
// (property, value) pairs with the seed set and scores each candidate by
// shared-pair property weight × the candidate's own PageRank.
//
// The recommender is a consumer of the repository's change journal: it
// remembers each page's distinct property set and the PageRank its
// contributions currently reflect, so Update adjusts the affected property
// scores in O(annotations in the changed pages) instead of rescanning the
// corpus via Wiki.Each. A journal window overrun (smr.Repository.Changes
// reporting !ok) falls back to a full rebuild. All posting lists are
// sorted title sets (internal/sortedset) and all score sums are
// accumulated in sorted page-title order on both the incremental and the
// rebuild path, so the two produce bit-identical floating-point property
// scores.
package recommend

import (
	"sort"
	"strings"
	"sync"

	"repro/internal/smr"
	"repro/internal/sortedset"
	"repro/internal/wiki"
)

// Recommendation is one proposed page.
type Recommendation struct {
	Title  string
	Score  float64
	Shared []string // "property=value" pairs that connected it to the seeds
}

// Stats counts what the recommender's refresh paths have done, for the
// admin endpoint.
type Stats struct {
	Seq          uint64 // journal position the property scores reflect
	DeltaUpdates int    // Update calls that applied a journal delta
	FullRebuilds int    // from-scratch rescans (construction, window overrun)
	Rescores     int    // SetRanks calls (new PageRank, property sets reused)
	PagesApplied int    // cumulative pages applied by deltas
}

// recShard is one hash partition of the recommender's posting state: the
// property → pages and (property, value) pair → pages inverted indexes,
// plus each owned page's pair set. Placement follows sortedset.Shard over
// page titles — the same function the search engine shards by — so a
// changed page routes to exactly one shard and Recommend can scan
// candidate lists shard-parallel.
type recShard struct {
	propPages map[string][]string
	pagePairs map[string][]string
	pairPages map[string][]string
}

func newRecShard() *recShard {
	return &recShard{
		propPages: make(map[string][]string),
		pagePairs: make(map[string][]string),
		pairPages: make(map[string][]string),
	}
}

// Recommender derives property importance from PageRank scores and keeps it
// current against the repository's change journal. Safe for concurrent use:
// Update/SetRanks serialize against queries.
type Recommender struct {
	mu    sync.RWMutex
	repo  *smr.Repository
	ranks map[string]float64
	// pageProps records each page's sorted distinct (lowercased) property
	// names — the state needed to retract a page's contribution when it
	// changes or disappears.
	pageProps map[string][]string
	// shards partitions the posting indexes by page title. Per property,
	// the shard lists k-way merge (sortedset.MergeK) back into the one
	// sorted contribution list scoring folds over; pageRank records the
	// PageRank each page's contributions currently reflect, and
	// propScore[p] is always the sum of pageRank over the MERGED list in
	// slice order — the same title-sorted order an unsharded build
	// produces, which keeps property scores bit-identical across shard
	// counts and across incremental vs rebuilt state.
	shards    []*recShard
	pageRank  map[string]float64
	propScore map[string]float64
	seq       uint64
	stats     Stats
}

// New builds an unsharded recommender from the repository and a PageRank
// score map (page title → score), scanning the current corpus once.
func New(repo *smr.Repository, ranks map[string]float64) *Recommender {
	return NewSharded(repo, ranks, 1)
}

// NewSharded builds a recommender whose posting indexes are partitioned
// into n hash shards (n <= 0 selects 1). Recommendations are byte-identical
// whatever the shard count; the count only sets how many goroutines a
// Recommend call can fan candidate scanning across.
func NewSharded(repo *smr.Repository, ranks map[string]float64, n int) *Recommender {
	if n <= 0 {
		n = 1
	}
	r := &Recommender{repo: repo, ranks: ranks, shards: make([]*recShard, n)}
	r.mu.Lock()
	r.rebuildLocked()
	r.mu.Unlock()
	return r
}

// shardFor routes a page title to its owning shard. Caller holds at least
// the read lock.
func (r *Recommender) shardFor(title string) *recShard {
	return r.shards[sortedset.Shard(title, len(r.shards))]
}

// mergedPropPages folds a property's per-shard contribution lists back
// into one sorted title set. Shards partition titles, so the merge has no
// duplicates and MergeK reproduces exactly the list an unsharded build
// appends. Caller holds at least the read lock.
func (r *Recommender) mergedPropPages(key string) []string {
	if len(r.shards) == 1 {
		return r.shards[0].propPages[key]
	}
	lists := make([][]string, 0, len(r.shards))
	for _, sh := range r.shards {
		if l := sh.propPages[key]; len(l) > 0 {
			lists = append(lists, l)
		}
	}
	return sortedset.MergeK(lists)
}

// rebuildLocked rescans the corpus from scratch. Caller holds the write
// lock.
func (r *Recommender) rebuildLocked() {
	// Capture the journal position first: changes racing with the scan may
	// be double-applied by a later Update, which is idempotent.
	r.seq = r.repo.LastSeq()
	r.pageProps = make(map[string][]string)
	r.pageRank = make(map[string]float64)
	r.propScore = make(map[string]float64)
	for i := range r.shards {
		r.shards[i] = newRecShard()
	}
	// Wiki.Each iterates in sorted title order, so appends build the
	// per-property contribution lists (and pair postings) already
	// title-sorted within each shard.
	r.repo.Wiki.Each(func(p *wiki.Page) {
		title := p.Title.String()
		props := distinctProps(p)
		if len(props) == 0 {
			return
		}
		sh := r.shardFor(title)
		r.pageProps[title] = props
		r.pageRank[title] = r.ranks[title]
		for _, key := range props {
			sh.propPages[key] = append(sh.propPages[key], title)
		}
		pairs := distinctPairs(p)
		sh.pagePairs[title] = pairs
		for _, pair := range pairs {
			sh.pairPages[pair] = append(sh.pairPages[pair], title)
		}
	})
	keys := make(map[string]bool)
	for _, sh := range r.shards {
		for key := range sh.propPages {
			keys[key] = true
		}
	}
	for key := range keys {
		r.propScore[key] = r.sumRanks(r.mergedPropPages(key))
	}
	r.stats.FullRebuilds++
	r.stats.Seq = r.seq
}

// distinctPairs returns the page's distinct (property, value) pair keys,
// sorted.
func distinctPairs(p *wiki.Page) []string {
	pairs := make([]string, 0, len(p.Annotations))
	for _, a := range p.Annotations {
		pairs = append(pairs, pairKey(a.Property, a.Value))
	}
	return sortedset.FromSlice(pairs)
}

// distinctProps returns the page's distinct lowercased property names,
// sorted.
func distinctProps(p *wiki.Page) []string {
	props := make([]string, 0, len(p.Annotations))
	for _, a := range p.Annotations {
		props = append(props, strings.ToLower(a.Property))
	}
	return sortedset.FromSlice(props)
}

// sumRanks folds a title-sorted contribution list into a score using the
// retained per-page ranks. The deterministic order makes incremental and
// rebuilt sums bit-identical.
func (r *Recommender) sumRanks(titles []string) float64 {
	var s float64
	for _, t := range titles {
		s += r.pageRank[t]
	}
	return s
}

// UpdateStats reports what one Update call did.
type UpdateStats struct {
	Full    bool   // journal window overrun: a full rebuild ran
	Applied int    // pages whose contributions were adjusted
	Seq     uint64 // journal position the recommender now reflects
}

// Update consumes the repository's change journal since the recommender's
// last position and adjusts the affected property scores — O(annotations in
// the changed pages) instead of New's O(corpus) rescan. Tag assignments
// (smr.ChangeTag) carry no annotations and only advance the position. When
// the journal no longer retains the position, it falls back to a full
// rebuild.
func (r *Recommender) Update() UpdateStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	changes, ok := r.repo.Changes(r.seq)
	if !ok {
		r.rebuildLocked()
		return UpdateStats{Full: true, Seq: r.seq}
	}
	if len(changes) == 0 {
		return UpdateStats{Seq: r.seq}
	}
	stats := UpdateStats{Seq: changes[len(changes)-1].Seq}
	seen := make(map[string]bool, len(changes))
	dirty := map[string]bool{}
	for _, c := range changes {
		if c.Kind == smr.ChangeTag || seen[c.Title] {
			continue
		}
		seen[c.Title] = true
		stats.Applied++
		title := c.Title
		// The changed page routes to its owning shard: only that shard's
		// posting lists move, the sibling shards' state is untouched.
		sh := r.shardFor(title)
		oldProps := r.pageProps[title]
		var newProps, newPairs []string
		if page, exists := r.repo.Wiki.Get(title); exists {
			newProps = distinctProps(page)
			newPairs = distinctPairs(page)
		}
		pr := r.ranks[title]
		rankMoved := r.pageRank[title] != pr
		// Merge-diff the sorted old and new property sets: properties the
		// page kept only touch their sum when the page's rank moved
		// (annotation edits usually keep the property set and the rank, so
		// the common case adjusts nothing at all); gained and lost
		// properties insert or retract one contribution.
		sortedset.DiffWalk(oldProps, newProps,
			func(p string) {
				list, _ := sortedset.Remove(sh.propPages[p], title)
				if len(list) == 0 {
					delete(sh.propPages, p)
				} else {
					sh.propPages[p] = list
				}
				dirty[p] = true
			},
			func(p string) {
				sh.propPages[p], _ = sortedset.Insert(sh.propPages[p], title)
				dirty[p] = true
			},
			func(p string) {
				if rankMoved {
					dirty[p] = true
				}
			})
		if len(newProps) == 0 {
			delete(r.pageProps, title)
			delete(r.pageRank, title)
		} else {
			r.pageProps[title] = newProps
			r.pageRank[title] = pr
		}
		// Merge-diff the sorted old and new pair sets the same way, keeping
		// the inverted (property, value) → pages index current.
		sortedset.DiffWalk(sh.pagePairs[title], newPairs,
			func(pair string) {
				list, _ := sortedset.Remove(sh.pairPages[pair], title)
				if len(list) == 0 {
					delete(sh.pairPages, pair)
				} else {
					sh.pairPages[pair] = list
				}
			},
			func(pair string) {
				sh.pairPages[pair], _ = sortedset.Insert(sh.pairPages[pair], title)
			},
			nil)
		if len(newPairs) == 0 {
			delete(sh.pagePairs, title)
		} else {
			sh.pagePairs[title] = newPairs
		}
	}
	for key := range dirty {
		// Rescoring folds over the shard lists merged back into global
		// title order — the same accumulation order as a rebuild, so the
		// incremental sum stays bit-identical.
		if list := r.mergedPropPages(key); len(list) == 0 {
			delete(r.propScore, key)
		} else {
			r.propScore[key] = r.sumRanks(list)
		}
	}
	r.seq = stats.Seq
	r.stats.DeltaUpdates++
	r.stats.PagesApplied += stats.Applied
	r.stats.Seq = r.seq
	return stats
}

// SetRanks installs a freshly computed PageRank score map and rescores
// every property from the retained per-page property sets — O(total
// property carriers), with no corpus rescan. Callers must bring the
// recommender up to date (Update) before or after installing new ranks;
// System.Refresh does both.
func (r *Recommender) SetRanks(ranks map[string]float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ranks = ranks
	for title := range r.pageRank {
		r.pageRank[title] = ranks[title]
	}
	for key := range r.propScore {
		r.propScore[key] = r.sumRanks(r.mergedPropPages(key))
	}
	r.stats.Rescores++
}

// Seq returns the journal position the property scores reflect.
func (r *Recommender) Seq() uint64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.seq
}

// Stats returns refresh counters for the admin endpoint.
func (r *Recommender) Stats() Stats {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.stats
}

// PropertyScore returns the PageRank-derived importance of a property.
// Property names are matched case-insensitively.
func (r *Recommender) PropertyScore(property string) float64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.propScore[strings.ToLower(property)]
}

// TopProperties returns the k highest-scored properties.
func (r *Recommender) TopProperties(k int) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	type kv struct {
		name  string
		score float64
	}
	all := make([]kv, 0, len(r.propScore))
	for n, s := range r.propScore {
		all = append(all, kv{n, s})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].score != all[j].score {
			return all[i].score > all[j].score
		}
		return all[i].name < all[j].name
	})
	if k > len(all) {
		k = len(all)
	}
	out := make([]string, k)
	for i := range out {
		out[i] = all[i].name
	}
	return out
}

// pairKey renders a (property, value) annotation pair.
func pairKey(property, value string) string {
	return strings.ToLower(property) + "=" + value
}

// Recommend proposes up to k pages related to the seed titles (typically
// the current search results). Seeds themselves are never recommended, and
// the ACL of the repository is honoured for the requesting user.
//
// Candidates come from the journal-maintained inverted (property, value) →
// pages index: only pages sharing at least one annotation pair with the
// seed set are scored — O(candidates), not a corpus scan. Each candidate
// is then scored with exactly the arithmetic of a corpus scan (the
// recommendScan oracle in the tests), so the two orderings are identical.
func (r *Recommender) Recommend(seeds []string, user string, k int) []Recommendation {
	if k <= 0 || len(seeds) == 0 {
		return nil
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	seedSet, pairWeight := r.seedPairWeights(seeds)
	if len(pairWeight) == 0 {
		return nil
	}

	// Union the candidate lists of every positive-weight seed pair
	// (zero-weight pairs can never contribute score). Enumeration order is
	// irrelevant: the final ordering is a strict total order (score
	// descending, unique-title tie-break), so the output is identical to
	// a corpus scan's regardless of how candidates are discovered. Shards
	// partition titles, so each can scan its own pair postings (with its
	// own dedup set) in parallel and the per-shard candidate sets stay
	// disjoint.
	collect := func(sh *recShard) []Recommendation {
		seen := make(map[string]bool)
		var out []Recommendation
		for pair, w := range pairWeight {
			if w <= 0 {
				continue
			}
			for _, title := range sh.pairPages[pair] {
				if seen[title] {
					continue
				}
				seen[title] = true
				if seedSet[title] || !r.repo.ACL.CanRead(user, title) {
					continue
				}
				page, ok := r.repo.Wiki.Get(title)
				if !ok {
					continue
				}
				if rec, ok := scorePage(page, title, pairWeight, r.ranks[title]); ok {
					out = append(out, rec)
				}
			}
		}
		return out
	}
	var out []Recommendation
	if len(r.shards) == 1 {
		out = collect(r.shards[0])
	} else {
		parts := make([][]Recommendation, len(r.shards))
		var wg sync.WaitGroup
		for i, sh := range r.shards {
			wg.Add(1)
			go func(i int, sh *recShard) {
				defer wg.Done()
				parts[i] = collect(sh)
			}(i, sh)
		}
		wg.Wait()
		for _, p := range parts {
			out = append(out, p...)
		}
	}
	return topRecommendations(out, k)
}

// seedPairWeights resolves the seed set and the weight of each
// (property, value) pair across it: the property's global importance,
// counted once per seed page carrying it. Caller holds at least the read
// lock.
func (r *Recommender) seedPairWeights(seeds []string) (map[string]bool, map[string]float64) {
	seedSet := make(map[string]bool, len(seeds))
	pairWeight := map[string]float64{}
	for _, s := range seeds {
		canonical := wiki.ParseTitle(s).String()
		seedSet[canonical] = true
		page, ok := r.repo.Wiki.Get(canonical)
		if !ok {
			continue
		}
		for _, a := range page.Annotations {
			pairWeight[pairKey(a.Property, a.Value)] += r.propScore[strings.ToLower(a.Property)]
		}
	}
	return seedSet, pairWeight
}

// scorePage scores one candidate page against the seed pair weights, in
// annotation order — the floating-point accumulation order Recommend and
// the corpus-scan oracle share.
func scorePage(p *wiki.Page, title string, pairWeight map[string]float64, rank float64) (Recommendation, bool) {
	var score float64
	var shared []string
	seenPair := map[string]bool{}
	for _, a := range p.Annotations {
		key := pairKey(a.Property, a.Value)
		if seenPair[key] {
			continue
		}
		seenPair[key] = true
		if w, ok := pairWeight[key]; ok && w > 0 {
			score += w
			shared = append(shared, key)
		}
	}
	if score == 0 {
		return Recommendation{}, false
	}
	// Candidates are boosted by their own importance so that, among
	// equally-connected pages, the popular one is proposed first.
	score *= 1 + rank
	sort.Strings(shared)
	return Recommendation{Title: title, Score: score, Shared: shared}, true
}

// topRecommendations sorts by descending score (title tie-break) and caps
// at k.
func topRecommendations(out []Recommendation, k int) []Recommendation {
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Title < out[j].Title
	})
	if len(out) > k {
		out = out[:k]
	}
	return out
}
