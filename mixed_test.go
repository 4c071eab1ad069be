package sensormeta

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/search"
	"repro/internal/workload"
)

// applyMixedOp executes one operation of a generated mixed stream against
// a live system and reports whether it was a write.
func applyMixedOp(sys *System, op workload.Op) (write bool, err error) {
	switch op.Kind {
	case workload.OpPut:
		_, err = sys.PutPage(op.Title, "mixed", op.Text, "")
		return true, err
	case workload.OpDelete:
		sys.Repo.DeletePage(op.Title)
		return true, nil
	case workload.OpSearch:
		_, err = sys.Search(op.Query)
	case workload.OpRecommend:
		sys.Recommend(op.Seeds, "", 10)
	case workload.OpAutocomplete:
		sys.Autocomplete(op.Prefix, 10)
	}
	return false, err
}

// BenchmarkWorkloadMixed replays the seeded mixed read/write stream —
// puts, deletes, searches, recommendations and autocompletes interleaved,
// with a journal-driven refresh every 64 writes — at one shard and at
// NumCPU shards. Each shard count gets a fresh system because the stream
// mutates the corpus; the stream itself is identical across sub-runs, so
// the only variable is the fan-out width.
func BenchmarkWorkloadMixed(b *testing.B) {
	ops := workload.BuildMixed(workload.DefaultMix())
	shardCounts := []int{1}
	if n := runtime.NumCPU(); n > 1 {
		shardCounts = append(shardCounts, n)
	}
	for _, shards := range shardCounts {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			sys := benchSystemShards(b, 600, shards)
			writes := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				write, err := applyMixedOp(sys, ops[i%len(ops)])
				if err != nil {
					b.Fatal(err)
				}
				if write {
					if writes++; writes%64 == 0 {
						if err := sys.Refresh(); err != nil {
							b.Fatal(err)
						}
					}
				}
			}
		})
	}
}

// TestMixedWorkloadConcurrent is the race stress of the sharded engine:
// writer goroutines churn disjoint title pools while a refresher applies
// the journal and readers hammer every query path. Run under -race this
// proves refresh and query do not share one lock; the assertions prove no
// write is lost (every title's final marker keyword is searchable after
// the last refresh, every final delete stays deleted) and that journal
// and engine sequence numbers only ever move forward.
func TestMixedWorkloadConcurrent(t *testing.T) {
	// Even single-CPU runs should cross shard boundaries.
	sys, err := NewShards(max(runtime.NumCPU(), 2))
	if err != nil {
		t.Fatal(err)
	}
	corpus := workload.DefaultCorpus()
	corpus.Sensors = 120
	corpus.Deployments = 12
	corpus.Sites = 4
	if _, err := workload.BuildCorpus(sys.Repo, corpus); err != nil {
		t.Fatal(err)
	}
	if err := sys.Refresh(); err != nil {
		t.Fatal(err)
	}

	const (
		writers       = 3
		poolPerWriter = 25
		opsPerWriter  = 120
	)
	var (
		writerWg, readerWg sync.WaitGroup
		done               atomic.Bool
		final              [writers]map[string]string // title → marker keyword ("" = deleted)
		readErr            atomic.Value
	)

	// Writers: churn a disjoint pool, then stamp every title with a final
	// marker revision (or a final delete). Disjointness means each writer
	// knows the authoritative last state of its own titles.
	for w := 0; w < writers; w++ {
		final[w] = make(map[string]string)
		writerWg.Add(1)
		go func(w int) {
			defer writerWg.Done()
			ops := workload.BuildMixed(workload.MixOptions{
				Ops: opsPerWriter, Seed: int64(100 + w),
				PutPct: 45, DeletePct: 15, RecommendPct: 5, AutocompletePct: 5,
				WritePool: poolPerWriter,
			})
			title := func(orig string) string {
				return fmt.Sprintf("Sensor:race-w%d-%s", w, orig[len("Sensor:mixed-"):])
			}
			for _, op := range ops {
				if op.Kind == workload.OpPut || op.Kind == workload.OpDelete {
					op.Title = title(op.Title)
				}
				if _, err := applyMixedOp(sys, op); err != nil {
					readErr.Store(fmt.Errorf("writer %d: %w", w, err))
					return
				}
			}
			for i := 0; i < poolPerWriter; i++ {
				tt := fmt.Sprintf("Sensor:race-w%d-%04d", w, i)
				if i%5 == 4 {
					sys.Repo.DeletePage(tt)
					final[w][tt] = ""
					continue
				}
				marker := fmt.Sprintf("zzfinal%dm%d", w, i)
				text := fmt.Sprintf("Final revision. %s\n[[measures::temperature]]\n", marker)
				if _, err := sys.PutPage(tt, "race", text, ""); err != nil {
					readErr.Store(fmt.Errorf("writer %d: %w", w, err))
					return
				}
				final[w][tt] = marker
			}
		}(w)
	}

	// Refresher: journal-driven catch-up racing the writers.
	readerWg.Add(1)
	go func() {
		defer readerWg.Done()
		for !done.Load() {
			if err := sys.Refresh(); err != nil {
				readErr.Store(fmt.Errorf("refresh: %w", err))
				return
			}
		}
	}()

	// Readers: every query path, plus a monotonicity probe on Stats().
	for r := 0; r < 3; r++ {
		readerWg.Add(1)
		go func(r int) {
			defer readerWg.Done()
			queries := workload.BuildQueryMix(workload.QueryMixOptions{Count: 20, Seed: int64(r)})
			var lastJournal, lastEngine uint64
			for i := 0; !done.Load(); i++ {
				if _, err := sys.Search(queries[i%len(queries)]); err != nil {
					readErr.Store(fmt.Errorf("search: %w", err))
					return
				}
				sys.Autocomplete("Sensor:", 5)
				sys.Recommend([]string{fmt.Sprintf("Sensor:race-w0-%04d", i%poolPerWriter)}, "", 5)
				st := sys.Stats()
				if st.JournalSeq < lastJournal || st.EngineSeq < lastEngine {
					readErr.Store(fmt.Errorf("sequence went backwards: journal %d→%d engine %d→%d",
						lastJournal, st.JournalSeq, lastEngine, st.EngineSeq))
					return
				}
				lastJournal, lastEngine = st.JournalSeq, st.EngineSeq
			}
		}(r)
	}

	// Writers run a bounded op count; once they finish, raise the stop
	// flag and let the refresher and readers drain.
	writerWg.Wait()
	done.Store(true)
	readerWg.Wait()

	if err := sys.Refresh(); err != nil {
		t.Fatal(err)
	}
	if v := readErr.Load(); v != nil {
		t.Fatal(v)
	}

	// No lost updates: every surviving title answers a search for its
	// unique final marker; every final delete is gone from the wiki.
	for w := 0; w < writers; w++ {
		for title, marker := range final[w] {
			if marker == "" {
				if _, ok := sys.Repo.Wiki.Get(title); ok {
					t.Fatalf("%s: final delete was lost", title)
				}
				continue
			}
			rs, err := sys.Search(search.Query{Keywords: marker})
			if err != nil {
				t.Fatal(err)
			}
			if len(rs) != 1 || rs[0].Title != title {
				t.Fatalf("marker %s: got %+v, want exactly %s (lost update)", marker, rs, title)
			}
		}
	}
}
