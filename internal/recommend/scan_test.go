package recommend

import (
	"testing"

	"repro/internal/pagerank"
	"repro/internal/ranking"
	"repro/internal/smr"
	"repro/internal/wiki"
	"repro/internal/workload"
)

// recommendScan is the pre-index corpus-scan recommender: every readable,
// non-seed page in the wiki is scored against the seed pairs. It is the
// oracle the inverted-index path must match exactly and the baseline
// BenchmarkRecommendIndexVsScan measures it against.
func recommendScan(r *Recommender, seeds []string, user string, k int) []Recommendation {
	if k <= 0 || len(seeds) == 0 {
		return nil
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	seedSet, pairWeight := r.seedPairWeights(seeds)
	if len(pairWeight) == 0 {
		return nil
	}

	var out []Recommendation
	r.repo.Wiki.Each(func(p *wiki.Page) {
		title := p.Title.String()
		if seedSet[title] || !r.repo.ACL.CanRead(user, title) {
			return
		}
		if rec, ok := scorePage(p, title, pairWeight, r.ranks[title]); ok {
			out = append(out, rec)
		}
	})
	return topRecommendations(out, k)
}

// BenchmarkRecommendIndexVsScan compares the recommendation paths at 5k
// sensors: the corpus-scan baseline against the journal-maintained
// inverted (property, value) → pages index, which is O(candidate pages
// sharing a seed pair) per query. Two seed profiles: deployment seeds
// share only low-frequency pairs (few candidates — the index's win),
// sensor seeds share status/samplingRate pairs carried by most of the
// corpus (candidates ≈ corpus — the index's worst case, where it must not
// regress below the scan by more than its bookkeeping).
func BenchmarkRecommendIndexVsScan(b *testing.B) {
	repo, err := smr.New()
	if err != nil {
		b.Fatal(err)
	}
	opts := workload.DefaultCorpus()
	opts.Sensors = 5000
	if _, err := workload.BuildCorpus(repo, opts); err != nil {
		b.Fatal(err)
	}
	rk, err := ranking.New(repo, "", pagerank.Options{})
	if err != nil {
		b.Fatal(err)
	}
	rec := New(repo, rk.Scores())
	profiles := []struct {
		name  string
		seeds []string
	}{
		{"selective", repo.Wiki.PagesInNamespace("Deployment")[:3]},
		{"dense", repo.Wiki.PagesInNamespace("Sensor")[:5]},
	}
	for _, p := range profiles {
		if len(recommendScan(rec, p.seeds, "", 10)) == 0 {
			b.Fatalf("%s seeds give no recommendations; corpus too weak", p.name)
		}
		b.Run(p.name+"/scan", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				recommendScan(rec, p.seeds, "", 10)
			}
		})
		b.Run(p.name+"/indexed", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rec.Recommend(p.seeds, "", 10)
			}
		})
	}
}
