package recommend

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/pagerank"
	"repro/internal/ranking"
	"repro/internal/smr"
)

// churnRepo builds a repository with interlinked pages for churn tests.
func churnRepo(t *testing.T, n int) *smr.Repository {
	t.Helper()
	repo, err := smr.New()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		text := fmt.Sprintf("[[partOf::Deployment:D%d]] [[measures::m%d]] [[samplingRate::%d]]", i%5, i%7, 10+i%3)
		if _, err := repo.PutPage(fmt.Sprintf("Sensor:C%03d", i), "t", text, ""); err != nil {
			t.Fatal(err)
		}
	}
	return repo
}

// TestIncrementalMatchesRebuild drives random churn through Update and
// checks the recommender's state is bit-identical to one rebuilt from
// scratch over the same repository and ranks: identical property scores,
// top properties, and recommendations.
func TestIncrementalMatchesRebuild(t *testing.T) {
	repo := churnRepo(t, 60)
	rk, err := ranking.New(repo, "", pagerank.Options{})
	if err != nil {
		t.Fatal(err)
	}
	inc := New(repo, rk.Scores())
	rng := rand.New(rand.NewSource(7))

	for round := 0; round < 6; round++ {
		for i := 0; i < 8; i++ {
			title := fmt.Sprintf("Sensor:C%03d", rng.Intn(60))
			switch rng.Intn(4) {
			case 0:
				repo.DeletePage(title)
			case 1: // re-create or overwrite with a different property mix
				text := fmt.Sprintf("[[calibrated::%d]] [[measures::m%d]]", rng.Intn(100), rng.Intn(7))
				if _, err := repo.PutPage(title, "churn", text, ""); err != nil {
					t.Fatal(err)
				}
			case 2: // annotation-free revision: contributions must retract
				if _, err := repo.PutPage(title, "churn", "plain prose only", ""); err != nil {
					t.Fatal(err)
				}
			default:
				text := fmt.Sprintf("[[partOf::Deployment:D%d]] [[owner::u%d]]", rng.Intn(5), rng.Intn(4))
				if _, err := repo.PutPage(title, "churn", text, ""); err != nil {
					t.Fatal(err)
				}
			}
		}
		if st := inc.Update(); st.Full {
			t.Fatalf("round %d: journal overran for a live consumer", round)
		}
		want := New(repo, rk.Scores())

		if !reflect.DeepEqual(inc.propScore, want.propScore) {
			t.Fatalf("round %d: property scores diverge\nincremental = %v\nrebuild     = %v",
				round, inc.propScore, want.propScore)
		}
		if got, wantTop := inc.TopProperties(10), want.TopProperties(10); !reflect.DeepEqual(got, wantTop) {
			t.Fatalf("round %d: top properties %v vs %v", round, got, wantTop)
		}
		seeds := []string{"Sensor:C001", "Sensor:C014", "Sensor:C039"}
		if got, wantRec := inc.Recommend(seeds, "", 10), want.Recommend(seeds, "", 10); !reflect.DeepEqual(got, wantRec) {
			t.Fatalf("round %d: recommendations diverge\nincremental = %+v\nrebuild     = %+v", round, got, wantRec)
		}
	}
}

// TestUpdateFallsBackOnTrimmedJournal checks the window-overrun contract:
// a consumer whose position was trimmed away rebuilds from scratch.
func TestUpdateFallsBackOnTrimmedJournal(t *testing.T) {
	repo := churnRepo(t, 10)
	rk, err := ranking.New(repo, "", pagerank.Options{})
	if err != nil {
		t.Fatal(err)
	}
	inc := New(repo, rk.Scores())
	if _, err := repo.PutPage("Sensor:C000", "t", "[[measures::m0]]", ""); err != nil {
		t.Fatal(err)
	}
	repo.Journal().TrimTo(repo.LastSeq()) // trim past the consumer's position
	st := inc.Update()
	if !st.Full {
		t.Fatalf("expected full rebuild after journal trim, got %+v", st)
	}
	want := New(repo, rk.Scores())
	if !reflect.DeepEqual(inc.propScore, want.propScore) {
		t.Fatal("post-fallback state differs from rebuild")
	}
}

// TestSetRanksRescoresWithoutRescan checks that installing a new PageRank
// vector reproduces a from-scratch build over the new scores.
func TestSetRanksRescoresWithoutRescan(t *testing.T) {
	repo := churnRepo(t, 20)
	rk, err := ranking.New(repo, "", pagerank.Options{})
	if err != nil {
		t.Fatal(err)
	}
	inc := New(repo, rk.Scores())
	// Structural change → new ranks.
	if _, err := repo.PutPage("Sensor:C000", "t", "[[partOf::Deployment:D9]]", ""); err != nil {
		t.Fatal(err)
	}
	rk2, err := ranking.New(repo, "", pagerank.Options{})
	if err != nil {
		t.Fatal(err)
	}
	inc.Update()
	inc.SetRanks(rk2.Scores())
	want := New(repo, rk2.Scores())
	if !reflect.DeepEqual(inc.propScore, want.propScore) {
		t.Fatalf("rescore diverges\nincremental = %v\nrebuild     = %v", inc.propScore, want.propScore)
	}
	st := inc.Stats()
	if st.Rescores != 1 || st.DeltaUpdates != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestRecommendIndexMatchesScan checks the inverted (property, value) →
// pages index path returns exactly the corpus-scan baseline's
// recommendations — after construction and after journal-driven churn —
// and that the incrementally maintained pair index matches a rebuild.
func TestRecommendIndexMatchesScan(t *testing.T) {
	repo := churnRepo(t, 80)
	rk, err := ranking.New(repo, "", pagerank.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rec := New(repo, rk.Scores())
	rng := rand.New(rand.NewSource(21))
	seedSets := [][]string{
		{"Sensor:C001"},
		{"Sensor:C002", "Sensor:C010", "Sensor:C033"},
		{"Sensor:C005", "missing page"},
	}
	for round := 0; round < 5; round++ {
		for _, seeds := range seedSets {
			got := rec.Recommend(seeds, "", 15)
			want := recommendScan(rec, seeds, "", 15)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("round %d seeds %v: index path diverges from scan\nindex = %+v\nscan  = %+v",
					round, seeds, got, want)
			}
			if round == 0 && len(got) == 0 && len(seeds) == 1 {
				t.Fatalf("seeds %v produced no recommendations; fixture too weak", seeds)
			}
		}
		for i := 0; i < 10; i++ {
			title := fmt.Sprintf("Sensor:C%03d", rng.Intn(80))
			if rng.Intn(5) == 0 {
				repo.DeletePage(title)
				continue
			}
			text := fmt.Sprintf("[[partOf::Deployment:D%d]] [[measures::m%d]] [[owner::u%d]]",
				rng.Intn(5), rng.Intn(7), rng.Intn(4))
			if _, err := repo.PutPage(title, "churn", text, ""); err != nil {
				t.Fatal(err)
			}
		}
		if st := rec.Update(); st.Full {
			t.Fatalf("round %d: journal overran", round)
		}
		want := New(repo, rk.Scores())
		for si := range rec.shards {
			if !reflect.DeepEqual(rec.shards[si].pairPages, want.shards[si].pairPages) {
				t.Fatalf("round %d shard %d: pair index diverges from rebuild", round, si)
			}
			if !reflect.DeepEqual(rec.shards[si].pagePairs, want.shards[si].pagePairs) {
				t.Fatalf("round %d shard %d: page pair sets diverge from rebuild", round, si)
			}
		}
	}
}
