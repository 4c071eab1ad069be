package relational

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// dmlPreds is the WHERE pool of the DML differential test: the planner
// test's sensor predicates plus literal-on-left ranges, an explicit
// two-index intersection (kind and temp are both indexed) and an
// arithmetic predicate, which is never pushed down and so is decided only
// by the full WHERE re-check.
func dmlPreds(rng *rand.Rand) []string {
	return append(sensorPreds(rng),
		fmt.Sprintf("%d < sensors.temp", rng.Intn(40)),
		fmt.Sprintf("%d >= sensors.id", rng.Intn(30)),
		fmt.Sprintf("sensors.kind = 'hum' AND sensors.temp >= %d", rng.Intn(40)),
		fmt.Sprintf("(sensors.kind = 'temp' AND %d > sensors.temp)", rng.Intn(40)),
		fmt.Sprintf("sensors.temp * 2 > %d", rng.Intn(80)),
	)
}

// randomDML generates an UPDATE or DELETE on the sensors table and returns
// it with its WHERE clause (" WHERE ..." or empty). UPDATEs rewrite indexed
// columns too, so later statements probe maintained indexes.
func randomDML(rng *rand.Rand) (sql, where string) {
	pool := dmlPreds(rng)
	var conjs []string
	for i, n := 0, 1+rng.Intn(3); i < n; i++ {
		conjs = append(conjs, pool[rng.Intn(len(pool))])
	}
	where = " WHERE " + strings.Join(conjs, " AND ")
	if rng.Intn(3) == 0 {
		return "DELETE FROM sensors" + where, where
	}
	sets := []string{
		"kind = 'hum'",
		"temp = temp + 1",
		"temp = NULL",
		"site = 'moved'",
		"active = NOT active",
		fmt.Sprintf("kind = 'co2', temp = %d", rng.Intn(40)),
	}
	if rng.Intn(8) == 0 {
		where = "" // a whole-table UPDATE now and then
	}
	return "UPDATE sensors SET " + sets[rng.Intn(len(sets))] + where, where
}

// TestIndexedDMLMatchesScan is the write path's differential test: random
// UPDATE and DELETE statements run against an indexed database and against
// the same rows with no index at all (no CREATE INDEX, no PRIMARY KEY), and
// must affect the same rows and leave byte-identical tables behind. The
// affected count must also equal what the scan-everything SELECT fallback
// counts for the same WHERE beforehand. After every statement one random
// predicate is queried on both sides, so an index left stale by an UPDATE
// or DELETE shows up as a divergence.
func TestIndexedDMLMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1103))
	affected, statements := 0, 0
	for trial := 0; trial < 40; trial++ {
		indexed, scan := NewDB(), NewDB()
		for _, sql := range equivalenceStatements(rng) {
			if _, err := indexed.Exec(sql); err != nil {
				t.Fatalf("%s: %v", sql, err)
			}
			if strings.HasPrefix(sql, "CREATE INDEX") {
				continue
			}
			sql = strings.ReplaceAll(sql, " PRIMARY KEY", "")
			if _, err := scan.Exec(sql); err != nil {
				t.Fatalf("%s: %v", sql, err)
			}
		}
		for q := 0; q < 10; q++ {
			sql, where := randomDML(rng)
			count, _, err := scan.QueryWith("SELECT COUNT(*) FROM sensors"+where, QueryOptions{ForceFallback: true})
			if err != nil {
				t.Fatalf("counting %q: %v", where, err)
			}
			got, errI := indexed.Exec(sql)
			want, errS := scan.Exec(sql)
			if errI != nil || errS != nil {
				t.Fatalf("trial %d: %q: indexed err=%v scan err=%v", trial, sql, errI, errS)
			}
			if got.RowsAffected != want.RowsAffected {
				t.Fatalf("trial %d: %q: RowsAffected %d (indexed) vs %d (scan)",
					trial, sql, got.RowsAffected, want.RowsAffected)
			}
			if n := count.Rows[0][0].Int64(); int64(got.RowsAffected) != n {
				t.Fatalf("trial %d: %q: RowsAffected %d, but SELECT counts %d matching rows",
					trial, sql, got.RowsAffected, n)
			}
			if got.RowsAffected > 0 {
				affected++
			}
			statements++
			pool := dmlPreds(rng)
			for _, check := range []string{
				"SELECT * FROM sensors ORDER BY id",
				"SELECT id, kind, temp FROM sensors WHERE " + pool[rng.Intn(len(pool))] + " ORDER BY id",
			} {
				a, err := indexed.Query(check)
				if err != nil {
					t.Fatalf("%q: %v", check, err)
				}
				b, err := scan.Query(check)
				if err != nil {
					t.Fatalf("%q: %v", check, err)
				}
				if ra, rb := renderResult(a), renderResult(b); ra != rb {
					t.Fatalf("trial %d: after %q, %q diverged\nindexed:\n%s\nscan:\n%s",
						trial, sql, check, ra, rb)
				}
			}
		}
	}
	// The comparison is only meaningful if many statements touched rows.
	if affected < statements/3 {
		t.Fatalf("only %d of %d statements affected any row; generator too weak", affected, statements)
	}
}
