package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/url"

	sensormeta "repro"
	"repro/internal/core"
	"repro/internal/query"
	"repro/internal/relational"
	"repro/internal/sparql"
)

// sparqlJoin is BenchmarkSPARQLJoin's three-pattern BGP.
const sparqlJoin = `SELECT ?sensor ?site WHERE {
		?sensor <smr://prop/partof> ?dep .
		?dep <smr://prop/locatedin> ?site .
		?sensor <smr://prop/status> "active" .
	}`

// Paired SPARQL and SQL forms of one selection: the BGP's row count must
// equal the SQL count.
const (
	sparqlActive   = `SELECT ?s WHERE { ?s <smr://prop/status> "active" }`
	sqlActiveCount = `SELECT COUNT(*) FROM annotations WHERE property = 'status' AND value = 'active'`
)

func sqlRequest(sys *sensormeta.System, q string) (*request, error) {
	_, plan, err := sys.Repo.DB.QueryWith(q, relational.QueryOptions{Explain: true})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", q, err)
	}
	return &request{
		examined: scanRows(plan),
		returned: plan.Act,
		surface:  sSQL,
		method:   http.MethodGet,
		target:   getTarget("/api/sql", url.Values{"q": {q}}),
		check: func(body []byte) error {
			want, err := sys.QuerySQL(q)
			if err != nil {
				return err
			}
			return sameJSON(body, want)
		},
		replay: func(t *tracer, p int32) {
			t.call("relational.Query", p, func() { sys.Repo.DB.Query(q) })
		},
	}, nil
}

// sparqlRows flattens bindings to the string rows /api/sparql returns.
type sparqlRows struct {
	Vars []string            `json:"vars"`
	Rows []map[string]string `json:"rows"`
}

func flattenSPARQL(res *sparql.Results) sparqlRows {
	out := sparqlRows{Vars: res.Vars}
	for _, b := range res.Rows {
		row := make(map[string]string, len(b))
		for k, t := range b {
			row[k] = t.Value
		}
		out.Rows = append(out.Rows, row)
	}
	return out
}

func sparqlRequest(sys *sensormeta.System, q string) *request {
	return &request{
		surface: sSPARQL,
		method:  http.MethodGet,
		target:  getTarget("/api/sparql", url.Values{"q": {q}}),
		check: func(body []byte) error {
			res, err := sys.QuerySPARQL(q)
			if err != nil {
				return err
			}
			return sameJSON(body, flattenSPARQL(res))
		},
		replay: func(t *tracer, p int32) {
			var parsed *sparql.Query
			t.call("sparql.Parse", p, func() { parsed, _ = sparql.Parse(q) })
			if parsed != nil {
				t.call("sparql.Eval", p, func() { sparql.Eval(sys.Repo.RDF, parsed) })
			}
		},
	}
}

// combinedBody is the POST /api/v1/combined request body.
type combinedBody struct {
	SPARQL   string          `json:"sparql,omitempty"`
	PageVar  string          `json:"pagevar,omitempty"`
	SQL      string          `json:"sql,omitempty"`
	Keywords string          `json:"keywords,omitempty"`
	Filter   json.RawMessage `json:"filter,omitempty"`
	Limit    int             `json:"limit,omitempty"`
}

type combinedRows struct {
	Hint       string     `json:"hint"`
	Columns    []string   `json:"columns"`
	Rows       [][]string `json:"rows"`
	NextCursor string     `json:"nextCursor,omitempty"`
}

func combinedRequest(sys *sensormeta.System, in combinedBody) (*request, error) {
	cq := core.CombinedQuery{SPARQL: in.SPARQL, PageVar: in.PageVar, SQL: in.SQL,
		Keywords: in.Keywords, Limit: in.Limit}
	if len(in.Filter) > 0 {
		expr, err := query.Unmarshal(in.Filter)
		if err != nil {
			return nil, err
		}
		cq.Filter = expr
	}
	explained := cq
	explained.Explain = true
	plan, err := sys.QueryCombined(explained)
	if err != nil {
		return nil, err
	}
	return &request{
		examined: scanRows(plan.Plan),
		returned: len(plan.Rows),
		surface:  sCombined,
		method:   http.MethodPost,
		target:   "/api/v1/combined",
		body:     mustJSON(in),
		check: func(body []byte) error {
			res, err := sys.QueryCombined(cq)
			if err != nil {
				return err
			}
			want := combinedRows{Hint: string(res.Hint), Rows: res.Rows, NextCursor: res.NextCursor,
				Columns: make([]string, len(res.Columns))}
			for i, c := range res.Columns {
				want.Columns[i] = c.Name
			}
			return sameJSON(body, want)
		},
		replay: func(t *tracer, p int32) {
			q := cq
			if len(in.Filter) > 0 {
				t.call("query.Unmarshal", p, func() { q.Filter, _ = query.Unmarshal(in.Filter) })
			}
			t.call("core.Execute", p, func() { sys.QueryManager.Execute(q) })
		},
	}, nil
}

// structuredDeck builds one pass of the structured mix: SQL, SPARQL and
// combined queries in fixed counts, with seeded constants.
func structuredDeck(c *client, sys *sensormeta.System, rng *rand.Rand) ([]*request, error) {
	measurands, err := sys.Repo.PropertyValues("measures")
	if err != nil {
		return nil, err
	}
	sensors := sys.Repo.Wiki.PagesInNamespace("Sensor")
	statuses := []string{"active", "maintenance", "retired"}
	rates := []string{"1", "10", "60"}

	sqls := []string{
		// point lookup by page
		fmt.Sprintf(`SELECT property, value FROM annotations WHERE page = '%s'`, pick(rng, sensors)),
		fmt.Sprintf(`SELECT property, value FROM annotations WHERE page = '%s'`, pick(rng, sensors)),
		fmt.Sprintf(`SELECT title, namespace, revisions FROM pages WHERE title = '%s'`, pick(rng, sensors)),
		// multi-conjunct filter
		fmt.Sprintf(`SELECT page FROM annotations WHERE property = 'measures' AND value = '%s' AND numeric IS NULL`, pick(rng, measurands)),
		fmt.Sprintf(`SELECT page, numeric FROM annotations WHERE property = 'samplingrate' AND numeric > %s AND numeric <= 600`, pick(rng, rates)),
		fmt.Sprintf(`SELECT title FROM pages WHERE namespace = 'Sensor' AND author = 'generator' AND title > '%s'`, pick(rng, sensors)),
		// two-way join
		fmt.Sprintf(`SELECT a.page, b.value FROM annotations a JOIN annotations b ON a.page = b.page WHERE a.property = 'status' AND a.value = '%s' AND b.property = 'measures'`, pick(rng, statuses)),
		fmt.Sprintf(`SELECT a.page, b.value FROM annotations a JOIN annotations b ON a.page = b.page WHERE a.property = 'measures' AND a.value = '%s' AND b.property = 'samplingrate'`, pick(rng, measurands)),
		// ORDER BY … LIMIT
		`SELECT page, numeric FROM annotations WHERE property = 'samplingrate' ORDER BY numeric DESC LIMIT 10`,
		`SELECT title FROM pages WHERE namespace = 'Sensor' ORDER BY title LIMIT 20`,
		// COUNT
		sqlActiveCount,
		fmt.Sprintf(`SELECT COUNT(*) FROM annotations WHERE property = 'measures' AND value = '%s'`, pick(rng, measurands)),
	}
	var deck []*request
	for _, q := range sqls {
		rq, err := sqlRequest(sys, q)
		if err != nil {
			return nil, err
		}
		deck = append(deck, rq)
	}
	labeled := false
	for _, q := range []string{
		sparqlActive,
		fmt.Sprintf(`SELECT ?s WHERE { ?s <smr://prop/measures> "%s" }`, pick(rng, measurands)),
		sparqlJoin,
		sparqlJoin,
		fmt.Sprintf(`SELECT ?s ?r WHERE { ?s <smr://prop/samplingrate> ?r . FILTER(?r > %s) }`, pick(rng, rates)),
		fmt.Sprintf(`SELECT ?s ?st WHERE { ?s <smr://prop/measures> "%s" . OPTIONAL { ?s <smr://prop/status> ?st } }`, pick(rng, measurands)),
	} {
		rq := sparqlRequest(sys, q)
		if q == sparqlJoin && !labeled {
			rq.baseline, labeled = "sparql-join", true
		}
		deck = append(deck, rq)
	}
	status := pick(rng, statuses)
	for _, in := range []combinedBody{
		{SQL: `SELECT page, value FROM annotations WHERE property = 'measures'`,
			Filter: mustMarshalExpr(query.Property{Name: "status", Op: query.OpEq, Value: status})},
		{SPARQL: fmt.Sprintf(`SELECT ?page WHERE { ?page <smr://prop/measures> "%s" }`, pick(rng, measurands)),
			PageVar: "page", Keywords: "sensor", Limit: 10},
	} {
		rq, err := combinedRequest(sys, in)
		if err != nil {
			return nil, err
		}
		deck = append(deck, rq, rq)
	}
	c.note("SPARQL BGP row count equals SQL COUNT", checkSPARQLMatchesSQL(c, sys))
	return deck, nil
}

// checkSPARQLMatchesSQL checks over HTTP that a one-pattern BGP returns as
// many rows as the equivalent SQL COUNT.
func checkSPARQLMatchesSQL(c *client, sys *sensormeta.System) error {
	_, body, _ := c.do(sparqlRequest(sys, sparqlActive))
	var rows sparqlRows
	if err := json.Unmarshal(body, &rows); err != nil {
		return fmt.Errorf("sparql: %w", err)
	}
	sq, err := sqlRequest(sys, sqlActiveCount)
	if err != nil {
		return err
	}
	_, body, _ = c.do(sq)
	var count sensormeta.SQLResult
	if err := json.Unmarshal(body, &count); err != nil {
		return fmt.Errorf("sql: %w", err)
	}
	if len(count.Rows) != 1 || count.Rows[0][0] != fmt.Sprint(len(rows.Rows)) {
		return fmt.Errorf("SPARQL BGP returned %d rows, SQL COUNT says %v", len(rows.Rows), count.Rows)
	}
	return nil
}
