package relational

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/explain"
)

// DB is an embedded relational database: a set of named tables guarded by a
// single readers–writer lock. All SQL enters through Exec/Query; programmatic
// accessors exist for the hot loading paths of the SMR.
type DB struct {
	mu     sync.RWMutex
	tables map[string]*Table
	// planner aggregates planning/execution counters; it carries its own
	// mutex so read-locked queries can record concurrently.
	planner plannerStats
}

// NewDB returns an empty database.
func NewDB() *DB {
	return &DB{tables: make(map[string]*Table)}
}

// CreateTable creates a table programmatically.
func (db *DB) CreateTable(name string, cols []Column) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.createTableLocked(name, cols, false)
}

func (db *DB) createTableLocked(name string, cols []Column, ifNotExists bool) error {
	key := strings.ToLower(name)
	if _, dup := db.tables[key]; dup {
		if ifNotExists {
			return nil
		}
		return fmt.Errorf("relational: table %q already exists", name)
	}
	schema, err := NewSchema(cols)
	if err != nil {
		return err
	}
	db.tables[key] = NewTable(name, schema)
	return nil
}

// Table returns the named table (case-insensitive).
func (db *DB) Table(name string) (*Table, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.tables[strings.ToLower(name)]
	return t, ok
}

// TableNames returns the table names sorted.
func (db *DB) TableNames() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]string, 0, len(db.tables))
	for _, t := range db.tables {
		out = append(out, t.Name)
	}
	sort.Strings(out)
	return out
}

// Insert adds a row programmatically (values in schema order).
func (db *DB) Insert(table string, row Row) (int64, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	t, ok := db.tables[strings.ToLower(table)]
	if !ok {
		return 0, fmt.Errorf("relational: no table %q", table)
	}
	return t.Insert(row)
}

// Exec parses and runs any SQL statement.
func (db *DB) Exec(sql string) (*ResultSet, error) {
	stmt, err := Parse(sql)
	if err != nil {
		return nil, err
	}
	switch s := stmt.(type) {
	case *SelectStmt:
		db.mu.RLock()
		defer db.mu.RUnlock()
		return db.execSelect(s)
	case *CreateTableStmt:
		db.mu.Lock()
		defer db.mu.Unlock()
		if err := db.createTableLocked(s.Name, s.Columns, s.IfNotExists); err != nil {
			return nil, err
		}
		return &ResultSet{}, nil
	case *CreateIndexStmt:
		db.mu.Lock()
		defer db.mu.Unlock()
		t, ok := db.tables[strings.ToLower(s.Table)]
		if !ok {
			return nil, fmt.Errorf("relational: no table %q", s.Table)
		}
		if err := t.AddIndex(s.Column); err != nil {
			return nil, err
		}
		return &ResultSet{}, nil
	case *DropTableStmt:
		db.mu.Lock()
		defer db.mu.Unlock()
		key := strings.ToLower(s.Name)
		if _, ok := db.tables[key]; !ok {
			if s.IfExists {
				return &ResultSet{}, nil
			}
			return nil, fmt.Errorf("relational: no table %q", s.Name)
		}
		delete(db.tables, key)
		return &ResultSet{}, nil
	case *AlterTableStmt:
		db.mu.Lock()
		defer db.mu.Unlock()
		t, ok := db.tables[strings.ToLower(s.Table)]
		if !ok {
			return nil, fmt.Errorf("relational: no table %q", s.Table)
		}
		if err := t.AddColumn(s.Column); err != nil {
			return nil, err
		}
		return &ResultSet{}, nil
	case *InsertStmt:
		db.mu.Lock()
		defer db.mu.Unlock()
		return db.execInsert(s)
	case *UpdateStmt:
		db.mu.Lock()
		defer db.mu.Unlock()
		return db.execUpdate(s)
	case *DeleteStmt:
		db.mu.Lock()
		defer db.mu.Unlock()
		return db.execDelete(s)
	}
	return nil, fmt.Errorf("relational: unsupported statement %T", stmt)
}

// Query is Exec restricted to SELECT; it exists for call-site clarity.
func (db *DB) Query(sql string) (*ResultSet, error) {
	rs, _, err := db.QueryWith(sql, QueryOptions{})
	return rs, err
}

// QueryOptions tunes how a SELECT is planned and reported.
type QueryOptions struct {
	// ForceFallback compiles the written-order scan-everything baseline:
	// no index access, no pushdown, no join reordering, always
	// sort-after-materialize. It exists for planner ablation (benchmarks and
	// the equivalence property test) and must return byte-identical results.
	ForceFallback bool
	// Explain attaches the executed plan tree (with actual row counts) to
	// the result.
	Explain bool
}

// QueryWith runs a SELECT with explicit planner options. The returned plan
// tree is nil unless opts.Explain is set.
func (db *DB) QueryWith(sql string, opts QueryOptions) (*ResultSet, *explain.Node, error) {
	stmt, err := Parse(sql)
	if err != nil {
		return nil, nil, err
	}
	sel, ok := stmt.(*SelectStmt)
	if !ok {
		return nil, nil, fmt.Errorf("relational: Query requires SELECT, got %T", stmt)
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	p, err := db.compileSelect(sel, opts.ForceFallback)
	if err != nil {
		return nil, nil, err
	}
	rs, err := db.runPlan(p)
	if err != nil {
		return nil, nil, err
	}
	if !opts.Explain {
		return rs, nil, nil
	}
	return rs, p.explainRoot, nil
}

// Explain plans and executes a SELECT, returning the plan tree with both
// estimated and actual row counts per node.
func (db *DB) Explain(sql string) (*explain.Node, error) {
	_, plan, err := db.QueryWith(sql, QueryOptions{Explain: true})
	return plan, err
}

// EstimateSelect compiles a SELECT without executing it and returns the
// planner's estimated output row count. The combined-query layer uses it to
// pick the cheapest driving side.
func (db *DB) EstimateSelect(sql string) (int, error) {
	stmt, err := Parse(sql)
	if err != nil {
		return 0, err
	}
	sel, ok := stmt.(*SelectStmt)
	if !ok {
		return 0, fmt.Errorf("relational: EstimateSelect requires SELECT, got %T", stmt)
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	p, err := db.compileSelect(sel, false)
	if err != nil {
		return 0, err
	}
	if p.explainRoot.Est < 0 {
		return 0, nil
	}
	return p.explainRoot.Est, nil
}

// PlannerStats snapshots the planner's activity counters and estimate-error
// quantiles.
func (db *DB) PlannerStats() PlannerStats {
	return db.planner.snapshot()
}

func (db *DB) execInsert(s *InsertStmt) (*ResultSet, error) {
	t, ok := db.tables[strings.ToLower(s.Table)]
	if !ok {
		return nil, fmt.Errorf("relational: no table %q", s.Table)
	}
	cols := s.Columns
	if len(cols) == 0 {
		cols = make([]string, len(t.Schema.Columns))
		for i, c := range t.Schema.Columns {
			cols[i] = c.Name
		}
	}
	positions := make([]int, len(cols))
	for i, c := range cols {
		pos, ok := t.Schema.ColumnIndex(c)
		if !ok {
			return nil, fmt.Errorf("relational: no column %q in %s", c, s.Table)
		}
		positions[i] = pos
	}
	ctx := &evalContext{}
	n := 0
	for _, exprRow := range s.Rows {
		if len(exprRow) != len(cols) {
			return nil, fmt.Errorf("relational: INSERT expects %d values, got %d", len(cols), len(exprRow))
		}
		row := make(Row, len(t.Schema.Columns))
		for i := range row {
			row[i] = Null()
		}
		for i, e := range exprRow {
			v, err := eval(ctx, e)
			if err != nil {
				return nil, err
			}
			row[positions[i]] = v
		}
		if _, err := t.Insert(row); err != nil {
			return nil, err
		}
		n++
	}
	return &ResultSet{RowsAffected: n}, nil
}

func (db *DB) execUpdate(s *UpdateStmt) (*ResultSet, error) {
	t, ok := db.tables[strings.ToLower(s.Table)]
	if !ok {
		return nil, fmt.Errorf("relational: no table %q", s.Table)
	}
	ids, rows, err := db.matchRows(t, s.Where)
	if err != nil {
		return nil, err
	}
	ctx := &evalContext{bindings: []binding{{name: t.Name, schema: t.Schema}}}
	updated := make([]Row, len(rows))
	for i, row := range rows {
		ctx.bindings[0].row = row
		updated[i] = row.Clone()
		for _, a := range s.Set {
			pos, ok := t.Schema.ColumnIndex(a.Column)
			if !ok {
				return nil, fmt.Errorf("relational: no column %q in %s", a.Column, s.Table)
			}
			v, err := eval(ctx, a.Value)
			if err != nil {
				return nil, err
			}
			updated[i][pos] = v
		}
	}
	for i, id := range ids {
		if err := t.Update(id, updated[i]); err != nil {
			return nil, err
		}
	}
	return &ResultSet{RowsAffected: len(ids)}, nil
}

func (db *DB) execDelete(s *DeleteStmt) (*ResultSet, error) {
	t, ok := db.tables[strings.ToLower(s.Table)]
	if !ok {
		return nil, fmt.Errorf("relational: no table %q", s.Table)
	}
	ids, _, err := db.matchRows(t, s.Where)
	if err != nil {
		return nil, err
	}
	for _, id := range ids {
		t.Delete(id)
	}
	return &ResultSet{RowsAffected: len(ids)}, nil
}

// matchRows returns the rows of t that satisfy where (all rows when nil),
// in ascending id order. The access path is planned exactly like a
// single-table SELECT's — planAccess's index intersection and pushed
// filters, fetched through a scanNode — so UPDATE/DELETE are costed and
// counted in the planner stats with everything else. This is what keeps
// the repository's per-page reprojection (DELETE ... WHERE page = 'x' on
// every PutPage) at O(rows of that page). As in SELECT's Filter node, the
// full WHERE is re-checked per candidate.
func (db *DB) matchRows(t *Table, where Expr) ([]int64, []Row, error) {
	src := selSource{ref: TableRef{Table: t.Name}, table: t}
	var conjs []conjInfo
	if where != nil {
		conjs = analyzeConjuncts(where, []selSource{src})
	}
	sn := newScanNode(0, src, planAccess(src, conjs, false, false))
	p := &selectPlan{binds: []planBind{{name: t.Name, schema: t.Schema, table: t}}}
	ids, rows, err := sn.fetch(newPlanExec(db, p))
	if err != nil || where == nil {
		return ids, rows, err
	}
	ctx := &evalContext{bindings: []binding{{name: t.Name, schema: t.Schema}}}
	n := 0
	for i, row := range rows {
		ctx.bindings[0].row = row
		v, err := eval(ctx, where)
		if err != nil {
			return nil, nil, err
		}
		if v.IsNull() || !truthy(v) {
			continue
		}
		ids[n], rows[n] = ids[i], row
		n++
	}
	return ids[:n], rows[:n], nil
}
