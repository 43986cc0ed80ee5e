// Package memdb provides the fast in-memory composition database the
// paper uses HSQLDB for: Apuama's Result Composer inserts each node's
// partial result into a temporary table here and runs the composition
// query (global re-aggregation, ordering, limiting) against it.
//
// It is an instance of our own engine with a free cost model — an
// in-memory database pays no simulated disk IO.
package memdb

import (
	"fmt"
	"sync/atomic"

	"apuama/internal/costmodel"
	"apuama/internal/engine"
	"apuama/internal/sql"
	"apuama/internal/sqltypes"
	"apuama/internal/storage"
)

// MemDB is one in-memory composition database.
type MemDB struct {
	db   *engine.Database
	node *engine.Node
	seq  atomic.Int64
}

// New creates an empty in-memory database.
func New() *MemDB {
	cfg := costmodel.Config{
		PageSize:   64 * 1024,
		CachePages: 1 << 30, // everything stays "in RAM": no IO charges
	}
	db := engine.NewDatabase(cfg)
	return &MemDB{db: db, node: engine.NewNode(0, db)}
}

// Relations returns the names of the composition tables currently
// loaded.
func (m *MemDB) Relations() []string { return m.db.Relations() }

// Loader loads partial rows into a composition table incrementally, so
// composition can begin before the last partial arrives. Column kinds
// are inferred from the data, with numeric columns widened to float
// when any row requires it; when a later row forces a widening (or a
// column that looked all-NULL turns out typed), the table is rebuilt
// from the retained rows, so the end state depends only on the rows
// appended. Fresh table names keep concurrent compositions from
// colliding. The Loader owns every table it creates: a table it
// abandons (rebuild, Reset) is dropped at once, and Close drops the
// last one. Not safe for concurrent use; one Loader belongs to one
// composing query.
type Loader struct {
	m      *MemDB
	prefix string
	cols   []string
	name   string
	rel    *storage.Relation
	kinds  []sqltypes.Kind
	rows   []sqltypes.Row // everything appended, for rebuilds and Reset replays
}

// NewLoader prepares an incremental load; the table is created lazily on
// the first Append (or by Finish for an empty result).
func (m *MemDB) NewLoader(prefix string, cols []string) *Loader {
	return &Loader{m: m, prefix: prefix, cols: cols}
}

// Append loads a slice of rows into the table, creating or rebuilding it
// as kind inference evolves. The rows are retained by reference.
func (l *Loader) Append(rows []sqltypes.Row) error {
	if len(rows) == 0 {
		return nil
	}
	l.rows = append(l.rows, rows...)
	if l.rel != nil && !l.widens(rows) {
		return l.insert(rows)
	}
	return l.rebuild()
}

// widens reports whether any incoming value is incompatible with the
// kinds the table was created with (requiring a rebuild).
func (l *Loader) widens(rows []sqltypes.Row) bool {
	for _, row := range rows {
		for i, v := range row {
			if i >= len(l.kinds) || v.IsNull() {
				continue
			}
			if v.K != l.kinds[i] && !(v.K == sqltypes.KindInt && l.kinds[i] == sqltypes.KindFloat) {
				return true
			}
		}
	}
	return false
}

// Reset discards the table and every retained row: the rollback path
// when a streamed attempt turns out not to be the partition's winner.
// The next Append starts a fresh table.
func (l *Loader) Reset() {
	l.drop()
	l.rows = nil
	l.kinds = nil
}

// Close drops the loader's table. The owner calls it once the
// composition query over the table has run, or on any path that
// abandons the composition (error, cancellation).
func (l *Loader) Close() {
	l.drop()
	l.rows = nil
}

// drop removes the current table, if any, from the database.
func (l *Loader) drop() {
	if l.rel != nil {
		_ = l.m.db.DropTable(l.name)
	}
	l.rel = nil
	l.name = ""
}

// Finish returns the loaded table's name, creating an empty table if no
// rows were ever appended.
func (l *Loader) Finish() (string, error) {
	if l.rel == nil {
		if err := l.rebuild(); err != nil {
			return "", err
		}
	}
	return l.name, nil
}

// Rows returns the number of rows loaded so far.
func (l *Loader) Rows() int { return len(l.rows) }

// rebuild (re)creates the table with kinds inferred over every retained
// row and re-inserts them. Fresh names keep concurrent compositions and
// abandoned predecessors from colliding.
func (l *Loader) rebuild() error {
	if len(l.cols) == 0 {
		return fmt.Errorf("memdb: result has no columns")
	}
	l.drop()
	l.name = fmt.Sprintf("%s_%d", l.prefix, l.m.seq.Add(1))
	l.kinds = inferKinds(len(l.cols), l.rows)
	st := &sql.CreateTableStmt{Name: l.name}
	for i, c := range l.cols {
		st.Columns = append(st.Columns, sql.ColumnDef{Name: c, Type: l.kinds[i]})
	}
	rel, err := l.m.db.CreateTable(st)
	if err != nil {
		return err
	}
	l.rel = rel
	return l.insert(l.rows)
}

func (l *Loader) insert(rows []sqltypes.Row) error {
	for _, row := range rows {
		conv := make(sqltypes.Row, len(row))
		for i, v := range row {
			conv[i] = widen(v, l.kinds[i])
		}
		if _, err := l.rel.Insert(0, conv); err != nil {
			return err
		}
	}
	return nil
}

// Query runs a SELECT against the composition database.
func (m *MemDB) Query(sqlText string) (*engine.Result, error) {
	return m.node.Query(sqlText)
}

// QueryStmt runs a parsed SELECT against the composition database.
func (m *MemDB) QueryStmt(sel *sql.SelectStmt) (*engine.Result, error) {
	return m.node.QueryStmt(sel)
}

// inferKinds derives column kinds from data: the first non-null value
// sets the kind; ints widen to float if any float appears.
func inferKinds(n int, rows []sqltypes.Row) []sqltypes.Kind {
	kinds := make([]sqltypes.Kind, n)
	for _, row := range rows {
		for i, v := range row {
			if i >= n || v.IsNull() {
				continue
			}
			switch {
			case kinds[i] == sqltypes.KindNull:
				kinds[i] = v.K
			case kinds[i] == sqltypes.KindInt && v.K == sqltypes.KindFloat:
				kinds[i] = sqltypes.KindFloat
			}
		}
	}
	for i := range kinds {
		if kinds[i] == sqltypes.KindNull {
			kinds[i] = sqltypes.KindString // all-NULL column: any kind works
		}
	}
	return kinds
}

func widen(v sqltypes.Value, k sqltypes.Kind) sqltypes.Value {
	if v.K == sqltypes.KindInt && k == sqltypes.KindFloat {
		return sqltypes.NewFloat(float64(v.I))
	}
	return v
}
