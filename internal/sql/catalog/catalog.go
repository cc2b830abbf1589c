// Package catalog holds schema metadata: tables, columns, keys, and
// secondary indexes. The catalog is the optimizer's and algebrizer's
// view of the database; actual row storage lives in internal/storage.
package catalog

import (
	"fmt"
	"strings"
	"sync"

	"orthoq/internal/sql/types"
)

// Column describes one table column.
type Column struct {
	Name     string
	Type     types.Kind
	Nullable bool
}

// Index describes a secondary index over a prefix of columns (by
// ordinal within the table).
type Index struct {
	Name    string
	Cols    []int // column ordinals, significant order
	Unique  bool
	Ordered bool // supports range scans (sorted), not just point lookups
}

// Table is the schema of one table.
type Table struct {
	Name    string
	Columns []Column
	// Key lists the ordinals of the primary key columns. Every table in
	// this engine has a primary key (the paper's identities (7)-(9)
	// require keys; see DESIGN.md).
	Key     []int
	Indexes []Index
}

// ColumnOrdinal returns the ordinal of the named column, or -1.
func (t *Table) ColumnOrdinal(name string) int {
	for i, c := range t.Columns {
		if strings.EqualFold(c.Name, name) {
			return i
		}
	}
	return -1
}

// Catalog is a named collection of tables. Lookup and registration
// are safe for concurrent use (server-mode DDL runs alongside query
// compilation); the registered *Table schemas themselves are
// immutable by convention once added.
type Catalog struct {
	mu     sync.RWMutex
	tables map[string]*Table
	order  []string
}

// New creates an empty catalog.
func New() *Catalog {
	return &Catalog{tables: make(map[string]*Table)}
}

// Add registers a table. It returns an error on duplicate names or
// invalid schemas (empty column list, bad key/index ordinals).
func (c *Catalog) Add(t *Table) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	name := strings.ToLower(t.Name)
	if _, ok := c.tables[name]; ok {
		return fmt.Errorf("catalog: table %q already exists", t.Name)
	}
	if len(t.Columns) == 0 {
		return fmt.Errorf("catalog: table %q has no columns", t.Name)
	}
	if len(t.Key) == 0 {
		return fmt.Errorf("catalog: table %q has no primary key", t.Name)
	}
	check := func(ords []int, what string) error {
		for _, o := range ords {
			if o < 0 || o >= len(t.Columns) {
				return fmt.Errorf("catalog: table %q: %s ordinal %d out of range", t.Name, what, o)
			}
		}
		return nil
	}
	if err := check(t.Key, "key"); err != nil {
		return err
	}
	for _, idx := range t.Indexes {
		if err := check(idx.Cols, "index "+idx.Name); err != nil {
			return err
		}
	}
	seen := map[string]bool{}
	for _, col := range t.Columns {
		lc := strings.ToLower(col.Name)
		if seen[lc] {
			return fmt.Errorf("catalog: table %q: duplicate column %q", t.Name, col.Name)
		}
		seen[lc] = true
	}
	c.tables[name] = t
	c.order = append(c.order, name)
	return nil
}

// Remove unregisters a table by case-insensitive name; removing an
// absent table is a no-op. Storage uses it to roll back a registration
// whose write-ahead-log append failed, so the catalog never advertises
// a table that was neither published nor logged.
func (c *Catalog) Remove(name string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := strings.ToLower(name)
	if _, ok := c.tables[key]; !ok {
		return
	}
	delete(c.tables, key)
	for i, n := range c.order {
		if n == key {
			c.order = append(c.order[:i], c.order[i+1:]...)
			break
		}
	}
}

// Table looks up a table by case-insensitive name.
func (c *Catalog) Table(name string) (*Table, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.tables[strings.ToLower(name)]
	return t, ok
}

// Tables returns all tables in registration order.
func (c *Catalog) Tables() []*Table {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]*Table, 0, len(c.order))
	for _, n := range c.order {
		out = append(out, c.tables[n])
	}
	return out
}
