package storage

import "orthoq/internal/sql/types"

// Bridges for FuzzSnapshotDecode, an external test because it runs
// internal/stats (which imports this package) over what it decodes.

var SnapshotSeed = snapshotSeed

func (t *Table) CheckRows(rows []types.Row) error { return t.checkRows(rows) }
