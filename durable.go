// Durable database handles: open-with-recovery, checkpointing, and
// shutdown. A DB opened through OpenDurable writes every mutation
// (CreateTable, Insert, Analyze epoch bumps) through a write-ahead log
// before acknowledging it, checkpoints the version set in the
// background, and recovers the directory's state — checkpoint plus
// replayed log tail — on the next open. Embedded in-memory handles
// (Open, NewMemory, OpenTPCH) are unaffected: durability is opt-in per
// handle, and the query path is identical either way.
package orthoq

import (
	"errors"
	"fmt"
	"time"

	"orthoq/internal/obs"
	"orthoq/internal/tpch"
	"orthoq/internal/wal"
)

// DurableConfig configures OpenDurable.
type DurableConfig struct {
	// DataDir is the durable data directory (created if missing). It
	// holds the write-ahead log segments and the checkpoint.
	DataDir string
	// SyncPolicy selects when log appends are acknowledged: "always"
	// (fsync per mutation), "interval" (group commit, the default), or
	// "off" (no write-path fsync; a crash loses the unsynced suffix).
	SyncPolicy string
	// SyncInterval is the group-commit flusher tick under the
	// "interval" policy (0 = 2ms). It bounds both the added commit
	// latency and the batching window.
	SyncInterval time.Duration
	// CheckpointBytes triggers a background checkpoint when the
	// un-checkpointed log exceeds it (0 = checkpoint only on demand and
	// at Close).
	CheckpointBytes int64
	// RecoveryLog, when non-nil, receives the recovery record (one JSON
	// line: checkpoint LSN, replayed records/bytes, torn-tail flag,
	// duration) after a successful open. Point it at the same stream as
	// Config.QueryLog to interleave recovery events with query records.
	RecoveryLog interface{ Write([]byte) (int, error) }

	// fs overrides the filesystem seam (crash tests only).
	fs wal.FS
}

// ErrNotDurable is returned by durability operations on a handle that
// was not opened with OpenDurable.
var ErrNotDurable = errors.New("orthoq: database has no data directory")

// OpenDurable opens (or creates) the durable database in cfg.DataDir:
// recovery loads the latest checkpoint, replays the write-ahead-log
// tail (truncating a torn final record), rebuilds indexes and
// statistics, and only then attaches the log so new mutations are
// journaled. The returned handle must be Closed to flush and
// checkpoint on the way down.
func OpenDurable(cfg DurableConfig) (*DB, error) {
	if cfg.DataDir == "" {
		return nil, fmt.Errorf("orthoq: OpenDurable requires DataDir")
	}
	policy, err := wal.ParsePolicy(cfg.SyncPolicy)
	if err != nil {
		return nil, err
	}
	met := &obs.WALMetrics{}
	m, store, info, err := wal.Open(wal.Options{
		Dir:             cfg.DataDir,
		Policy:          policy,
		Interval:        cfg.SyncInterval,
		CheckpointBytes: cfg.CheckpointBytes,
		FS:              cfg.fs,
		Metrics:         met,
	})
	if err != nil {
		return nil, err
	}
	db := newDB(store)
	// Indexes and statistics are not persisted; rebuild them before the
	// journal attaches so the rebuild itself is not logged. Analyze
	// collects the statistics, once.
	db.Analyze()
	db.wal = m
	db.walMetrics = met
	store.SetJournal(m)
	if cfg.RecoveryLog != nil {
		var tables int
		var rows int64
		for _, schema := range store.Catalog.Tables() {
			tables++
			if t, ok := store.Table(schema.Name); ok {
				rows += int64(t.Version().RowCount())
			}
		}
		rec := obs.RecoveryRecord{
			CheckpointLSN:     info.CheckpointLSN,
			ReplayedRecords:   info.ReplayedRecords,
			ReplayedBytes:     info.ReplayedBytes,
			TornTailTruncated: info.TornTailTruncated,
			DurationUS:        info.Duration.Microseconds(),
			Tables:            tables,
			Rows:              rows,
		}
		rec.Now()
		db.logMu.Lock()
		_ = rec.Append(cfg.RecoveryLog)
		db.logMu.Unlock()
	}
	return db, nil
}

// OpenDurableTPCH is OpenDurable for the benchmark datasets: a fresh
// (empty) directory is seeded with the deterministic TPC-H generation
// at the given scale factor and immediately checkpointed, so the bulk
// load happens once per directory rather than being replayed from the
// log on every open. A non-empty directory recovers whatever it holds
// and ignores the generation parameters.
func OpenDurableTPCH(scaleFactor float64, seed int64, cfg DurableConfig) (*DB, error) {
	db, err := OpenDurable(cfg)
	if err != nil {
		return nil, err
	}
	if len(db.store.Catalog.Tables()) > 0 {
		return db, nil
	}
	gen, err := tpch.Generate(scaleFactor, seed)
	if err != nil {
		db.Close()
		return nil, err
	}
	// Seed through the store with the journal detached: the checkpoint
	// below persists the dataset in one snapshot instead of a log replay
	// of every generated row.
	db.store.SetJournal(nil)
	for _, schema := range gen.Catalog.Tables() {
		t, err := db.store.CreateTable(schema)
		if err != nil {
			db.Close()
			return nil, err
		}
		src, _ := gen.Table(schema.Name)
		if err := t.InsertAll(src.AllRows()); err != nil {
			db.Close()
			return nil, err
		}
	}
	db.Analyze()
	db.store.SetJournal(db.wal)
	if err := db.Checkpoint(); err != nil {
		db.Close()
		return nil, err
	}
	return db, nil
}

// Checkpoint forces a checkpoint now: the current version set is
// serialized, atomically installed, and the log truncated behind it.
// Returns ErrNotDurable on an in-memory handle.
func (db *DB) Checkpoint() error {
	if db.wal == nil {
		return ErrNotDurable
	}
	return db.wal.Checkpoint()
}

// Sync forces an fsync of the write-ahead log, acknowledging every
// appended record — a manual durability barrier for the "off" sync
// policy. Returns ErrNotDurable on an in-memory handle.
func (db *DB) Sync() error {
	if db.wal == nil {
		return ErrNotDurable
	}
	return db.wal.Sync()
}

// Close shuts the handle down. For a durable handle it takes a final
// checkpoint (so the next open recovers from the snapshot without log
// replay) and closes the log; for an in-memory handle it is a no-op.
// The handle must not be used afterwards.
func (db *DB) Close() error {
	if db.wal == nil {
		return nil
	}
	ckptErr := db.wal.Checkpoint()
	closeErr := db.wal.Close()
	db.store.SetJournal(nil)
	if ckptErr != nil {
		return ckptErr
	}
	return closeErr
}

// Kill abandons a durable handle without flushing or checkpointing —
// the in-process stand-in for kill -9, used by crash tests and the
// recovery benchmark. Unsynced log records are lost exactly as a real
// crash would lose them; the next OpenDurable replays the log.
func (db *DB) Kill() {
	if db.wal == nil {
		return
	}
	db.wal.Kill()
	db.store.SetJournal(nil)
}
