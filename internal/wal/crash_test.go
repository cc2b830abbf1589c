// The crash matrix: every fault point a real disk exposes — crash
// mid-append, mid-fsync, mid-checkpoint-rename, a torn tail, a
// corrupted record — driven deterministically through FaultFS, with
// the same invariant asserted each time: after Reboot+Open, every
// acknowledged write is present, no unacknowledged batch is partially
// visible, and damage the log cannot explain fails loudly.
package wal

import (
	"strings"
	"sync"
	"testing"
	"time"

	"orthoq/internal/sql/catalog"
	"orthoq/internal/sql/types"
	"orthoq/internal/storage"
)

const testDir = "/data"

func testSchema(name string) *catalog.Table {
	return &catalog.Table{
		Name: name,
		Columns: []catalog.Column{
			{Name: "id", Type: types.Int},
			{Name: "batch", Type: types.Int},
		},
		Key: []int{0},
	}
}

func intRow(id, batch int64) types.Row {
	return types.Row{types.NewInt(id), types.NewInt(batch)}
}

// openFF opens the log over ffs and wires the journal, failing the
// test on error.
func openFF(t *testing.T, ffs *FaultFS, policy SyncPolicy) (*Manager, *storage.Store, *RecoveryInfo) {
	t.Helper()
	m, st, info, err := Open(Options{Dir: testDir, Policy: policy, Interval: 500 * time.Microsecond, FS: ffs})
	if err != nil {
		t.Fatalf("wal.Open: %v", err)
	}
	st.SetJournal(m)
	return m, st, info
}

func mustCreate(t *testing.T, st *storage.Store, name string) *storage.Table {
	t.Helper()
	tbl, err := st.CreateTable(testSchema(name))
	if err != nil {
		t.Fatalf("CreateTable(%s): %v", name, err)
	}
	return tbl
}

// batchRows builds one batch of n rows tagged with the batch id.
func batchRows(batch int64, n int) []types.Row {
	rows := make([]types.Row, n)
	for k := range rows {
		rows[k] = intRow(batch*100+int64(k), batch)
	}
	return rows
}

// batchCounts maps batch id -> visible row count in table name.
func batchCounts(t *testing.T, st *storage.Store, name string) map[int64]int {
	t.Helper()
	counts := make(map[int64]int)
	tbl, ok := st.Table(name)
	if !ok {
		return counts
	}
	for _, row := range tbl.AllRows() {
		counts[row[1].Int()]++
	}
	return counts
}

func TestParsePolicy(t *testing.T) {
	if p, err := ParsePolicy(""); err != nil || p != SyncInterval {
		t.Errorf("ParsePolicy(\"\") = %v, %v", p, err)
	}
	for _, s := range []string{"always", "interval", "off"} {
		if p, err := ParsePolicy(s); err != nil || string(p) != s {
			t.Errorf("ParsePolicy(%q) = %v, %v", s, p, err)
		}
	}
	if _, err := ParsePolicy("fsync-maybe"); err == nil {
		t.Error("ParsePolicy accepted garbage")
	}
}

// A graceful Close makes everything durable; the next Open replays the
// full log (no checkpoint was taken at this layer).
func TestRecoverAfterClose(t *testing.T) {
	ffs := NewFaultFS(nil)
	m, st, _ := openFF(t, ffs, SyncInterval)
	tbl := mustCreate(t, st, "t")
	if err := tbl.InsertAll(batchRows(1, 3)); err != nil {
		t.Fatalf("InsertAll: %v", err)
	}
	if err := m.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	_, st2, info := openFF(t, ffs.Reboot(), SyncInterval)
	if info.CheckpointLSN != 0 {
		t.Errorf("unexpected checkpoint LSN %d", info.CheckpointLSN)
	}
	if info.ReplayedRecords != 2 { // create + insert
		t.Errorf("ReplayedRecords = %d, want 2", info.ReplayedRecords)
	}
	if got := batchCounts(t, st2, "t"); got[1] != 3 {
		t.Errorf("batch 1 has %d rows after recovery, want 3", got[1])
	}
}

// Appends after Close fail with ErrClosed.
func TestAppendAfterClose(t *testing.T) {
	m, st, _ := openFF(t, NewFaultFS(nil), SyncAlways)
	mustCreate(t, st, "t")
	if err := m.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := m.LogEpoch(); err != ErrClosed {
		t.Errorf("append after Close: err = %v, want ErrClosed", err)
	}
}

// SyncOff acknowledges without fsync: a crash loses the unsynced
// suffix entirely — no partial state, just a clean rollback.
func TestSyncOffCrashLosesUnsynced(t *testing.T) {
	ffs := NewFaultFS(nil)
	m, st, _ := openFF(t, ffs, SyncOff)
	tbl := mustCreate(t, st, "t")
	if err := tbl.InsertAll(batchRows(1, 3)); err != nil {
		t.Fatalf("InsertAll: %v", err)
	}
	ffs.Crash()
	m.Kill()

	_, st2, info := openFF(t, ffs.Reboot(), SyncOff)
	if info.ReplayedRecords != 0 {
		t.Errorf("ReplayedRecords = %d, want 0 (nothing was synced)", info.ReplayedRecords)
	}
	if _, ok := st2.Table("t"); ok {
		t.Error("table survived a crash that predates every fsync")
	}
}

// Sync() is the manual durability barrier for SyncOff: batches before
// the barrier survive a crash, batches after it are lost.
func TestSyncOffManualBarrier(t *testing.T) {
	ffs := NewFaultFS(nil)
	m, st, _ := openFF(t, ffs, SyncOff)
	tbl := mustCreate(t, st, "t")
	if err := tbl.InsertAll(batchRows(1, 3)); err != nil {
		t.Fatalf("InsertAll batch 1: %v", err)
	}
	if err := m.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if err := tbl.InsertAll(batchRows(2, 3)); err != nil {
		t.Fatalf("InsertAll batch 2: %v", err)
	}
	ffs.Crash()
	m.Kill()

	_, st2, _ := openFF(t, ffs.Reboot(), SyncOff)
	counts := batchCounts(t, st2, "t")
	if counts[1] != 3 {
		t.Errorf("pre-barrier batch has %d rows, want 3", counts[1])
	}
	if counts[2] != 0 {
		t.Errorf("post-barrier batch partially visible: %d rows", counts[2])
	}
}

// SyncAlways: every acknowledged batch survives any crash.
func TestSyncAlwaysAckedSurviveCrash(t *testing.T) {
	ffs := NewFaultFS(nil)
	m, st, _ := openFF(t, ffs, SyncAlways)
	tbl := mustCreate(t, st, "t")
	for b := int64(1); b <= 5; b++ {
		if err := tbl.InsertAll(batchRows(b, 3)); err != nil {
			t.Fatalf("InsertAll batch %d: %v", b, err)
		}
	}
	ffs.Crash()
	m.Kill()

	_, st2, _ := openFF(t, ffs.Reboot(), SyncAlways)
	counts := batchCounts(t, st2, "t")
	for b := int64(1); b <= 5; b++ {
		if counts[b] != 3 {
			t.Errorf("acked batch %d has %d rows after recovery, want 3", b, counts[b])
		}
	}
}

// A torn write mid-append: the frame is half on disk when the machine
// dies. Recovery truncates the torn tail; the unacknowledged batch is
// completely invisible, everything acknowledged before it intact.
func TestTornTailTruncated(t *testing.T) {
	inj := &Injector{}
	// Writes so far: 1 = create record, 2 = batch 1. The 3rd log write
	// (batch 2) tears after 5 bytes — inside the frame header.
	inj.Arm(Rule{Op: OpWrite, Path: "wal-", After: 2, Kind: KindTorn, KeepBytes: 5})
	ffs := NewFaultFS(inj)
	m, st, _ := openFF(t, ffs, SyncAlways)
	tbl := mustCreate(t, st, "t")
	if err := tbl.InsertAll(batchRows(1, 3)); err != nil {
		t.Fatalf("InsertAll batch 1: %v", err)
	}
	if err := tbl.InsertAll(batchRows(2, 3)); err == nil {
		t.Fatal("torn write did not surface an error")
	}
	m.Kill()

	_, st2, info := openFF(t, ffs.Reboot(), SyncAlways)
	if !info.TornTailTruncated {
		t.Error("TornTailTruncated not reported")
	}
	counts := batchCounts(t, st2, "t")
	if counts[1] != 3 {
		t.Errorf("acked batch 1 has %d rows, want 3", counts[1])
	}
	if counts[2] != 0 {
		t.Errorf("torn batch 2 partially visible: %d rows", counts[2])
	}
}

// Bit rot in the final record reads as a torn tail: the record's CRC
// fails, it is truncated away, and everything before it survives.
func TestCorruptCRCTailTruncated(t *testing.T) {
	ffs := NewFaultFS(nil)
	m, st, _ := openFF(t, ffs, SyncAlways)
	tbl := mustCreate(t, st, "t")
	if err := tbl.InsertAll(batchRows(1, 3)); err != nil {
		t.Fatalf("InsertAll batch 1: %v", err)
	}
	if err := tbl.InsertAll(batchRows(2, 3)); err != nil {
		t.Fatalf("InsertAll batch 2: %v", err)
	}
	ffs.Crash()
	m.Kill()

	ffs2 := ffs.Reboot()
	corruptLastByte(t, ffs2, lastSegment(t, ffs2))

	_, st2, info := openFF(t, ffs2, SyncAlways)
	if !info.TornTailTruncated {
		t.Error("CRC-failing tail record not truncated")
	}
	counts := batchCounts(t, st2, "t")
	if counts[1] != 3 || counts[2] != 0 {
		t.Errorf("batch counts after CRC truncation = %v, want {1:3}", counts)
	}
}

// The same damage mid-log — with acknowledged records after it — is a
// disk integrity failure, not a crash artifact. Open must refuse.
func TestMidLogCorruptionFatal(t *testing.T) {
	ffs := NewFaultFS(nil)
	m, st, _ := openFF(t, ffs, SyncAlways)
	tbl := mustCreate(t, st, "t")
	if err := tbl.InsertAll(batchRows(1, 3)); err != nil {
		t.Fatalf("InsertAll: %v", err)
	}
	if err := m.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Second epoch appends to a second segment, so the first segment is
	// no longer "the last" and gets no torn-tail tolerance.
	m2, st2, _ := openFF(t, ffs, SyncAlways)
	tbl2, _ := st2.Table("t")
	if err := tbl2.InsertAll(batchRows(2, 3)); err != nil {
		t.Fatalf("InsertAll epoch 2: %v", err)
	}
	if err := m2.Close(); err != nil {
		t.Fatalf("Close epoch 2: %v", err)
	}

	ffs2 := ffs.Reboot()
	corruptLastByte(t, ffs2, firstSegment(t, ffs2))
	_, _, _, err := Open(Options{Dir: testDir, Policy: SyncAlways, FS: ffs2})
	if err == nil || !strings.Contains(err.Error(), "corrupt record") {
		t.Fatalf("mid-log corruption: err = %v, want corrupt-record failure", err)
	}
}

// Crash between append and fsync (SyncAlways): the batch was never
// acknowledged, so losing it is correct — and the error reaches the
// writer before the rows reach memory.
func TestCrashMidFsync(t *testing.T) {
	inj := &Injector{}
	// Syncs: 1 = create, 2 = batch 1. The 3rd fsync (batch 2) crashes
	// before taking effect.
	inj.Arm(Rule{Op: OpSync, Path: "wal-", After: 2, Kind: KindCrash})
	ffs := NewFaultFS(inj)
	m, st, _ := openFF(t, ffs, SyncAlways)
	tbl := mustCreate(t, st, "t")
	if err := tbl.InsertAll(batchRows(1, 3)); err != nil {
		t.Fatalf("InsertAll batch 1: %v", err)
	}
	if err := tbl.InsertAll(batchRows(2, 3)); err == nil {
		t.Fatal("crash mid-fsync did not surface an error")
	}
	// Fail-stop: the store never published the failed batch even in
	// memory.
	if got := batchCounts(t, st, "t"); got[2] != 0 {
		t.Errorf("failed batch visible in memory: %d rows", got[2])
	}
	m.Kill()

	_, st2, _ := openFF(t, ffs.Reboot(), SyncAlways)
	counts := batchCounts(t, st2, "t")
	if counts[1] != 3 || counts[2] != 0 {
		t.Errorf("batch counts after mid-fsync crash = %v, want {1:3}", counts)
	}
}

// An injected I/O error (machine alive) poisons the manager: the
// failed append and every later one return the sticky error, while
// reads keep serving from memory.
func TestWriteErrorFailStop(t *testing.T) {
	inj := &Injector{}
	inj.Arm(Rule{Op: OpWrite, Path: "wal-", After: 2, Kind: KindError})
	ffs := NewFaultFS(inj)
	m, st, _ := openFF(t, ffs, SyncAlways)
	tbl := mustCreate(t, st, "t")
	if err := tbl.InsertAll(batchRows(1, 3)); err != nil {
		t.Fatalf("InsertAll batch 1: %v", err)
	}
	if err := tbl.InsertAll(batchRows(2, 3)); err == nil {
		t.Fatal("injected write error not surfaced")
	}
	if err := tbl.InsertAll(batchRows(3, 3)); err == nil {
		t.Fatal("manager not poisoned after I/O error")
	}
	if got := batchCounts(t, st, "t"); got[1] != 3 || got[2] != 0 || got[3] != 0 {
		t.Errorf("in-memory reads after fail-stop = %v, want {1:3}", got)
	}
	m.Kill()
}

// Crash before the checkpoint's commit rename: the previous state (no
// checkpoint, full log) recovers everything.
func TestCrashMidCheckpointRename(t *testing.T) {
	inj := &Injector{}
	inj.Arm(Rule{Op: OpRename, Path: "CHECKPOINT", Kind: KindCrash})
	ffs := NewFaultFS(inj)
	m, st, _ := openFF(t, ffs, SyncAlways)
	tbl := mustCreate(t, st, "t")
	if err := tbl.InsertAll(batchRows(1, 3)); err != nil {
		t.Fatalf("InsertAll: %v", err)
	}
	if err := m.Checkpoint(); err == nil {
		t.Fatal("checkpoint survived a crash on its commit rename")
	}
	m.Kill()

	_, st2, info := openFF(t, ffs.Reboot(), SyncAlways)
	if info.CheckpointLSN != 0 {
		t.Errorf("CheckpointLSN = %d, want 0 (rename never committed)", info.CheckpointLSN)
	}
	if got := batchCounts(t, st2, "t"); got[1] != 3 {
		t.Errorf("batch 1 has %d rows, want 3", got[1])
	}
}

// Crash after the commit rename but before the old segments are
// deleted: the checkpoint wins, the stale segments replay as no-ops
// (their LSNs are at or below each table's checkpointed LSN), and no
// row appears twice.
func TestCrashAfterCheckpointBeforeSegmentDelete(t *testing.T) {
	inj := &Injector{}
	inj.Arm(Rule{Op: OpRemove, Path: "wal-", Kind: KindCrash})
	ffs := NewFaultFS(inj)
	m, st, _ := openFF(t, ffs, SyncAlways)
	tbl := mustCreate(t, st, "t")
	if err := tbl.InsertAll(batchRows(1, 3)); err != nil {
		t.Fatalf("InsertAll: %v", err)
	}
	if err := m.Checkpoint(); err == nil {
		t.Fatal("checkpoint survived a crash on segment delete")
	}
	m.Kill()

	_, st2, info := openFF(t, ffs.Reboot(), SyncAlways)
	if info.CheckpointLSN == 0 {
		t.Error("committed checkpoint not loaded")
	}
	if got := batchCounts(t, st2, "t"); got[1] != 3 {
		t.Errorf("batch 1 has %d rows (stale-segment replay must be idempotent), want 3", got[1])
	}
}

// A clean checkpoint splits recovery: the snapshot carries the old
// records, replay covers only the tail.
func TestCheckpointThenReplayTail(t *testing.T) {
	ffs := NewFaultFS(nil)
	m, st, _ := openFF(t, ffs, SyncAlways)
	tbl := mustCreate(t, st, "t")
	if err := tbl.InsertAll(batchRows(1, 3)); err != nil {
		t.Fatalf("InsertAll batch 1: %v", err)
	}
	if err := m.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if err := tbl.InsertAll(batchRows(2, 3)); err != nil {
		t.Fatalf("InsertAll batch 2: %v", err)
	}
	ffs.Crash()
	m.Kill()

	_, st2, info := openFF(t, ffs.Reboot(), SyncAlways)
	if info.CheckpointLSN == 0 {
		t.Error("checkpoint not loaded")
	}
	if info.ReplayedRecords != 1 {
		t.Errorf("ReplayedRecords = %d, want 1 (only the post-checkpoint insert)", info.ReplayedRecords)
	}
	counts := batchCounts(t, st2, "t")
	if counts[1] != 3 || counts[2] != 3 {
		t.Errorf("batch counts = %v, want {1:3, 2:3}", counts)
	}
}

// A stray CHECKPOINT.tmp (crash between serialize and rename) is
// removed at Open and recovery proceeds from the log.
func TestStrayCheckpointTmpRemoved(t *testing.T) {
	ffs := NewFaultFS(nil)
	m, st, _ := openFF(t, ffs, SyncAlways)
	tbl := mustCreate(t, st, "t")
	if err := tbl.InsertAll(batchRows(1, 3)); err != nil {
		t.Fatalf("InsertAll: %v", err)
	}
	if err := m.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	ffs2 := ffs.Reboot()
	f, err := ffs2.Create(testDir + "/CHECKPOINT.tmp")
	if err != nil {
		t.Fatalf("plant tmp: %v", err)
	}
	f.Write([]byte("half a checkpoint"))
	f.Sync()
	f.Close()
	if err := ffs2.SyncDir(testDir); err != nil {
		t.Fatalf("SyncDir: %v", err)
	}

	_, st2, _ := openFF(t, ffs2, SyncAlways)
	if got := batchCounts(t, st2, "t"); got[1] != 3 {
		t.Errorf("batch 1 has %d rows, want 3", got[1])
	}
	names, _ := ffs2.ReadDir(testDir)
	for _, n := range names {
		if n == "CHECKPOINT.tmp" {
			t.Error("stray CHECKPOINT.tmp survived Open")
		}
	}
}

// A corrupted committed checkpoint is fatal: it was fsynced before its
// rename, so damage means the disk lost synced data.
func TestCorruptCheckpointFatal(t *testing.T) {
	ffs := NewFaultFS(nil)
	m, st, _ := openFF(t, ffs, SyncAlways)
	tbl := mustCreate(t, st, "t")
	if err := tbl.InsertAll(batchRows(1, 3)); err != nil {
		t.Fatalf("InsertAll: %v", err)
	}
	if err := m.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if err := m.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	ffs2 := ffs.Reboot()
	corruptLastByte(t, ffs2, testDir+"/CHECKPOINT")
	_, _, _, err := Open(Options{Dir: testDir, Policy: SyncAlways, FS: ffs2})
	if err == nil || !strings.Contains(err.Error(), "corrupt checkpoint") {
		t.Fatalf("corrupt checkpoint: err = %v, want corrupt-checkpoint failure", err)
	}
}

// The group-commit invariant under concurrency and a crash at an
// arbitrary fsync: every batch whose InsertAll returned nil is fully
// present after recovery; every other batch is all-or-nothing. Run
// with -race: writers, flusher, checkpointer, and the crash overlap.
func TestGroupCommitCrashConcurrent(t *testing.T) {
	inj := &Injector{}
	// Let a few group commits land, then die on a later segment fsync.
	inj.Arm(Rule{Op: OpSync, Path: "wal-", After: 6, Kind: KindCrash})
	ffs := NewFaultFS(inj)
	m, st, _ := openFF(t, ffs, SyncInterval)
	tbl := mustCreate(t, st, "t")

	const writers = 4
	var mu sync.Mutex
	acked := make(map[int64]bool)
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int64) {
			defer wg.Done()
			for i := int64(0); i < 200; i++ {
				batch := g*1000 + i
				if err := tbl.InsertAll(batchRows(batch, 3)); err != nil {
					return // poisoned: the crash happened
				}
				mu.Lock()
				acked[batch] = true
				mu.Unlock()
			}
		}(int64(g))
	}
	wg.Wait()
	m.Kill()

	_, st2, _ := openFF(t, ffs.Reboot(), SyncInterval)
	counts := batchCounts(t, st2, "t")
	for batch := range acked {
		if counts[batch] != 3 {
			t.Errorf("acked batch %d has %d rows after recovery, want 3", batch, counts[batch])
		}
	}
	for batch, n := range counts {
		if n != 3 {
			t.Errorf("batch %d partially visible: %d rows", batch, n)
		}
		_ = batch
	}
	if len(acked) == 0 {
		t.Error("crash fired before any batch was acknowledged; rule placement is wrong")
	}
}

// The size trigger runs a background checkpoint without any caller
// asking for one.
func TestCheckpointBytesTrigger(t *testing.T) {
	ffs := NewFaultFS(nil)
	m, st, _, err := Open(Options{Dir: testDir, Policy: SyncOff, CheckpointBytes: 256, FS: ffs})
	if err != nil {
		t.Fatalf("wal.Open: %v", err)
	}
	st.SetJournal(m)
	tbl := mustCreate(t, st, "t")
	deadline := time.Now().Add(5 * time.Second)
	for b := int64(1); m.met.Checkpoints.Load() == 0; b++ {
		if time.Now().After(deadline) {
			t.Fatal("no background checkpoint within 5s despite exceeding CheckpointBytes")
		}
		if err := tbl.InsertAll(batchRows(b, 8)); err != nil {
			t.Fatalf("InsertAll: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
	if err := m.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	_, st2, info := openFF(t, ffs.Reboot(), SyncOff)
	if info.CheckpointLSN == 0 {
		t.Error("background checkpoint not found by recovery")
	}
	want := batchCounts(t, st, "t")
	got := batchCounts(t, st2, "t")
	for b, n := range want {
		if got[b] != n {
			t.Errorf("batch %d: recovered %d rows, want %d", b, got[b], n)
		}
	}
}

// Epoch records replay as no-ops and keep LSNs monotonic across them.
func TestEpochRecordReplay(t *testing.T) {
	ffs := NewFaultFS(nil)
	m, st, _ := openFF(t, ffs, SyncAlways)
	tbl := mustCreate(t, st, "t")
	lsn1, err := m.LogEpoch()
	if err != nil {
		t.Fatalf("LogEpoch: %v", err)
	}
	if err := tbl.InsertAll(batchRows(1, 3)); err != nil {
		t.Fatalf("InsertAll: %v", err)
	}
	lsn2, err := m.LogEpoch()
	if err != nil {
		t.Fatalf("LogEpoch: %v", err)
	}
	if lsn2 <= lsn1 {
		t.Errorf("LSNs not monotonic: %d then %d", lsn1, lsn2)
	}
	if err := m.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	_, st2, info := openFF(t, ffs.Reboot(), SyncAlways)
	if info.ReplayedRecords != 4 { // epoch, create, insert, epoch
		t.Errorf("ReplayedRecords = %d, want 4", info.ReplayedRecords)
	}
	if got := batchCounts(t, st2, "t"); got[1] != 3 {
		t.Errorf("batch 1 has %d rows, want 3", got[1])
	}
}

// Back-to-back checkpoints with no appends in between: the rotation
// would recreate the active segment under its own name, so the
// post-commit delete must not unlink the live segment. Writes
// acknowledged after the second checkpoint have to survive a crash,
// and a third checkpoint has to succeed (no ENOENT poison).
func TestBackToBackCheckpointsKeepActiveSegment(t *testing.T) {
	ffs := NewFaultFS(nil)
	m, st, _ := openFF(t, ffs, SyncAlways)
	tbl := mustCreate(t, st, "t")
	if err := tbl.InsertAll(batchRows(1, 3)); err != nil {
		t.Fatalf("InsertAll batch 1: %v", err)
	}
	if err := m.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint 1: %v", err)
	}
	if err := m.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint 2 (no intervening appends): %v", err)
	}
	if err := tbl.InsertAll(batchRows(2, 3)); err != nil {
		t.Fatalf("InsertAll batch 2: %v", err)
	}
	if err := m.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint 3 after back-to-back pair: %v", err)
	}
	if err := tbl.InsertAll(batchRows(3, 3)); err != nil {
		t.Fatalf("InsertAll batch 3: %v", err)
	}
	ffs.Crash()
	m.Kill()

	_, st2, _ := openFF(t, ffs.Reboot(), SyncAlways)
	counts := batchCounts(t, st2, "t")
	for b := int64(1); b <= 3; b++ {
		if counts[b] != 3 {
			t.Errorf("acked batch %d has %d rows after recovery, want 3", b, counts[b])
		}
	}
}

// A CRC flip in the MIDDLE of the final segment — with valid, synced
// records after it — is disk corruption, not a torn tail. Truncating
// there would silently discard acknowledged data; Open must refuse.
func TestMidSegmentCorruptionFinalSegmentFatal(t *testing.T) {
	ffs := NewFaultFS(nil)
	m, st, _ := openFF(t, ffs, SyncAlways)
	tbl := mustCreate(t, st, "t")
	if err := tbl.InsertAll(batchRows(1, 3)); err != nil {
		t.Fatalf("InsertAll batch 1: %v", err)
	}
	if err := tbl.InsertAll(batchRows(2, 3)); err != nil {
		t.Fatalf("InsertAll batch 2: %v", err)
	}
	if err := m.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	ffs2 := ffs.Reboot()
	// Flip a payload byte of the FIRST record (offset 8 is the LSN's
	// high byte, past the length+CRC header): its CRC fails while the
	// records after it stay valid.
	corruptByte(t, ffs2, lastSegment(t, ffs2), frameHeader)
	_, _, _, err := Open(Options{Dir: testDir, Policy: SyncAlways, FS: ffs2})
	if err == nil || !strings.Contains(err.Error(), "valid records after it") {
		t.Fatalf("mid-segment corruption: err = %v, want valid-records-after failure", err)
	}
}

// A crash right after a checkpoint leaves a committed checkpoint plus a
// record-free rotated segment whose name recovery's fresh active
// segment reuses. Recovery must not track the path twice: the next
// checkpoint has to succeed instead of poisoning on a double Remove.
func TestRecoverEmptySegmentNameCollision(t *testing.T) {
	ffs := NewFaultFS(nil)
	m, st, _ := openFF(t, ffs, SyncAlways)
	tbl := mustCreate(t, st, "t")
	if err := tbl.InsertAll(batchRows(1, 3)); err != nil {
		t.Fatalf("InsertAll batch 1: %v", err)
	}
	if err := m.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	ffs.Crash()
	m.Kill()

	ffs2 := ffs.Reboot()
	m2, st2, info := openFF(t, ffs2, SyncAlways)
	if info.CheckpointLSN == 0 {
		t.Fatal("committed checkpoint not loaded")
	}
	tbl2, ok := st2.Table("t")
	if !ok {
		t.Fatal("table missing after recovery")
	}
	if err := tbl2.InsertAll(batchRows(2, 3)); err != nil {
		t.Fatalf("InsertAll batch 2: %v", err)
	}
	if err := m2.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint after empty-segment recovery: %v", err)
	}
	if err := tbl2.InsertAll(batchRows(3, 3)); err != nil {
		t.Fatalf("InsertAll batch 3: %v", err)
	}
	if err := m2.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	_, st3, _ := openFF(t, ffs2.Reboot(), SyncAlways)
	counts := batchCounts(t, st3, "t")
	for b := int64(1); b <= 3; b++ {
		if counts[b] != 3 {
			t.Errorf("batch %d has %d rows after second recovery, want 3", b, counts[b])
		}
	}
}

// A failed journal append during CreateTable rolls the catalog entry
// back: no phantom table that lookups miss but re-creation trips over.
func TestCreateTableJournalFailureRollsBackCatalog(t *testing.T) {
	inj := &Injector{}
	inj.Arm(Rule{Op: OpWrite, Path: "wal-", Kind: KindError})
	ffs := NewFaultFS(inj)
	m, st, _ := openFF(t, ffs, SyncAlways)
	if _, err := st.CreateTable(testSchema("t")); err == nil {
		t.Fatal("CreateTable with failing journal append succeeded")
	}
	if _, ok := st.Catalog.Table("t"); ok {
		t.Error("catalog kept a phantom entry for the unlogged table")
	}
	if _, ok := st.Table("t"); ok {
		t.Error("table published despite failed journal append")
	}
	m.Kill()
}

// A log record that frames and decodes but whose rows do not fit the
// table — here a string id and a missing column — fails recovery with
// the table's complaint, rather than reaching the first query to read
// the table.
func TestReplayRejectsRowsThatDoNotFitSchema(t *testing.T) {
	for _, row := range []types.Row{
		{types.NewString("x"), types.NewInt(1)},
		{types.NewInt(1)},
	} {
		ffs := NewFaultFS(nil)
		m, st, _ := openFF(t, ffs, SyncAlways)
		tbl := mustCreate(t, st, "t")
		if err := tbl.InsertAll(batchRows(1, 3)); err != nil {
			t.Fatalf("InsertAll: %v", err)
		}
		// Logged past checkRow, as a corrupt writer would.
		if _, err := m.LogInsert("t", []types.Row{row}); err != nil {
			t.Fatalf("LogInsert: %v", err)
		}
		if err := m.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		_, _, _, err := Open(Options{Dir: testDir, Policy: SyncAlways, FS: ffs.Reboot()})
		if err == nil || !strings.Contains(err.Error(), "wal: replay") || !strings.Contains(err.Error(), "storage: ") {
			t.Errorf("replaying %v: err = %v, want the table's complaint", row, err)
		}
	}
}

// lastSegment returns the path of the newest non-empty log segment.
func lastSegment(t *testing.T, ffs *FaultFS) string {
	t.Helper()
	return pickSegment(t, ffs, true)
}

// firstSegment returns the path of the oldest non-empty log segment.
func firstSegment(t *testing.T, ffs *FaultFS) string {
	t.Helper()
	return pickSegment(t, ffs, false)
}

func pickSegment(t *testing.T, ffs *FaultFS, last bool) string {
	t.Helper()
	names, err := ffs.ReadDir(testDir)
	if err != nil {
		t.Fatalf("ReadDir: %v", err)
	}
	var segs []string
	for _, n := range names { // ReadDir sorts; hex names sort by LSN
		if strings.HasPrefix(n, "wal-") && strings.HasSuffix(n, ".log") {
			if data, err := ffs.ReadFile(testDir + "/" + n); err == nil && len(data) > 0 {
				segs = append(segs, testDir+"/"+n)
			}
		}
	}
	if len(segs) == 0 {
		t.Fatal("no non-empty log segment found")
	}
	if last {
		return segs[len(segs)-1]
	}
	return segs[0]
}

// corruptLastByte flips the final byte of path in place (through the
// FS interface, so the change is durable).
func corruptLastByte(t *testing.T, ffs *FaultFS, path string) {
	t.Helper()
	corruptByte(t, ffs, path, -1)
}

// corruptByte flips the byte at idx of path in place (idx -1 = the
// final byte), through the FS interface so the change is durable.
func corruptByte(t *testing.T, ffs *FaultFS, path string, idx int) {
	t.Helper()
	data, err := ffs.ReadFile(path)
	if err != nil || len(data) == 0 {
		t.Fatalf("ReadFile(%s): %v (len %d)", path, err, len(data))
	}
	if idx < 0 {
		idx = len(data) - 1
	}
	data[idx] ^= 0xff
	f, err := ffs.Create(path)
	if err != nil {
		t.Fatalf("Create(%s): %v", path, err)
	}
	if _, err := f.Write(data); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if err := f.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	f.Close()
	if err := ffs.SyncDir(testDir); err != nil {
		t.Fatalf("SyncDir: %v", err)
	}
}
