package exec

import (
	"encoding/binary"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"orthoq/internal/algebra"
	"orthoq/internal/core"
	"orthoq/internal/sql/types"
	"orthoq/internal/storage"
)

// TestSpillCodecRoundtrip: every datum kind, null and non-null,
// survives the spill file codec bit-exactly, independent readers
// replay the same partition concurrently, and a cut file is an error,
// never a shorter clean replay.
func TestSpillCodecRoundtrip(t *testing.T) {
	ctx := NewContext(nil, nil)
	ctx.SpillDir = t.TempDir()
	rows := []types.Row{
		{types.NewInt(0), types.NewInt(-1), types.NewInt(1 << 62)},
		{types.NewFloat(3.5), types.NewFloat(-0.0), types.NewFloat(math.Inf(1))},
		{types.NewString(""), types.NewString("héllo"), types.NewString(string(make([]byte, 300)))},
		{types.NewBool(true), types.NewBool(false), types.NewDate(19000)},
		{types.Null(types.Int), types.Null(types.String), types.NullUnknown},
		{}, // zero-width row
	}
	f, err := newSpillFile(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if err := f.write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.finish(); err != nil {
		t.Fatal(err)
	}
	// Two independent readers over the same finished file.
	for pass := 0; pass < 2; pass++ {
		rd, err := f.reader()
		if err != nil {
			t.Fatal(err)
		}
		for i, want := range rows {
			got, ok, err := rd.next()
			if err != nil || !ok {
				t.Fatalf("pass %d row %d: ok=%v err=%v", pass, i, ok, err)
			}
			if len(got) != len(want) {
				t.Fatalf("row %d: width %d, want %d", i, len(got), len(want))
			}
			for j := range want {
				if want[j].IsNull() {
					if !got[j].IsNull() || got[j].Kind() != want[j].Kind() {
						t.Fatalf("row %d col %d: got %v, want null %v", i, j, got[j], want[j].Kind())
					}
					continue
				}
				if got[j].Kind() != want[j].Kind() || got[j].String() != want[j].String() {
					t.Fatalf("row %d col %d: got %v (%v), want %v (%v)",
						i, j, got[j], got[j].Kind(), want[j], want[j].Kind())
				}
			}
		}
		if _, ok, err := rd.next(); ok || err != nil {
			t.Fatalf("pass %d: expected clean EOF, got ok=%v err=%v", pass, ok, err)
		}
		rd.close()
	}
	// A file cut anywhere replays the rows it holds whole, then ends
	// cleanly only on a row boundary; cut inside a row, it is
	// io.ErrUnexpectedEOF. A length prefix the rest of the file cannot
	// hold is refused the same way, before it is allocated.
	full, err := os.ReadFile(f.path)
	if err != nil {
		t.Fatal(err)
	}
	boundaries := map[int]int{0: 0} // file offset -> rows before it
	off := 0
	for i, r := range rows {
		n := len(storage.AppendRow(nil, r))
		off += len(binary.AppendUvarint(nil, uint64(n))) + n
		boundaries[off] = i + 1
	}
	if off != len(full) {
		t.Fatalf("file holds %d bytes, want %d", len(full), off)
	}
	replay := func(data []byte) (int, error) {
		cut := &spillFile{path: filepath.Join(t.TempDir(), "cut")}
		if err := os.WriteFile(cut.path, data, 0o600); err != nil {
			t.Fatal(err)
		}
		rd, err := cut.reader()
		if err != nil {
			t.Fatal(err)
		}
		defer rd.close()
		for n := 0; ; n++ {
			if _, ok, err := rd.next(); !ok || err != nil {
				return n, err
			}
		}
	}
	for l := 0; l < len(full); l++ {
		n, err := replay(full[:l])
		if whole, ok := boundaries[l]; ok {
			if err != nil || n != whole {
				t.Fatalf("cut at row boundary %d: %d rows, err %v; want %d rows, clean end", l, n, err, whole)
			}
		} else if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("cut at %d, inside a row: %d rows, err %v; want io.ErrUnexpectedEOF", l, n, err)
		}
	}
	if _, err := replay(binary.AppendUvarint(nil, 1<<40)); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("a length past the end of the file: err %v, want io.ErrUnexpectedEOF", err)
	}
	// A read error inside a row is returned as it is, not as a cut
	// file: a row longer than the reader's buffer is read after its
	// handle is closed.
	long, err := newSpillFile(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := long.write(types.Row{types.NewString(strings.Repeat("x", 1<<17))}); err != nil {
		t.Fatal(err)
	}
	if err := long.finish(); err != nil {
		t.Fatal(err)
	}
	rd, err := long.reader()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rd.r.Peek(1); err != nil {
		t.Fatal(err)
	}
	rd.close()
	if _, _, err := rd.next(); !errors.Is(err, os.ErrClosed) {
		t.Fatalf("a read error inside a row: err %v, want os.ErrClosed", err)
	}
	long.drop(ctx)
	f.drop(ctx)
	// The run-level registry must be empty after the drop.
	ctx.shared.spillMu.Lock()
	n := len(ctx.shared.spillFiles)
	ctx.shared.spillMu.Unlock()
	if n != 0 {
		t.Fatalf("%d spill files still registered after drop", n)
	}
}

// TestSpillPartitioning: spillSet routes rows by the level's hash bits
// and finish/dropAll manage the partition files.
func TestSpillPartitioning(t *testing.T) {
	ctx := NewContext(nil, nil)
	ctx.SpillDir = t.TempDir()
	ss := newSpillSet(ctx, 2)
	const n = 256
	for i := 0; i < n; i++ {
		h := uint64(i) << uint(spillBits*2) // drive level-2 bits directly
		if err := ss.add(h, types.Row{types.NewInt(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := ss.finish(); err != nil {
		t.Fatal(err)
	}
	total := int64(0)
	for p, f := range ss.parts {
		if f == nil {
			t.Fatalf("partition %d empty; expected uniform spread", p)
		}
		total += f.rows
	}
	if total != n {
		t.Fatalf("partitioned %d rows, want %d", total, n)
	}
	ss.dropAll()
	ctx.shared.spillMu.Lock()
	left := len(ctx.shared.spillFiles)
	ctx.shared.spillMu.Unlock()
	if left != 0 {
		t.Fatalf("%d files registered after dropAll", left)
	}
}

// TestReleaseSpillsBackstop: files never dropped by an operator are
// still removed by the run-level cleanup.
func TestReleaseSpillsBackstop(t *testing.T) {
	ctx := NewContext(nil, nil)
	ctx.SpillDir = t.TempDir()
	f, err := newSpillFile(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.write(types.Row{types.NewInt(7)}); err != nil {
		t.Fatal(err)
	}
	if err := f.finish(); err != nil {
		t.Fatal(err)
	}
	ctx.releaseSpills()
	if _, err := f.reader(); err == nil {
		t.Fatal("spill file survived releaseSpills")
	}
}

// orderSpillStore builds a store with a deliberately hot join key:
// 1200 orders; the first 60 carry four lineitems each except one with
// 300 — a single merge-join key group large enough to trip a tight
// memory cap.
func orderSpillStore(t *testing.T) *storage.Store {
	t.Helper()
	st := freshStore()
	var orders, items [][]any
	for k := 1; k <= 1200; k++ {
		orders = append(orders, []any{k, k % 7, "O", float64(100 * k), types.MustDate("1995-01-01"),
			"1-URGENT", "clerk", 0, "o"})
		if k > 60 {
			continue
		}
		n := 4
		if k == 25 {
			n = 300
		}
		for ln := 1; ln <= n; ln++ {
			items = append(items, []any{k, 100 + ln%5, 1, ln, float64(ln), float64(10 * ln),
				0.0, 0.0, "N", "O", types.MustDate("1995-01-02"), types.MustDate("1995-01-03"),
				types.MustDate("1995-01-04"), "i", "AIR", "some filler comment text"})
		}
	}
	mustLoad(t, st, "orders", orders)
	mustLoad(t, st, "lineitem", items)
	return st
}

// installScanOrder mutates every Get of the named table to promise the
// ascending order of the given column ordinals, standing in for the
// optimizer's EliminateSort/MergeJoinOrder/StreamAggOrder rewrites
// (these plans are compiled without cost-based search).
func installScanOrder(rel algebra.Rel, table string, ordinals ...int) {
	algebra.VisitRel(rel, func(n algebra.Rel) bool {
		if g, ok := n.(*algebra.Get); ok && g.Table == table {
			g.Order = g.Order[:0]
			for _, ord := range ordinals {
				g.Order = append(g.Order, algebra.Ordering{Col: g.Cols[ord]})
			}
		}
		return true
	})
}

// sortedGroupInputs rewrites every grouped GroupBy of rel to read its
// input sorted on the group columns, so that it runs as a streaming
// aggregation.
func sortedGroupInputs(rel algebra.Rel) algebra.Rel {
	ins := rel.Inputs()
	kids := make([]algebra.Rel, len(ins))
	for i, in := range ins {
		kids[i] = sortedGroupInputs(in)
	}
	if gb, ok := rel.(*algebra.GroupBy); ok && !gb.GroupCols.Empty() {
		var by []algebra.Ordering
		for _, c := range gb.GroupCols.Ordered() {
			by = append(by, algebra.Ordering{Col: c})
		}
		kids[0] = &algebra.Sort{Input: kids[0], By: by}
	}
	return rel.WithInputs(kids)
}

func sortedRowKeys(res *Result) string {
	keys := make([]string, len(res.Rows))
	for i, row := range res.Rows {
		parts := make([]string, len(row))
		for j, v := range row {
			parts[j] = v.String()
		}
		keys[i] = strings.Join(parts, "|")
	}
	sort.Strings(keys)
	return strings.Join(keys, "\n")
}

// TestMergeJoinUnderMemBudget: a merge join's right-key-group buffer is
// governed memory. Under a tight cap it soft-overages when spilling is
// permitted (a key group cannot be split) and aborts with ErrMemBudget
// when the cap is hard — and in the permitted case the result matches
// the hash join the unordered plan runs exactly. With both scans
// promising their index order the join merges, and the only governed
// allocation is the key-group buffer itself.
func TestMergeJoinUnderMemBudget(t *testing.T) {
	st := orderSpillStore(t)
	md, rel, out := compilePlan(t, st,
		`select o_orderkey, l_linenumber from orders join lineitem on l_orderkey = o_orderkey`,
		core.Options{})

	run := func(budget int64, disableSpill bool) (*Result, error) {
		ctx := NewContext(st, md)
		ctx.MemBudget = budget
		ctx.DisableSpill = disableSpill
		return Run(ctx, rel, out)
	}

	base, err := run(0, false)
	if err != nil {
		t.Fatal(err)
	}
	want := sortedRowKeys(base)

	installScanOrder(rel, "orders", 0)
	installScanOrder(rel, "lineitem", 0, 3)
	soft, err := run(4096, false)
	if err != nil {
		t.Fatalf("merge join under soft cap: %v", err)
	}
	if got := sortedRowKeys(soft); got != want {
		t.Error("merge join under soft cap changed the result bag")
	}
	if soft.Spills != 0 {
		// A hash join under this cap spills its build; a merge join never.
		t.Errorf("soft cap spilled %d files: the join did not merge", soft.Spills)
	}

	if _, err := run(256, true); !errors.Is(err, ErrMemBudget) {
		t.Fatalf("merge join under hard cap: err = %v, want ErrMemBudget", err)
	}
}

// TestStreamAggSurvivesHardCapThatKillsHashAgg: streaming aggregation
// over an ordered scan holds one group at a time, so it completes
// under a hard memory cap that aborts the hash aggregation's table.
func TestStreamAggSurvivesHardCapThatKillsHashAgg(t *testing.T) {
	st := orderSpillStore(t)
	md, rel, out := compilePlan(t, st,
		`select l_orderkey, sum(l_quantity) as q, count(*) as n
		 from lineitem group by l_orderkey`,
		core.Options{})

	run := func(budget int64) (*Result, error) {
		ctx := NewContext(st, md)
		ctx.MemBudget = budget
		ctx.DisableSpill = budget > 0
		return Run(ctx, rel, out)
	}

	res, err := run(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := run(512); !errors.Is(err, ErrMemBudget) {
		t.Fatalf("hash agg under hard cap: err = %v, want ErrMemBudget", err)
	}
	installScanOrder(rel, "lineitem", 0, 3)
	got, err := run(512)
	if err != nil {
		t.Fatalf("stream agg under the same hard cap: %v", err)
	}
	if sortedRowKeys(got) != sortedRowKeys(res) {
		t.Error("stream agg under hard cap changed the result bag")
	}
}

// TestSortUnderStreamAggChargesBudget: a streaming aggregation whose
// plan sorts its input first — on o_custkey, which no index orders —
// holds one group, but the Sort below it buffers all 1200 orders, and
// that buffer is governed like any other: hard caps abort, soft caps
// track.
func TestSortUnderStreamAggChargesBudget(t *testing.T) {
	st := orderSpillStore(t)
	md, rel, out := compilePlan(t, st,
		`select o_custkey, count(*) as n from orders group by o_custkey`,
		core.Options{})
	rel = sortedGroupInputs(rel)

	ctx := NewContext(st, md)
	ctx.MemBudget = 128
	ctx.DisableSpill = true
	if _, err := Run(ctx, rel, out); !errors.Is(err, ErrMemBudget) {
		t.Fatalf("sort under stream agg, hard cap: err = %v, want ErrMemBudget", err)
	}

	ctx = NewContext(st, md)
	ctx.MemBudget = 128
	if res, err := Run(ctx, rel, out); err != nil {
		t.Fatalf("sort under stream agg, soft cap: %v", err)
	} else if len(res.Rows) != 7 {
		t.Fatalf("groups = %d, want 7", len(res.Rows))
	}
}

// TestSegmentApplyEarlyCloseReleasesInner: a consumer that stops
// mid-segment (LIMIT 1 over a Q17-shaped SegmentApply) leaves the inner
// side open — here a governed hash join holding its build table — and
// Close must close it: afterwards no operator memory is reserved and no
// spill file is left, both with the build resident and with it spilled.
func TestSegmentApplyEarlyCloseReleasesInner(t *testing.T) {
	st := testDB(t)
	md, rel, out := compilePlan(t, st, q17ShapeSQL, core.Options{})
	seg := introduceSegmentApply(md, rel)
	if seg == nil {
		t.Fatalf("segment apply not introduced:\n%s", algebra.FormatRel(md, rel))
	}
	plan := &algebra.Top{Input: seg, N: 1}
	for _, budget := range []int64{1 << 20, 64} {
		ctx := NewContext(st, md)
		ctx.MemBudget = budget
		ctx.SpillDir = t.TempDir()
		cu, err := RunCursor(ctx, plan, out)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok, err := cu.Next(); err != nil || !ok {
			t.Fatalf("budget %d: first row: ok=%v err=%v", budget, ok, err)
		}
		if ctx.shared.memUsed.Load() == 0 {
			t.Fatalf("budget %d: nothing reserved mid-segment; the test no longer holds the inner side open", budget)
		}
		if err := cu.Close(); err != nil {
			t.Fatal(err)
		}
		if used := ctx.shared.memUsed.Load(); used != 0 {
			t.Errorf("budget %d: %d bytes still reserved after Close", budget, used)
		}
		if left, _ := os.ReadDir(ctx.SpillDir); len(left) != 0 {
			t.Errorf("budget %d: %d spill files left behind", budget, len(left))
		}
	}
}
