package exec

// Unit tests for the binding-batch Apply machinery: the bounded,
// memory-accounted binding cache (retention, eviction order, pinning,
// NULL-aware keys, accountant release) and the tick-amortized trace
// clock.

import (
	"testing"
	"time"

	"orthoq/internal/sql/types"
)

func testCacheCtx(budget int64) *Context {
	ctx := NewContext(nil, nil)
	ctx.MemBudget = budget
	return ctx
}

func intKey(v int64) types.Row { return types.Row{types.NewInt(v)} }

func someRows(n int) []types.Row {
	rows := make([]types.Row, n)
	for i := range rows {
		rows[i] = types.Row{types.NewInt(int64(i)), types.NewString("payload")}
	}
	return rows
}

// TestBindingCacheLookupAndNullKeys: lookups hit entries with equal
// keys, and NULL keys compare equal to each other (GROUP BY
// semantics) but not to absent or zero values.
func TestBindingCacheLookupAndNullKeys(t *testing.T) {
	bc := newBindingCache(testCacheCtx(0), nil, 1)
	null := types.Null(types.Int)
	if _, err := bc.add(types.Row{null}, someRows(2)); err != nil {
		t.Fatal(err)
	}
	if _, err := bc.add(intKey(0), someRows(3)); err != nil {
		t.Fatal(err)
	}
	e := bc.lookup(types.Row{null})
	if e == nil || len(e.rows) != 2 {
		t.Fatal("NULL key must match the NULL entry")
	}
	if e := bc.lookup(intKey(0)); e == nil || len(e.rows) != 3 {
		t.Fatal("zero key must match the zero entry, not the NULL one")
	}
	if bc.lookup(intKey(7)) != nil {
		t.Fatal("missing key must not match")
	}
}

// TestBindingCacheEvictionOrder: the retained set is bounded by the
// cap; a later batch's entries evict the oldest unpinned retained
// entries first, and evicted entries leave the hash buckets.
func TestBindingCacheEvictionOrder(t *testing.T) {
	bc := newBindingCache(testCacheCtx(0), nil, 1)
	one := entryBytes(intKey(0), someRows(4))
	bc.cap = 3 * one
	// Batch 1 fills the cap exactly.
	for v := int64(0); v < 3; v++ {
		if _, err := bc.add(intKey(v), someRows(4)); err != nil {
			t.Fatal(err)
		}
	}
	bc.endBatch()
	// Batch 2 adds two more: the two oldest must make room.
	for v := int64(3); v < 5; v++ {
		if _, err := bc.add(intKey(v), someRows(4)); err != nil {
			t.Fatal(err)
		}
	}
	bc.endBatch()
	if bc.bytes > bc.cap {
		t.Fatalf("retained %d bytes over cap %d", bc.bytes, bc.cap)
	}
	if bc.lookup(intKey(0)) != nil || bc.lookup(intKey(1)) != nil {
		t.Fatal("oldest entries must be evicted first")
	}
	for v := int64(2); v < 5; v++ {
		if bc.lookup(intKey(v)) == nil {
			t.Fatalf("entry %d must survive", v)
		}
	}
}

// TestBindingCachePinnedNeverEvicted: entries referenced by the
// in-flight batch survive eviction pressure; they become evictable
// only after endBatch.
func TestBindingCachePinnedNeverEvicted(t *testing.T) {
	bc := newBindingCache(testCacheCtx(0), nil, 1)
	one := entryBytes(intKey(0), someRows(4))
	bc.cap = 2 * one
	for v := int64(0); v < 4; v++ {
		if _, err := bc.add(intKey(v), someRows(4)); err != nil {
			t.Fatal(err)
		}
	}
	// All four are pinned (same batch): every one must still resolve,
	// even though only two fit the retained cap.
	for v := int64(0); v < 4; v++ {
		if bc.lookup(intKey(v)) == nil {
			t.Fatalf("pinned entry %d evicted", v)
		}
	}
	bc.endBatch()
	// Transient (unretained) entries drop at batch end; the retained
	// set stays within the cap.
	if bc.bytes > bc.cap {
		t.Fatalf("retained %d bytes over cap %d after endBatch", bc.bytes, bc.cap)
	}
	alive := 0
	for v := int64(0); v < 4; v++ {
		if bc.lookup(intKey(v)) != nil {
			alive++
		}
	}
	if alive == 0 || alive > 2 {
		t.Fatalf("want 1-2 retained entries after endBatch, got %d", alive)
	}
}

// TestBindingCacheAccounting: every resident entry's bytes are granted
// against the query accountant while it lives; reset releases all of
// them. Over budget, the retained set is shed but the in-flight entry
// stays usable (transient).
func TestBindingCacheAccounting(t *testing.T) {
	ctx := testCacheCtx(1 << 20)
	bc := newBindingCache(ctx, nil, 1)
	for v := int64(0); v < 3; v++ {
		if _, err := bc.add(intKey(v), someRows(8)); err != nil {
			t.Fatal(err)
		}
	}
	if used := ctx.shared.memUsed.Load(); used == 0 {
		t.Fatal("cache memory not accounted")
	}
	bc.reset()
	if used := ctx.shared.memUsed.Load(); used != 0 {
		t.Fatalf("reset leaked %d accounted bytes", used)
	}

	// A tiny budget: the first add crosses it, sheds the retained set,
	// and keeps the new entry transient but resolvable.
	ctx = testCacheCtx(1)
	bc = newBindingCache(ctx, nil, 1)
	e, err := bc.add(intKey(9), someRows(8))
	if err != nil {
		t.Fatal(err)
	}
	if e.retained {
		t.Fatal("over-budget entry must be transient")
	}
	if bc.lookup(intKey(9)) == nil {
		t.Fatal("transient entry must resolve within its batch")
	}
	bc.endBatch()
	if bc.lookup(intKey(9)) != nil {
		t.Fatal("transient entry must drop at batch end")
	}
	if used := ctx.shared.memUsed.Load(); used != 0 {
		t.Fatalf("transient entry leaked %d accounted bytes", used)
	}
}

// TestBindingCacheHardCap: with DisableSpill the accountant's hard cap
// aborts the add and releases the grant.
func TestBindingCacheHardCap(t *testing.T) {
	ctx := testCacheCtx(1)
	ctx.DisableSpill = true
	bc := newBindingCache(ctx, nil, 1)
	if _, err := bc.add(intKey(1), someRows(8)); err == nil {
		t.Fatal("want ErrMemBudget under DisableSpill")
	}
	bc.endBatch()
	if used := ctx.shared.memUsed.Load(); used != 0 {
		t.Fatalf("failed add leaked %d accounted bytes", used)
	}
}

// TestAmortClockMonotone: the amortized clock never goes backwards,
// also when real reads (now) interleave with amortized ones, refreshes
// often enough to make progress, and its refresh interval is odd (see
// the traceClockEvery comment — an even interval pins every refresh to
// frame starts and measures nothing).
func TestAmortClockMonotone(t *testing.T) {
	if traceClockEvery%2 == 0 {
		t.Fatal("traceClockEvery must be odd")
	}
	var clk amortClock
	prev := clk.read()
	progressed := false
	for i := 0; i < 10*traceClockEvery; i++ {
		time.Sleep(10 * time.Microsecond)
		now := clk.read()
		if i%7 == 3 {
			now = clk.now()
		}
		if now.Before(prev) {
			t.Fatal("amortized clock went backwards")
		}
		if now.After(prev) {
			progressed = true
		}
		prev = now
	}
	if !progressed {
		t.Fatal("amortized clock never advanced across refresh boundaries")
	}
}
