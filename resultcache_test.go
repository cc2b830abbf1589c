package orthoq

// Result-cache integration tests: hit/equivalence behavior over the
// TPC-H and fuzz workloads, snapshot interplay (a pinned snapshot must
// never observe a newer cached result and vice versa), copy-on-write
// invalidation under a concurrent writer hammer (-race), single-flight
// deduplication, streaming replay, and EXPLAIN and metrics surfacing.

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"orthoq/internal/sql/types"
)

// rcCfg enables the result cache over the default configuration.
func rcCfg() Config {
	cfg := DefaultConfig()
	cfg.ResultCache.Enabled = true
	return cfg
}

func TestResultCacheHitIsByteIdentical(t *testing.T) {
	db := sharedDB(t)
	const q = "select c_mktsegment, count(*) as n, sum(c_acctbal) as s from customer group by c_mktsegment"

	want, err := db.QueryCfg(q, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cold, err := db.QueryCfg(q, rcCfg())
	if err != nil {
		t.Fatal(err)
	}
	if cold.Cache == "result" {
		t.Fatalf("cold run served from result cache (Cache=%q)", cold.Cache)
	}
	warm, err := db.QueryCfg(q, rcCfg())
	if err != nil {
		t.Fatal(err)
	}
	if warm.Cache != "result" {
		t.Fatalf("warm run Cache = %q, want %q", warm.Cache, "result")
	}
	for _, got := range []*Rows{cold, warm} {
		if g, w := roundedFingerprint(got), roundedFingerprint(want); g != w {
			t.Fatalf("cached result differs from uncached:\n%s\nvs\n%s", g, w)
		}
	}
}

// TestResultCacheEquivalenceTPCH runs the full benchmark set with the
// cache off, cold, and warm, and demands identical results each way.
func TestResultCacheEquivalenceTPCH(t *testing.T) {
	db := sharedDB(t)
	for _, name := range TPCHQueryNames() {
		q, ok := TPCHQuery(name)
		if !ok {
			t.Fatalf("no query %s", name)
		}
		want, err := db.QueryCfg(q, DefaultConfig())
		if err != nil {
			t.Fatalf("%s uncached: %v", name, err)
		}
		for pass, label := range []string{"cold", "warm"} {
			got, err := db.QueryCfg(q, rcCfg())
			if err != nil {
				t.Fatalf("%s %s: %v", name, label, err)
			}
			if g, w := roundedFingerprint(got), roundedFingerprint(want); g != w {
				t.Fatalf("%s %s (pass %d, cache=%s) differs from uncached:\n%s\nvs\n%s",
					name, label, pass, got.Cache, g, w)
			}
		}
	}
}

// TestResultCacheEquivalenceFuzz replays a deterministic slice of the
// fuzz corpus cached and uncached.
func TestResultCacheEquivalenceFuzz(t *testing.T) {
	db := sharedDB(t)
	r := rand.New(rand.NewSource(77))
	n := 40
	if testing.Short() {
		n = 10
	}
	for i := 0; i < n; i++ {
		q := randQuery(r)
		want, err := db.QueryCfg(q, DefaultConfig())
		if err != nil {
			t.Fatalf("fuzz %d uncached: %v\n%s", i, err, q)
		}
		for pass := 0; pass < 2; pass++ {
			got, err := db.QueryCfg(q, rcCfg())
			if err != nil {
				t.Fatalf("fuzz %d pass %d: %v\n%s", i, pass, err, q)
			}
			if g, w := roundedFingerprint(got), roundedFingerprint(want); g != w {
				t.Fatalf("fuzz %d pass %d (cache=%s) differs:\n%s\nvs\n%s\nquery:\n%s",
					i, pass, got.Cache, g, w, q)
			}
		}
	}
}

func rcScratchDB(t *testing.T) *DB {
	t.Helper()
	db := NewMemory()
	if err := db.CreateTable(&Table{
		Name: "kv",
		Columns: []Column{
			{Name: "id", Type: types.Int},
			{Name: "v", Type: types.Int},
		},
		Key: []int{0},
	}); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestResultCacheInsertInvalidates is the staleness core: a cached
// result must be unreachable the moment a write publishes a new table
// version.
func TestResultCacheInsertInvalidates(t *testing.T) {
	db := rcScratchDB(t)
	const q = "select count(*) as n from kv"
	count := func() int64 {
		t.Helper()
		rows, err := db.QueryCfg(q, rcCfg())
		if err != nil {
			t.Fatal(err)
		}
		return rows.Data[0][0].Int()
	}
	for i := 0; i < 5; i++ {
		if got := count(); got != int64(i) {
			t.Fatalf("after %d inserts: count = %d (stale cached read)", i, got)
		}
		// Re-read: now served from cache, same version, same answer.
		if got := count(); got != int64(i) {
			t.Fatalf("warm re-read after %d inserts: count = %d", i, got)
		}
		if err := db.Insert("kv", Row{types.NewInt(int64(i)), types.NewInt(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestResultCacheSnapshotInterplay pins a snapshot, writes past it,
// and checks version-keyed isolation in both directions: the pinned
// snapshot never sees the newer cached result, and live queries never
// see the snapshot's older cached result.
func TestResultCacheSnapshotInterplay(t *testing.T) {
	db := rcScratchDB(t)
	for i := 0; i < 3; i++ {
		if err := db.Insert("kv", Row{types.NewInt(int64(i)), types.NewInt(1)}); err != nil {
			t.Fatal(err)
		}
	}
	const q = "select count(*) as n from kv"
	old := db.Snapshot()

	// Warm the cache *under the old snapshot* first.
	rows, err := db.QuerySnapshot(context.Background(), q, rcCfg(), old)
	if err != nil {
		t.Fatal(err)
	}
	if got := rows.Data[0][0].Int(); got != 3 {
		t.Fatalf("snapshot count = %d, want 3", got)
	}

	if err := db.Insert("kv", Row{types.NewInt(99), types.NewInt(1)}); err != nil {
		t.Fatal(err)
	}

	// Live read: must NOT be served the snapshot's cached 3.
	rows, err = db.QueryCfg(q, rcCfg())
	if err != nil {
		t.Fatal(err)
	}
	if got := rows.Data[0][0].Int(); got != 4 {
		t.Fatalf("live count after insert = %d, want 4 (served stale snapshot entry, cache=%s)",
			got, rows.Cache)
	}
	// Warm the live entry, then re-read the old snapshot: must still be 3.
	if _, err := db.QueryCfg(q, rcCfg()); err != nil {
		t.Fatal(err)
	}
	rows, err = db.QuerySnapshot(context.Background(), q, rcCfg(), old)
	if err != nil {
		t.Fatal(err)
	}
	if got := rows.Data[0][0].Int(); got != 3 {
		t.Fatalf("pinned snapshot count = %d, want 3 (served newer cached result, cache=%s)",
			got, rows.Cache)
	}
	// The snapshot's own warm re-read is a legitimate hit — same versions.
	rows, err = db.QuerySnapshot(context.Background(), q, rcCfg(), old)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Cache != "result" || rows.Data[0][0].Int() != 3 {
		t.Fatalf("snapshot warm re-read: cache=%s count=%d, want result/3",
			rows.Cache, rows.Data[0][0].Int())
	}
}

// TestResultCacheStmtRunSnapshot covers the prepared-statement path:
// RunSnapshot against an old snapshot version-matches its own entry
// and never the live one.
func TestResultCacheStmtRunSnapshot(t *testing.T) {
	db := rcScratchDB(t)
	if err := db.Insert("kv", Row{types.NewInt(1), types.NewInt(10)}); err != nil {
		t.Fatal(err)
	}
	st, err := db.Prepare("select sum(v) as s from kv", rcCfg())
	if err != nil {
		t.Fatal(err)
	}
	old := db.Snapshot()
	// Warm the live entry.
	if rows, err := st.Run(); err != nil || rows.Data[0][0].Int() != 10 {
		t.Fatalf("live run: %v %v", rows, err)
	}
	if err := db.Insert("kv", Row{types.NewInt(2), types.NewInt(5)}); err != nil {
		t.Fatal(err)
	}
	rows, err := st.RunSnapshot(context.Background(), old)
	if err != nil {
		t.Fatal(err)
	}
	if got := rows.Data[0][0].Int(); got != 10 {
		t.Fatalf("RunSnapshot sum = %d, want 10 (cache=%s)", got, rows.Cache)
	}
	rows, err = st.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := rows.Data[0][0].Int(); got != 15 {
		t.Fatalf("live run after insert = %d, want 15 (cache=%s)", got, rows.Cache)
	}
}

// TestResultCacheConcurrentWriterHammer races cached readers against a
// single writer. Each reader knows a lower bound on the committed row
// count at the moment it issues its query; any smaller answer is a
// stale cached read. Run with -race.
func TestResultCacheConcurrentWriterHammer(t *testing.T) {
	db := rcScratchDB(t)
	const inserts = 60
	var committed int64
	var cmu sync.Mutex

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				cmu.Lock()
				floor := committed
				cmu.Unlock()
				rows, err := db.QueryCfg("select count(*) as n from kv", rcCfg())
				if err != nil {
					t.Error(err)
					return
				}
				if got := rows.Data[0][0].Int(); got < floor {
					t.Errorf("stale cached read: count %d < committed floor %d (cache=%s)",
						got, floor, rows.Cache)
					return
				}
			}
		}()
	}
	for i := 0; i < inserts; i++ {
		if err := db.Insert("kv", Row{types.NewInt(int64(i)), types.NewInt(1)}); err != nil {
			t.Fatal(err)
		}
		cmu.Lock()
		committed = int64(i + 1)
		cmu.Unlock()
	}
	close(stop)
	wg.Wait()

	rows, err := db.QueryCfg("select count(*) as n from kv", rcCfg())
	if err != nil {
		t.Fatal(err)
	}
	if got := rows.Data[0][0].Int(); got != inserts {
		t.Fatalf("final count = %d, want %d", got, inserts)
	}
}

// TestResultCacheSingleFlight launches identical concurrent cold
// queries; exactly one executes, the rest share its materialization.
func TestResultCacheSingleFlight(t *testing.T) {
	db := rcScratchDB(t)
	for i := 0; i < 200; i++ {
		if err := db.Insert("kv", Row{types.NewInt(int64(i)), types.NewInt(int64(i % 7))}); err != nil {
			t.Fatal(err)
		}
	}
	const q = "select v, count(*) as n from kv group by v"
	before := db.ResultCacheStats()

	const callers = 8
	var wg sync.WaitGroup
	errs := make([]error, callers)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rows, err := db.QueryCfg(q, rcCfg())
			if err == nil && len(rows.Data) != 7 {
				err = fmt.Errorf("got %d groups, want 7", len(rows.Data))
			}
			errs[c] = err
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	after := db.ResultCacheStats()
	miss := after.Misses - before.Misses
	served := (after.Hits - before.Hits) + (after.Shared - before.Shared)
	if miss != 1 {
		t.Fatalf("misses = %d, want exactly 1 leader execution", miss)
	}
	if served != callers-1 {
		t.Fatalf("hits+shared = %d, want %d", served, callers-1)
	}
}

// TestResultCacheStreamReplay checks the streaming path replays a
// pinned whole-result entry and pins it for the stream's lifetime.
func TestResultCacheStreamReplay(t *testing.T) {
	db := sharedDB(t)
	const q = "select c_custkey, c_name from customer where c_custkey <= 40"
	want, err := db.QueryCfg(q, rcCfg()) // populate
	if err != nil {
		t.Fatal(err)
	}
	st, err := db.QueryStream(q, rcCfg())
	if err != nil {
		t.Fatal(err)
	}
	var n int
	for {
		row, ok, err := st.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if got, exp := row[0].Int(), want.Data[n][0].Int(); got != exp {
			t.Fatalf("row %d key = %d, want %d", n, got, exp)
		}
		n++
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if n != len(want.Data) {
		t.Fatalf("stream replayed %d rows, want %d", n, len(want.Data))
	}
}

// TestResultCacheExplainStatus checks the EXPLAIN preview line.
func TestResultCacheExplainStatus(t *testing.T) {
	db := sharedDB(t)
	const q = "select count(*) as n from region"
	out, err := db.Explain(q, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "result cache: off") {
		t.Fatalf("explain without cache lacks 'result cache: off':\n%s", out)
	}
	if _, err := db.QueryCfg(q, rcCfg()); err != nil {
		t.Fatal(err)
	}
	out, err = db.Explain(q, rcCfg())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "result cache: hit") {
		t.Fatalf("explain after warm run lacks 'result cache: hit':\n%s", out)
	}
}

// TestResultCacheMetricsSurface checks DB.Metrics carries the cache
// snapshot once a run has enabled it.
func TestResultCacheMetricsSurface(t *testing.T) {
	db := rcScratchDB(t)
	if db.Metrics().ResultCache != nil {
		t.Fatal("ResultCache metrics non-nil before any cached run")
	}
	if _, err := db.QueryCfg("select count(*) from kv", rcCfg()); err != nil {
		t.Fatal(err)
	}
	m := db.Metrics().ResultCache
	if m == nil {
		t.Fatal("ResultCache metrics nil after a cached run")
	}
	if m.Misses == 0 || m.Entries == 0 {
		t.Fatalf("metrics = %+v, want recorded miss and live entry", m)
	}
}

// TestResultCacheOrderedReplay: a cached ORDER BY result must replay
// in its original total order — both on a materialized warm hit and
// row by row from a Stream's pinned entry.
func TestResultCacheOrderedReplay(t *testing.T) {
	db := sharedDB(t)
	const q = `select o_orderkey, o_totalprice from orders
	           where o_totalprice > 2000 order by o_orderkey desc`
	cold, err := db.QueryCfg(q, rcCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(cold.Data) < 10 {
		t.Fatalf("corpus too small: %d rows", len(cold.Data))
	}
	for i := 1; i < len(cold.Data); i++ {
		if cold.Data[i-1][0].Int() < cold.Data[i][0].Int() {
			t.Fatalf("cold result row %d out of order", i)
		}
	}
	warm, err := db.QueryCfg(q, rcCfg())
	if err != nil {
		t.Fatal(err)
	}
	if warm.Cache != "result" {
		t.Fatalf("warm run cache = %q, want result", warm.Cache)
	}
	for i, row := range warm.Data {
		if row[0].Int() != cold.Data[i][0].Int() {
			t.Fatalf("warm replay row %d = %d, want %d (order lost in cache)",
				i, row[0].Int(), cold.Data[i][0].Int())
		}
	}
	st, err := db.QueryStream(q, rcCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	n := 0
	for {
		row, ok, err := st.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if row[0].Int() != cold.Data[n][0].Int() {
			t.Fatalf("stream replay row %d = %d, want %d (order lost in pinned entry)",
				n, row[0].Int(), cold.Data[n][0].Int())
		}
		n++
	}
	if n != len(cold.Data) {
		t.Fatalf("stream replayed %d rows, want %d", n, len(cold.Data))
	}
}
