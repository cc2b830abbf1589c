package orthoq

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"orthoq/internal/exec/faultinject"
)

// fieldClass says what a Config field is to the engine.
type fieldClass int

const (
	classRunState fieldClass = iota // governs one run; never reaches a cache key
	classIdentity                   // changes the compiled plan or its algorithms
	classRetired                    // accepted and ignored (kept for API compatibility)
)

// configFields classifies every field of Config (recursing into
// PlanCacheConfig and ResultCacheConfig) as plan identity, run state or
// retired, with a change away from DefaultConfig that is harmless to
// run. A field added to Config fails TestConfigFieldsClassified until
// it is listed here — and then the test checks the engine agrees with
// the classification.
var configFields = map[string]struct {
	class fieldClass
	flip  func(*Config)
}{
	"Decorrelate":        {classIdentity, func(c *Config) { c.Decorrelate = false }},
	"RemoveClass2":       {classIdentity, func(c *Config) { c.RemoveClass2 = true }},
	"SimplifyOuterJoins": {classIdentity, func(c *Config) { c.SimplifyOuterJoins = false }},
	"CostBased":          {classIdentity, func(c *Config) { c.CostBased = false }},
	"GroupByReorder":     {classIdentity, func(c *Config) { c.GroupByReorder = false }},
	"LocalAgg":           {classIdentity, func(c *Config) { c.LocalAgg = false }},
	"SegmentApply":       {classIdentity, func(c *Config) { c.SegmentApply = false }},
	"JoinReorder":        {classIdentity, func(c *Config) { c.JoinReorder = false }},
	"CorrelatedReintro":  {classIdentity, func(c *Config) { c.CorrelatedReintro = false }},
	"Parallelism":        {classIdentity, func(c *Config) { c.Parallelism = 4 }},
	"DisableBatch":       {classRetired, func(c *Config) { c.DisableBatch = true }},
	"DisableRules":       {classIdentity, func(c *Config) { c.DisableRules = []string{"CommuteJoin"} }},

	"PlanCache.Size":            {classRunState, func(c *Config) { c.PlanCache.Size = 7 }},
	"PlanCache.Bytes":           {classRunState, func(c *Config) { c.PlanCache.Bytes = 1 << 20 }},
	"PlanCache.Disabled":        {classRunState, func(c *Config) { c.PlanCache.Disabled = true }},
	"ResultCache.Enabled":       {classRunState, func(c *Config) { c.ResultCache.Enabled = true }},
	"ResultCache.MaxBytes":      {classRunState, func(c *Config) { c.ResultCache.MaxBytes = 1 << 20 }},
	"ResultCache.MaxEntries":    {classRunState, func(c *Config) { c.ResultCache.MaxEntries = 7 }},
	"ResultCache.MaxEntryBytes": {classRunState, func(c *Config) { c.ResultCache.MaxEntryBytes = 1 << 10 }},
	"Trace":                     {classRunState, func(c *Config) { c.Trace = true }},
	"QueryLog":                  {classRunState, func(c *Config) { c.QueryLog = &bytes.Buffer{} }},
	"Session":                   {classRunState, func(c *Config) { c.Session = "s-1" }},
	"Queued":                    {classRunState, func(c *Config) { c.Queued = time.Millisecond }},
	"Timeout":                   {classRunState, func(c *Config) { c.Timeout = time.Hour }},
	"MemBudget":                 {classRunState, func(c *Config) { c.MemBudget = 1 << 40 }},
	"DisableSpill":              {classRunState, func(c *Config) { c.DisableSpill = true }},
	"SpillDir":                  {classRunState, func(c *Config) { c.SpillDir = "/nonexistent-unused" }},
	"RowBudget":                 {classRunState, func(c *Config) { c.RowBudget = 1 << 40 }},
	"faults":                    {classRunState, func(c *Config) { c.faults = faultinject.New() }},
	"forceApply":                {classRunState, func(c *Config) { c.forceApply = "batched" }},
}

// configFieldPaths walks a config struct type, descending into the
// nested cache-config structs.
func configFieldPaths(typ reflect.Type, prefix string) []string {
	var paths []string
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if f.Type == reflect.TypeOf(PlanCacheConfig{}) || f.Type == reflect.TypeOf(ResultCacheConfig{}) {
			paths = append(paths, configFieldPaths(f.Type, prefix+f.Name+".")...)
			continue
		}
		paths = append(paths, prefix+f.Name)
	}
	return paths
}

// TestConfigFieldsClassified: plan identity is a property of the
// Config type, not a convention. Every field is either identity —
// changing it changes identity() and misses the plan cache — or run
// state — changing it leaves identity() equal and hits a plan compiled
// without it — or retired: two Configs differing only in it are the
// same Config to the engine, sharing one cached plan and one
// result-cache entry. There is no unlisted field.
func TestConfigFieldsClassified(t *testing.T) {
	paths := configFieldPaths(reflect.TypeOf(Config{}), "")
	listed := map[string]bool{}
	for _, p := range paths {
		listed[p] = true
		if _, ok := configFields[p]; !ok {
			t.Errorf("Config.%s is not classified as plan identity, run state or retired", p)
		}
	}
	for p := range configFields {
		if !listed[p] {
			t.Errorf("classified field %s does not exist in Config", p)
		}
	}
	if t.Failed() {
		return
	}

	db, err := OpenTPCH(0.001, 3)
	if err != nil {
		t.Fatal(err)
	}
	const sql = `select o_orderkey, l_linenumber from orders join lineitem on l_orderkey = o_orderkey
	             where o_totalprice > 1000 order by o_orderkey, l_linenumber`
	statusOf := func(sql string, cfg Config) string {
		t.Helper()
		r, err := db.QueryCfg(sql, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return r.Cache
	}
	status := func(cfg Config) string { return statusOf(sql, cfg) }
	base := DefaultConfig()
	baseID := base.identity()
	if got := status(base); got != "miss" {
		t.Fatalf("first run: cache = %q, want miss", got)
	}
	for i, path := range paths {
		class := configFields[path]
		cfg := base
		class.flip(&cfg)
		if reflect.DeepEqual(cfg, base) {
			t.Errorf("%s: flip did not change the Config", path)
			continue
		}
		id := cfg.identity()
		got := status(cfg)
		switch {
		case class.class == classRetired:
			if id != baseID || got != "hit" {
				t.Errorf("%s is retired but identity changed = %t, cache = %q; want unchanged and hit", path, id != baseID, got)
			}
			// A query of its own, so the result-cache entry is this leg's.
			counted := fmt.Sprintf(`select count(*) as n from orders where o_totalprice > %d`, 1000+i)
			cached, flipped := base, cfg
			cached.ResultCache.Enabled, flipped.ResultCache.Enabled = true, true
			if first, second := statusOf(counted, cached), statusOf(counted, flipped); first == "result" || second != "result" {
				t.Errorf("%s is retired but the flipped Config did not share the result-cache entry: %q then %q", path, first, second)
			}
		case class.class == classIdentity:
			if id == baseID || id.key() == baseID.key() {
				t.Errorf("%s is plan identity but identity() did not change (%q)", path, id.key())
			}
			if got != "miss" {
				t.Errorf("%s is plan identity but the flipped Config was served cache = %q, want miss", path, got)
			}
		case path == "PlanCache.Disabled":
			// The switch of the cache itself: same identity, no lookup.
			if id != baseID || got != "bypass" {
				t.Errorf("%s: identity changed = %t, cache = %q, want unchanged and bypass", path, id != baseID, got)
			}
		default:
			if id != baseID {
				t.Errorf("%s is run state but changed identity(): %q vs %q", path, id.key(), baseID.key())
			}
			if got != "hit" {
				t.Errorf("%s is run state but the flipped Config was served cache = %q, want hit", path, got)
			}
		}
	}
	// One switch per primitive: a technique flag and the names of its
	// rules are the same identity.
	byFlag := base
	byFlag.JoinReorder = false
	byName := base
	byName.DisableRules = []string{"RotateJoin", "CommuteJoin"}
	if byFlag.identity() != byName.identity() {
		t.Error("JoinReorder=false and DisableRules{CommuteJoin,RotateJoin} are different identities")
	}
}

// TestFailingShapesDoNotGrowThePlanCache: texts that fail to compile —
// here 20 000 distinct unknown tables, as a client mistyping names over
// the wire would send — are never recorded as shapes, so neither the
// cache nor the heap grows with them. Unparameterizable shapes that do
// compile are recorded, and those are bounded by the entry cap.
func TestFailingShapesDoNotGrowThePlanCache(t *testing.T) {
	db, err := OpenTPCH(0.001, 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.PlanCache.Size = 8
	heap := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	fail := func(i int) {
		_, err := db.QueryCfg(fmt.Sprintf(`select n_name from nosuch_%d where n_nationkey = 3`, i), cfg)
		if err == nil || !strings.Contains(err.Error(), "nosuch_") {
			t.Fatalf("query %d: err = %v, want unknown table", i, err)
		}
	}
	for i := 0; i < 200; i++ { // warm allocator and caches before measuring
		fail(i)
	}
	before := heap()
	for i := 200; i < 20200; i++ {
		fail(i)
	}
	after := heap()
	// 20 000 retained families used to hold 5.2 MB; allow a fraction of
	// that for noise.
	if grown := int64(after) - int64(before); grown > 1<<20 {
		t.Errorf("heap grew %d bytes across 20000 failing shapes", grown)
	}
	if st := db.CacheStats(); st.Entries != 0 || st.Misses != 20200 {
		t.Errorf("failing shapes left cache state behind: %+v", st)
	}

	// GROUP BY <literal> compiles but does not parameterize: each such
	// shape is remembered (bypass on repeat) and charged one entry.
	for i := 0; i < 300; i++ {
		sql := fmt.Sprintf(`select count(*) as n%d from nation group by 1`, i)
		r, err := db.QueryCfg(sql, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if r.Cache != "miss" {
			t.Fatalf("first run of uncacheable shape %d: cache = %q", i, r.Cache)
		}
	}
	st := db.CacheStats()
	if st.Entries > 8+16 || st.Evictions == 0 {
		t.Errorf("uncacheable shapes not bounded by the cap of 8: %+v", st)
	}
}

// finalPlan extracts the last plan of an Explain rendering — the
// cost-based section when there is one, else the normalized one — with
// the per-node estimate annotations removed.
func finalPlan(explain string) string {
	body := explain[:strings.LastIndex(explain, "\nresult cache:")]
	section := body[strings.LastIndex(body, "\n=== ")+1:]
	_, plan, _ := strings.Cut(section, "\n")
	var b strings.Builder
	for _, line := range strings.Split(strings.TrimRight(plan, "\n"), "\n") {
		if i := strings.Index(line, "  [rows≈"); i >= 0 {
			line = line[:i]
		}
		b.WriteString(line)
		b.WriteByte('\n')
	}
	return b.String()
}

// TestExplainMatchesPrepare: Explain observes the compile function
// every query runs through, so for the 12 TPC-H queries and the three
// spellings of the paper's Q1, under the full technique set and three
// ablations, the plan Explain ends on is the plan Prepare returns.
func TestExplainMatchesPrepare(t *testing.T) {
	db := sharedDB(t)
	normalizeOnly := DefaultConfig()
	normalizeOnly.CostBased = false
	correlated := Config{CostBased: true}
	flat := DefaultConfig()
	flat.CorrelatedReintro = false
	flat.SegmentApply = false
	flat.DisableRules = []string{"CommuteJoin"}
	configs := map[string]Config{
		"default": DefaultConfig(), "normalize-only": normalizeOnly,
		"correlated": correlated, "flat-no-segment": flat,
	}
	for cname, cfg := range configs {
		for i, sql := range warmPassQueries() {
			out, err := db.Explain(sql, cfg)
			if err != nil {
				t.Fatalf("%s/query %d: Explain: %v", cname, i, err)
			}
			stmt, err := db.Prepare(sql, cfg)
			if err != nil {
				t.Fatalf("%s/query %d: Prepare: %v", cname, i, err)
			}
			if got, want := finalPlan(out), stmt.Plan(); got != want {
				t.Errorf("%s/query %d: Explain ends on\n%s\nPrepare compiled\n%s", cname, i, got, want)
			}
		}
	}
}
