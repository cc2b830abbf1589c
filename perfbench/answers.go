package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"

	"orthoq"
	"orthoq/internal/sql/types"
	"orthoq/internal/storage"
	"orthoq/internal/tpch"
)

// dataSeed fixes the generated database; the workload seed only drives
// query order, key draws and the read/write schedule.
const dataSeed = 1

// q1Threshold is the constant of the paper's Q1 in the analytic
// workloads ("customers who have ordered more than ...").
const q1Threshold = 2000000

// q1Prefix starts the names of the Q1 spellings ("p" for the paper's
// Q1, as TPC-H has a Q1 of its own).
const q1Prefix = "Q1p_"

// query is one analytic query kind.
type query struct {
	name string
	sql  string
}

// q1Spellings are three syntaxes of the paper's Q1. The paper's claim
// is that they reach one plan; the benchmark only requires that they
// return the same rows, and counts the distinct plans.
var q1Spellings = []query{
	{q1Prefix + "subquery", fmt.Sprintf(`select c_custkey from customer
		where %d < (select sum(o_totalprice) from orders where o_custkey = c_custkey)`, q1Threshold)},
	{q1Prefix + "derived", fmt.Sprintf(`select c_custkey
		from customer, (select o_custkey, sum(o_totalprice) as total from orders group by o_custkey) as agg
		where o_custkey = c_custkey and %d < total`, q1Threshold)},
	{q1Prefix + "outerjoin", fmt.Sprintf(`select c_custkey
		from customer left outer join orders on o_custkey = c_custkey
		group by c_custkey having %d < sum(o_totalprice)`, q1Threshold)},
}

// analyticQueries is the 12 TPC-H queries of internal/tpch in name
// order followed by the three Q1 spellings.
func analyticQueries() []query {
	var qs []query
	for _, name := range orthoq.TPCHQueryNames() {
		sql, _ := orthoq.TPCHQuery(name)
		qs = append(qs, query{name, sql})
	}
	return append(qs, q1Spellings...)
}

// answer identifies a result independently of row order: the row count
// and the wrapping sum of one hash per row.
type answer struct {
	Rows     int    `json:"rows"`
	Checksum string `json:"checksum"`
}

// answerOf hashes a result. Floats are rounded to 9 significant digits
// because plans that add in a different order differ in the last bits.
func answerOf(rows []orthoq.Row) answer {
	var sum uint64
	for _, row := range rows {
		h := fnv.New64a()
		for _, d := range row {
			switch {
			case d.IsNull():
				h.Write([]byte("\x00null"))
			case d.Kind() == types.Float:
				h.Write([]byte(strconv.FormatFloat(d.Float(), 'g', 9, 64)))
			default:
				h.Write([]byte(d.String()))
			}
			h.Write([]byte{0x1f})
		}
		sum += h.Sum64()
	}
	return answer{Rows: len(rows), Checksum: strconv.FormatUint(sum, 16)}
}

func goldenPath(sf float64) string {
	return filepath.Join(benchDir(), "golden", fmt.Sprintf("sf%g.json", sf))
}

// loadGolden reads the committed answers for one scale factor.
func loadGolden(sf float64) (map[string]answer, error) {
	buf, err := os.ReadFile(goldenPath(sf))
	if err != nil {
		return nil, fmt.Errorf("no golden answers for sf %g (write them with -write-golden): %w", sf, err)
	}
	var g map[string]answer
	if err := json.Unmarshal(buf, &g); err != nil {
		return nil, fmt.Errorf("%s: %w", goldenPath(sf), err)
	}
	for _, q := range q1Spellings[1:] {
		if g[q.name] != g[q1Spellings[0].name] {
			return nil, fmt.Errorf("%s: the Q1 spellings disagree", goldenPath(sf))
		}
	}
	return g, nil
}

// writeGolden computes the answers at one scale factor twice, with the
// full optimiser and with correlated row-at-a-time execution of the
// unoptimised plan, and writes them only if the two agree on every
// query, so that the file does not depend on one planner path.
func writeGolden(sf float64) error {
	db, err := orthoq.OpenTPCH(sf, dataSeed)
	if err != nil {
		return err
	}
	full := orthoq.DefaultConfig()
	full.PlanCache.Disabled = true
	naive := orthoq.Config{DisableBatch: true, PlanCache: orthoq.PlanCacheConfig{Disabled: true}}
	g := map[string]answer{}
	for _, q := range analyticQueries() {
		a, err := db.QueryCfg(q.sql, full)
		if err != nil {
			return fmt.Errorf("%s: %w", q.name, err)
		}
		b, err := db.QueryCfg(q.sql, naive)
		if err != nil {
			return fmt.Errorf("%s (correlated row mode): %w", q.name, err)
		}
		if answerOf(a.Data) != answerOf(b.Data) {
			return fmt.Errorf("%s at sf %g: optimised %v and correlated row mode %v disagree",
				q.name, sf, answerOf(a.Data), answerOf(b.Data))
		}
		g[q.name] = answerOf(a.Data)
	}
	buf, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(goldenPath(sf), append(buf, '\n'), 0o644)
}

// oracle answers the wire workloads' point reads from the generated
// rows themselves, without the engine.
type oracle struct {
	customers int
	// spent is sum(o_totalprice) per customer; customers without orders
	// are absent (the subquery's sum is NULL for them).
	spent map[int64]float64
	// threshold is the constant of the restricted Q1: the median of
	// spent moved to a half so that no customer's sum is within
	// rounding of it.
	threshold float64
}

// newOracle also returns the rows it generated.
func newOracle(sf float64) (*oracle, *storage.Store, error) {
	st, err := tpch.Generate(sf, dataSeed)
	if err != nil {
		return nil, nil, err
	}
	o := &oracle{spent: map[int64]float64{}}
	cust, _ := st.Table("customer")
	o.customers = len(cust.AllRows())
	orders, _ := st.Table("orders")
	schema, _ := st.Catalog.Table("orders")
	ck, tp := schema.ColumnOrdinal("o_custkey"), schema.ColumnOrdinal("o_totalprice")
	for _, row := range orders.AllRows() {
		o.spent[row[ck].Int()] += row[tp].Float()
	}
	sums := make([]float64, 0, len(o.spent))
	for _, s := range o.spent {
		sums = append(sums, s)
	}
	sort.Float64s(sums)
	o.threshold = math.Floor(sums[len(sums)/2]) + 0.5
	for k, s := range o.spent {
		if math.Abs(s-o.threshold) < 1e-3 {
			return nil, nil, fmt.Errorf("customer %d spent %v, too close to the Q1 threshold %v", k, s, o.threshold)
		}
	}
	return o, st, nil
}

func customerName(key int64) string { return fmt.Sprintf("Customer#%09d", key) }

// bigSpender reports whether the restricted Q1 returns the customer.
func (o *oracle) bigSpender(key int64) bool {
	s, ok := o.spent[key]
	return ok && s > o.threshold
}
