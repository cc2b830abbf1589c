package exec

import (
	"cmp"
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"orthoq/internal/algebra"
	"orthoq/internal/obs"
	"orthoq/internal/sql/catalog"
)

// OpStats records run-time behavior of one plan operator.
type OpStats struct {
	// Opens counts Open calls (inner sides of Apply re-open per outer
	// row — the count makes correlated execution costs visible).
	Opens int64
	// Rows counts rows produced across all opens.
	Rows int64
	// Batches counts non-empty NextBatch productions.
	Batches int64
	// Busy is inclusive wall time spent inside this operator and its
	// children.
	Busy time.Duration
	// Workers and Morsels are set by a parallel exchange operator
	// compiled at this node: the workers started and the driver-scan
	// morsels dispatched across them.
	Workers int64
	Morsels int64
	// MemBytes is the operator's accounted working-state memory
	// (cumulative grants; hash tables and sort buffers release at the
	// end, so this reads as the operator's own high-water mark).
	// Updated atomically — parallel workers share one OpStats.
	MemBytes int64
	// Spills counts spill episodes this operator took (a hash
	// aggregation or join build crossing the memory budget).
	Spills int64
	// Strategy is the physical choice compile made for the node: on an
	// Apply "probe" or "batched"; on a table access that seeks an index
	// (a Get, or the Select over one) "seek=" and the index name, as
	// EXPLAIN prints it; empty otherwise.
	Strategy string
	// Bindings counts correlation-binding lookups (one per outer row of
	// an Apply); InnerExecs counts actual inner-side executions — for a
	// probe, the batches of bindings looked up at once. Their ratio is
	// the binding cache's dedup win, or a probe's batch size.
	Bindings   int64
	InnerExecs int64
}

// addFrom folds another operator's counters into this one (worker
// trace merge). The source stats are quiescent — their worker has
// exited and a channel hand-off established the happens-before edge —
// but MemBytes/Spills are loaded atomically since they are written
// atomically during the run.
func (st *OpStats) addFrom(src *OpStats) {
	st.Opens += src.Opens
	st.Rows += src.Rows
	st.Batches += src.Batches
	st.Busy += src.Busy
	st.Workers += src.Workers
	st.Morsels += src.Morsels
	st.MemBytes += atomic.LoadInt64(&src.MemBytes)
	st.Spills += atomic.LoadInt64(&src.Spills)
	if st.Strategy == "" {
		st.Strategy = src.Strategy
	}
	st.Bindings += src.Bindings
	st.InnerExecs += src.InnerExecs
}

// traceStats returns the stats slot for a logical node, creating it
// when tracing is enabled; nil otherwise. Used by operators that
// report memory and spill behavior from inside (the generic traceIter
// wrapper cannot see operator internals).
func (c *Context) traceStats(rel algebra.Rel) *OpStats {
	if c.trace == nil {
		return nil
	}
	st, ok := c.trace[rel]
	if !ok {
		st = &OpStats{}
		c.trace[rel] = st
	}
	return st
}

// EnableTrace turns on per-operator statistics collection for plans
// compiled afterwards.
func (c *Context) EnableTrace() {
	c.trace = make(map[algebra.Rel]*OpStats)
}

// traceClockEvery is how many clock reads an amortClock serves from
// its cached timestamp before refreshing from the real clock. It must
// be odd: wrappers read twice per call (frame start and end), so an
// even interval would pin every refresh to the same frame position —
// with refreshes always landing on starts, every measured delta
// collapses to zero.
const traceClockEvery = 15

// amortClock is a tick-amortized monotone clock shared by every
// traceIter of one execution strand. Apply plans re-open their inner
// tree per binding, and with a wrapper on every operator each
// Open/NextBatch/Close paid two time.Now calls — the 3.3x apply-heavy
// tracing overhead in EXPERIMENTS.md. Opens and closes, the per-binding
// calls, are therefore timed from a cached timestamp, which read
// refreshes only every traceClockEvery reads. NextBatch, where rows are
// produced, reads the real clock on entry and, when it produced rows,
// on exit (now): a batch's work is charged to the operator that did
// it, and a strand with few calls — a parallel worker — is not credited
// 0 s because all its reads fell between two refreshes.
//
// An Open times itself from the cached timestamp too, unless the real
// clock was read while it ran (reals moved): then it did real work —
// pulled batches, built a table — and reads the real clock on exit, so
// that work is not left out of its time. An Open that only resets
// state, a seek's re-open per binding, still reads no real clock.
//
// Correctness: a real read refreshes the cached timestamp too, so the
// clock is monotone (it only moves forward), and every wrapper on the
// strand reads the same clock, so nested interval deltas still
// telescope — a child's measured Busy can never exceed its parent's,
// and the root's Busy never exceeds real elapsed time. Precision, not
// soundness, is what's amortized: time spent opening and closing can
// land on a neighbouring operator, so read per-operator self times of
// per-binding work as shares over many queries, not per query.
type amortClock struct {
	n     int
	last  time.Time
	reals uint64 // real reads (now) so far
}

// read returns the current amortized timestamp, refreshing from the
// real clock every traceClockEvery reads (and always on first use).
func (c *amortClock) read() time.Time {
	if c.n == 0 {
		c.n = traceClockEvery
		c.last = time.Now()
	}
	c.n--
	return c.last
}

// now reads the real clock and refreshes the cached timestamp with it.
func (c *amortClock) now() time.Time {
	c.last = time.Now()
	c.reals++
	return c.last
}

// traceIter wraps an iterator and accumulates statistics: every
// delivered row increments Rows exactly once, every non-empty batch
// increments Batches.
type traceIter struct {
	in iterator
	st *OpStats
	// clk is the strand's shared amortized clock (see amortClock).
	clk *amortClock
}

func (t *traceIter) Open() error {
	start, reals := t.clk.read(), t.clk.reals
	err := t.in.Open()
	var end time.Time
	if t.clk.reals != reals {
		end = t.clk.now()
	} else {
		end = t.clk.read()
	}
	t.st.Busy += end.Sub(start)
	t.st.Opens++
	return err
}

func (t *traceIter) NextBatch(b *Batch) error {
	start := t.clk.now()
	err := t.in.NextBatch(b)
	n := b.Len()
	var end time.Time
	if n > 0 {
		end = t.clk.now()
	} else {
		end = t.clk.read()
	}
	t.st.Busy += end.Sub(start)
	if err == nil && n > 0 {
		t.st.Rows += int64(n)
		t.st.Batches++
	}
	return err
}

func (t *traceIter) Close() error {
	start := t.clk.read()
	err := t.in.Close()
	t.st.Busy += t.clk.read().Sub(start)
	return err
}

// statFor resolves the stats for a logical node across the two trace
// domains, nil if it has none: an operator the consumer's strand ran is
// in the coordinator's own map, one below an exchange in the merged
// worker-side map (populated by mergeWorkerTrace as workers finish).
func (c *Context) statFor(rel algebra.Rel) *OpStats {
	if st := c.trace[rel]; st != nil {
		return st
	}
	s := c.shared
	s.wmu.Lock()
	defer s.wmu.Unlock()
	return s.wtrace[rel]
}

// Spans builds the per-query operator span tree for a traced run.
// Returns nil when tracing was not enabled. Worker-side statistics are
// folded in: at a parallel boundary the span carries the coordinator's
// view (rows forwarded, wall time, workers, morsels) plus the
// cumulative worker time; operators below the boundary carry their
// counters summed across workers.
func (c *Context) Spans(rel algebra.Rel) *obs.Span {
	if c.trace == nil {
		return nil
	}
	return c.buildSpan(rel)
}

func (c *Context) buildSpan(rel algebra.Rel) *obs.Span {
	sp := &obs.Span{Op: opName(rel)}
	if use := c.statFor(rel); use != nil {
		sp.Opens = use.Opens
		sp.Rows = use.Rows
		sp.Batches = use.Batches
		sp.Busy = use.Busy
		sp.Workers = use.Workers
		sp.Morsels = use.Morsels
		sp.MemBytes = atomic.LoadInt64(&use.MemBytes)
		sp.Spills = atomic.LoadInt64(&use.Spills)
		sp.Strategy = use.Strategy
		sp.Bindings = use.Bindings
		sp.InnerExecs = use.InnerExecs
	}
	if x, ok := rel.(*algebra.Exchange); ok {
		// The exchange's input ran on the workers: its inclusive time,
		// summed over them, is the exchange's WorkerTime.
		if in := c.statFor(x.Input); in != nil {
			sp.WorkerTime = in.Busy
		}
	}
	for _, child := range rel.Inputs() {
		sp.Children = append(sp.Children, c.buildSpan(child))
	}
	sp.FinishSelf()
	return sp
}

// FormatWithEstimates renders plan r for EXPLAIN: formatPlan with no
// actuals, its picks asked over the tables of cat.
func FormatWithEstimates(md *algebra.Metadata, cat *catalog.Catalog, est Estimates, r algebra.Rel) string {
	return formatPlan(md, cat.Table, est, r, nil, nil)
}

// FormatTrace renders the plan of a traced run (EXPLAIN ANALYZE):
// formatPlan with the collected statistics; "" when not traced.
func (c *Context) FormatTrace(rel algebra.Rel) string {
	if c.trace == nil {
		return ""
	}
	return formatPlan(c.Md, c.schema, c.Estimates, rel, c, c.buildSpan(rel))
}

// formatPlan is the annotated-plan renderer, a line per operator in the
// shape of algebra.FormatRel: "<node>  [<actuals> ][<pick> ](est=<rows>
// cost=<own>[ q=<q-error>])". The actuals, from the spans sp of c's
// trace, are shown for an operator c compiled as an iterator; cost= is
// the operator's own, its subtree's less its inputs'; q= is
// max(est/act, act/est), both floored at one row, with the actual rows
// per open inside an Apply's or SegmentApply's inner side (whose
// estimates are per execution), and "-" for an operator never opened.
func formatPlan(md *algebra.Metadata, table func(string) (*catalog.Table, bool), est Estimates, r algebra.Rel, c *Context, sp *obs.Span) string {
	var b []byte
	var walk func(n algebra.Rel, sp *obs.Span, depth int, perOpen bool)
	walk = func(n algebra.Rel, sp *obs.Span, depth int, perOpen bool) {
		b = append(b, strings.Repeat("  ", depth)...)
		p := algebra.FromScratch{Of: n}
		b = append(algebra.AppendNode(b, md, p, n), "  "...)
		ran := ""
		if sp != nil {
			if c.statFor(n) != nil {
				b = appendActuals(b, sp)
			}
			ran = sp.Strategy
		}
		if pick := planPick(table, p, n, ran); pick != "" {
			b = append(append(b, pick...), ' ')
		}
		e := est[n]
		cost := e.Cost
		for _, in := range n.Inputs() {
			cost -= est[in].Cost
		}
		b = fmt.Appendf(b, "(est=%s cost=%s", twoDigits(e.Rows), twoDigits(cost))
		switch {
		case sp == nil:
		case sp.Opens == 0:
			b = append(b, " q=-"...)
		default:
			act := float64(sp.Rows)
			if perOpen {
				act /= float64(sp.Opens)
			}
			q := max(e.Rows, 1) / max(act, 1)
			b = fmt.Appendf(b, " q=%.2f", max(q, 1/q))
		}
		b = append(b, ")\n"...)
		_, apply := n.(*algebra.Apply)
		_, seg := n.(*algebra.SegmentApply)
		for i, child := range n.Inputs() {
			var csp *obs.Span
			if sp != nil {
				csp = sp.Children[i]
			}
			walk(child, csp, depth+1, perOpen || i == 1 && (apply || seg))
		}
	}
	walk(r, sp, 0, false)
	return string(b)
}

// appendActuals appends what a traced run counted for an operator.
func appendActuals(b []byte, sp *obs.Span) []byte {
	us := func(d time.Duration) time.Duration { return d.Round(time.Microsecond) }
	if sp.Workers > 0 {
		b = fmt.Appendf(b, "(rows=%d opens=%d workers=%d morsels=%d time=%v self=%v workertime=%v)",
			sp.Rows, sp.Opens, sp.Workers, sp.Morsels, us(sp.Busy), us(sp.Self), us(sp.WorkerTime))
	} else {
		b = fmt.Appendf(b, "(rows=%d opens=%d time=%v self=%v)", sp.Rows, sp.Opens, us(sp.Busy), us(sp.Self))
	}
	if sp.Batches > 0 {
		b = fmt.Appendf(b, " (batches=%d rows/batch=%.1f)", sp.Batches, float64(sp.Rows)/float64(sp.Batches))
	}
	if sp.MemBytes > 0 || sp.Spills > 0 {
		b = fmt.Appendf(b, " (mem=%d spills=%d)", sp.MemBytes, sp.Spills)
	}
	if sp.Op == "Apply" {
		b = fmt.Appendf(b, " (bindings=%d inner-execs=%d)", sp.Bindings, sp.InnerExecs)
	}
	return append(b, ' ')
}

// planPick is the physical choice compile makes for n, asked of the
// selectors compile asks (a hash join stays implicit); ran, the strategy
// a traced run recorded for n, stands in for the Apply's or the seek's.
func planPick(table func(string) (*catalog.Table, bool), p algebra.Props, n algebra.Rel, ran string) string {
	switch n := n.(type) {
	case *algebra.Apply:
		return "apply=" + cmp.Or(ran, applyStrategy(table, n))
	case *algebra.Select:
		if g, ok := n.Input.(*algebra.Get); ok && ran == "" {
			if tbl, ok := table(g.Table); ok {
				if a := CompiledAccess(tbl, g, n.Filter); a.Seek() {
					return "seek=" + a.Index.Name
				}
			}
		}
		return ran
	case *algebra.Join:
		lk, rk, _ := SplitJoinKeys(n.On, p.OutputCols(0), p.OutputCols(1))
		if JoinAlg(lk, rk, p.DeliveredOrder(0), p.DeliveredOrder(1)) == AlgMerge {
			return "join=merge"
		}
	case *algebra.GroupBy:
		if AggAlg(n, p.DeliveredOrder(0)) == AlgStream {
			return "agg=stream"
		}
	case *algebra.Get:
		if len(n.Order) > 0 {
			return "sort elided"
		}
	}
	return ""
}

// twoDigits prints an estimate to two significant digits, and a whole
// number from 10 on in full.
func twoDigits(x float64) string {
	if math.Abs(x) >= 10 {
		return strconv.FormatFloat(x, 'f', 0, 64)
	}
	return strconv.FormatFloat(x, 'g', 2, 64)
}
