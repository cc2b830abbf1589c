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
// domains: the coordinator's own map and the merged worker-side map
// (populated by mergeWorkerTrace as parallel workers finish). For an
// exchange node both exist — the coordinator slot describes the
// exchange itself (rows forwarded, wall time), the worker slot the
// subtree root as executed across workers.
func (c *Context) statFor(rel algebra.Rel) (st, wst *OpStats) {
	st = c.trace[rel]
	s := c.shared
	s.wmu.Lock()
	wst = s.wtrace[rel]
	s.wmu.Unlock()
	return st, wst
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
	st, wst := c.statFor(rel)
	sp := &obs.Span{Op: opName(rel)}
	use := st
	if use == nil {
		use = wst
	}
	if use != nil {
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
	if st != nil && wst != nil {
		// Exchange collision: the worker subtree's root is the same
		// logical node as the exchange. The span keeps the coordinator's
		// production counts (folding the workers' would double-count
		// every forwarded row) and takes the worker-side inclusive time
		// as WorkerTime, plus worker-side memory/spill attribution.
		sp.WorkerTime = wst.Busy
		sp.MemBytes += atomic.LoadInt64(&wst.MemBytes)
		sp.Spills += atomic.LoadInt64(&wst.Spills)
		// An Apply's strategy and binding counters are its workers'.
		sp.Strategy = cmp.Or(sp.Strategy, wst.Strategy)
		sp.Bindings += wst.Bindings
		sp.InnerExecs += wst.InnerExecs
	}
	for _, child := range rel.Inputs() {
		sp.Children = append(sp.Children, c.buildSpan(child))
	}
	if sp.Workers > 0 && sp.WorkerTime == 0 {
		// Aggregation exchange: workers executed the input subtree (no
		// root collision); their cumulative time is the direct
		// children's inclusive time.
		for _, ch := range sp.Children {
			sp.WorkerTime += ch.Busy
		}
	}
	sp.FinishSelf()
	return sp
}

// FormatTrace renders the plan with the collected statistics, in the
// same shape as algebra.FormatRel, including per-operator inclusive
// (time=) and self (self=) wall time, and ends every operator's line
// with the optimizer's estimates (from Estimates) — its rows (est=) and
// its own cost (cost=: its subtree's cost less its inputs') — and the
// rows' q-error against the actual rows (q=): max(est/act, act/est),
// both floored at one row. Estimates print to two significant digits,
// so a fraction of a row shows. Inside an Apply's or SegmentApply's
// inner side the estimates are per execution, so the actual rows there
// are rows per open. An operator that never opened — one that did not
// run as an iterator of its own (a Get its Select reads, a probe's
// inner side), or an inner side no binding reached — has no actual
// rows, and its q-error prints as "-".
func (c *Context) FormatTrace(rel algebra.Rel) string {
	if c.trace == nil {
		return ""
	}
	var b strings.Builder
	var walk func(n algebra.Rel, sp *obs.Span, depth int, perOpen bool)
	walk = func(n algebra.Rel, sp *obs.Span, depth int, perOpen bool) {
		line := algebra.FormatRel(c.Md, n)
		if i := strings.IndexByte(line, '\n'); i >= 0 {
			line = line[:i]
		}
		for i := 0; i < depth; i++ {
			b.WriteString("  ")
		}
		b.WriteString(line)
		if st, wst := c.statFor(n); st != nil || wst != nil {
			if sp.Workers > 0 {
				fmt.Fprintf(&b, "  (rows=%d opens=%d workers=%d morsels=%d time=%v self=%v workertime=%v)",
					sp.Rows, sp.Opens, sp.Workers, sp.Morsels,
					sp.Busy.Round(time.Microsecond), sp.Self.Round(time.Microsecond),
					sp.WorkerTime.Round(time.Microsecond))
			} else {
				fmt.Fprintf(&b, "  (rows=%d opens=%d time=%v self=%v)",
					sp.Rows, sp.Opens,
					sp.Busy.Round(time.Microsecond), sp.Self.Round(time.Microsecond))
			}
			if sp.Batches > 0 {
				fmt.Fprintf(&b, " (batches=%d rows/batch=%.1f)",
					sp.Batches, float64(sp.Rows)/float64(sp.Batches))
			}
			if sp.MemBytes > 0 || sp.Spills > 0 {
				fmt.Fprintf(&b, " (mem=%d spills=%d)", sp.MemBytes, sp.Spills)
			}
			if sp.Op == "Apply" {
				fmt.Fprintf(&b, " (strategy=%s bindings=%d inner-execs=%d)",
					sp.Strategy, sp.Bindings, sp.InnerExecs)
			} else if sp.Strategy != "" {
				fmt.Fprintf(&b, " (%s)", sp.Strategy)
			}
		}
		est, cost := c.Estimates[n].Rows, c.Estimates[n].Cost
		for _, in := range n.Inputs() {
			cost -= c.Estimates[in].Cost
		}
		fmt.Fprintf(&b, " (est=%s cost=%s ", twoDigits(est), twoDigits(cost))
		if sp.Opens == 0 {
			b.WriteString("q=-)\n")
		} else {
			act := float64(sp.Rows)
			if perOpen {
				act /= float64(sp.Opens)
			}
			q := max(est, 1) / max(act, 1)
			fmt.Fprintf(&b, "q=%.2f)\n", max(q, 1/q))
		}
		inner := -1
		switch n.(type) {
		case *algebra.Apply, *algebra.SegmentApply:
			inner = 1
		}
		for i, child := range n.Inputs() {
			walk(child, sp.Children[i], depth+1, perOpen || i == inner)
		}
	}
	walk(rel, c.buildSpan(rel), 0, false)
	return b.String()
}

// twoDigits prints an estimate to two significant digits, and a whole
// number from 10 on in full.
func twoDigits(x float64) string {
	if math.Abs(x) >= 10 {
		return strconv.FormatFloat(x, 'f', 0, 64)
	}
	return strconv.FormatFloat(x, 'g', 2, 64)
}
