package main

import (
	"sort"
	"sync"
	"time"
)

// op is one completed operation as the load generator saw it.
type op struct {
	kind  int           // index into the environment's kind names
	write bool          // an insert batch, as opposed to a query
	end   time.Duration // completion time since the window opened
	lat   time.Duration // request sent to last byte of the reply read
	self  time.Duration // generator time around the request: encode, decode, check
	ok    bool          // completed with the right answer
}

// client is one closed-loop session: it sends its next request only
// after the previous reply is checked.
type client interface {
	// do performs the client's next operation.
	do(t0 time.Time) op
	// mayStop reports whether the client is between units of work that
	// must not be cut short (an analytic pass holds every query once, so
	// that all passes cost the same).
	mayStop() bool
	// sliceBounds cuts a finished window of length dur into the slices
	// over which metrics take their quartiles: bounds[i] to bounds[i+1].
	sliceBounds(dur time.Duration) []time.Duration
	// doTraced performs the next operation of the traced run: once the
	// way do does, then layer by layer on the shadow, recording spans.
	doTraced(r *recorder, sh *shadow) op
}

// window is the outcome of one timed window.
type window struct {
	ops []op
	// bounds cut the window into slices (bounds[i], bounds[i+1]]: one
	// per pass of an analytic client, equal lengths of time for wire
	// clients. Metrics are quartiles over slices, so that a stall moves
	// a slice and not the result.
	bounds []time.Duration
}

// The host is shared, and what its other tenants do only ever slows a
// slice down; a regression in the program slows every slice. So metrics
// take the quartile on the fast side: it estimates the undisturbed
// program, and measured 1.5 to 3 times steadier between runs than the
// median.
const (
	fastLatency    = 0.25
	fastThroughput = 0.75
)

// drive runs every client in its own goroutine until dur has passed and
// the client may stop.
func drive(clients []client, dur time.Duration) window {
	perClient := make([][]op, len(clients))
	t0 := time.Now()
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(t0) < dur || !c.mayStop() {
				perClient[i] = append(perClient[i], c.do(t0))
			}
		}()
	}
	wg.Wait()
	var w window
	for _, ops := range perClient {
		w.ops = append(w.ops, ops...)
	}
	sort.Slice(w.ops, func(i, j int) bool { return w.ops[i].end < w.ops[j].end })
	w.bounds = clients[0].sliceBounds(dur)
	return w
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// slices groups the correct operations by slice; operations that ended
// after the last bound belong to none.
func (w window) slices() [][]op {
	out := make([][]op, len(w.bounds)-1)
	s := 0
	for _, o := range w.ops {
		for s < len(out) && o.end > w.bounds[s+1] {
			s++
		}
		if s == len(out) {
			break
		}
		if o.ok {
			out[s] = append(out[s], o)
		}
	}
	return out
}

// latencies returns the latencies in ms of the correct operations that
// pass keep.
func latencies(ops []op, keep func(op) bool) []float64 {
	var out []float64
	for _, o := range ops {
		if o.ok && keep(o) {
			out = append(out, ms(o.lat))
		}
	}
	return out
}

func isRead(o op) bool  { return !o.write }
func isWrite(o op) bool { return o.write }

// overSlices is the fast quartile over slices of f applied to each
// slice's operations that pass keep; slices without any are skipped.
func (w window) overSlices(keep func(op) bool, f func([]float64) float64) float64 {
	var per []float64
	for _, s := range w.slices() {
		if l := latencies(s, keep); len(l) > 0 {
			per = append(per, f(l))
		}
	}
	return quantile(per, fastLatency)
}

// opsPerSecond is the fast quartile over slices of correct operations
// completed per second.
func (w window) opsPerSecond() float64 {
	var per []float64
	for i, s := range w.slices() {
		per = append(per, float64(len(s))/(w.bounds[i+1]-w.bounds[i]).Seconds())
	}
	return quantile(per, fastThroughput)
}

// kindLatencies is each kind's fast-quartile latency in ms over the
// window, indexed by kind; kinds that never ran are 0.
func (w window) kindLatencies(kinds int) []float64 {
	out := make([]float64, kinds)
	for k := range out {
		out[k] = quantile(latencies(w.ops, func(o op) bool { return o.kind == k }), fastLatency)
	}
	return out
}

// geomeanMS is the geometric mean over the kinds that ran of each
// kind's latency: the paper's Figure 8 statistic.
func (w window) geomeanMS(kinds int) float64 {
	var ran []float64
	for _, m := range w.kindLatencies(kinds) {
		if m > 0 {
			ran = append(ran, m)
		}
	}
	return geomean(ran)
}

func (w window) failed() int {
	n := 0
	for _, o := range w.ops {
		if !o.ok {
			n++
		}
	}
	return n
}
