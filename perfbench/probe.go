package main

import (
	"math/bits"
	"sync"
	"sync/atomic"
	"time"
	_ "unsafe" // for go:linkname

	"verc3/internal/core"
	"verc3/internal/msi"
	"verc3/internal/statespace"
	"verc3/internal/symmetry"
	"verc3/internal/ts"
	"verc3/internal/visited"
)

// sampleBits sets the timing sample rate of per-call layers: one call in
// 2^sampleBits is timed, every call is counted. Timing every call costs
// more than the calls themselves on the hottest layers.
const sampleBits = 4

// nanotime reads the monotonic clock alone, at about half the cost of
// time.Now, which also reads the wall clock.
//
//go:linkname nanotime runtime.nanotime
func nanotime() int64

// clock accumulates one per-call layer: an exact call count, and the
// durations of a fixed pseudo-random subset of the calls with their log2
// histogram. The subset is chosen by hashing the call's index, so it does
// not lock onto a model's periodic enumeration order.
//
// A timed call also times an empty span just before it, in the same place,
// and the layer's seconds are the timed spans less those empty ones: the
// clock's own cost depends on the surrounding code (reading it waits for
// the memory operations in flight), so it is measured where it is paid.
type clock struct {
	calls   atomic.Uint64
	sampled atomic.Uint64
	ns      atomic.Int64 // timed spans
	nullNS  atomic.Int64 // the empty spans before them
	hist    [64]atomic.Uint64
}

// begin counts a call and reports whether (and since when) it is timed.
func (c *clock) begin() (int64, bool) {
	n := c.calls.Add(1)
	if (n*0x9E3779B97F4A7C15)>>(64-sampleBits) != 0 {
		return 0, false
	}
	t := nanotime()
	t0 := nanotime()
	c.nullNS.Add(t0 - t)
	return t0, true
}

// end closes a timed call.
func (c *clock) end(t0 int64, timed bool) {
	if !timed {
		return
	}
	d := nanotime() - t0
	c.sampled.Add(1)
	c.ns.Add(d)
	c.hist[bits.Len64(uint64(d))].Add(1)
}

// seconds estimates the summed duration of all calls from the timed ones.
func (c *clock) seconds() float64 {
	s := c.sampled.Load()
	if s == 0 {
		return 0
	}
	ns := max(c.ns.Load()-c.nullNS.Load(), 0)
	return float64(ns) / 1e9 * float64(c.calls.Load()) / float64(s)
}

// histogram returns the log2 histogram of the timed spans, clock cost
// included: entry i counts spans of [2^(i-1), 2^i) ns.
func (c *clock) histogram() []uint64 {
	h := make([]uint64, 0, len(c.hist))
	for i := range c.hist {
		h = append(h, c.hist[i].Load())
	}
	for len(h) > 0 && h[len(h)-1] == 0 {
		h = h[:len(h)-1]
	}
	return h
}

// probe times calls into the model and shadows the checker's keying and
// visited-set steps, which the checker performs on states it owns.
//
// After every Fire span closes, the probe keys the successor with the
// public call the checker uses for the workload (AppendKey with
// statespace.OfBytes, or Canonicalizer.Fingerprint under symmetry) and
// inserts the fingerprint into its own flat store, reset at every Initial.
// Its admitted count must equal the checker's VisitedStates.
type probe struct {
	enumerate, fire, invariant clock
	encode, hash, canon        clock
	insert                     clock

	canonicalizer *symmetry.Canonicalizer // nil without symmetry
	concurrent    bool
	store         visited.Store
	admitted      atomic.Int64 // since the last Initial
	admittedAll   atomic.Int64
	bufs          sync.Pool

	// Synthesis dispatch spans: a dispatch opens at the first Initial after
	// the previous OnEvaluate callback and closes at the next callback.
	dispatchOpen  bool
	dispatchStart time.Time
	lastEval      time.Time
	dispatches    []time.Duration
	dispatchMiss  int // dispatches whose shadow count differed
}

// newProbe builds a probe; agents > 0 keys through a canonicalizer for
// that many agents, and concurrent selects a goroutine-safe shadow store.
func newProbe(agents int, concurrent bool) *probe {
	p := &probe{concurrent: concurrent}
	if agents > 0 {
		p.canonicalizer = symmetry.NewCanonicalizer(agents)
	}
	p.bufs.New = func() any { return new([]byte) }
	p.reset()
	return p
}

func (p *probe) reset() {
	cfg := visited.Config{Kind: visited.Flat}
	if p.concurrent {
		p.store = visited.NewConcurrent(cfg)
	} else {
		p.store = visited.New(cfg)
	}
	p.admitted.Store(0)
}

// shadow keys s and inserts it the way the checker does.
func (p *probe) shadow(s ts.State) {
	var fp statespace.Fingerprint
	if p.canonicalizer != nil {
		t0, ok := p.canon.begin()
		fp = p.canonicalizer.Fingerprint(s)
		p.canon.end(t0, ok)
	} else {
		bp := p.bufs.Get().(*[]byte)
		t0, ok := p.encode.begin()
		*bp = s.(ts.KeyAppender).AppendKey((*bp)[:0])
		p.encode.end(t0, ok)
		t0, ok = p.hash.begin()
		fp = statespace.OfBytes(*bp)
		p.hash.end(t0, ok)
		p.bufs.Put(bp)
	}
	t0, ok := p.insert.begin()
	fresh := p.store.TryInsert(fp)
	p.insert.end(t0, ok)
	if fresh {
		p.admitted.Add(1)
		p.admittedAll.Add(1)
	}
}

// onEvaluate closes a synthesis dispatch span and checks the shadow count.
func (p *probe) onEvaluate(ev core.Event) {
	now := time.Now()
	if p.dispatchOpen {
		p.dispatches = append(p.dispatches, now.Sub(p.dispatchStart))
	}
	p.dispatchOpen = false
	p.lastEval = now
	if p.admitted.Load() != int64(ev.VisitedStates) {
		p.dispatchMiss++
	}
}

// wrap decorates sys. Embedding forwards every method the probe does not
// time, so the decorator implements exactly the optional ts interfaces
// *msi.System implements.
func (p *probe) wrap(sys *msi.System) *probedSystem {
	return &probedSystem{System: sys, p: p}
}

// probedSystem is the model decorator: it times Initial,
// AppendTransitions, every wrapped Fire and every Invariant.Holds.
type probedSystem struct {
	*msi.System
	p *probe
}

// Initial starts a check: it resets the shadow store and opens a dispatch
// span if none is open.
func (ps *probedSystem) Initial() []ts.State {
	p := ps.p
	if !p.dispatchOpen {
		p.dispatchOpen = true
		p.dispatchStart = time.Now()
	}
	p.reset()
	t0, ok := p.enumerate.begin()
	inits := ps.System.Initial()
	p.enumerate.end(t0, ok)
	for _, s := range inits {
		p.shadow(s)
	}
	return inits
}

func (ps *probedSystem) Transitions(s ts.State) []ts.Transition {
	return ps.AppendTransitions(nil, s)
}

func (ps *probedSystem) AppendTransitions(dst []ts.Transition, s ts.State) []ts.Transition {
	p := ps.p
	n0 := len(dst)
	t0, ok := p.enumerate.begin()
	dst = ps.System.AppendTransitions(dst, s)
	p.enumerate.end(t0, ok)
	for i := n0; i < len(dst); i++ {
		fire := dst[i].Fire
		dst[i].Fire = func(env *ts.Env) (ts.State, error) {
			t0, ok := p.fire.begin()
			next, err := fire(env)
			p.fire.end(t0, ok)
			if err == nil {
				p.shadow(next)
			}
			return next, err
		}
	}
	return dst
}

func (ps *probedSystem) Invariants() []ts.Invariant {
	p := ps.p
	invs := ps.System.Invariants()
	out := make([]ts.Invariant, len(invs))
	for i, inv := range invs {
		holds := inv.Holds
		out[i] = ts.Invariant{Name: inv.Name, Holds: func(s ts.State) bool {
			t0, ok := p.invariant.begin()
			r := holds(s)
			p.invariant.end(t0, ok)
			return r
		}}
	}
	return out
}
