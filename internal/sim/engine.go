// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine drives all of KRISP's virtual-time evaluation: GPU kernel
// execution, HSA queue processing, inference servers, and load generators
// all schedule callbacks on a single Engine. Everything runs on one
// goroutine, so simulations are fully deterministic given a seed.
//
// Time is modelled as float64 microseconds of virtual time. Helpers
// (Microsecond, Millisecond, Second) make call sites readable.
//
// # Performance model
//
// The engine owns its priority queue as a value-type 4-ary min-heap of
// small entries whose ordering keys are denormalized into the slot, so
// comparisons never chase pointers — no container/heap, no interface
// boxing. Cancellation is lazy and O(1): the entry is skipped and
// collected when it surfaces at the top. Reschedule re-keys the entry in
// place through the record's heap index (no tombstone churn under
// retime-heavy loads). Fired and collected event records are recycled
// through an engine-local free list, so in steady state
// At/After/Cancel/Reschedule perform zero heap allocations.
//
// # Event handle lifetime
//
// At/After return *Event handles. A handle is live while its event is
// pending; Cancel, Reschedule, At and Canceled are always exact on a live
// handle. Once the event fires (or a cancellation is collected), the
// engine may recycle the record for a later At/After. Until that reuse
// happens, the documented dead-handle operations still behave as
// specified: Cancel of a fired or canceled event is a no-op, Canceled
// still reports the outcome, and Reschedule of a dead event schedules a
// fresh event with the same callback. After reuse, the handle aliases the
// newer event, so callers that retain handles across later scheduling
// must treat fired handles as expired (every caller in this repository
// either refreshes its handle in the callback or clears it there).
//
// # Tie-break contract
//
// Simultaneous events fire in the order they were first scheduled: each
// event takes a sequence number at At/After time and keeps it for life.
// Reschedule moves an event in time but does not change its sequence
// number, so a rescheduled event that comes to tie with other events —
// whether it moved earlier or later — still ranks by its original
// scheduling order, not by when it was rescheduled.
package sim

import (
	"fmt"
	"math"
)

// Time is a point in virtual time, in microseconds.
type Time = float64

// Duration is a span of virtual time, in microseconds.
type Duration = float64

// Convenient duration units (all in microseconds).
const (
	Microsecond Duration = 1
	Millisecond Duration = 1e3
	Second      Duration = 1e6
)

// Never is a sentinel time further in the future than any event the
// simulator will reach. Completion events for stalled jobs are parked here.
const Never Time = math.MaxFloat64 / 4

// Event lifecycle states.
const (
	statePending  uint8 = iota // scheduled, will fire unless canceled
	stateFired                 // callback ran
	stateCanceled              // canceled before firing, entry not yet collected
	stateFree                  // collected into the engine free list
)

// Event is a scheduled callback. It is returned by Engine.At/After so the
// caller can cancel it before it fires. See the package comment for the
// handle-lifetime contract.
type Event struct {
	at          Time
	seq         uint64 // FIFO rank among simultaneous events; fixed at first schedule
	fn          func()
	index       int32 // heap position while pending, -1 once popped
	state       uint8
	wasCanceled bool // outcome kept through recycling so Canceled() stays exact until reuse
}

// At reports the virtual time the event is (or was last) scheduled for.
func (ev *Event) At() Time { return ev.at }

// Canceled reports whether the event was canceled before firing.
func (ev *Event) Canceled() bool {
	return ev.state == stateCanceled || (ev.state == stateFree && ev.wasCanceled)
}

// entry is one heap slot: the ordering key, denormalized from the record
// so comparisons never chase the *Event pointer, plus the record itself.
// Exactly one entry exists per scheduled record; Reschedule re-keys it in
// place via the record's heap index.
type entry struct {
	at  Time
	seq uint64
	ev  *Event
}

// Engine is a single-threaded discrete-event simulator.
//
// The zero value is not usable; construct with New.
type Engine struct {
	now       Time
	seq       uint64
	events    []entry  // 4-ary min-heap ordered by (at, seq)
	free      []*Event // recycled event records
	live      int      // pending, non-canceled events
	processed uint64

	// interrupt, when set, is polled periodically by Run/RunUntil; once it
	// returns true the run stops early and Interrupted latches.
	interrupt   func() bool
	interrupted bool
	// forcePoll makes the next pollInterrupt consult the hook regardless
	// of the processed-count stride; Run/RunUntil set it on entry so an
	// already-true interrupt stops a run immediately even on an engine
	// whose processed count is mid-stride from earlier runs.
	forcePoll bool
}

// New returns an Engine with the clock at time zero and no pending events.
func New() *Engine {
	return &Engine{}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Pending returns the number of events still scheduled (canceled events
// are excluded even while their heap entries await collection).
func (e *Engine) Pending() int { return e.live }

// Processed returns the total number of events fired so far.
func (e *Engine) Processed() uint64 { return e.processed }

// alloc returns a fresh or recycled event record.
func (e *Engine) alloc() *Event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		return ev
	}
	return &Event{}
}

// recycle returns a dead record to the free list. The callback and
// outcome are kept until reuse so the documented dead-handle operations
// (Cancel no-op, Canceled, Reschedule-as-fresh) stay exact in between.
func (e *Engine) recycle(ev *Event) {
	ev.state = stateFree
	e.free = append(e.free, ev)
}

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// panics: it always indicates a logic error in the caller.
func (e *Engine) At(t Time, fn func()) *Event {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	e.seq++
	ev := e.alloc()
	ev.at = t
	ev.seq = e.seq
	ev.fn = fn
	ev.state = statePending
	ev.wasCanceled = false
	e.live++
	e.push(entry{at: t, seq: ev.seq, ev: ev})
	return ev
}

// After schedules fn to run d microseconds from now. Negative d panics.
func (e *Engine) After(d Duration, fn func()) *Event {
	return e.At(e.now+d, fn)
}

// Cancel removes a pending event so it never fires. Canceling an event that
// already fired or was already canceled is a no-op. Cancellation is lazy:
// the heap entry is skipped (and the record collected) when it surfaces.
func (e *Engine) Cancel(ev *Event) {
	if ev == nil || ev.state != statePending {
		return
	}
	ev.state = stateCanceled
	ev.wasCanceled = true
	e.live--
}

// Reschedule moves a pending event to a new absolute time, preserving its
// callback and — unlike a cancel-and-reschedule — its FIFO rank: the event
// keeps the sequence number from its first scheduling, so if the move
// makes it simultaneous with other events it fires in original scheduling
// order rather than last. If the event already fired or was canceled,
// Reschedule schedules a fresh event with the same callback and returns
// it; otherwise it returns ev itself.
func (e *Engine) Reschedule(ev *Event, t Time) *Event {
	if t < e.now {
		panic(fmt.Sprintf("sim: rescheduling event to %v before now %v", t, e.now))
	}
	if ev.state != statePending {
		return e.At(t, ev.fn)
	}
	ev.at = t
	e.events[ev.index].at = t // seq — the FIFO rank — is unchanged
	e.fix(int(ev.index))
	return ev
}

// collectTop pops and recycles the top heap entry if its record was lazily
// canceled, reporting whether it did.
func (e *Engine) collectTop() bool {
	ev := e.events[0].ev
	if ev.state == statePending {
		return false
	}
	e.popTop()
	e.recycle(ev)
	return true
}

// Step fires the next pending event, advancing the clock to its timestamp.
// It returns false when no events remain.
func (e *Engine) Step() bool {
	for len(e.events) > 0 {
		if e.collectTop() {
			continue
		}
		en := e.events[0]
		e.popTop()
		ev := en.ev
		e.now = en.at
		e.processed++
		e.live--
		ev.state = stateFired
		fn := ev.fn
		// Recycle before running the callback: the fire-then-rearm pattern
		// (watchdogs, queue pumps) then reuses the hot record immediately.
		e.recycle(ev)
		fn()
		return true
	}
	return false
}

// SetInterrupt installs a poll function consulted every few thousand
// events by Run and RunUntil; when it returns true the run stops early and
// Interrupted reports true from then on. A nil fn clears it. The hook lets
// callers driven by external cancellation (an HTTP request context, a
// deadline) abandon a long simulation without wiring cancellation through
// every model layer.
func (e *Engine) SetInterrupt(fn func() bool) {
	e.interrupt = fn
	e.interrupted = false
}

// Interrupted reports whether a Run/RunUntil stopped early because the
// interrupt poll fired.
func (e *Engine) Interrupted() bool { return e.interrupted }

// pollInterrupt returns true when the run should stop. The poll function
// is consulted at the start of every Run/RunUntil and then once every
// 1024 processed events, keeping it off the hot path while guaranteeing an
// already-true interrupt stops any run before it fires a single event.
func (e *Engine) pollInterrupt() bool {
	if e.interrupted {
		return true
	}
	if e.interrupt != nil && (e.forcePoll || e.processed&1023 == 0) && e.interrupt() {
		e.interrupted = true
	}
	e.forcePoll = false
	return e.interrupted
}

// Run fires events until none remain.
func (e *Engine) Run() {
	e.forcePoll = true
	for !e.pollInterrupt() && e.Step() {
	}
}

// RunUntil fires events with timestamps <= t, then advances the clock to
// exactly t. Events scheduled beyond t remain pending.
func (e *Engine) RunUntil(t Time) {
	e.forcePoll = true
	for len(e.events) > 0 {
		if e.pollInterrupt() {
			return
		}
		if e.collectTop() {
			continue
		}
		if e.events[0].at > t {
			break
		}
		e.Step()
	}
	if t > e.now {
		e.now = t
	}
}

// RunFor runs the simulation for d microseconds of virtual time from now.
func (e *Engine) RunFor(d Duration) {
	e.RunUntil(e.now + d)
}

// NextEventTime returns the timestamp of the earliest pending event, or
// ok=false when none remain. Lazily-canceled entries surfacing at the top
// are collected on the way, so the answer is exact — this is the lower
// bound the fleet's wake heap keys a node by, proving it cannot act before
// a horizon without running it.
func (e *Engine) NextEventTime() (Time, bool) {
	for len(e.events) > 0 {
		if e.collectTop() {
			continue
		}
		return e.events[0].at, true
	}
	return 0, false
}

// Reset returns the engine to its initial state — clock at zero, no
// pending events, sequence and processed counters rezeroed — while keeping
// the event free list and heap capacity, so a reused engine schedules with
// zero allocations from the first event. Every pending event is discarded
// (its callback never fires) and its record recycled. A run on a Reset
// engine is indistinguishable from a run on a New engine: the first event
// gets seq 1, interrupt polling starts mid-stride at processed 0, and any
// previously installed interrupt hook is cleared.
func (e *Engine) Reset() {
	for i := range e.events {
		ev := e.events[i].ev
		if ev.state == statePending {
			ev.wasCanceled = false
		}
		e.recycle(ev)
		e.events[i] = entry{}
	}
	e.events = e.events[:0]
	e.now = 0
	e.seq = 0
	e.live = 0
	e.processed = 0
	e.interrupt = nil
	e.interrupted = false
	e.forcePoll = false
}

// ---------------------------------------------------------------------------
// 4-ary min-heap over []entry, ordered by (at, seq).
//
// A 4-ary layout halves the tree depth of a binary heap, trading a few
// extra comparisons per level for far fewer cache-missing hops on the
// sift path — the classic d-ary trade that wins for small value-type
// entries like ours.

func entryLess(a, b *entry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq // FIFO among simultaneous events
}

func (e *Engine) push(en entry) {
	e.events = append(e.events, en)
	en.ev.index = int32(len(e.events) - 1)
	e.siftUp(len(e.events) - 1)
}

// fix restores heap order after the entry at i changed its key in place
// (Reschedule): at most one of the two sifts moves it.
func (e *Engine) fix(i int) {
	if !e.siftUp(i) {
		e.siftDown(i)
	}
}

// siftUp moves the entry at i toward the root until its parent is not
// larger, reporting whether it moved.
func (e *Engine) siftUp(i int) bool {
	en := e.events[i]
	j := i
	for j > 0 {
		p := (j - 1) / 4
		if !entryLess(&en, &e.events[p]) {
			break
		}
		e.events[j] = e.events[p]
		e.events[j].ev.index = int32(j)
		j = p
	}
	if j == i {
		return false
	}
	e.events[j] = en
	en.ev.index = int32(j)
	return true
}

// siftDown moves the entry at i toward the leaves until no child is
// smaller.
func (e *Engine) siftDown(i int) {
	n := len(e.events)
	en := e.events[i]
	j := i
	for {
		c := j*4 + 1
		if c >= n {
			break
		}
		end := c + 4
		if end > n {
			end = n
		}
		m := c
		for k := c + 1; k < end; k++ {
			if entryLess(&e.events[k], &e.events[m]) {
				m = k
			}
		}
		if !entryLess(&e.events[m], &en) {
			break
		}
		e.events[j] = e.events[m]
		e.events[j].ev.index = int32(j)
		j = m
	}
	if j != i {
		e.events[j] = en
		en.ev.index = int32(j)
	}
}

// popTop removes the minimum entry (the caller has already read it).
func (e *Engine) popTop() {
	e.events[0].ev.index = -1
	n := len(e.events) - 1
	en := e.events[n]
	e.events[n] = entry{} // drop the *Event reference for GC
	e.events = e.events[:n]
	if n == 0 {
		return
	}
	e.events[0] = en
	en.ev.index = 0
	e.siftDown(0)
}
