package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// maxCtrSeries bounds the per-event counter series of a CounterEvent — 8
// covers one value per shader engine on the largest supported topology.
const maxCtrSeries = 8

// Event is one recorded trace event in virtual time, as returned by
// Events. Ts and Dur are virtual microseconds — the same unit Chrome
// trace-event JSON uses, so spans load into Perfetto with no conversion.
// Pid conventionally identifies the device (GPU index) and Tid the HSA
// queue.
type Event struct {
	Ph   byte // 'X' complete span, 'i' instant, 'C' counter
	Cat  string
	Name string
	Pid  int
	Tid  int
	Ts   float64
	Dur  float64
	// One optional numeric argument for spans and instants.
	ArgKey string
	ArgVal float64
	// Counter-event series (Ph == 'C').
	CtrKeys [maxCtrSeries]string
	CtrVals [maxCtrSeries]float64
	NCtr    int
}

// record is the stored form of an Event: strings are interned to ids and
// counter values live in a side slab, so a span costs 64 B instead of the
// ~300 B an Event with its inline counter arrays would.
type record struct {
	ts, dur, arg float64 // arg: the span or instant argument value
	pid, tid     int
	cat, name    uint32 // ids into Tracer.strs
	// key is the argument key's string id for spans and instants, and
	// the key-set id (into Tracer.keySets) for counters.
	key uint32
	// vals is the offset of a counter's values in the value slab.
	vals uint32
	ph   byte
	nctr uint8
}

// Records and counter values are kept in fixed-size chunks that are never
// reallocated, so a growing trace costs only its live size, never the
// doubled copy of a growing slice.
const (
	recChunk = 1 << 14
	valChunk = 1 << 14
)

// Tracer records spans, instants, and counter time-series against the
// virtual clock. It is concurrency-safe (parallel grid cells may share
// one), and every method is nil-receiver safe so call sites gate tracing
// with a plain field copy instead of branching.
//
// Unlike the metrics registry, the tracer retains one record per event, so
// it is an opt-in tool for bounded runs (quick experiments, single
// scenarios), not an always-on production path.
type Tracer struct {
	mu   sync.Mutex
	recs [][]record // full chunks, then the current one
	n    int        // recorded events
	vals [][]float64
	// strs holds the interned cat, name and argument-key strings; id 0 is
	// the empty string.
	strs []string
	ids  map[string]uint32
	// keySets holds the distinct counter key sets, in first-use order.
	keySets [][]string
	// process/thread display names for the Perfetto UI, keyed by pid and
	// (pid, tid).
	procNames   map[int]string
	threadNames map[[2]int]string
}

// NewTracer returns an enabled tracer.
func NewTracer() *Tracer {
	return &Tracer{
		strs:        []string{""},
		ids:         map[string]uint32{"": 0},
		procNames:   make(map[int]string),
		threadNames: make(map[[2]int]string),
	}
}

// Enabled reports whether events will be recorded (false for nil).
func (t *Tracer) Enabled() bool { return t != nil }

// intern returns s's string id, assigning the next one on first use.
// Callers hold t.mu.
func (t *Tracer) intern(s string) uint32 {
	id, ok := t.ids[s]
	if !ok {
		id = uint32(len(t.strs))
		t.strs = append(t.strs, s)
		t.ids[s] = id
	}
	return id
}

// keySet returns the id of the key set equal to keys, adding a copy on
// first use. Devices publish the same series names on every sample, so the
// most recent set is checked first. Callers hold t.mu.
func (t *Tracer) keySet(keys []string) uint32 {
	for i := len(t.keySets) - 1; i >= 0; i-- {
		if equalStrings(t.keySets[i], keys) {
			return uint32(i)
		}
	}
	t.keySets = append(t.keySets, append([]string(nil), keys...))
	return uint32(len(t.keySets) - 1)
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// push appends r. Callers hold t.mu.
func (t *Tracer) push(r record) {
	if t.n%recChunk == 0 {
		t.recs = append(t.recs, make([]record, 0, recChunk))
	}
	last := &t.recs[len(t.recs)-1]
	*last = append(*last, r)
	t.n++
}

// at returns the i-th recorded event. Callers hold t.mu.
func (t *Tracer) at(i int) *record { return &t.recs[i/recChunk][i%recChunk] }

func (t *Tracer) add(ph byte, cat, name string, pid, tid int, ts, dur float64, argKey string, argVal float64) {
	t.mu.Lock()
	t.push(record{ph: ph, cat: t.intern(cat), name: t.intern(name), pid: pid, tid: tid,
		ts: ts, dur: dur, key: t.intern(argKey), arg: argVal})
	t.mu.Unlock()
}

// Span records a complete span [start, end] on (pid, tid).
func (t *Tracer) Span(cat, name string, pid, tid int, start, end float64) {
	if t == nil {
		return
	}
	t.add('X', cat, name, pid, tid, start, end-start, "", 0)
}

// SpanArg records a complete span carrying one numeric argument.
func (t *Tracer) SpanArg(cat, name string, pid, tid int, start, end float64, argKey string, argVal float64) {
	if t == nil {
		return
	}
	t.add('X', cat, name, pid, tid, start, end-start, argKey, argVal)
}

// Instant records a zero-duration marker with one numeric argument
// (pass an empty argKey to omit it).
func (t *Tracer) Instant(cat, name string, pid, tid int, ts float64, argKey string, argVal float64) {
	if t == nil {
		return
	}
	t.add('i', cat, name, pid, tid, ts, 0, argKey, argVal)
}

// CounterEvent records a named multi-series counter sample at ts — Perfetto
// renders these as stacked time-series (the per-SE occupancy timeline). At
// most maxCtrSeries series are kept; keys and vals must have equal length.
func (t *Tracer) CounterEvent(name string, pid int, ts float64, keys []string, vals []float64) {
	if t == nil {
		return
	}
	n := len(keys)
	if len(vals) < n {
		n = len(vals)
	}
	if n > maxCtrSeries {
		n = maxCtrSeries
	}
	t.mu.Lock()
	// A sample never straddles two value chunks: one that does not fit
	// starts the next chunk.
	if len(t.vals) == 0 || len(t.vals[len(t.vals)-1])+n > valChunk {
		t.vals = append(t.vals, make([]float64, 0, valChunk))
	}
	cur := &t.vals[len(t.vals)-1]
	off := (len(t.vals)-1)*valChunk + len(*cur)
	*cur = append(*cur, vals[:n]...)
	t.push(record{ph: 'C', name: t.intern(name), pid: pid, ts: ts,
		key: t.keySet(keys[:n]), vals: uint32(off), nctr: uint8(n)})
	t.mu.Unlock()
}

// ctrVals returns counter record r's values. Callers hold t.mu.
func (t *Tracer) ctrVals(r *record) []float64 {
	off := int(r.vals)
	return t.vals[off/valChunk][off%valChunk : off%valChunk+int(r.nctr)]
}

// NameProcess sets the display name Perfetto shows for pid.
func (t *Tracer) NameProcess(pid int, name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.procNames[pid] = name
	t.mu.Unlock()
}

// NameThread sets the display name Perfetto shows for (pid, tid).
func (t *Tracer) NameThread(pid, tid int, name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.threadNames[[2]int{pid, tid}] = name
	t.mu.Unlock()
}

// Len returns the number of recorded events (0 for nil).
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.n
}

// CountCat returns how many events carry the given category.
func (t *Tracer) CountCat(cat string) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id, ok := t.ids[cat]
	if !ok {
		return 0
	}
	n := 0
	for _, chunk := range t.recs {
		for i := range chunk {
			if chunk[i].cat == id {
				n++
			}
		}
	}
	return n
}

// Events returns a copy of the recorded events.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, t.n)
	for i := range out {
		r := t.at(i)
		e := &out[i]
		e.Ph, e.Cat, e.Name, e.Pid, e.Tid, e.Ts, e.Dur = r.ph, t.strs[r.cat], t.strs[r.name], r.pid, r.tid, r.ts, r.dur
		if r.ph == 'C' {
			copy(e.CtrKeys[:], t.keySets[r.key])
			copy(e.CtrVals[:], t.ctrVals(r))
			e.NCtr = int(r.nctr)
		} else {
			e.ArgKey, e.ArgVal = t.strs[r.key], r.arg
		}
	}
	return out
}

// jsonEvent is the Chrome trace-event wire shape.
type jsonEvent struct {
	Name string         `json:"name,omitempty"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// WriteChromeTrace emits the recorded events as Chrome trace-event JSON
// (the {"traceEvents": [...]} object form), loadable in Perfetto and
// chrome://tracing. Virtual microseconds map directly onto the format's ts
// unit. Process and thread metadata events are emitted first so the UI
// shows device and queue names.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	if t == nil {
		_, err := io.WriteString(w, `{"displayTimeUnit":"ms","traceEvents":[]}`)
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()

	if _, err := io.WriteString(w, `{"displayTimeUnit":"ms","traceEvents":[`); err != nil {
		return err
	}
	first := true
	emit := func(je jsonEvent) error {
		b, err := json.Marshal(je)
		if err != nil {
			return err
		}
		if !first {
			if _, err := w.Write([]byte{',', '\n'}); err != nil {
				return err
			}
		}
		first = false
		_, err = w.Write(b)
		return err
	}

	// Metadata first, in deterministic order.
	for _, pid := range sortedIntKeys(t.procNames) {
		if err := emit(jsonEvent{Name: "process_name", Ph: "M", Pid: pid,
			Args: map[string]any{"name": t.procNames[pid]}}); err != nil {
			return err
		}
	}
	for _, k := range sortedPairKeys(t.threadNames) {
		if err := emit(jsonEvent{Name: "thread_name", Ph: "M", Pid: k[0], Tid: k[1],
			Args: map[string]any{"name": t.threadNames[k]}}); err != nil {
			return err
		}
	}

	for i := 0; i < t.n; i++ {
		r := t.at(i)
		je := jsonEvent{Name: t.strs[r.name], Cat: t.strs[r.cat], Ph: string(r.ph), Ts: r.ts, Pid: r.pid, Tid: r.tid}
		switch r.ph {
		case 'X':
			d := r.dur
			je.Dur = &d
			if r.key != 0 {
				je.Args = map[string]any{t.strs[r.key]: r.arg}
			}
		case 'i':
			je.S = "t" // thread-scoped instant
			if r.key != 0 {
				je.Args = map[string]any{t.strs[r.key]: r.arg}
			}
		case 'C':
			keys, vals := t.keySets[r.key], t.ctrVals(r)
			args := make(map[string]any, len(vals))
			for j := range vals {
				args[keys[j]] = vals[j]
			}
			je.Args = args
		default:
			return fmt.Errorf("telemetry: unknown event phase %q", r.ph)
		}
		if err := emit(je); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "]}\n")
	return err
}

func sortedIntKeys(m map[int]string) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	for i := 1; i < len(out); i++ { // insertion sort; metadata sets are tiny
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

func sortedPairKeys(m map[[2]int]string) [][2]int {
	out := make([][2]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	less := func(a, b [2]int) bool { return a[0] < b[0] || (a[0] == b[0] && a[1] < b[1]) }
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && less(out[j], out[j-1]); j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}
