package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"testing"
)

// chromeTrace mirrors the document WriteChromeTrace emits, for decoding in
// tests the same way Perfetto would.
type chromeTrace struct {
	DisplayTimeUnit string `json:"displayTimeUnit"`
	TraceEvents     []struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  *float64       `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		S    string         `json:"s"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
}

func decodeTrace(t *testing.T, tr *Tracer) chromeTrace {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	var doc chromeTrace
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, buf.String())
	}
	return doc
}

func TestWriteChromeTrace(t *testing.T) {
	tr := NewTracer()
	tr.NameProcess(0, "gpu0")
	tr.NameThread(0, 3, "hsa-queue-3")
	tr.Span("hsa", "kernel:gemm", 0, 3, 10, 42.5)
	tr.SpanArg("hsa", "queue_wait", 0, 3, 2, 10, "depth", 4)
	tr.Instant("core", "widen", 0, 3, 50, "level", 1)
	tr.CounterEvent("se_occupancy", 0, 42.5, []string{"se0", "se1"}, []float64{7, 5})

	doc := decodeTrace(t, tr)
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	// 2 metadata + 4 recorded events.
	if len(doc.TraceEvents) != 6 {
		t.Fatalf("%d events, want 6", len(doc.TraceEvents))
	}
	m0 := doc.TraceEvents[0]
	if m0.Ph != "M" || m0.Name != "process_name" || m0.Args["name"] != "gpu0" {
		t.Errorf("first event is not process metadata: %+v", m0)
	}
	m1 := doc.TraceEvents[1]
	if m1.Ph != "M" || m1.Name != "thread_name" || m1.Tid != 3 {
		t.Errorf("second event is not thread metadata: %+v", m1)
	}
	span := doc.TraceEvents[2]
	if span.Ph != "X" || span.Name != "kernel:gemm" || span.Ts != 10 || span.Dur == nil || *span.Dur != 32.5 {
		t.Errorf("span event wrong: %+v", span)
	}
	arg := doc.TraceEvents[3]
	if arg.Args["depth"] != 4.0 {
		t.Errorf("span arg not carried: %+v", arg)
	}
	inst := doc.TraceEvents[4]
	if inst.Ph != "i" || inst.S != "t" || inst.Args["level"] != 1.0 {
		t.Errorf("instant event wrong: %+v", inst)
	}
	ctr := doc.TraceEvents[5]
	if ctr.Ph != "C" || ctr.Args["se0"] != 7.0 || ctr.Args["se1"] != 5.0 {
		t.Errorf("counter event wrong: %+v", ctr)
	}
}

func TestWriteChromeTraceEmptyAndNil(t *testing.T) {
	for name, tr := range map[string]*Tracer{"nil": nil, "empty": NewTracer()} {
		doc := decodeTrace(t, tr)
		if len(doc.TraceEvents) != 0 {
			t.Errorf("%s tracer emitted %d events", name, len(doc.TraceEvents))
		}
	}
}

func TestTracerCounts(t *testing.T) {
	tr := NewTracer()
	tr.Span("hsa", "a", 0, 0, 0, 1)
	tr.Span("hsa", "b", 0, 0, 1, 2)
	tr.Span("core", "c", 0, 0, 2, 3)
	if tr.Len() != 3 {
		t.Errorf("Len = %d, want 3", tr.Len())
	}
	if tr.CountCat("hsa") != 2 || tr.CountCat("core") != 1 || tr.CountCat("x") != 0 {
		t.Errorf("CountCat wrong: hsa=%d core=%d", tr.CountCat("hsa"), tr.CountCat("core"))
	}
	if got := len(tr.Events()); got != 3 {
		t.Errorf("Events len = %d", got)
	}
}

func TestCounterEventSeriesClamped(t *testing.T) {
	tr := NewTracer()
	keys := make([]string, maxCtrSeries+4)
	vals := make([]float64, maxCtrSeries+4)
	for i := range keys {
		keys[i] = string(rune('a' + i))
		vals[i] = float64(i)
	}
	tr.CounterEvent("big", 0, 0, keys, vals)
	ev := tr.Events()[0]
	if ev.NCtr != maxCtrSeries {
		t.Errorf("NCtr = %d, want %d", ev.NCtr, maxCtrSeries)
	}
}

// TestTracerEventsRoundTrip records enough mixed events to span several
// record chunks, with counter samples of varying width (so some value
// chunks end with an unused remainder) under alternating key sets, and
// checks Events returns exactly what was recorded.
func TestTracerEventsRoundTrip(t *testing.T) {
	tr := NewTracer()
	keySets := [][]string{{"se0", "se1", "se2", "se3"}, {"a", "b", "c"}}
	var want []Event
	for i := 0; i < 3*recChunk+17; i++ {
		ts := float64(i)
		switch i % 4 {
		case 0:
			name := fmt.Sprintf("k%d", i%13)
			tr.Span("kernel", name, i%3, i%5, ts, ts+2)
			want = append(want, Event{Ph: 'X', Cat: "kernel", Name: name, Pid: i % 3, Tid: i % 5, Ts: ts, Dur: 2})
		case 1:
			tr.SpanArg("hsa", "packet_process", 1, 2, ts, ts+1, "queue", float64(i))
			want = append(want, Event{Ph: 'X', Cat: "hsa", Name: "packet_process", Pid: 1, Tid: 2, Ts: ts, Dur: 1,
				ArgKey: "queue", ArgVal: float64(i)})
		case 2:
			tr.Instant("core", "rightsize", 0, 1, ts, "", 0)
			want = append(want, Event{Ph: 'i', Cat: "core", Name: "rightsize", Tid: 1, Ts: ts})
		case 3:
			keys := keySets[(i/4)%2]
			vals := make([]float64, len(keys))
			e := Event{Ph: 'C', Name: "se_occupancy", Pid: 4, Ts: ts, NCtr: len(keys)}
			for j := range vals {
				vals[j] = float64(i*10 + j)
				e.CtrKeys[j], e.CtrVals[j] = keys[j], vals[j]
			}
			tr.CounterEvent("se_occupancy", 4, ts, keys, vals)
			want = append(want, e)
		}
	}
	got := tr.Events()
	if len(got) != len(want) || tr.Len() != len(want) {
		t.Fatalf("Events len %d, Len %d, want %d", len(got), tr.Len(), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestTracerFootprint bounds the retained heap per event: a traced
// table4 quick run records ~7.5M events, so the per-event cost decides
// whether traced experiment runs fit in memory.
func TestTracerFootprint(t *testing.T) {
	const spans, counters = 200_000, 100_000
	keys := []string{"se0", "se1", "se2", "se3"}
	vals := make([]float64, len(keys))

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	tr := NewTracer()
	for i := 0; i < spans; i++ {
		tr.Span("kernel", "gemm", 0, i%4, float64(i), float64(i+1))
	}
	for i := 0; i < counters; i++ {
		vals[i%len(vals)] = float64(i)
		tr.CounterEvent("se_occupancy", 0, float64(i), keys, vals)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(tr)

	perEvent := float64(after.HeapAlloc-before.HeapAlloc) / (spans + counters)
	t.Logf("%.1f B per event", perEvent)
	// 64 B per record plus 32 B of values per 4-series counter sample
	// averages ~75 B; an inline-array event was ~300 B.
	const ceiling = 96
	if perEvent > ceiling {
		t.Errorf("tracer retains %.1f B per event, ceiling %d B", perEvent, ceiling)
	}
}
