package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"os"
	"runtime/pprof"
	"testing"
	"time"

	"krisp/internal/cluster"
)

// sampleStacks are the stacks of testdata/sample.pprof, innermost frame
// first; an inner slice is one location with inlined calls. Each comment
// names the layer the sample must be charged to.
var sampleStacks = []struct {
	ns    int64
	stack [][]string
	layer string
}{
	// A runtime copy is billed to the innermost layer frame.
	{100, [][]string{{"runtime.duffcopy"}, {"krisp/internal/hsa.(*Queue).Submit"}, {"krisp/internal/core.(*Runtime).LaunchKernel"}}, "hsa"},
	// Helper packages (metrics) are skipped in favour of their caller.
	{200, [][]string{{"runtime.mallocgc"}, {"krisp/internal/metrics.(*Sample).Add"}, {"krisp/internal/cluster.(*Fleet).finish"}}, "cluster"},
	// An inlined call inside a sim frame.
	{300, [][]string{{"runtime.memmove", "krisp/internal/sim.(*Engine).Run"}, {"krisp/internal/server.(*Node).RunUntil"}}, "sim"},
	{400, [][]string{{"krisp/internal/gpu.(*Device).retime"}, {"krisp/internal/gpu.(*Device).Launch"}}, "gpu"},
	// cluster/gateway is its own layer; cluster/workload belongs to cluster.
	{500, [][]string{{"krisp/internal/cluster/gateway.(*Gateway).Admit"}, {"krisp/internal/cluster.(*Fleet).Run"}}, "gateway"},
	{600, [][]string{{"krisp/internal/cluster/workload.Diurnal.Rate"}, {"krisp/internal/cluster.(*Fleet).genArrivals"}}, "cluster"},
	// A stack with no layer frame is the Go runtime's; this one is GC work.
	{700, [][]string{{"runtime.scanobject"}, {"runtime.gcDrain"}, {"runtime.gcBgMarkWorker"}}, "runtime"},
	// The benchmark's own frames belong to no layer.
	{800, [][]string{{"main.fleetDigest"}, {"main.main"}}, "runtime"},
	// A mark assist is GC work charged to the allocating layer.
	{900, [][]string{{"runtime.gcAssistAlloc"}, {"runtime.mallocgc"}, {"krisp/internal/alloc.generate"}}, "alloc"},
}

// encodeProfile writes sampleStacks as a gzipped pprof profile laid out as
// the Go runtime writes one: sample types (samples/count, cpu/nanoseconds),
// packed location ids and values, and one location per stack frame.
func encodeProfile() []byte {
	var strs []string
	strIdx := map[string]uint64{}
	str := func(s string) uint64 {
		if i, ok := strIdx[s]; ok {
			return i
		}
		strIdx[s] = uint64(len(strs))
		strs = append(strs, s)
		return strIdx[s]
	}
	str("")
	var out []byte
	field := func(buf []byte, f int, payload []byte) []byte {
		buf = binary.AppendUvarint(buf, uint64(f)<<3|2)
		buf = binary.AppendUvarint(buf, uint64(len(payload)))
		return append(buf, payload...)
	}
	varint := func(buf []byte, f int, v uint64) []byte {
		buf = binary.AppendUvarint(buf, uint64(f)<<3)
		return binary.AppendUvarint(buf, v)
	}
	packed := func(vs ...uint64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.AppendUvarint(b, v)
		}
		return b
	}
	for _, st := range [][2]string{{"samples", "count"}, {"cpu", "nanoseconds"}} {
		out = field(out, 1, varint(varint(nil, 1, str(st[0])), 2, str(st[1])))
	}
	funcID := map[string]uint64{}
	var funcs, locs [][]byte
	for _, s := range sampleStacks {
		var ids []uint64
		for _, loc := range s.stack {
			id := uint64(len(locs) + 1)
			l := varint(nil, 1, id)
			for _, fn := range loc {
				if funcID[fn] == 0 {
					funcID[fn] = uint64(len(funcs) + 1)
					funcs = append(funcs, varint(varint(nil, 1, funcID[fn]), 2, str(fn)))
				}
				l = field(l, 4, varint(nil, 1, funcID[fn]))
			}
			locs = append(locs, l)
			ids = append(ids, id)
		}
		smp := field(nil, 1, packed(ids...))
		smp = field(smp, 2, packed(1, uint64(s.ns)))
		out = field(out, 2, smp)
	}
	for _, l := range locs {
		out = field(out, 4, l)
	}
	for _, f := range funcs {
		out = field(out, 5, f)
	}
	for _, s := range strs {
		out = field(out, 6, []byte(s))
	}
	var gz bytes.Buffer
	zw, _ := gzip.NewWriterLevel(&gz, gzip.BestCompression)
	zw.Write(out)
	zw.Close()
	return gz.Bytes()
}

const sampleProfile = "testdata/sample.pprof"

func TestSampleProfileIsCurrent(t *testing.T) {
	if os.Getenv("PERFBENCH_WRITE_SAMPLE") != "" {
		if err := os.WriteFile(sampleProfile, encodeProfile(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(sampleProfile)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, encodeProfile()) {
		t.Fatalf("%s is stale; regenerate with PERFBENCH_WRITE_SAMPLE=1 go test -run TestSampleProfileIsCurrent", sampleProfile)
	}
}

func TestAttributeChargesInnermostLayerFrame(t *testing.T) {
	data, err := os.ReadFile(sampleProfile)
	if err != nil {
		t.Fatal(err)
	}
	p, err := parseProfile(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.samples) != len(sampleStacks) {
		t.Fatalf("decoded %d samples, want %d", len(p.samples), len(sampleStacks))
	}
	var got cpuShares
	attribute(p, &got)
	want := map[string]int64{}
	var total int64
	for _, s := range sampleStacks {
		want[s.layer] += s.ns
		total += s.ns
	}
	for _, l := range layers {
		if got.ns[l] != want[l] {
			t.Errorf("%s: charged %d ns, want %d", l, got.ns[l], want[l])
		}
	}
	if got.total != total {
		t.Errorf("total %d ns, want %d", got.total, total)
	}
	if got.gcNs != 700+900 {
		t.Errorf("gc %d ns, want %d (background marking plus the assist)", got.gcNs, 700+900)
	}
}

// TestAttributeRealProfile decodes a profile the Go runtime wrote around a
// small fleet run, so the decoder is checked against the real encoder.
func TestAttributeRealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profiling unavailable: %v", err)
	}
	for t0 := time.Now(); time.Since(t0) < 300*time.Millisecond; {
		cluster.Run(tinyFleetConfig())
	}
	pprof.StopCPUProfile()
	p, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var s cpuShares
	attribute(p, &s)
	if s.total <= 0 {
		t.Fatal("profile holds no CPU time")
	}
	sum := 0.0
	for _, l := range layers {
		sum += s.frac(l)
	}
	if sum < 0.999999 || sum > 1.000001 {
		t.Errorf("layer shares sum to %v, want 1", sum)
	}
	if s.frac("gpu")+s.frac("hsa")+s.frac("sim") == 0 {
		t.Error("no CPU time charged to the device stack of a fleet run")
	}
}
