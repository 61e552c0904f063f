package bench

import (
	"bytes"
	"math"
	"strconv"
	"strings"
	"testing"

	"krisp/internal/models"
	"krisp/internal/policies"
)

func quickHarness() *Harness { return New(Options{Seed: 7, Quick: true}) }

func TestExperimentsListAndDispatch(t *testing.T) {
	h := quickHarness()
	if err := h.Run("nope", &bytes.Buffer{}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	// Every listed experiment must dispatch (the cheap ones run fully
	// here; the heavy grid-based ones are covered separately).
	cheap := []string{"table3", "fig3", "fig7", "fig8", "fig12"}
	for _, id := range cheap {
		var buf bytes.Buffer
		if err := h.Run(id, &buf); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if buf.Len() == 0 {
			t.Errorf("%s produced no output", id)
		}
	}
}

func TestMainEvalMemoized(t *testing.T) {
	h := quickHarness()
	a := h.MainEval(models.CalibrationBatch)
	b := h.MainEval(models.CalibrationBatch)
	if a != b {
		t.Error("MainEval not memoized")
	}
	if len(a.Cells) != len(h.evalModels())*len(policies.All())*len(WorkerCounts) {
		t.Errorf("cell count = %d", len(a.Cells))
	}
	for i := range a.Cells {
		c := &a.Cells[i]
		if c.NormRPS <= 0 {
			t.Fatalf("cell %s/%v/%d: NormRPS %v", c.Model, c.Policy, c.Workers, c.NormRPS)
		}
		if c.P95Ms <= 0 || c.SLOMs <= 0 {
			t.Fatalf("cell %s/%v/%d: latency fields unset", c.Model, c.Policy, c.Workers)
		}
	}
}

func TestMainEvalNormalization(t *testing.T) {
	h := quickHarness()
	e := h.MainEval(models.CalibrationBatch)
	// One MPS-Default worker IS the baseline, so its NormRPS must be ~1.
	for _, name := range sortedModelNames(e) {
		c := e.Cell(name, policies.MPSDefault, 1)
		if c == nil {
			t.Fatalf("missing baseline cell for %s", name)
		}
		if c.NormRPS < 0.99 || c.NormRPS > 1.01 {
			t.Errorf("%s baseline NormRPS = %v, want ~1", name, c.NormRPS)
		}
		if c.Violation {
			t.Errorf("%s baseline violates its own SLO", name)
		}
	}
}

func TestGeomeanNormRPS(t *testing.T) {
	h := quickHarness()
	e := h.MainEval(models.CalibrationBatch)
	g := e.GeomeanNormRPS(policies.MPSDefault, 1)
	if g < 0.99 || g > 1.01 {
		t.Errorf("baseline geomean = %v, want ~1", g)
	}
	if e.GeomeanNormRPS(policies.KRISPI, 4) <= 1 {
		t.Error("KRISP-I at 4 workers should improve on isolated throughput")
	}
}

func TestTable4Renders(t *testing.T) {
	h := quickHarness()
	var buf bytes.Buffer
	h.Table4(&buf)
	out := buf.String()
	if !strings.Contains(out, "KRISP-I") {
		t.Errorf("Table4 missing policy column: %s", out)
	}
	for _, m := range h.evalModels() {
		if !strings.Contains(out, m.Name) {
			t.Errorf("Table4 missing model %s", m.Name)
		}
	}
}

func TestFig13Renders(t *testing.T) {
	h := quickHarness()
	for _, id := range []string{"fig13a", "fig13b", "fig13c"} {
		var buf bytes.Buffer
		if err := h.Run(id, &buf); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if !strings.Contains(buf.String(), "albert") {
			t.Errorf("%s output missing model rows", id)
		}
	}
}

func TestFig16OverlapSweep(t *testing.T) {
	h := quickHarness()
	var buf bytes.Buffer
	h.Fig16(&buf)
	out := buf.String()
	for _, lim := range []string{"0", "31", "60"} {
		if !strings.Contains(out, lim) {
			t.Errorf("Fig16 missing limit %s row", lim)
		}
	}
	// Every model in the quick sweep needs a finite isolated baseline.
	rows := 0
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) != 3 {
			continue
		}
		if _, err := strconv.Atoi(f[0]); err != nil {
			continue
		}
		rows++
		for _, s := range f[1:] {
			v, err := strconv.ParseFloat(s, 64)
			if err != nil || math.IsInf(v, 0) || math.IsNaN(v) || v <= 0 {
				t.Errorf("Fig16 row %q: value %q is not a finite positive ratio", line, s)
			}
		}
	}
	if rows != 5 {
		t.Errorf("Fig16 printed %d limit rows, want 5", rows)
	}
}

func TestFig8ShowsPackedSpike(t *testing.T) {
	h := New(Options{Seed: 7}) // full sweep for the 16-CU row
	var buf bytes.Buffer
	h.Fig8(&buf)
	lines := strings.Split(buf.String(), "\n")
	var at15, at16 struct{ packed, conserved float64 }
	for _, l := range lines {
		fields := strings.Fields(l)
		if len(fields) < 4 {
			continue
		}
		n, err := strconv.Atoi(fields[0])
		if err != nil {
			continue
		}
		p, err1 := strconv.ParseFloat(fields[2], 64)
		c, err2 := strconv.ParseFloat(fields[3], 64)
		if err1 != nil || err2 != nil {
			continue
		}
		if n == 15 {
			at15.packed, at15.conserved = p, c
		}
		if n == 16 {
			at16.packed, at16.conserved = p, c
		}
	}
	if at16.packed == 0 || at16.conserved == 0 {
		t.Fatal("Fig8 rows for 15/16 CUs not found")
	}
	// The Packed policy spills one CU into SE1 at 16 CUs: a huge spike
	// versus both its own 15-CU point and Conserved at 16.
	if at16.packed <= at15.packed || at16.packed <= 3*at16.conserved {
		t.Errorf("no packed spike at 16 CUs: packed(15)=%v packed(16)=%v conserved(16)=%v",
			at15.packed, at16.packed, at16.conserved)
	}
}
