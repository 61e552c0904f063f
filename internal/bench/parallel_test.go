package bench

import (
	"bytes"
	"testing"
)

// TestParallelGridOutputMatchesSerial is the determinism guarantee behind
// Options.Parallel: every grid cell owns its simulation engine and RNG, so
// fanning the grid across workers must produce byte-identical experiment
// output — not merely statistically similar numbers. It runs the grid
// experiments serially and at 8 workers and compares the rendered bytes.
func TestParallelGridOutputMatchesSerial(t *testing.T) {
	serial := New(Options{Seed: 7, Quick: true, Parallel: 1})
	par := New(Options{Seed: 7, Quick: true, Parallel: 8})

	// table4 exercises the MainEval grid; fig15 the pair study; fig16 the
	// overlap sweep (reusing the memoized MainEval within each harness).
	for _, id := range []string{"table4", "fig15", "fig16"} {
		var a, b bytes.Buffer
		if err := serial.Run(id, &a); err != nil {
			t.Fatalf("serial %s: %v", id, err)
		}
		if err := par.Run(id, &b); err != nil {
			t.Fatalf("parallel %s: %v", id, err)
		}
		if a.Len() == 0 {
			t.Fatalf("%s produced no output", id)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Errorf("%s: parallel output differs from serial\n--- serial ---\n%s\n--- parallel ---\n%s",
				id, a.String(), b.String())
		}
	}
}

// TestGridMapOrdersAndFallsBack covers the helper directly: inline path
// for Parallel<=1, fan-out path otherwise, both index-ordered.
func TestGridMapOrdersAndFallsBack(t *testing.T) {
	for _, workers := range []int{0, 1, 4} {
		h := New(Options{Seed: 7, Parallel: workers})
		out := gridMap(h, 50, func(i int) int { return i * 3 })
		if len(out) != 50 {
			t.Fatalf("Parallel=%d: got %d results", workers, len(out))
		}
		for i, v := range out {
			if v != i*3 {
				t.Fatalf("Parallel=%d: out[%d] = %d, want %d", workers, i, v, i*3)
			}
		}
	}
}

// TestRunMemoMatchesFreshHarness guards the runServer memo: experiments
// that share isolated baselines and main-evaluation cells through one
// harness — serial, and at 8 workers where grid goroutines share memoized
// Results — must print exactly the bytes each prints on a fresh harness.
func TestRunMemoMatchesFreshHarness(t *testing.T) {
	ids := []string{"table3", "table4", "fig12", "fig16", "ablation", "extension"}
	fresh := make([][]byte, len(ids))
	for i, id := range ids {
		var b bytes.Buffer
		if err := New(Options{Seed: 7, Quick: true, Parallel: 1}).Run(id, &b); err != nil {
			t.Fatalf("fresh %s: %v", id, err)
		}
		fresh[i] = b.Bytes()
	}
	for _, parallel := range []int{1, 8} {
		h := New(Options{Seed: 7, Quick: true, Parallel: parallel})
		for i, id := range ids {
			var b bytes.Buffer
			if err := h.Run(id, &b); err != nil {
				t.Fatalf("shared %s at parallel %d: %v", id, parallel, err)
			}
			if !bytes.Equal(b.Bytes(), fresh[i]) {
				t.Errorf("%s at parallel %d: shared-harness output differs from a fresh harness\n--- fresh ---\n%s\n--- shared ---\n%s",
					id, parallel, fresh[i], b.Bytes())
			}
		}
	}
}
