package server

import (
	"testing"

	"krisp/internal/models"
	"krisp/internal/sim"
)

func testNode(t *testing.T, gpus int) *Node {
	t.Helper()
	return NewNode(NodeConfig{GPUs: gpus, Seed: 1})
}

func squeezenet(t *testing.T) models.Model {
	t.Helper()
	m, ok := models.ByName("squeezenet")
	if !ok {
		t.Fatal("squeezenet not in the model zoo")
	}
	return m
}

func TestReplicaServesAndCompletes(t *testing.T) {
	n := testNode(t, 1)
	rep := n.AddReplica(ReplicaSpec{Model: squeezenet(t), Batch: 4, CUs: 8})
	for i := 0; i < 8; i++ {
		if !rep.Submit(sim.Time(i) * 100) {
			t.Fatalf("submit %d refused", i)
		}
	}
	n.RunUntil(sim.Second)
	st := rep.Stats()
	if st.CompletedRequests != 8 {
		t.Fatalf("completed = %d, want 8", st.CompletedRequests)
	}
	// Greedy batching: the first submit starts a batch of 1, then the
	// backlog drains in full and partial batches (4, then 3).
	if st.CompletedBatches != 3 {
		t.Fatalf("batches = %d, want 3", st.CompletedBatches)
	}
	if st.Outstanding() != 0 {
		t.Fatalf("outstanding = %d after drain of work", st.Outstanding())
	}
	var buf []Completion
	buf = rep.TakeCompletions(buf)
	if len(buf) != 8 {
		t.Fatalf("completions = %d, want 8", len(buf))
	}
	for i, c := range buf {
		if c.End <= c.Arrival {
			t.Fatalf("completion %d has non-positive latency: %+v", i, c)
		}
	}
	// TakeCompletions drains: a second call returns nothing.
	if again := rep.TakeCompletions(buf[:0]); len(again) != 0 {
		t.Fatalf("completions not drained: %d left", len(again))
	}
}

func TestReplicaPartialBatchStarts(t *testing.T) {
	// A replica must not deadlock waiting for a full batch: a single queued
	// request still runs.
	n := testNode(t, 1)
	rep := n.AddReplica(ReplicaSpec{Model: squeezenet(t), Batch: 8, CUs: 8})
	rep.Submit(0)
	n.RunUntil(sim.Second)
	if st := rep.Stats(); st.CompletedRequests != 1 {
		t.Fatalf("completed = %d, want 1", st.CompletedRequests)
	}
}

func TestReplicaDrainLifecycle(t *testing.T) {
	n := testNode(t, 1)
	rep := n.AddReplica(ReplicaSpec{Model: squeezenet(t), Batch: 4, CUs: 8})
	for i := 0; i < 4; i++ {
		rep.Submit(0)
	}
	rep.Drain()
	if !rep.Draining() {
		t.Fatal("not draining after Drain")
	}
	if rep.Submit(0) {
		t.Fatal("draining replica accepted a request")
	}
	if rep.Drained() {
		t.Fatal("drained before queued work finished")
	}
	n.RunUntil(sim.Second)
	if !rep.Drained() {
		t.Fatal("not drained after queued work finished")
	}
	if st := rep.Stats(); st.CompletedRequests != 4 {
		t.Fatalf("completed = %d, want the pre-drain queue served", st.CompletedRequests)
	}
}

func TestReplicaKillDropsWork(t *testing.T) {
	n := testNode(t, 1)
	rep := n.AddReplica(ReplicaSpec{Model: squeezenet(t), Batch: 4, CUs: 8})
	for i := 0; i < 6; i++ {
		rep.Submit(0)
	}
	// Let the first batch get in flight, then kill.
	n.RunUntil(50)
	dropped := rep.Kill()
	if dropped == 0 {
		t.Fatal("kill dropped nothing with queued and in-flight work")
	}
	n.RunUntil(sim.Second)
	if got := rep.TakeCompletions(nil); len(got) != 0 {
		t.Fatalf("killed replica surfaced %d completions", len(got))
	}
	if rep.Submit(100) {
		t.Fatal("killed replica accepted a request")
	}
	if !rep.Drained() {
		t.Fatal("killed replica not terminal")
	}
	if st := rep.Stats(); st.Dropped != dropped {
		t.Fatalf("stats dropped = %d, want %d", st.Dropped, dropped)
	}
}

func TestReplicasShareNodeDeterministically(t *testing.T) {
	// Two replicas on one GPU (spatial co-location) plus one on a second
	// GPU: same submissions, two fresh nodes, identical completions.
	run := func() []Completion {
		n := testNode(t, 2)
		a := n.AddReplica(ReplicaSpec{Model: squeezenet(t), Batch: 4, GPU: 0, CUs: 8})
		b := n.AddReplica(ReplicaSpec{Model: squeezenet(t), Batch: 4, GPU: 0, CUs: 8})
		c := n.AddReplica(ReplicaSpec{Model: squeezenet(t), Batch: 4, GPU: 1, CUs: 16})
		for i := 0; i < 12; i++ {
			switch i % 3 {
			case 0:
				a.Submit(sim.Time(i) * 50)
			case 1:
				b.Submit(sim.Time(i) * 50)
			default:
				c.Submit(sim.Time(i) * 50)
			}
		}
		n.RunUntil(sim.Second)
		var out []Completion
		out = a.TakeCompletions(out)
		out = b.TakeCompletions(out)
		out = c.TakeCompletions(out)
		return out
	}
	x, y := run(), run()
	if len(x) != len(y) || len(x) != 12 {
		t.Fatalf("completions = %d / %d, want 12", len(x), len(y))
	}
	for i := range x {
		if x[i] != y[i] {
			t.Fatalf("completion %d differs: %+v vs %+v", i, x[i], y[i])
		}
	}
}

func TestNodeEnergyAccumulates(t *testing.T) {
	n := testNode(t, 2)
	rep := n.AddReplica(ReplicaSpec{Model: squeezenet(t), Batch: 4, CUs: 16})
	for i := 0; i < 8; i++ {
		rep.Submit(0)
	}
	n.RunUntil(sim.Second)
	if n.EnergyJ() <= 0 {
		t.Fatal("no energy accounted for a busy node")
	}
}

func TestReplicaCancelQueued(t *testing.T) {
	n := testNode(t, 1)
	rep := n.AddReplica(ReplicaSpec{Model: squeezenet(t), Batch: 8, CUs: 8})
	for id := uint64(1); id <= 4; id++ {
		if !rep.SubmitID(0, id) {
			t.Fatalf("submit %d refused", id)
		}
	}
	if got := rep.Cancel(2); got != CancelDequeued {
		t.Fatalf("cancel queued copy = %v, want CancelDequeued", got)
	}
	if got := rep.Cancel(2); got != CancelNotFound {
		t.Fatalf("double cancel = %v, want CancelNotFound", got)
	}
	if got := rep.Cancel(99); got != CancelNotFound {
		t.Fatalf("cancel unknown id = %v, want CancelNotFound", got)
	}
	n.RunUntil(sim.Second)
	buf := rep.TakeCompletions(nil)
	if len(buf) != 3 {
		t.Fatalf("completions = %d, want 3 (one dequeued)", len(buf))
	}
	for _, c := range buf {
		if c.ID == 2 {
			t.Fatal("cancelled copy still completed")
		}
		if c.Cancelled {
			t.Fatalf("completion %d marked cancelled", c.ID)
		}
	}
	st := rep.Stats()
	if st.Cancelled != 1 || st.CompletedRequests != 3 {
		t.Fatalf("stats = %+v, want 1 cancelled / 3 completed", st)
	}
}

func TestReplicaCancelInFlight(t *testing.T) {
	n := testNode(t, 1)
	rep := n.AddReplica(ReplicaSpec{Model: squeezenet(t), Batch: 4, CUs: 8})
	for id := uint64(1); id <= 4; id++ {
		rep.SubmitID(0, id)
	}
	// Let the first batch start (greedy batching runs request 1 alone);
	// cancellation then lands at the batch boundary, not mid-kernel.
	n.RunUntil(50)
	if got := rep.Cancel(1); got != CancelInFlight {
		t.Fatalf("cancel running copy = %v, want CancelInFlight", got)
	}
	if got := rep.Cancel(1); got != CancelNotFound {
		t.Fatalf("double cancel of in-flight copy = %v, want CancelNotFound", got)
	}
	n.RunUntil(sim.Second)
	var cancelled int
	for _, c := range rep.TakeCompletions(nil) {
		if c.ID == 1 {
			if !c.Cancelled {
				t.Fatal("in-flight cancelled copy completed without the Cancelled mark")
			}
			cancelled++
		} else if c.Cancelled {
			t.Fatalf("completion %d marked cancelled", c.ID)
		}
	}
	if cancelled != 1 {
		t.Fatalf("cancelled completions = %d, want exactly 1", cancelled)
	}
	st := rep.Stats()
	if st.CompletedRequests != 3 {
		t.Fatalf("completed = %d, want 3 (cancelled copy not served)", st.CompletedRequests)
	}
	if st.Cancelled != 1 {
		t.Fatalf("stats cancelled = %d, want 1", st.Cancelled)
	}
}

func TestReplicaCancelAnonymousNever(t *testing.T) {
	// Id 0 is the anonymous Submit path: it must never be cancellable, or a
	// gateway cancel could revoke a bystander's request.
	n := testNode(t, 1)
	rep := n.AddReplica(ReplicaSpec{Model: squeezenet(t), Batch: 4, CUs: 8})
	rep.Submit(0)
	if got := rep.Cancel(0); got != CancelNotFound {
		t.Fatalf("cancel of id 0 = %v, want CancelNotFound", got)
	}
	n.RunUntil(sim.Second)
	if st := rep.Stats(); st.CompletedRequests != 1 || st.Cancelled != 0 {
		t.Fatalf("stats = %+v, want the anonymous request untouched", st)
	}
}

func TestReplicaDrainAndKillWithCancelledCopies(t *testing.T) {
	// Drain and Kill must stay correct when the queue and batch hold
	// revoked hedge copies: drain still terminates, kill still drops
	// everything, and cancelled copies never resurface as served work.
	n := testNode(t, 2)
	d := n.AddReplica(ReplicaSpec{Model: squeezenet(t), Batch: 4, GPU: 0, CUs: 8})
	k := n.AddReplica(ReplicaSpec{Model: squeezenet(t), Batch: 4, GPU: 1, CUs: 8})
	for id := uint64(1); id <= 6; id++ {
		d.SubmitID(0, id)
		k.SubmitID(0, id)
	}
	n.RunUntil(50) // first batches in flight
	d.Cancel(1)    // in-flight
	d.Cancel(6)    // queued
	d.Drain()
	k.Cancel(2)
	dropped := k.Kill()
	if dropped == 0 {
		t.Fatal("kill dropped nothing")
	}
	n.RunUntil(sim.Second)
	if !d.Drained() {
		t.Fatal("replica with cancelled copies never drained")
	}
	if got := k.TakeCompletions(nil); len(got) != 0 {
		t.Fatalf("killed replica surfaced %d completions", len(got))
	}
	served := 0
	for _, c := range d.TakeCompletions(nil) {
		if !c.Cancelled {
			served++
		}
	}
	if want := 4; served != want {
		t.Fatalf("drained replica served %d, want %d", served, want)
	}
}

// TestCompletionStageStampsMonotonic: every completion's stage boundaries
// telescope — arrival <= enqueue <= batch start <= kernel start <= kernel
// end <= end — so journey stage durations are non-negative and sum to the
// end-to-end latency.
func TestCompletionStageStampsMonotonic(t *testing.T) {
	n := testNode(t, 1)
	rep := n.AddReplica(ReplicaSpec{Model: squeezenet(t), Batch: 4, CUs: 8})
	for i := 0; i < 16; i++ {
		if !rep.Submit(sim.Time(i) * 700) {
			t.Fatalf("submit %d refused", i)
		}
	}
	n.RunUntil(sim.Second)
	buf := rep.TakeCompletions(nil)
	if len(buf) != 16 {
		t.Fatalf("completions = %d, want 16", len(buf))
	}
	for i, c := range buf {
		stamps := []sim.Time{c.Arrival, c.Enqueued, c.BatchStart, c.KernelStart, c.KernelEnd, c.End}
		for s := 1; s < len(stamps); s++ {
			if stamps[s] < stamps[s-1] {
				t.Fatalf("completion %d: stamp %d (%d) precedes stamp %d (%d): %+v",
					i, s, int64(stamps[s]), s-1, int64(stamps[s-1]), c)
			}
		}
		if c.KernelEnd <= c.KernelStart {
			t.Fatalf("completion %d: kernel window empty: %+v", i, c)
		}
	}
}
