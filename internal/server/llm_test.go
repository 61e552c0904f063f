package server

import (
	"reflect"
	"testing"

	"krisp/internal/llm"
	"krisp/internal/sim"
)

func llmReplica(n *Node, spec LLMSpec) *Replica {
	return n.AddReplica(ReplicaSpec{GPU: 0, CUs: 60, LLM: &spec})
}

// TestLLMSequenceLifecycle serves three sequences end to end on a mixed
// replica and checks every completion invariant: full token counts, the
// stage stamps in order, and both KV ledgers drained afterwards.
func TestLLMSequenceLifecycle(t *testing.T) {
	n := testNode(t, 1)
	rep := llmReplica(n, LLMSpec{Model: llm.Small(), MaxSeqs: 4})
	for id := uint64(1); id <= 3; id++ {
		if !rep.SubmitSeq(0, id, 64, 16, false) {
			t.Fatalf("seq %d refused", id)
		}
	}
	n.RunUntil(sim.Second)

	comps := rep.TakeCompletions(nil)
	if len(comps) != 3 {
		t.Fatalf("completions = %d, want 3", len(comps))
	}
	for _, c := range comps {
		if c.Cancelled {
			t.Fatalf("seq %d cancelled", c.ID)
		}
		if c.Tokens != 16 || c.Prompt != 64 || c.Output != 16 {
			t.Fatalf("seq %d lengths: tokens %d prompt %d output %d", c.ID, c.Tokens, c.Prompt, c.Output)
		}
		stamps := []sim.Time{c.Arrival, c.Enqueued, c.BatchStart, c.KernelStart, c.FirstToken, c.KernelEnd, c.End}
		names := []string{"Arrival", "Enqueued", "BatchStart", "KernelStart", "FirstToken", "KernelEnd", "End"}
		for i := 1; i < len(stamps); i++ {
			if stamps[i] < stamps[i-1] {
				t.Fatalf("seq %d: %s (%v) < %s (%v)", c.ID, names[i], stamps[i], names[i-1], stamps[i-1])
			}
		}
		// Token boundaries are the completion granularity: the last kernel
		// step and the completion coincide, and the first token costs at
		// least one decode step after the kernels start.
		if c.KernelEnd != c.End {
			t.Fatalf("seq %d: KernelEnd %v != End %v", c.ID, c.KernelEnd, c.End)
		}
		if c.FirstToken <= c.KernelStart {
			t.Fatalf("seq %d: first token %v not after kernel start %v", c.ID, c.FirstToken, c.KernelStart)
		}
	}
	if got := rep.KVInUse(); got != 0 {
		t.Fatalf("KV in use after drain-down = %g, want 0", got)
	}
	st := rep.Stats()
	if st.CompletedRequests != 3 || st.Preempted != 0 || st.Dropped != 0 {
		t.Fatalf("stats = %+v", st)
	}
	// One shared prefill step plus one boundary per generated token.
	if st.CompletedBatches < 17 {
		t.Fatalf("token steps = %d, want >= 17", st.CompletedBatches)
	}
}

// TestLLMContinuousBatchJoinLeave: a sequence submitted mid-run joins the
// running batch at the next token boundary and leaves at its own pace —
// the short joiner finishes first while the long sequence keeps decoding,
// and the shared steps cost far fewer boundaries than serial service.
func TestLLMContinuousBatchJoinLeave(t *testing.T) {
	n := testNode(t, 1)
	rep := llmReplica(n, LLMSpec{Model: llm.Small(), MaxSeqs: 8})
	if !rep.SubmitSeq(0, 1, 64, 32, false) {
		t.Fatal("long seq refused")
	}
	n.RunUntil(2 * sim.Millisecond)
	joinAt := n.Now()
	if !rep.SubmitSeq(joinAt, 2, 64, 8, false) {
		t.Fatal("joiner refused")
	}
	n.RunUntil(sim.Second)

	comps := rep.TakeCompletions(nil)
	if len(comps) != 2 {
		t.Fatalf("completions = %d, want 2", len(comps))
	}
	if comps[0].ID != 2 || comps[1].ID != 1 {
		t.Fatalf("completion order = [%d %d], want joiner first", comps[0].ID, comps[1].ID)
	}
	if comps[0].BatchStart < joinAt {
		t.Fatalf("joiner admitted at %v, before its submission at %v", comps[0].BatchStart, joinAt)
	}
	if comps[0].End >= comps[1].End {
		t.Fatal("joiner did not leave the batch before the long sequence finished")
	}
	if comps[0].Tokens != 8 || comps[1].Tokens != 32 {
		t.Fatalf("tokens = [%d %d], want [8 32]", comps[0].Tokens, comps[1].Tokens)
	}
	// Serial service would cost (1+32)+(1+8) = 42 boundaries; continuous
	// batching shares the decode steps.
	if st := rep.Stats(); st.CompletedBatches > 36 {
		t.Fatalf("token steps = %d, want continuous batching to share them (<= 36)", st.CompletedBatches)
	}
}

// TestLLMAdmissionAtExactCapacity pins the admission boundary: a budget of
// exactly the sequence's full-lifetime footprint admits and completes it
// (the final token needs no KV growth, so the peak hold is footprint-1),
// while one byte less rejects it outright with a cancelled completion.
func TestLLMAdmissionAtExactCapacity(t *testing.T) {
	model := llm.Small()
	kvpt := model.KVBytesPerToken()
	footprint := 16 * kvpt // prompt 8 + output 8

	n := testNode(t, 1)
	fits := llmReplica(n, LLMSpec{Model: model, MaxSeqs: 4, KVBudget: footprint})
	tight := llmReplica(n, LLMSpec{Model: model, MaxSeqs: 4, KVBudget: footprint - 1})
	if !fits.SubmitSeq(0, 1, 8, 8, false) {
		t.Fatal("exact-fit seq refused")
	}
	if !tight.SubmitSeq(0, 2, 8, 8, false) {
		t.Fatal("submit to tight replica refused outright (should drop at admission)")
	}
	n.RunUntil(sim.Second)

	comps := fits.TakeCompletions(nil)
	if len(comps) != 1 || comps[0].Cancelled || comps[0].Tokens != 8 {
		t.Fatalf("exact-fit completion = %+v", comps)
	}
	if st := fits.Stats(); st.Dropped != 0 || st.Preempted != 0 {
		t.Fatalf("exact-fit stats = %+v", st)
	}

	comps = tight.TakeCompletions(nil)
	if len(comps) != 1 || !comps[0].Cancelled || comps[0].Tokens != 0 {
		t.Fatalf("one-byte-under completion = %+v", comps)
	}
	if st := tight.Stats(); st.Dropped != 1 || st.CompletedRequests != 0 {
		t.Fatalf("one-byte-under stats = %+v", st)
	}
	if fits.KVInUse() != 0 || tight.KVInUse() != 0 {
		t.Fatalf("KV left reserved: fits %g tight %g", fits.KVInUse(), tight.KVInUse())
	}
}

// TestLLMOversizeSequenceDropped: a request whose prompt+output exceeds the
// model context window can never be served and is rejected at admission.
func TestLLMOversizeSequenceDropped(t *testing.T) {
	n := testNode(t, 1)
	rep := llmReplica(n, LLMSpec{Model: llm.Small(), MaxSeqs: 4})
	if !rep.SubmitSeq(0, 1, 2000, 100, false) { // 2100 > MaxContext 2048
		t.Fatal("submit refused outright")
	}
	n.RunUntil(sim.Second)
	comps := rep.TakeCompletions(nil)
	if len(comps) != 1 || !comps[0].Cancelled {
		t.Fatalf("completions = %+v, want one cancelled", comps)
	}
	if st := rep.Stats(); st.Dropped != 1 {
		t.Fatalf("stats = %+v, want Dropped 1", st)
	}
}

// TestLLMPreemptResumeOrdering pins the eviction and resume discipline.
// Three 8-prompt/8-output sequences under a 24-token budget fill it
// exactly once all three are resident (3x8 context tokens). The KV
// arithmetic then forces exactly five preemptions:
//
//   - first growth boundary: the budget is full, so the youngest resident
//     (seq 3, still unprefilled) is evicted to let seq 1 grow;
//   - when the budget refills, the youngest grower self-preempts — its own
//     token is discarded, but freeing its pages makes its context fit
//     again and it re-admits at the same boundary (a one-token bounce);
//   - one boundary later the oldest sequence needs the page back and
//     evicts that same victim for real; it lands in the resume queue IN
//     FRONT of earlier victims (push-front keeps resumes oldest-first);
//   - seq 1 completes alone, seqs 2 and 3 re-admit and re-prefill their
//     committed context, and the identical bounce-then-evict pattern
//     repeats against seq 3 before both finish.
//
// Every sequence completes uncancelled, in submission order, with its full
// output — preemption costs re-computation, never correctness.
func TestLLMPreemptResumeOrdering(t *testing.T) {
	model := llm.Small()
	kvpt := model.KVBytesPerToken()
	n := testNode(t, 1)
	rep := llmReplica(n, LLMSpec{Model: model, MaxSeqs: 8, KVBudget: 24 * kvpt})
	for id := uint64(1); id <= 3; id++ {
		if !rep.SubmitSeq(0, id, 8, 8, false) {
			t.Fatalf("seq %d refused", id)
		}
	}
	n.RunUntil(sim.Second)

	comps := rep.TakeCompletions(nil)
	if len(comps) != 3 {
		t.Fatalf("completions = %d, want 3", len(comps))
	}
	for i, c := range comps {
		if c.ID != uint64(i+1) {
			t.Fatalf("completion %d is seq %d, want submission order 1,2,3", i, c.ID)
		}
		if c.Cancelled || c.Tokens != 8 {
			t.Fatalf("seq %d: cancelled=%v tokens=%d, want full uncancelled output", c.ID, c.Cancelled, c.Tokens)
		}
	}
	st := rep.Stats()
	if st.Preempted != 5 {
		t.Fatalf("preemptions = %d, want exactly 5 (see trace derivation)", st.Preempted)
	}
	if st.CompletedRequests != 3 || st.Dropped != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if rep.KVInUse() != 0 {
		t.Fatalf("KV in use = %g, want 0", rep.KVInUse())
	}
}

// TestLLMDecodeJoinRacesDrain: a sequence that joins just before Drain is
// queued work and completes; one submitted after Drain is refused. The
// replica only reports Drained once the resident batch has emptied.
func TestLLMDecodeJoinRacesDrain(t *testing.T) {
	n := testNode(t, 1)
	rep := llmReplica(n, LLMSpec{Model: llm.Small(), MaxSeqs: 8})
	if !rep.SubmitSeq(0, 1, 8, 64, false) {
		t.Fatal("long seq refused")
	}
	n.RunUntil(2 * sim.Millisecond) // mid-decode, between token boundaries
	if !rep.SubmitSeq(n.Now(), 2, 8, 8, false) {
		t.Fatal("join before Drain refused")
	}
	rep.Drain()
	if rep.SubmitSeq(n.Now(), 3, 8, 8, false) {
		t.Fatal("join after Drain accepted")
	}
	if rep.Drained() {
		t.Fatal("Drained with a resident batch still decoding")
	}
	n.RunUntil(sim.Second)
	if !rep.Drained() {
		t.Fatal("not Drained after the batch emptied")
	}
	comps := rep.TakeCompletions(nil)
	if len(comps) != 2 {
		t.Fatalf("completions = %d, want 2", len(comps))
	}
	if comps[0].ID != 2 || comps[1].ID != 1 {
		t.Fatalf("completion order = [%d %d], want short joiner first", comps[0].ID, comps[1].ID)
	}
	if st := rep.Stats(); st.CompletedRequests != 2 || st.Dropped != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestLLMKillAtTokenBoundary: Kill mid-step discards the resident batch,
// frees every KV page immediately, and suppresses all completions — the
// pending step event still fires but commits nothing.
func TestLLMKillAtTokenBoundary(t *testing.T) {
	n := testNode(t, 1)
	rep := llmReplica(n, LLMSpec{Model: llm.Small(), MaxSeqs: 8})
	rep.SubmitSeq(0, 1, 8, 64, false)
	rep.SubmitSeq(0, 2, 8, 64, false)
	n.RunUntil(2 * sim.Millisecond)
	if rep.KVInUse() == 0 {
		t.Fatal("no KV resident before Kill — scenario lost its pressure")
	}
	if lost := rep.Kill(); lost != 2 {
		t.Fatalf("Kill lost %d, want 2", lost)
	}
	if rep.KVInUse() != 0 {
		t.Fatalf("KV in use after Kill = %g, want 0", rep.KVInUse())
	}
	n.RunUntil(sim.Second)
	if comps := rep.TakeCompletions(nil); len(comps) != 0 {
		t.Fatalf("killed replica emitted %d completions", len(comps))
	}
	st := rep.Stats()
	if st.Dropped != 2 || st.CompletedRequests != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if !rep.Drained() {
		t.Fatal("killed replica not Drained")
	}
}

// TestLLMPrefillDecodeRoles covers the disaggregated halves in isolation:
// a prefill replica completes after the prompt pass with zero generated
// tokens and releases its KV hold (the pages hand off), and a decode
// replica serves a prefilled sequence to its full output.
func TestLLMPrefillDecodeRoles(t *testing.T) {
	n := testNode(t, 1)
	pre := llmReplica(n, LLMSpec{
		Model: llm.Small(), MaxSeqs: 4, Role: LLMRolePrefill,
		PrefillCUs: 42, DecodeCUs: 8,
	})
	dec := llmReplica(n, LLMSpec{
		Model: llm.Small(), MaxSeqs: 4, Role: LLMRoleDecode,
		PrefillCUs: 42, DecodeCUs: 8,
	})
	if !pre.SubmitSeq(0, 1, 128, 32, false) {
		t.Fatal("prefill submit refused")
	}
	if !dec.SubmitSeq(0, 2, 128, 32, true) {
		t.Fatal("decode submit refused")
	}
	n.RunUntil(sim.Second)

	comps := pre.TakeCompletions(nil)
	if len(comps) != 1 {
		t.Fatalf("prefill completions = %d, want 1", len(comps))
	}
	c := comps[0]
	if c.Cancelled || c.Tokens != 0 || c.FirstToken != 0 {
		t.Fatalf("prefill completion = %+v, want zero tokens", c)
	}
	if c.KernelEnd != c.End || c.KernelStart < c.BatchStart {
		t.Fatalf("prefill stamps out of order: %+v", c)
	}
	if pre.KVInUse() != 0 {
		t.Fatalf("prefill replica still holds %g KV bytes after handoff", pre.KVInUse())
	}

	comps = dec.TakeCompletions(nil)
	if len(comps) != 1 {
		t.Fatalf("decode completions = %d, want 1", len(comps))
	}
	c = comps[0]
	if c.Cancelled || c.Tokens != 32 || c.Prompt != 128 {
		t.Fatalf("decode completion = %+v, want 32 tokens", c)
	}
	if c.FirstToken <= c.KernelStart || c.FirstToken >= c.End {
		t.Fatalf("decode first token %v not inside (%v, %v)", c.FirstToken, c.KernelStart, c.End)
	}
	if dec.KVInUse() != 0 {
		t.Fatalf("decode replica still holds %g KV bytes", dec.KVInUse())
	}
}

// TestLLMTwinRunDeterminism: two identically-seeded runs with staggered
// submissions, KV pressure, and jittered kernels produce byte-identical
// completion streams.
func TestLLMTwinRunDeterminism(t *testing.T) {
	model := llm.Small()
	run := func() []Completion {
		n := NewNode(NodeConfig{GPUs: 1, Seed: 7})
		rep := llmReplica(n, LLMSpec{Model: model, MaxSeqs: 4, KVBudget: 48 * model.KVBytesPerToken()})
		id := uint64(0)
		for at := sim.Time(0); at < 20*sim.Millisecond; at += 3 * sim.Millisecond {
			id++
			n.PostSubmitSeq(at, at, rep, id, 16+int(id%5)*8, 8+int(id%3)*8, false)
		}
		n.AdvanceTo(sim.Second)
		return rep.TakeCompletions(nil)
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("no completions")
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("twin runs diverged:\na: %+v\nb: %+v", a, b)
	}
}

// TestLLMTokenLoopZeroAlloc: after warmup the continuous-batching token
// loop — step scheduling, kernel assembly, KV growth, boundary commit —
// allocates nothing per step. This is the satellite guarantee behind the
// tightened CI serve-alloc guard.
func TestLLMTokenLoopZeroAlloc(t *testing.T) {
	n := testNode(t, 1)
	rep := llmReplica(n, LLMSpec{Model: llm.Small(), MaxSeqs: 8})
	next := uint64(0)
	for i := 0; i < 8; i++ {
		next++
		rep.SubmitSeq(0, next, 64, 1024, false)
	}
	// Warm the engine heap, descriptor buffers, and ledgers to their
	// high-water marks.
	now := 50 * sim.Millisecond
	n.RunUntil(now)
	var buf []Completion
	allocs := testing.AllocsPerRun(100, func() {
		now += sim.Millisecond
		n.RunUntil(now)
		buf = rep.TakeCompletions(buf[:0])
		for range buf {
			next++
			rep.SubmitSeq(now, next, 64, 1024, false)
		}
	})
	if allocs > 0 {
		t.Errorf("steady-state token loop allocated %.1f times per ms, want 0", allocs)
	}
}
