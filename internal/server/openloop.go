package server

import (
	"math"
	"math/rand"

	"krisp/internal/metrics"
	"krisp/internal/sim"
)

// Arrival configures open-loop load: requests arrive in a Poisson process
// and are dynamically batched. The paper's evaluation drives the server
// closed-loop at maximum load; open-loop serving is the extension needed
// to study latency under fluctuating request rates (the regime the prior
// works' schedulers target).
type Arrival struct {
	// RatePerSec is the aggregate request arrival rate.
	RatePerSec float64
	// MaxBatch is the largest batch a worker will form. Zero means the
	// workers' configured batch size.
	MaxBatch int
	// Timeout bounds how long the first queued request waits for
	// companions before a partial batch is dispatched. Zero means 500us.
	Timeout sim.Duration
}

// OpenLoopResult extends Result with request-level latency.
type OpenLoopResult struct {
	Result
	// RequestLatency samples per-request latency (arrival to completion)
	// for requests completing in the measurement window.
	RequestLatency metrics.Sample
	// Offered is the configured arrival rate; Completed the measured
	// completion rate. Completed << Offered means the server saturated.
	Offered, Completed float64
	// MeanBatch is the average formed batch size.
	MeanBatch float64
}

// RunOpenLoop executes a serving experiment under Poisson arrivals. The
// Workers' Model must be identical (one service endpoint); their Batch
// field sets the maximum batch size unless arrival.MaxBatch overrides it.
func RunOpenLoop(cfg Config, arrival Arrival) OpenLoopResult {
	if len(cfg.Workers) == 0 {
		panic("server: no workers")
	}
	for _, w := range cfg.Workers[1:] {
		if w.Model.Name != cfg.Workers[0].Model.Name {
			panic("server: open-loop serving requires a single model")
		}
	}
	if arrival.RatePerSec <= 0 {
		panic("server: non-positive arrival rate")
	}
	if arrival.MaxBatch == 0 {
		arrival.MaxBatch = cfg.Workers[0].Batch
	}
	if arrival.Timeout == 0 {
		arrival.Timeout = 500
	}

	// Build the node exactly as Run does, but drive it open-loop.
	ol := &openLoop{arrival: arrival}
	cfg.openLoop = ol
	res := Run(cfg)

	out := OpenLoopResult{
		Result:  res,
		Offered: arrival.RatePerSec,
	}
	out.RequestLatency = ol.latency
	out.Completed = metrics.Throughput(ol.completedInWindow, float64(res.WindowUs))
	if ol.batches > 0 {
		out.MeanBatch = float64(ol.served) / float64(ol.batches)
	}
	return out
}

// openLoop carries the shared arrival queue between Run and the workers'
// replicas.
type openLoop struct {
	arrival Arrival
	rng     *rand.Rand
	eng     *sim.Engine

	queue   []sim.Time // arrival timestamps of waiting requests
	waiting []*Replica // idle replicas parked until work arrives

	measureStart, measureEnd sim.Time
	latency                  metrics.Sample
	completedInWindow        int
	served, batches          int
}

// start begins the Poisson arrival process.
func (ol *openLoop) start(eng *sim.Engine, seed int64) {
	ol.eng = eng
	ol.rng = rand.New(rand.NewSource(seed ^ 0x5eed))
	ol.scheduleNext()
}

func (ol *openLoop) scheduleNext() {
	// Exponential inter-arrival in microseconds.
	mean := 1e6 / ol.arrival.RatePerSec
	d := sim.Duration(ol.rng.ExpFloat64() * mean)
	ol.eng.After(d, func() {
		ol.queue = append(ol.queue, ol.eng.Now())
		ol.dispatch()
		ol.scheduleNext()
	})
}

// dispatch hands work to a parked worker when batching conditions are met.
func (ol *openLoop) dispatch() {
	if len(ol.waiting) == 0 || len(ol.queue) == 0 {
		return
	}
	// Dispatch immediately on a full batch; otherwise the oldest request's
	// timeout (armed when it arrived at an empty queue) will flush.
	if len(ol.queue) >= ol.arrival.MaxBatch || ol.eng.Now()-ol.queue[0] >= ol.arrival.Timeout {
		ol.wake()
		return
	}
	if len(ol.queue) == 1 {
		deadline := ol.queue[0] + ol.arrival.Timeout
		first := ol.queue[0]
		ol.eng.At(deadline, func() {
			// Flush if that same request is still queued.
			if len(ol.queue) > 0 && ol.queue[0] == first {
				ol.wake()
			}
		})
	}
}

// wake pops a parked replica and gives it a batch.
func (ol *openLoop) wake() {
	if len(ol.waiting) == 0 || len(ol.queue) == 0 {
		return
	}
	r := ol.waiting[0]
	ol.waiting = ol.waiting[1:]
	n := len(ol.queue)
	if n > ol.arrival.MaxBatch {
		n = ol.arrival.MaxBatch
	}
	batch := ol.queue[:n]
	ol.queue = ol.queue[n:]
	r.slot.h.submit(r, batch)
}

// park registers an idle replica and immediately retries dispatch.
func (ol *openLoop) park(r *Replica) {
	ol.waiting = append(ol.waiting, r)
	ol.dispatch()
}

// complete records a finished batch.
func (ol *openLoop) complete(batch []pending) {
	now := ol.eng.Now()
	ol.batches++
	ol.served += len(batch)
	if now > ol.measureStart && now <= ol.measureEnd {
		for _, p := range batch {
			ol.latency.Add(now - p.arrival)
			ol.completedInWindow++
		}
	}
}

// Utilization returns offered load relative to the single-worker service
// rate — a rough rho for sanity checks.
func (o *OpenLoopResult) Utilization(isolatedRPS float64, workers int) float64 {
	if isolatedRPS <= 0 || workers <= 0 {
		return math.Inf(1)
	}
	return o.Offered / (isolatedRPS * float64(workers))
}
