package bench

import (
	"fmt"
	"io"
	"sort"

	"krisp/internal/alloc"
	"krisp/internal/core"
	"krisp/internal/energy"
	"krisp/internal/gpu"
	"krisp/internal/hsa"
	"krisp/internal/kernels"
	"krisp/internal/metrics"
	"krisp/internal/models"
	"krisp/internal/policies"
	"krisp/internal/profile"
	"krisp/internal/server"
)

// Experiments lists every runnable experiment id.
func Experiments() []string {
	return []string{
		"fig2", "table3", "table4", "fig3", "fig4", "fig6", "fig7", "fig8",
		"fig12", "fig13a", "fig13b", "fig13c", "fig14", "fig15", "fig16",
		"ablation", "extension", "loadsweep", "scheduler",
	}
}

// Run executes one experiment by id, writing its report to w.
func (h *Harness) Run(id string, w io.Writer) error {
	switch id {
	case "fig2":
		h.Fig2(w)
	case "table3":
		h.Table3(w)
	case "table4":
		h.Table4(w)
	case "fig3":
		h.Fig3(w)
	case "fig4":
		h.Fig4(w)
	case "fig6":
		h.Fig6(w)
	case "fig7":
		h.Fig7(w)
	case "fig8":
		h.Fig8(w)
	case "fig12":
		h.Fig12(w)
	case "fig13a":
		h.Fig13a(w)
	case "fig13b":
		h.Fig13b(w)
	case "fig13c":
		h.Fig13c(w)
	case "fig14":
		h.Fig14(w)
	case "fig15":
		h.Fig15(w)
	case "fig16":
		h.Fig16(w)
	case "ablation":
		h.Ablation(w)
	case "extension":
		h.Extension(w)
	case "loadsweep":
		h.LoadSweep(w)
	case "scheduler":
		h.Scheduler(w)
	default:
		return fmt.Errorf("bench: unknown experiment %q (available: %v)", id, Experiments())
	}
	return nil
}

// Table3 reproduces Table III: per-model kernel count, profiled model
// right-size, and isolated 95% latency, alongside the paper's values.
func (h *Harness) Table3(w io.Writer) {
	title(w, "Table III: inference workloads (measured vs paper)")
	p := profile.New(profile.DefaultConfig())
	var t table
	t.addHeader("model", "kernels", "paper", "right-size", "paper", "p95 ms", "paper")
	for _, m := range models.TableIII() {
		ks := m.Kernels(models.CalibrationBatch)
		rs := p.ModelRightSize(ks)
		iso := h.runServer(m, models.CalibrationBatch, 1, policies.MPSDefault, nil)
		t.addRow(m.Name,
			fmt.Sprint(len(ks)), fmt.Sprint(m.PaperKernels),
			fmt.Sprint(rs), fmt.Sprint(m.PaperRightSize),
			fmt.Sprintf("%.0f", iso.MaxP95()/1000), fmt.Sprintf("%.0f", m.PaperP95Ms))
	}
	t.render(w)
}

// Table4 reproduces Table IV: the maximum concurrent workers (1/2/4)
// serving each model without violating the 2x-isolated-p95 SLO.
func (h *Harness) Table4(w io.Writer) {
	title(w, "Table IV: max concurrent workers without SLO violation")
	e := h.MainEval(models.CalibrationBatch)
	var t table
	header := []string{"model"}
	for _, p := range policies.All() {
		header = append(header, p.Label())
	}
	t.addHeader(header...)
	for _, name := range sortedModelNames(e) {
		row := []string{name}
		for _, p := range policies.All() {
			best := 0
			for _, wk := range WorkerCounts {
				c := e.Cell(name, p, wk)
				if c != nil && !c.Violation && wk > best {
					best = wk
				}
			}
			row = append(row, fmt.Sprint(best))
		}
		t.addRow(row...)
	}
	t.render(w)
}

// Fig3 reproduces the model CU-restriction sensitivity sweep: normalized
// throughput and isolated latency versus active CUs.
func (h *Harness) Fig3(w io.Writer) {
	title(w, "Fig 3: model sensitivity to GPU resource restriction")
	p := profile.New(profile.DefaultConfig())
	step := 4
	if h.opts.Quick {
		step = 12
	}
	var t table
	t.addHeader("model", "CUs", "norm throughput", "latency ms")
	for _, m := range models.All() {
		sweep := p.CUSweep(m.Kernels(models.CalibrationBatch))
		for _, pt := range sweep {
			if pt.CUs%step != 0 && pt.CUs != 1 {
				continue
			}
			t.addRow(m.Name, fmt.Sprint(pt.CUs),
				fmt.Sprintf("%.3f", pt.Throughput),
				fmt.Sprintf("%.1f", float64(pt.Latency)/1000))
		}
	}
	t.render(w)
}

// Fig4 reproduces the per-kernel minimum-required-CU traces for albert and
// resnext101, showing the phase behaviour within an inference pass.
func (h *Harness) Fig4(w io.Writer) {
	title(w, "Fig 4: kernel traces of minimum required CUs")
	p := profile.New(profile.DefaultConfig())
	for _, name := range []string{"albert", "resnext101"} {
		m, _ := models.ByName(name)
		ks := m.Kernels(models.CalibrationBatch)
		fmt.Fprintf(w, "\n%s (%d kernels): seq=minCU\n", name, len(ks))
		col := 0
		for i, k := range ks {
			fmt.Fprintf(w, "%4d=%-3d", i, p.KernelMinCU(k.Work))
			col++
			if col%10 == 0 {
				fmt.Fprintln(w)
			}
		}
		if col%10 != 0 {
			fmt.Fprintln(w)
		}
		// Distribution summary.
		var lo, mid, hi int
		for _, k := range ks {
			switch mc := p.KernelMinCU(k.Work); {
			case mc <= 15:
				lo++
			case mc < 30:
				mid++
			default:
				hi++
			}
		}
		fmt.Fprintf(w, "summary: %d kernels <=15 CUs, %d in 16-29, %d >=30\n", lo, mid, hi)
	}
}

// Fig6 reproduces the kernel scatter: minimum required CUs versus kernel
// size (total threads, Fig. 6a) and input size (Fig. 6b), by kernel family.
func (h *Harness) Fig6(w io.Writer) {
	title(w, "Fig 6: kernel minCU vs kernel size and input size")
	p := profile.New(profile.DefaultConfig())
	db := profile.NewDB()
	for _, m := range models.All() {
		db.Profile(p, m.Kernels(models.CalibrationBatch))
	}
	entries := db.Entries()
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].Name != entries[j].Name {
			return entries[i].Name < entries[j].Name
		}
		return entries[i].Workgroups < entries[j].Workgroups
	})

	var t table
	t.addHeader("kernel", "threads", "input KB", "minCU")
	threadLimit := gpu.MI50Spec().Topo.TotalCUs() * 2560
	overLimitTolerant := 0
	for _, e := range entries {
		threads := e.Workgroups * e.ThreadsPerWG
		t.addRow(e.Name, fmt.Sprint(threads),
			fmt.Sprintf("%.0f", e.InputBytes/1024), fmt.Sprint(e.MinCU))
		if threads > threadLimit && e.MinCU < 30 {
			overLimitTolerant++
		}
	}
	t.render(w)
	fmt.Fprintf(w, "\n%d profiled kernel variants; %d exceed the GPU's %d-thread limit yet need < 30 CUs\n",
		len(entries), overLimitTolerant, threadLimit)
	fmt.Fprintln(w, "(the paper's observation: kernel size and input size do not predict minCU)")
}

// Fig7 reproduces the allocation-policy illustration: 19 CUs across 4 SEs
// under the three distribution policies.
func (h *Harness) Fig7(w io.Writer) {
	title(w, "Fig 7: distributing 19 CUs across 4 SEs")
	topo := gpu.MI50
	for _, p := range []alloc.Policy{alloc.Distributed, alloc.Packed, alloc.Conserved} {
		mask := alloc.GenerateMask(topo, nil, alloc.Request{
			NumCUs: 19, OverlapLimit: alloc.NoOverlapLimit, Policy: p,
		})
		fmt.Fprintf(w, "%-12s %s  (%d CUs over %d SEs)\n",
			p.String(), mask.Format(topo), mask.Count(), len(mask.UsedSEs(topo)))
	}
}

// Fig8 reproduces the vector-multiply characterization: isolated latency
// and energy versus active CU count for each distribution policy,
// exhibiting the Packed spikes at 16/31/46 and the Distributed dips below
// one full SE.
func (h *Harness) Fig8(w io.Writer) {
	title(w, "Fig 8: vec_mult latency/energy vs CUs by distribution policy")
	spec := gpu.MI50Spec()
	power := energy.MI50Power()
	dev := gpu.NewDevice(newEngine(), spec, nil)
	work := kernels.VecMult(360).Work

	var t table
	t.addHeader("CUs", "distributed us", "packed us", "conserved us",
		"distributed J", "packed J", "conserved J")
	step := 1
	if h.opts.Quick {
		step = 5
	}
	for n := 1; n <= spec.Topo.TotalCUs(); n += step {
		row := []string{fmt.Sprint(n)}
		var lat [3]float64
		for i, p := range []alloc.Policy{alloc.Distributed, alloc.Packed, alloc.Conserved} {
			mask := alloc.GenerateMask(spec.Topo, nil, alloc.Request{
				NumCUs: n, OverlapLimit: alloc.NoOverlapLimit, Policy: p,
			})
			lat[i] = float64(dev.IsolatedDuration(work, mask))
			row = append(row, fmt.Sprintf("%.1f", lat[i]))
		}
		for _, l := range lat {
			row = append(row, fmt.Sprintf("%.4f", power.Power(n)*l/1e6))
		}
		t.addRow(row...)
	}
	t.render(w)
}

// Fig12 reproduces the §V-B emulation overhead accounting: the baseline
// latency with and without emulated kernel-scoped partitioning, the
// derived L_over, and a validation that subtracting L_over from an
// emulated KRISP run recovers the native-support latency.
func (h *Harness) Fig12(w io.Writer) {
	title(w, "Fig 12 / §V-B: emulation overhead accounting")
	var t table
	t.addHeader("model", "kernels", "L_real ms", "L_emu ms", "L_over ms",
		"us/kernel", "native ms", "emu-adj ms", "err %")
	for _, m := range h.evalModels() {
		ks := m.Kernels(models.CalibrationBatch)
		est := core.EstimateOverhead(gpu.MI50Spec(), hsa.DefaultConfig(), ks)

		native := h.runServer(m, models.CalibrationBatch, 1, policies.KRISPI, nil)
		emulated := h.runServerEmulated(m, models.CalibrationBatch)
		nativeMean := native.Workers[0].BatchLatency.Mean() / 1000
		adj := est.Adjust(emulated.Workers[0].BatchLatency.Mean()) / 1000
		errPct := 0.0
		if nativeMean > 0 {
			errPct = (adj - nativeMean) / nativeMean * 100
		}
		t.addRow(m.Name, fmt.Sprint(len(ks)),
			fmt.Sprintf("%.1f", est.LRealBase/1000),
			fmt.Sprintf("%.1f", est.LEmuBase/1000),
			fmt.Sprintf("%.1f", est.LOver/1000),
			fmt.Sprintf("%.1f", float64(est.LOver)/float64(len(ks))),
			fmt.Sprintf("%.1f", nativeMean),
			fmt.Sprintf("%.1f", adj),
			fmt.Sprintf("%+.1f", errPct))
	}
	t.render(w)
	fmt.Fprintln(w, "L_over = L_emu_base - L_real_base; emu-adj = emulated KRISP latency - L_over (should match native)")
}

// Fig13a reproduces the main throughput result: RPS normalized to one
// isolated worker, per model x policy x 1/2/4 workers.
func (h *Harness) Fig13a(w io.Writer) {
	title(w, "Fig 13a: normalized throughput (batch 32)")
	e := h.MainEval(models.CalibrationBatch)
	h.renderMainGrid(w, e, func(c *Cell) string {
		mark := ""
		if c.Oversubscribed {
			mark = "o" // the paper's open-circle oversubscription marker
		}
		return fmt.Sprintf("%.2f%s", c.NormRPS, mark)
	})
	var t table
	t.addHeader("geomean", "1w", "2w", "4w")
	for _, p := range policies.All() {
		t.addRow(p.Label(),
			fmt.Sprintf("%.2f", e.GeomeanNormRPS(p, 1)),
			fmt.Sprintf("%.2f", e.GeomeanNormRPS(p, 2)),
			fmt.Sprintf("%.2f", e.GeomeanNormRPS(p, 4)))
	}
	fmt.Fprintln(w)
	t.render(w)
}

// Fig13b reproduces the tail-latency result: worst per-worker p95 versus
// the 2x-isolated SLO; violations are marked.
func (h *Harness) Fig13b(w io.Writer) {
	title(w, "Fig 13b: p95 tail latency in ms (SLO = 2x isolated; * = violation)")
	e := h.MainEval(models.CalibrationBatch)
	h.renderMainGrid(w, e, func(c *Cell) string {
		mark := ""
		if c.Violation {
			mark = "*"
		}
		return fmt.Sprintf("%.0f%s", c.P95Ms, mark)
	})
}

// Fig13c reproduces the energy-per-inference result, as percentage change
// versus the isolated baseline (negative = saving).
func (h *Harness) Fig13c(w io.Writer) {
	title(w, "Fig 13c: energy per inference (% change vs isolated)")
	e := h.MainEval(models.CalibrationBatch)
	h.renderMainGrid(w, e, func(c *Cell) string {
		return fmt.Sprintf("%+.0f%%", -c.EnergyReduction*100)
	})
	var t table
	t.addHeader("geomean saving", "2w", "4w")
	for _, p := range policies.All() {
		var s2, s4 []float64
		for i := range e.Cells {
			c := &e.Cells[i]
			if c.Policy != p || c.EnergyReduction <= 0 {
				continue
			}
			if c.Workers == 2 {
				s2 = append(s2, c.EnergyReduction)
			}
			if c.Workers == 4 {
				s4 = append(s4, c.EnergyReduction)
			}
		}
		t.addRow(p.Label(), fmt.Sprintf("%.0f%%", mean(s2)*100), fmt.Sprintf("%.0f%%", mean(s4)*100))
	}
	fmt.Fprintln(w)
	t.render(w)
}

// Fig14 reproduces the batch-size sensitivity: geomean normalized RPS
// across models at batch 16 and batch 8.
func (h *Harness) Fig14(w io.Writer) {
	title(w, "Fig 14: geomean normalized RPS at batch 16 and 8")
	for _, batch := range []int{16, 8} {
		e := h.MainEval(batch)
		var t table
		t.addHeader(fmt.Sprintf("batch %d", batch), "1w", "2w", "4w")
		for _, p := range policies.All() {
			t.addRow(p.Label(),
				fmt.Sprintf("%.2f", e.GeomeanNormRPS(p, 1)),
				fmt.Sprintf("%.2f", e.GeomeanNormRPS(p, 2)),
				fmt.Sprintf("%.2f", e.GeomeanNormRPS(p, 4)))
		}
		t.render(w)
		fmt.Fprintln(w)
	}
}

// Fig15 reproduces the mixed-model co-location study: every pair of
// distinct models served by two workers, reported as the distribution of
// aggregate normalized throughput per policy.
func (h *Harness) Fig15(w io.Writer) {
	title(w, "Fig 15: co-located mixed model pairs (normalized aggregate RPS distribution)")
	ms := h.evalModels()
	e := h.MainEval(models.CalibrationBatch)

	// One job per (policy, model pair), flattened so the whole study fans
	// out at once; vals are reassembled per policy in pair order below.
	kinds := []policies.Kind{policies.MPSDefault, policies.ModelRightSize, policies.KRISPO, policies.KRISPI}
	type pairJob struct {
		policy policies.Kind
		a, b   models.Model
	}
	var jobs []pairJob
	for _, p := range kinds {
		for i := 0; i < len(ms); i++ {
			for j := i + 1; j < len(ms); j++ {
				jobs = append(jobs, pairJob{p, ms[i], ms[j]})
			}
		}
	}
	vals := gridMap(h, len(jobs), func(i int) float64 {
		job := jobs[i]
		cfg := server.Config{
			Policy: job.policy,
			Workers: []server.WorkerSpec{
				{Model: job.a, Batch: models.CalibrationBatch},
				{Model: job.b, Batch: models.CalibrationBatch},
			},
			Seed: h.opts.Seed,
		}
		h.applyProfiles(&cfg)
		res := server.Run(cfg)
		// Normalize each worker's throughput to its model's isolated
		// rate, then sum — 2.0 means both ran at full isolated speed.
		isoA := e.Isolated[job.a.Name].RPS
		isoB := e.Isolated[job.b.Name].RPS
		wa := float64(res.Workers[0].Requests) / float64(res.WindowUs) * 1e6
		wb := float64(res.Workers[1].Requests) / float64(res.WindowUs) * 1e6
		return wa/isoA + wb/isoB
	})

	var t table
	t.addHeader("policy", "min", "q1", "median", "q3", "max", "pairs")
	perPolicy := len(jobs) / len(kinds)
	for k, p := range kinds {
		pv := vals[k*perPolicy : (k+1)*perPolicy]
		box := metrics.BoxOf(append([]float64(nil), pv...))
		t.addRow(p.Label(),
			fmt.Sprintf("%.2f", box.Min), fmt.Sprintf("%.2f", box.Q1),
			fmt.Sprintf("%.2f", box.Median), fmt.Sprintf("%.2f", box.Q3),
			fmt.Sprintf("%.2f", box.Max), fmt.Sprint(len(pv)))
	}
	t.render(w)
}

// Fig16 reproduces the oversubscription sensitivity: normalized RPS versus
// the allowed overlap limit, for 2 and 4 workers, geomean across a
// contention-sensitive model subset. KRISP-I is the 0 end, KRISP-O the 60
// end; the spikes at 16/31/46 come from SE-boundary interactions.
func (h *Harness) Fig16(w io.Writer) {
	title(w, "Fig 16: sensitivity to oversubscription (overlap) limit")
	names := []string{"resnet152", "squeezenet", "shufflenet", "resnext101"}
	if h.opts.Quick {
		names = names[:2]
	}
	limits := []int{0, 2, 4, 8, 12, 16, 20, 24, 28, 31, 36, 40, 46, 52, 60}
	if h.opts.Quick {
		limits = []int{0, 16, 31, 46, 60}
	}
	// The isolated baselines come from the (memoized) main evaluation;
	// compute it up front so the sweep below is purely independent jobs.
	// The quick evaluation covers fewer models than the sweep, so any
	// model it lacks gets its own isolated run.
	iso := h.MainEval(models.CalibrationBatch).Isolated
	isoRPS := make(map[string]float64, len(names))
	var missing []models.Model
	for _, name := range names {
		if r, ok := iso[name]; ok {
			isoRPS[name] = r.RPS
		} else {
			m, _ := models.ByName(name)
			missing = append(missing, m)
		}
	}
	extra := gridMap(h, len(missing), func(i int) float64 {
		return h.runServer(missing[i], models.CalibrationBatch, 1, policies.MPSDefault, nil).RPS
	})
	for i, m := range missing {
		isoRPS[m.Name] = extra[i]
	}

	// One job per (limit, model, workers) point, flattened across the
	// whole sweep; rows are reassembled per limit in the original order.
	type sweepJob struct {
		limit   int
		model   models.Model
		workers int
	}
	var jobs []sweepJob
	for _, lim := range limits {
		for _, name := range names {
			m, _ := models.ByName(name)
			for _, wk := range []int{2, 4} {
				jobs = append(jobs, sweepJob{lim, m, wk})
			}
		}
	}
	norms := gridMap(h, len(jobs), func(i int) float64 {
		j := jobs[i]
		lim := j.limit
		res := h.runServer(j.model, models.CalibrationBatch, j.workers, policies.KRISPI, &lim)
		return res.RPS / isoRPS[j.model.Name]
	})

	var t table
	t.addHeader("overlap limit", "2 workers", "4 workers")
	i := 0
	for _, lim := range limits {
		var g2, g4 []float64
		for range names {
			g2 = append(g2, norms[i])
			g4 = append(g4, norms[i+1])
			i += 2
		}
		t.addRow(fmt.Sprint(lim),
			fmt.Sprintf("%.2f", metrics.Geomean(g2)),
			fmt.Sprintf("%.2f", metrics.Geomean(g4)))
	}
	t.render(w)
}

// renderMainGrid prints one value per (model, workers x policy) cell.
func (h *Harness) renderMainGrid(w io.Writer, e *MainEval, format func(*Cell) string) {
	var t table
	header := []string{"model"}
	for _, p := range policies.All() {
		for _, wk := range WorkerCounts {
			header = append(header, fmt.Sprintf("%s/%dw", shortPolicy(p), wk))
		}
	}
	t.addHeader(header...)
	for _, name := range sortedModelNames(e) {
		row := []string{name}
		for _, p := range policies.All() {
			for _, wk := range WorkerCounts {
				c := e.Cell(name, p, wk)
				if c == nil {
					row = append(row, "-")
					continue
				}
				row = append(row, format(c))
			}
		}
		t.addRow(row...)
	}
	t.render(w)
}

func shortPolicy(p policies.Kind) string {
	switch p {
	case policies.MPSDefault:
		return "mps"
	case policies.StaticEqual:
		return "stat"
	case policies.ModelRightSize:
		return "mrs"
	case policies.KRISPO:
		return "kr-o"
	case policies.KRISPI:
		return "kr-i"
	}
	return "?"
}

func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range vals {
		s += v
	}
	return s / float64(len(vals))
}

// runServerEmulated runs one KRISP-I worker through the emulated path.
func (h *Harness) runServerEmulated(m models.Model, batch int) server.Result {
	cfg := server.Config{
		Policy:         policies.KRISPI,
		Workers:        []server.WorkerSpec{{Model: m, Batch: batch}},
		Seed:           h.opts.Seed,
		ForceEmulation: true,
	}
	h.applyProfiles(&cfg)
	return server.Run(cfg)
}
