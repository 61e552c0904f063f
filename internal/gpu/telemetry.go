package gpu

import (
	"fmt"

	tele "krisp/internal/telemetry"
)

// Telemetry holds the device's metric handles, resolved once at stack
// construction so the launch/complete path never touches the registry. All
// handles are nil-safe; a nil *Telemetry on the device disables everything.
type Telemetry struct {
	// BusyCUs is the number of CUs with at least one kernel assigned.
	BusyCUs *tele.Gauge
	// HealthyCUs is the number of CUs still alive (health bitmap popcount).
	HealthyCUs *tele.Gauge
	// RunningKernels is the number of kernels currently executing.
	RunningKernels *tele.Gauge
	// Launches counts kernel executions started on the device.
	Launches *tele.Counter
	// CUKills counts CUs permanently removed from service.
	CUKills *tele.Counter

	// tracer, when non-nil, receives a per-SE occupancy counter event on
	// every occupancy change — the Fig. 4-style timeline in Perfetto.
	tracer  *tele.Tracer
	pid     int
	ctrName string
	seKeys  []string  // "se0".."seN", built once
	seVals  []float64 // scratch reused across counter events
}

// NewTelemetry resolves the device metric handles for GPU index gpu against
// the hub. Returns nil (telemetry fully disabled) when the hub carries no
// registry. The gpu index becomes both the metric label and the trace pid.
func NewTelemetry(hub *tele.Hub, topo Topology, gpu int) *Telemetry {
	reg := hub.Registry()
	if reg == nil {
		return nil
	}
	lbl := fmt.Sprintf(`{gpu="%d"}`, gpu)
	t := &Telemetry{
		BusyCUs:        reg.Gauge("krisp_gpu_busy_cus"+lbl, "CUs with at least one kernel assigned"),
		HealthyCUs:     reg.Gauge("krisp_gpu_healthy_cus"+lbl, "CUs still in service (health bitmap)"),
		RunningKernels: reg.Gauge("krisp_gpu_running_kernels"+lbl, "kernels currently executing"),
		Launches:       reg.Counter("krisp_gpu_launches_total"+lbl, "kernel executions started"),
		CUKills:        reg.Counter("krisp_gpu_cu_kills_total"+lbl, "CUs permanently removed from service"),
		tracer:         hub.Trace(),
		pid:            gpu,
		ctrName:        fmt.Sprintf("gpu%d_se_busy_cus", gpu),
	}
	t.HealthyCUs.Set(int64(topo.TotalCUs()))
	if t.tracer != nil {
		t.tracer.NameProcess(gpu, fmt.Sprintf("gpu%d", gpu))
		t.seKeys = make([]string, topo.NumSEs)
		t.seVals = make([]float64, topo.NumSEs)
		for se := range t.seKeys {
			t.seKeys[se] = fmt.Sprintf("se%d", se)
		}
	}
	return t
}

// SetTelemetry installs (or removes, with nil) the device's telemetry.
func (d *Device) SetTelemetry(t *Telemetry) { d.tel = t }

// publishOccupancy pushes the busy-CU gauge and, when tracing, the per-SE
// occupancy timeline. Called after every chargeExec/releaseExec; with a nil
// tracer the cost is one nil check and one atomic store.
func (d *Device) publishOccupancy() {
	t := d.tel
	if t == nil {
		return
	}
	t.BusyCUs.Set(int64(d.occ.Busy()))
	if t.tracer == nil {
		return
	}
	occupied := d.occ.Occupied()
	for se := range t.seVals {
		t.seVals[se] = float64(occupied.CountInSE(d.Spec.Topo, se))
	}
	t.tracer.CounterEvent(t.ctrName, t.pid, d.eng.Now(), t.seKeys, t.seVals)
}
