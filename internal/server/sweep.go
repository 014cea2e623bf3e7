// Sweep API: /v1/sweeps exposes the internal/sweep design-space
// exploration subsystem as the second kind of job (job.go), so a sweep
// gets the campaigns' queue, worker pool, cancellation, SSE progress and
// run manifest; this file holds only its spec, status and execute body,
// with cells tallied by phase and source in /metrics. On a coordinator
// (Config.Fleet set) each grid point's campaign is scattered through the
// same consistent-hash dispatch as ordinary campaigns, with the point's
// machine configuration forwarded in the chunk specs, so a sharded sweep
// produces exactly the cells — and exactly the store records — a
// single-node sweep would.
package server

import (
	"context"
	"fmt"
	"io"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/profile"
	"repro/internal/sweep"
)

// SweepSpec is the client's description of one design-space sweep.
type SweepSpec struct {
	// Suite, Mini, Size and Pairs select the workloads exactly as the
	// corresponding CampaignSpec fields do.
	Suite string   `json:"suite"`
	Mini  string   `json:"mini,omitempty"`
	Size  string   `json:"size"`
	Pairs []string `json:"pairs,omitempty"`
	// Instructions and MultiplexSlots override the server's per-pair
	// window and multiplexing when positive, as in CampaignSpec.
	Instructions   uint64 `json:"instructions,omitempty"`
	MultiplexSlots int    `json:"multiplex_slots,omitempty"`
	// Machine overrides the base configuration the axes are applied to
	// (default: the server's base machine). Decoding validates it.
	Machine *machine.Config `json:"machine,omitempty"`
	// Axes are the swept dimensions (machine.AxisParams names the
	// parameters); the grid is their cartesian product.
	Axes []sweep.Axis `json:"axes"`
	// Screen is the fidelity tier every cell is first run at: "exact",
	// "sampled" or "analytic" (the default).
	Screen string `json:"screen,omitempty"`
	// Escalate is the tier Pareto-frontier points are re-run at:
	// "exact", "sampled" (the default), "analytic", or "off" to disable
	// escalation.
	Escalate string `json:"escalate,omitempty"`
	// Sampling sets the sampling knob used by whichever phase runs at
	// the sampled tier ("default" or "PERIOD/DETAIL/WARMUP"); empty
	// inherits the server's base options.
	Sampling string `json:"sampling,omitempty"`
	// Metrics are the swept metrics (sweep.MetricNames); empty means
	// ipc and l3_miss_pct.
	Metrics []string `json:"metrics,omitempty"`
	// SSEWeight biases the knee pick toward metric quality over
	// configuration cost (default 5, as in internal/subset).
	SSEWeight float64 `json:"sse_weight,omitempty"`
}

// SweepStatus is the JSON form of one sweep's state.
type SweepStatus struct {
	ID     string    `json:"id"`
	Spec   SweepSpec `json:"spec"`
	Status string    `json:"status"`
	// Pairs and Points size the grid: Pairs x Points is the screen-phase
	// cell count.
	Pairs    int            `json:"pairs"`
	Points   int            `json:"points"`
	Created  time.Time      `json:"created"`
	Started  *time.Time     `json:"started,omitempty"`
	Finished *time.Time     `json:"finished,omitempty"`
	Progress sweep.Progress `json:"progress"`
	Error    string         `json:"error,omitempty"`
	// Result is the grid, frontier and knee reports, present once done.
	Result *sweep.Result `json:"result,omitempty"`
	// ManifestDigest ties the sweep to its JSONL run manifest
	// (GET /v1/sweeps/{id}/manifest), set once the sweep ran.
	ManifestDigest string `json:"manifest_digest,omitempty"`
}

// sweepWork is a sweep job's kind-specific state.
type sweepWork struct {
	spec   SweepSpec
	sspec  sweep.Spec // resolved engine spec
	points int

	progress sweep.Progress
	result   *sweep.Result
}

// newSweepWork decodes a sweep spec and resolves it into the engine
// spec, rejecting anything the sweep cannot honor with a field-tagged
// error (the submit-time 400 path).
func newSweepWork(s *Server, body io.Reader) (jobWork, error) {
	w := &sweepWork{}
	spec := &w.spec
	if err := decodeSpec(body, spec); err != nil {
		return nil, err
	}
	cspec := CampaignSpec{Suite: spec.Suite, Mini: spec.Mini, Size: spec.Size, Pairs: spec.Pairs}
	pairs, err := cspec.resolve()
	if err != nil {
		return nil, err
	}

	screen := machine.FidelityAnalytic
	if spec.Screen != "" {
		if screen, err = machine.ParseFidelity(spec.Screen); err != nil {
			return nil, badField("screen", "%v", err)
		}
	}
	escalate, escalateOff := machine.FidelitySampled, false
	switch strings.ToLower(spec.Escalate) {
	case "":
	case "off", "none":
		escalateOff = true
	default:
		if escalate, err = machine.ParseFidelity(spec.Escalate); err != nil {
			return nil, badField("escalate", "%v", err)
		}
	}
	if _, err := machine.ParseSampling(spec.Sampling); err != nil {
		return nil, badField("sampling", "%v", err)
	}

	base := s.cfg.Characterize.Machine
	if spec.Machine != nil {
		base = *spec.Machine
	}
	if base.ClockHz == 0 {
		base = machine.HaswellScaled()
	}
	// Expand once now: a bad axis parameter, an invalid grid point or an
	// oversized grid rejects the submission instead of failing the job.
	points, err := sweep.Expand(base, spec.Axes)
	if err != nil {
		return nil, badField("axes", "%v", err)
	}

	w.points = len(points)
	w.sspec = sweep.Spec{
		Base: base, Axes: spec.Axes, Pairs: pairs,
		Screen: screen, Escalate: escalate, EscalateOff: escalateOff,
		Metrics: spec.Metrics, SSEWeight: spec.SSEWeight,
	}
	if err := w.sspec.Validate(); err != nil {
		return nil, err
	}
	return w, nil
}

func (w *sweepWork) status(j *job, full bool) any {
	st := SweepStatus{
		ID: j.id, Spec: w.spec, Status: j.status,
		Pairs: len(w.sspec.Pairs), Points: w.points,
		Created: j.created, Progress: w.progress, Error: j.errMsg,
		ManifestDigest: j.manifestDigest,
	}
	st.Started, st.Finished = j.stamps()
	if st.Progress.CellsTotal == 0 {
		st.Progress.CellsTotal = w.points * len(w.sspec.Pairs)
	}
	if st.Progress.PointsTotal == 0 {
		st.Progress.PointsTotal = w.points
	}
	if full && j.status == StatusDone {
		st.Result = w.result
	}
	return st
}

func (w *sweepWork) run(s *Server, j *job, tr *obs.Trace) error {
	opt := s.options(w.spec.Instructions, w.spec.MultiplexSlots)
	if w.spec.Sampling != "" {
		// Parse errors were rejected at submit time.
		opt.Sampling, _ = machine.ParseSampling(w.spec.Sampling)
	}
	opt.Trace = tr

	// On a coordinator every grid point scatters through the fleet
	// dispatch; each point's sub-campaigns get their own id namespace so
	// chunk names stay unique across the sweep.
	var runner sweep.Runner
	if len(s.cfg.Fleet) > 0 {
		var n atomic.Int64
		suite, size := w.spec.Suite, w.spec.Size
		runner = func(ctx context.Context, pairs []profile.Pair, o core.Options) ([]core.Characteristics, error) {
			id := fmt.Sprintf("%s/g%d", j.id, n.Add(1))
			return s.runFleet(ctx, id, CampaignSpec{Suite: suite, Size: size}, pairs, o)
		}
	}

	res, err := sweep.Run(j.ctx, w.sspec, sweep.Options{
		Base:     opt,
		Run:      runner,
		Progress: func(p sweep.Progress) { j.publish(func() { w.progress = p }, p) },
	})

	// Tally cells by phase and satisfying source from the final progress
	// snapshot, so partially-run (failed/cancelled) sweeps still report
	// the cells they completed.
	j.mu.Lock()
	p := w.progress
	if err == nil {
		w.result = res
	}
	j.mu.Unlock()
	s.cells["screen"].add(p.Screen.Simulated, p.Screen.Memory, p.Screen.Store, p.Screen.Remote)
	s.cells["escalate"].add(p.Escalate.Simulated, p.Escalate.Memory, p.Escalate.Store, p.Escalate.Remote)
	return err
}
