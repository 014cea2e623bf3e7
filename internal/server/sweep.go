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

	"repro/internal/analytic"
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

// Resolve turns the spec into the engine spec and the campaign options
// every grid point inherits, on top of base: the pairs, the screen and
// escalate tiers (default analytic and sampled; escalate "off" or
// "none" disables escalation), the sampling knob, the instruction and
// multiplex overrides and the base machine (default base.Machine, then
// the characterization machine). The grid is expanded and validated
// once, and an analytic screen's base machine is checked against what
// that tier models, so anything the sweep cannot honor is rejected here
// with a field-tagged error. specserved calls it at submit time; specsweep
// calls it to sweep in-process from the same spec it would submit.
func (spec *SweepSpec) Resolve(base core.Options) (sweep.Spec, core.Options, error) {
	cspec := CampaignSpec{Suite: spec.Suite, Mini: spec.Mini, Size: spec.Size, Pairs: spec.Pairs}
	pairs, err := cspec.resolve()
	if err != nil {
		return sweep.Spec{}, core.Options{}, err
	}
	sspec := sweep.Spec{
		Base: base.Machine, Axes: spec.Axes, Pairs: pairs,
		Screen: machine.FidelityAnalytic, Escalate: machine.FidelitySampled,
		Metrics: spec.Metrics, SSEWeight: spec.SSEWeight,
	}
	if spec.Screen != "" {
		if sspec.Screen, err = machine.ParseFidelity(spec.Screen); err != nil {
			return sweep.Spec{}, core.Options{}, badField("screen", "%v", err)
		}
	}
	switch strings.ToLower(spec.Escalate) {
	case "":
	case "off", "none":
		sspec.EscalateOff = true
	default:
		if sspec.Escalate, err = machine.ParseFidelity(spec.Escalate); err != nil {
			return sweep.Spec{}, core.Options{}, badField("escalate", "%v", err)
		}
	}
	opt := withOverrides(base, spec.Instructions, spec.MultiplexSlots)
	if spec.Sampling != "" {
		if opt.Sampling, err = machine.ParseSampling(spec.Sampling); err != nil {
			return sweep.Spec{}, core.Options{}, badField("sampling", "%v", err)
		}
	}
	if spec.Machine != nil {
		sspec.Base = *spec.Machine
	}
	if sspec.Base.ClockHz == 0 {
		sspec.Base = machine.HaswellScaled()
	}
	// Expand once now: a bad axis parameter, an invalid grid point or an
	// oversized grid rejects the spec instead of failing the run.
	if _, err := sweep.Expand(sspec.Base, spec.Axes); err != nil {
		return sweep.Spec{}, core.Options{}, badField("axes", "%v", err)
	}
	if err := sspec.Validate(); err != nil {
		return sweep.Spec{}, core.Options{}, err
	}
	if sspec.Screen == machine.FidelityAnalytic {
		if err := analytic.CheckConfig(sspec.Base); err != nil {
			return sweep.Spec{}, core.Options{}, badField("machine", "%v", err)
		}
	}
	return sspec, opt, nil
}

// sweepWork is a sweep job's kind-specific state.
type sweepWork struct {
	spec   SweepSpec
	sspec  sweep.Spec   // resolved engine spec
	opt    core.Options // resolved base options for every grid point
	points int

	progress sweep.Progress
	result   *sweep.Result
}

// newSweepWork decodes a sweep spec and resolves it, rejecting anything
// the sweep cannot honor with a field-tagged error (the submit-time 400
// path).
func newSweepWork(s *Server, body io.Reader) (jobWork, error) {
	w := &sweepWork{points: 1}
	if err := decodeSpec(body, &w.spec); err != nil {
		return nil, err
	}
	var err error
	if w.sspec, w.opt, err = w.spec.Resolve(s.cfg.Characterize); err != nil {
		return nil, err
	}
	for _, ax := range w.sspec.Axes {
		w.points *= len(ax.Values)
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
	opt := w.opt
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
			results, _, err := s.runFleet(ctx, id, CampaignSpec{Suite: suite, Size: size}, pairs, o)
			return results, err
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
	metSweepCells["screen"].add(p.Screen.Simulated, p.Screen.Memory, p.Screen.Store, p.Screen.Remote)
	metSweepCells["escalate"].add(p.Escalate.Simulated, p.Escalate.Memory, p.Escalate.Store, p.Escalate.Remote)
	return err
}
