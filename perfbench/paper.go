package main

import (
	"context"
	"fmt"
	"math"
	"strings"

	speckit "repro"
	"repro/internal/core"
	"repro/internal/profile"
)

// paper-cold regenerates every exhibit of the paper from nothing: the
// 194 CPU2017 pairs at test/train/ref plus the 29 CPU2006 ref pairs at the
// default window, with a fresh memory cache over a fresh write-through
// store, then Subset for rate and speed and every Table*/Fig*. The suite
// is fixed by the paper; the seed sets the order pairs are submitted in.
func init() {
	register(workload{name: "paper-cold", iterate: true, setupReps: coldSetupReps, prepare: preparePaper})
}

type paperState struct {
	seed   uint64
	n      uint64
	suites [][]profile.Pair // CPU2017 test, train, ref; CPU2006 ref
	tiers  *tiers
}

func preparePaper(_ context.Context, e *env, _ *tracer) (state, error) {
	st := &paperState{seed: e.seed, n: 300000}
	if e.smoke {
		st.n = 4000
	}
	for _, size := range []profile.InputSize{profile.Test, profile.Train, profile.Ref} {
		st.suites = append(st.suites, profile.ExpandSuite(profile.CPU2017(), size))
	}
	st.suites = append(st.suites, profile.ExpandSuite(profile.CPU2006(), profile.Ref))
	t, err := newTiers(e.dir)
	if err != nil {
		return nil, err
	}
	st.tiers = t
	return st, nil
}

func (s *paperState) close() error { return s.tiers.close() }

func (s *paperState) run(ctx context.Context, tr *tracer) (outcome, error) {
	if tr != nil {
		tr.startPass()
	}
	c := newCampaigner(tr, s.tiers)
	root := tr.begin("paper-cold", at{req: fmt.Sprintf("paper-cold/%d", s.seed)})
	in := root.under()
	opt := core.Options{Instructions: s.n, Parallelism: procs}
	r := rng(s.seed, 1)
	var results [][]core.Characteristics
	cells := map[string]core.Characteristics{}
	for i, pairs := range s.suites {
		// Submit in seeded order; analyse in the paper's order.
		perm := r.Perm(len(pairs))
		order := make([]profile.Pair, len(pairs))
		for j, k := range perm {
			order[j] = pairs[k]
		}
		got, err := c.characterize(ctx, order, opt, in)
		if err != nil {
			return outcome{}, err
		}
		chars := make([]core.Characteristics, len(pairs))
		for j, k := range perm {
			chars[k] = got[j]
		}
		results = append(results, chars)
		prefix := "cpu2017/"
		if i == 3 {
			prefix = "cpu2006/"
		}
		addCells(cells, prefix, chars)
	}
	all17 := append(append(append([]core.Characteristics(nil), results[0]...), results[1]...), results[2]...)
	ref17, ref06 := results[2], results[3]

	sub := tr.begin("subset", in)
	var rate, speed []core.Characteristics
	for _, m := range []speckit.MiniSuite{speckit.RateInt, speckit.RateFP} {
		rate = append(rate, speckit.BySuite(ref17, m)...)
	}
	for _, m := range []speckit.MiniSuite{speckit.SpeedInt, speckit.SpeedFP} {
		speed = append(speed, speckit.BySuite(ref17, m)...)
	}
	rateRes, err := speckit.Subset(rate, speckit.SubsetOptions{})
	if err != nil {
		return outcome{}, err
	}
	speedRes, err := speckit.Subset(speed, speckit.SubsetOptions{})
	if err != nil {
		return outcome{}, err
	}
	sub.end()

	rep := tr.begin("report", in)
	if err := renderExhibits(all17, ref17, ref06, rateRes, speedRes); err != nil {
		return outcome{}, err
	}
	errPct := paperErrPct(ref17, ref06, rateRes, speedRes)
	rep.end()
	root.end()

	digest, err := cellDigest(cells)
	if err != nil {
		return outcome{}, err
	}
	out := outcome{
		results: len(cells), attempted: len(cells), digest: digest,
		extra: map[string]float64{"paper_err_pct": errPct},
	}
	if tr != nil {
		total, _ := tr.passTimes()
		tasks := tr.taskTime()
		set := map[string]float64{"sched.wait_s": c.workerTime - tasks}
		c.traceCounts(set)
		out.layers = tr.layers(tasks+total["subset"]+total["report"], set)
	}
	return out, nil
}

// renderExhibits builds and renders every table and figure of the paper,
// as cmd/specreport does, into memory.
func renderExhibits(all17, ref17, ref06 []core.Characteristics, rateRes, speedRes *speckit.SubsetResult) error {
	var b strings.Builder
	tables := []*speckit.Table{
		speckit.TableII(all17),
		speckit.TableIII(ref17, ref06), speckit.TableIV(ref17, ref06),
		speckit.TableV(ref17, ref06), speckit.TableVI(ref17, ref06),
		speckit.TableVII(ref17, ref06), speckit.TableIX(ref17),
		speckit.TableX(rateRes, speedRes),
	}
	for _, t := range tables {
		if err := t.WriteText(&b); err != nil {
			return err
		}
		if err := t.WriteCSV(&b); err != nil {
			return err
		}
	}
	for _, fig := range []func([]core.Characteristics) []*speckit.FigureSeries{
		speckit.Fig1, speckit.Fig2, speckit.Fig3, speckit.Fig4, speckit.Fig5, speckit.Fig6, speckit.FigCPIStack,
	} {
		for _, p := range fig(ref17) {
			b.WriteString(p.SVG())
		}
	}
	pc12, pc34 := speckit.Fig7(rateRes)
	for _, svg := range []string{
		pc12, pc34, speckit.Fig8(rateRes),
		speckit.Fig9("Fig 9a: rate dendrogram", rateRes), speckit.Fig9("Fig 9b: speed dendrogram", speedRes),
		speckit.Fig10("Fig 10a: rate Pareto", rateRes), speckit.Fig10("Fig 10b: speed Pareto", speedRes),
	} {
		b.WriteString(svg)
	}
	if b.Len() == 0 {
		return fmt.Errorf("no exhibits rendered")
	}
	return nil
}

// paperErrPct is the mean absolute relative error, in percent, of the
// specreport paper-vs-measured summary rows against the paper's values.
func paperErrPct(ref17, ref06 []core.Characteristics, rateRes, speedRes *speckit.SubsetResult) float64 {
	mean := func(chars []core.Characteristics, pick func(*core.Characteristics) float64) float64 {
		return speckit.Aggregate(chars, pick).Mean
	}
	rows := []struct{ paper, measured float64 }{
		{1.457, mean(ref17, func(c *core.Characteristics) float64 { return c.IPC })},
		{1.784, mean(ref06, func(c *core.Characteristics) float64 { return c.IPC })},
		{33.993, mean(ref17, func(c *core.Characteristics) float64 { return c.MemPct() })},
		{2.198, mean(ref17, func(c *core.Characteristics) float64 { return c.MispredictPct })},
		{32.515, mean(ref17, func(c *core.Characteristics) float64 { return c.L2MissPct })},
		{0.787, speckit.ConditionalShare(ref17)},
		{12, float64(rateRes.ChosenK)},
		{10, float64(speedRes.ChosenK)},
		{57.116, 100 * rateRes.Saving()},
		{62.052, 100 * speedRes.Saving()},
		{76.321, 100 * rateRes.PCA.VarianceExplained(4)},
		{3.830, mean(ref17, func(c *core.Characteristics) float64 { return c.InstrBillions }) /
			mean(ref06, func(c *core.Characteristics) float64 { return c.InstrBillions })},
	}
	sum := 0.0
	for _, r := range rows {
		sum += math.Abs(r.measured-r.paper) / math.Abs(r.paper)
	}
	return 100 * sum / float64(len(rows))
}
