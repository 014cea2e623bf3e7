// Command specsubset runs the paper's Section V methodology: it
// characterizes the CPU2017 rate and speed suites, performs PCA and
// hierarchical clustering over the 20 microarchitecture-independent
// characteristics, and prints the suggested representative subsets with
// their execution-time savings (Table X).
//
// Usage:
//
//	specsubset [-n instructions] [-pcs 4] [-linkage ward|single|complete|average]
//	           [-v] [-progress] [-cache-dir DIR] [-scenario S]
//	           [-j N] [-trace FILE] [-slow-pair DUR]
//
// Ctrl-C (or SIGTERM) cancels the in-flight campaign through the
// scheduler's context path rather than killing the process mid-write.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	speckit "repro"
	"repro/internal/cliflags"
	"repro/internal/cluster"
	"repro/internal/report"
)

// config collects the tool's flags; the embedded Campaign carries the
// ones shared across the speckit tools.
type config struct {
	n       uint64
	pcs     int
	linkage string
	verbose bool
	cliflags.Campaign
}

func main() {
	var cfg config
	flag.Uint64Var(&cfg.n, "n", 300000, "simulated instructions per pair")
	flag.IntVar(&cfg.pcs, "pcs", 0, "retained principal components (0 = cover 76% variance)")
	flag.StringVar(&cfg.linkage, "linkage", "ward", "clustering linkage: ward, single, complete, average")
	flag.BoolVar(&cfg.verbose, "v", false, "print per-cluster membership and the Pareto sweep")
	cfg.Campaign.Register(flag.CommandLine)
	flag.Parse()

	ctx, stop := cliflags.SignalContext()
	defer stop()
	if err := run(ctx, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "specsubset:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, cfg config) error {
	linkage, err := pickLinkage(cfg.linkage)
	if err != nil {
		return err
	}
	// The rate and speed campaigns share a result cache, so pairs common
	// to both (none today, but cheap insurance) and tool re-runs within a
	// process simulate once; with -cache-dir that reuse extends across
	// processes.
	opt, err := cfg.Campaign.Options(ctx)
	if err != nil {
		return err
	}
	opt.Instructions = cfg.n
	sopt := speckit.SubsetOptions{Components: cfg.pcs, Linkage: linkage}

	results := map[string]*speckit.SubsetResult{}
	for _, group := range []struct {
		name  string
		minis []speckit.MiniSuite
	}{
		{"rate", []speckit.MiniSuite{speckit.RateInt, speckit.RateFP}},
		{"speed", []speckit.MiniSuite{speckit.SpeedInt, speckit.SpeedFP}},
	} {
		var suite speckit.Suite
		for _, m := range group.minis {
			suite = append(suite, speckit.CPU2017().Mini(m)...)
		}
		chars, err := speckit.Characterize(suite, speckit.Ref, opt)
		if err != nil {
			return err
		}
		res, err := speckit.Subset(chars, sopt)
		if err != nil {
			return err
		}
		results[group.name] = res
		fmt.Printf("%s: %d pairs, %d PCs (%.1f%% variance), chose %d clusters\n",
			group.name, len(chars), res.Components, res.VarianceExplained*100, res.ChosenK)
		if cfg.verbose {
			printDetail(res)
		}
	}
	if err := cfg.Campaign.Finish(); err != nil {
		return err
	}

	fmt.Println()
	return speckit.TableX(results["rate"], results["speed"]).WriteText(os.Stdout)
}

func printDetail(res *speckit.SubsetResult) {
	t := report.NewTable("  Pareto sweep", "k", "SSE", "Subset time (s)")
	for _, tr := range res.Tradeoffs {
		if tr.K > res.ChosenK+5 {
			break
		}
		t.AddRowf(tr.K, tr.SSE, tr.Cost)
	}
	t.WriteText(os.Stdout)
	assign := res.Dendrogram.Cut(res.ChosenK)
	byCluster := map[int][]string{}
	for i, name := range res.PairNames {
		byCluster[assign[i]] = append(byCluster[assign[i]], name)
	}
	for _, rep := range res.Representatives {
		fmt.Printf("  cluster %d (rep %s, %.0fs): %s\n",
			rep.Cluster, rep.Name, rep.ExecSeconds,
			strings.Join(byCluster[rep.Cluster], ", "))
	}
}

func pickLinkage(name string) (cluster.Linkage, error) {
	switch strings.ToLower(name) {
	case "ward", "":
		return cluster.Ward, nil
	case "single":
		return cluster.Single, nil
	case "complete":
		return cluster.Complete, nil
	case "average":
		return cluster.Average, nil
	default:
		return cluster.Ward, fmt.Errorf("unknown linkage %q", name)
	}
}
