package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"

	"repro/internal/machine"
	"repro/internal/profile"
)

// This file derives the memoization keys for the campaign result cache
// (Options.Cache). A key is a content hash of everything that determines
// a pair's Characteristics: the pair identity, its fully resolved model,
// the machine configuration, and the run options. Equal keys therefore
// guarantee bit-identical results, which is what lets cache hits stand in
// for simulations without perturbing any downstream analysis.

// campaignKeyPrefix captures the per-campaign (pair-independent) part of
// the key: machine fingerprint and run options. Computed once per
// campaign, not once per pair, because Config.Fingerprint formats the
// whole configuration. The sampling and fidelity knobs are appended only
// when they leave the exact tier, so exact-run keys are stable across
// each feature's introduction while sampled and analytic results — which
// are estimates, not bit-identical to exact ones — can never alias an
// exact entry in any cache tier, an entry of another tier, or an entry
// sampled at a different knob. The analytic tag carries a version so a
// model revision invalidates stored predictions instead of serving
// stale ones.
func campaignKeyPrefix(opt *Options) string {
	key := fmt.Sprintf("%s|n=%d|mux=%d", opt.Machine.Fingerprint(),
		opt.Instructions, opt.MultiplexSlots)
	if opt.Sampling.Enabled() {
		key += fmt.Sprintf("|sampling=%d/%d/%d",
			opt.Sampling.Period, opt.Sampling.DetailLen, opt.Sampling.WarmupLen)
	}
	if opt.Fidelity == machine.FidelityAnalytic {
		key += "|fidelity=analytic-v1"
	}
	if opt.IntraPairWorkers > 1 {
		// Parallel windowed results are stitched estimates, keyed per
		// worker count so they never alias a sequential entry and a
		// re-shard at a different K re-simulates instead of serving a
		// differently-stitched cached result. Versioned like the
		// analytic tag so a stitching revision invalidates old entries.
		key += fmt.Sprintf("|pairwindows=%d-v1", opt.IntraPairWorkers)
	}
	if opt.RateCopies > 0 {
		// Rate-mode results measure contention on the shared L3, so the
		// copy count is part of what was measured; versioned so a change
		// to the interleaving model (sharedQuantum, back-invalidation
		// accounting) invalidates stored curves instead of mixing models
		// within one sweep.
		key += fmt.Sprintf("|rate=%d-v1", opt.RateCopies)
	}
	if opt.Topology.Enabled() {
		// The canonical topology string is bijective with the value, and
		// the E-core derivation is deterministic from the base config, so
		// the string plus the machine fingerprint fully keys the
		// heterogeneous scenario.
		key += fmt.Sprintf("|topo=%s-v1", opt.Topology)
	}
	return key
}

// CampaignKeys returns each pair's result-cache content key under the
// given campaign options, in pair order — the same keys Characterize
// derives internally. specserved's coordinator uses them to scatter a
// campaign across a worker fleet by consistent hash of the pair key and
// to write gathered results into its own cache tiers: because workers
// derive identical keys from identical (pair, machine, options) inputs,
// a sharded campaign populates exactly the store entries a single-node
// run would.
func CampaignKeys(pairs []profile.Pair, opt Options) []string {
	opt = opt.withDefaults()
	return campaignKeys(pairs, &opt)
}

// campaignKeys is CampaignKeys on options that already carry their
// defaults.
func campaignKeys(pairs []profile.Pair, opt *Options) []string {
	prefix := campaignKeyPrefix(opt)
	keys := make([]string, len(pairs))
	for i := range pairs {
		keys[i] = pairKey(prefix, &pairs[i])
	}
	return keys
}

// pairKey hashes the campaign prefix together with the pair identity and
// every model parameter the simulation consumes.
func pairKey(prefix string, pair *profile.Pair) string {
	b := make([]byte, 0, len(prefix)+256)
	b = append(b, prefix...)
	sum := sha256.Sum256(appendPairKey(b, pair))
	return hex.EncodeToString(sum[:])
}

// appendPairKey appends the pair part of a content key — the pair
// identity and every model parameter the simulation consumes — to dst.
// The bytes are the ones
//
//	fmt.Sprintf("|%s|%d|%s|%v|%v|%v|%v|%v|%v|%v|%v|%v|%v|%v|%v|%v|%v|%d|%d|%d",
//		app, size, input, InstrBillions, TargetIPC, LoadPct, StorePct,
//		BranchPct, Mix, MispredictPct, L1MissPct, L2MissPct, L3MissPct,
//		RSSMiB, VSZMiB, MLP, CodeKiB, BranchSites, Threads, Seed)
//
// spells, written without fmt: every key ever stored was hashed from
// that spelling, so it must not change.
func appendPairKey(dst []byte, pair *profile.Pair) []byte {
	m := &pair.Model
	dst = append(dst, '|')
	dst = append(dst, pair.App.Name...)
	dst = append(dst, '|')
	dst = strconv.AppendInt(dst, int64(pair.Size), 10)
	dst = append(dst, '|')
	dst = append(dst, pair.Input...)
	dst = append(dst, '|')
	for _, f := range [...]float64{m.InstrBillions, m.TargetIPC, m.LoadPct, m.StorePct, m.BranchPct} {
		dst = appendFloatV(dst, f)
		dst = append(dst, '|')
	}
	// %v of a struct: its fields' %v spellings, space-separated in
	// braces.
	mix := &m.Mix
	dst = append(dst, '{')
	for i, f := range [...]float64{mix.Cond, mix.Jump, mix.Call, mix.IndirectJump, mix.Return} {
		if i > 0 {
			dst = append(dst, ' ')
		}
		dst = appendFloatV(dst, f)
	}
	dst = append(dst, "}|"...)
	for _, f := range [...]float64{m.MispredictPct, m.L1MissPct, m.L2MissPct, m.L3MissPct,
		m.RSSMiB, m.VSZMiB, m.MLP, m.CodeKiB} {
		dst = appendFloatV(dst, f)
		dst = append(dst, '|')
	}
	dst = strconv.AppendInt(dst, int64(m.BranchSites), 10)
	dst = append(dst, '|')
	dst = strconv.AppendInt(dst, int64(m.Threads), 10)
	dst = append(dst, '|')
	return strconv.AppendUint(dst, m.Seed, 10)
}

// appendFloatV appends f as fmt's %v verb spells a float64: strconv's
// shortest 'g' form ("+Inf", "-Inf" and "NaN" included).
func appendFloatV(dst []byte, f float64) []byte {
	return strconv.AppendFloat(dst, f, 'g', -1, 64)
}
