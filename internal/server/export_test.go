package server

import (
	"repro/internal/core"
	"repro/internal/profile"
)

// SetRunCampaign swaps the worker's campaign entry point and returns a
// restore func. The e2e suite (package server_test) uses it to observe
// queueing and cancellation without paying for simulations.
// The stub's results are served as their codec encodings, as records
// from the cache would be.
func SetRunCampaign(fn func([]profile.Pair, core.Options) ([]core.Characteristics, error)) (restore func()) {
	old := runCampaign
	runCampaign = func(pairs []profile.Pair, opt core.Options) ([][]byte, error) {
		results, err := fn(pairs, opt)
		if err != nil {
			return nil, err
		}
		records := make([][]byte, len(results))
		for i, c := range results {
			if records[i], err = (core.CharacteristicsCodec{}).Encode(c); err != nil {
				return nil, err
			}
		}
		return records, nil
	}
	return func() { runCampaign = old }
}

// ResolveSpec exposes spec resolution so the e2e suite can compare
// served results against a direct library run over the same pairs.
func ResolveSpec(spec CampaignSpec) ([]profile.Pair, error) { return spec.resolve() }
