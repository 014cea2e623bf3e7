package speckit

import (
	"io"

	"repro/internal/obs"
)

// Trace collects a campaign's span tree — campaign, per-pair, and
// simulation-stage timings plus cache-tier outcomes — for Options.Trace.
// Tracing never affects cache identity: results are bit-identical with
// and without it. One Trace can record several campaigns; render it
// with WriteManifest once they finish.
type Trace = obs.Trace

// NewTrace returns an empty run trace.
func NewTrace() *Trace { return obs.NewTrace() }

// ManifestHeader is the first line of a JSONL run manifest.
type ManifestHeader = obs.ManifestHeader

// ManifestSpan is one recorded span in a JSONL run manifest.
type ManifestSpan = obs.ManifestSpan

// ReadManifest parses and validates a JSONL run manifest.
func ReadManifest(r io.Reader) (ManifestHeader, []ManifestSpan, error) {
	return obs.ReadManifest(r)
}

// ManifestDigest returns the sha256 hex digest of a rendered manifest —
// the identity under which specserved reports campaign runs.
func ManifestDigest(manifest []byte) string { return obs.ManifestDigest(manifest) }
