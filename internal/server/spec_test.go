package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"

	"repro/internal/core"
)

func TestSpecResolve(t *testing.T) {
	for _, tc := range []struct {
		spec CampaignSpec
		ok   bool
	}{
		{CampaignSpec{Suite: "cpu2017", Size: "ref"}, true},
		{CampaignSpec{Suite: "cpu2006", Mini: "all", Size: "test"}, true},
		{CampaignSpec{Suite: "", Size: ""}, true}, // defaults: cpu2017 ref
		{CampaignSpec{Suite: "cpu2017", Mini: "rate-int", Size: "train"}, true},
		{CampaignSpec{Suite: "spec95", Size: "ref"}, false},
		{CampaignSpec{Suite: "cpu2017", Mini: "nope", Size: "ref"}, false},
		{CampaignSpec{Suite: "cpu2017", Size: "huge"}, false},
	} {
		pairs, err := tc.spec.resolve()
		if tc.ok && (err != nil || len(pairs) == 0) {
			t.Errorf("resolve(%+v) = %d pairs, %v", tc.spec, len(pairs), err)
		}
		if !tc.ok && err == nil {
			t.Errorf("resolve(%+v) succeeded, want error", tc.spec)
		}
	}
}

// FuzzSubmitSpec feeds arbitrary bodies to newJob, the step both kinds'
// submit path takes from a request body to a job or a 400 error; it
// queues nothing and runs nothing. It must never panic, a rejection must
// be the decoder's error, a *core.FieldError naming a field, or
// errNoPairs, and an accepted sweep must grid at least one point and one
// pair.
func FuzzSubmitSpec(f *testing.F) {
	for _, body := range []string{
		// Valid campaigns and sweeps, as the e2e tests submit them.
		`{"suite":"cpu2017","mini":"rate-int","size":"test","instructions":12000}`,
		`{"suite":"cpu2017","mini":"rate-int","size":"test","scenario":{"rate_copies":4}}`,
		`{"suite":"cpu2017","mini":"rate-int","size":"test","rate_copies":2,"topology":"1P1E-random"}`,
		`{"suite":"cpu2017","mini":"rate-fp","size":"test","fidelity":"analytic"}`,
		`{"suite":"cpu2017","size":"test","pairs":["502.gcc_r-in3","505.mcf_r-in1"],"sampling":"default"}`,
		`{"suite":"cpu2017","mini":"rate-int","size":"test","instructions":20000,` +
			`"axes":[{"param":"l3.size","values":[1048576,2097152]},{"param":"l2.size","values":[131072,262144]}]}`,
		`{"suite":"cpu2017","mini":"rate-int","size":"test","axes":[{"param":"rate.copies","values":[1,2,4]}],` +
			`"screen":"exact","escalate":"off","metrics":["aggregate_ipc","l3_mpki"]}`,
		// Malformed rows from the validation tests.
		`{"suite":"cpu2099","size":"ref"}`,
		`{"suite":"cpu2017","size":"gigantic"}`,
		`{"suite":"cpu2017","mini":"rate-bf16","size":"ref"}`,
		`{"suite":`,
		`{"unknown_field":1}`,
		`{"suite":"cpu2017","size":"ref","workers_per_pair":-2}`,
		`{"suite":"cpu2017","size":"test","instructions":"many"}`,
		`{"suite":"cpu2017","size":"test","axes":[{"param":"l3.size","values":[1048576]}],"metrics":"ipc"}`,
		`{"suite":"cpu2017","size":"test","axes":[{"param":"l9.size","values":[1]}],"screen":"quantum"}`,
		`{"suite":"cpu2017","size":"test","axes":[{"param":"l3.size","values":[1048576]}],` +
			`"machine":{"name":"x","l1i":{},"l1d":{},"l2":{},"l3":{},"pipeline":{},"clock_hz":0}}`,
		`{"suite":"cpu2017","size":"test","pairs":["no-such-pair"],"escalate":"quantum"}`,
	} {
		f.Add(false, []byte(body))
		f.Add(true, []byte(body))
	}
	s := &Server{cfg: Config{}.withDefaults()}
	f.Fuzz(func(t *testing.T, sweep bool, body []byte) {
		k, spec := campaignKind, any(new(CampaignSpec))
		if sweep {
			k, spec = sweepKind, new(SweepSpec)
		}
		j, err := s.newJob(k, bytes.NewReader(body))
		if err != nil {
			var fe *core.FieldError
			if errors.As(err, &fe) {
				if fe.Field == "" {
					t.Fatalf("%s: FieldError without a field: %v", body, err)
				}
				return
			}
			dec := json.NewDecoder(bytes.NewReader(body))
			dec.DisallowUnknownFields()
			if derr := dec.Decode(spec); err != errNoPairs && (derr == nil || derr.Error() != err.Error()) {
				t.Fatalf("%s: rejection %v is neither the decode error (%v), a FieldError nor errNoPairs", body, err, derr)
			}
			return
		}
		defer j.cancel()
		if w, ok := j.work.(*sweepWork); ok && (w.points < 1 || len(w.sspec.Pairs) < 1) {
			t.Fatalf("%s: accepted sweep grids %d points x %d pairs", body, w.points, len(w.sspec.Pairs))
		}
	})
}
