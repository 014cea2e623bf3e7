package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/profile"
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
// be the decoder's error, a *core.FieldError naming a field, errNoPairs,
// or errTrailingData for a body that goes on after a decodable spec, and
// an accepted sweep must grid at least one point and one pair.
func FuzzSubmitSpec(f *testing.F) {
	for _, body := range []string{
		// Valid campaigns and sweeps, as the e2e tests submit them.
		`{"suite":"cpu2017","mini":"rate-int","size":"test","instructions":12000}`,
		`{"suite":"cpu2017","mini":"rate-int","size":"test","scenario":"rate=4"}`,
		`{"suite":"cpu2017","mini":"rate-int","size":"test","scenario":"rate=2,topo=1P1E-random"}`,
		`{"suite":"cpu2017","mini":"rate-fp","size":"test","scenario":"analytic"}`,
		`{"suite":"cpu2017","size":"test","pairs":["502.gcc_r-in3","505.mcf_r-in1"],"scenario":"sampling=default"}`,
		`{"suite":"cpu2017","mini":"rate-int","size":"test","instructions":600000,"scenario":"sampling=131072/4096/4096"}`,
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
		`{"suite":"cpu2017","size":"ref","scenario":"j-pair=-2"}`,
		`{"suite":"cpu2017","size":"test","scenario":"rate=2,rate=4"}`,
		`{"suite":"cpu2017","size":"test","scenario":"warp=9"}`,
		// Knob fields outside the scenario string, and a scenario object.
		`{"suite":"cpu2017","size":"test","rate_copies":4,"fidelity":"analytic"}`,
		`{"suite":"cpu2017","size":"test","scenario":{"rate_copies":4}}`,
		`{"suite":"cpu2017","size":"test","instructions":"many"}`,
		`{"suite":"cpu2017","size":"test","axes":[{"param":"l3.size","values":[1048576]}],"metrics":"ipc"}`,
		`{"suite":"cpu2017","size":"test","axes":[{"param":"l9.size","values":[1]}],"screen":"quantum"}`,
		`{"suite":"cpu2017","size":"test","axes":[{"param":"l3.size","values":[1048576]}],` +
			`"machine":{"name":"x","l1i":{},"l1d":{},"l2":{},"l3":{},"pipeline":{},"clock_hz":0}}`,
		`{"suite":"cpu2017","size":"test","pairs":["no-such-pair"],"escalate":"quantum"}`,
		// A second value after the spec.
		`{"suite":"cpu2017","size":"test"}{"suite":"cpu2099"}`,
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
			derr := dec.Decode(spec)
			if err == errTrailingData {
				if _, terr := dec.Token(); derr != nil || terr == io.EOF {
					t.Fatalf("%s: trailing-data rejection of a body that is not one spec and more (decode error %v)", body, derr)
				}
				return
			}
			if err != errNoPairs && (derr == nil || derr.Error() != err.Error()) {
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

// TestExecuteAfterCancel: a DELETE can finish a queued job after a
// worker dequeued it but before execute takes the job lock. execute
// must then leave the job cancelled and not run it: running it would
// finish it a second time and close its done channel twice.
func TestExecuteAfterCancel(t *testing.T) {
	ran := false
	t.Cleanup(SetRunCampaign(func(pairs []profile.Pair, opt core.Options) ([]core.Characteristics, error) {
		ran = true
		return make([]core.Characteristics, len(pairs)), nil
	}))
	s := New(Config{Workers: 1})
	t.Cleanup(s.Drain)
	j, err := s.newJob(campaignKind, strings.NewReader(`{"suite":"cpu2017","mini":"rate-int","size":"test"}`))
	if err != nil {
		t.Fatal(err)
	}
	j.requestCancel("cancelled by client")
	s.execute(j)
	if st := j.snapshot(false).(CampaignStatus); st.Status != StatusCancelled {
		t.Errorf("status = %s, want %s", st.Status, StatusCancelled)
	}
	if ran {
		t.Error("execute ran a job that was already cancelled")
	}
}
