package speckit

import (
	"bytes"
	"context"
	"reflect"
	"testing"
)

// TestNewOptionsComposes: every With* option lands on the matching
// Options field, identically to filling the struct (the legacy path).
func TestNewOptionsComposes(t *testing.T) {
	cache := NewCache()
	tr := NewTrace()
	ctx := context.Background()
	progress := func(Progress) {}
	got := NewOptions(
		WithContext(ctx),
		WithInstructions(12345),
		WithParallelism(3),
		WithMachine(Haswell()),
		WithBatchSize(64),
		WithCache(cache),
		WithSampling(DefaultSampling()),
		WithProgress(progress),
		WithTrace(tr),
	)
	want := Options{
		Context: ctx, Instructions: 12345, Parallelism: 3,
		BatchSize: 64, Cache: cache,
		Scenario: Scenario{Sampling: DefaultSampling()}, Trace: tr,
	}
	// Func-valued fields (Progress, the machine's predictor factory)
	// never compare equal under DeepEqual; check them separately.
	if got.Progress == nil {
		t.Error("WithProgress did not set the callback")
	}
	if got.Machine.Name != Haswell().Name {
		t.Errorf("WithMachine set %q, want %q", got.Machine.Name, Haswell().Name)
	}
	got.Progress, got.Machine = nil, MachineConfig{}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("NewOptions = %+v, want %+v", got, want)
	}
}

// TestSuiteCharacterizeOptions: the functional-options entry point
// returns results bit-identical to the legacy struct path, and an
// attached trace records one span per pair.
func TestSuiteCharacterizeOptions(t *testing.T) {
	suite := CPU2017().Mini(RateInt)
	legacy, err := Characterize(suite, Test, Options{Instructions: 15000})
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTrace()
	functional, err := suite.Characterize(Test,
		WithInstructions(15000), WithTrace(tr))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(legacy, functional) {
		t.Error("functional-options results differ from the struct path")
	}

	var buf bytes.Buffer
	if err := tr.WriteManifest(&buf); err != nil {
		t.Fatal(err)
	}
	header, spans, err := ReadManifest(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if header.Spans != len(spans) {
		t.Errorf("header says %d spans, manifest has %d", header.Spans, len(spans))
	}
	pairSpans := 0
	for _, s := range spans {
		if s.Attrs["tier"] != nil {
			pairSpans++
		}
	}
	if pairSpans != len(functional) {
		t.Errorf("trace recorded %d pair spans, want %d", pairSpans, len(functional))
	}
	if ManifestDigest(buf.Bytes()) == "" {
		t.Error("empty manifest digest")
	}
}
