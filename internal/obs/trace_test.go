package obs

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"
)

// TestNilTraceIsNoOp exercises every Trace/Span method through nil
// receivers — the contract instrumented code relies on to skip guards.
func TestNilTraceIsNoOp(t *testing.T) {
	var tr *Trace
	root := tr.Start("campaign")
	if root != nil {
		t.Fatal("nil trace returned a non-nil span")
	}
	child := root.Child("pair")
	if child != nil {
		t.Fatal("nil span returned a non-nil child")
	}
	root.SetAttr("k", 1).SetAttr("k2", "v")
	root.Stage("detail", time.Second)
	root.Finish()
	if d := root.Duration(); d != 0 {
		t.Fatalf("nil span duration = %v, want 0", d)
	}
	if err := tr.WriteManifest(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	if b, err := tr.Manifest(); err != nil || b != nil {
		t.Fatalf("nil manifest = (%v, %v), want (nil, nil)", b, err)
	}
	if d, err := tr.Digest(); err != nil || d != "" {
		t.Fatalf("nil digest = (%q, %v)", d, err)
	}
}

// TestManifestNestingRoundTrip builds a realistic span tree (campaign →
// pairs → stages), renders it, parses it back, and checks the tree
// structure and attributes survive.
func TestManifestNestingRoundTrip(t *testing.T) {
	tr := NewTrace()
	camp := tr.Start("campaign").SetAttr("pairs", 2)
	p1 := camp.Child("600.perlbench_s/test").SetAttr("tier", "miss")
	p1.Stage("fast-forward", 3*time.Millisecond)
	p1.Stage("detail", 5*time.Millisecond)
	p1.Finish()
	p2 := camp.Child("602.gcc_s/test").SetAttr("tier", "memory")
	p2.Finish()
	camp.Finish()

	var buf bytes.Buffer
	if err := tr.WriteManifest(&buf); err != nil {
		t.Fatal(err)
	}
	hdr, spans, err := ReadManifest(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if hdr.Spans != 5 || len(spans) != 5 {
		t.Fatalf("spans = %d/%d, want 5", hdr.Spans, len(spans))
	}

	byName := map[string]ManifestSpan{}
	byID := map[int]ManifestSpan{}
	for _, s := range spans {
		byName[s.Name] = s
		byID[s.ID] = s
	}
	root := byName["campaign"]
	if root.Parent != 0 {
		t.Fatalf("campaign parent = %d, want 0", root.Parent)
	}
	if got := root.Attrs["pairs"]; got != float64(2) { // JSON numbers decode to float64
		t.Fatalf("campaign attrs = %v", root.Attrs)
	}
	for _, name := range []string{"600.perlbench_s/test", "602.gcc_s/test"} {
		p := byName[name]
		if p.Parent != root.ID {
			t.Fatalf("%s parent = %d, want campaign %d", name, p.Parent, root.ID)
		}
	}
	ff := byName["fast-forward"]
	if ff.Parent != byName["600.perlbench_s/test"].ID {
		t.Fatalf("stage parent = %d, want pair", ff.Parent)
	}
	if ff.Kind != "stage" {
		t.Fatalf("stage kind = %q", ff.Kind)
	}
	if ff.DurUS != 3000 {
		t.Fatalf("fast-forward dur = %dus, want 3000", ff.DurUS)
	}
	// Every parent reference resolves and no span starts before the epoch.
	for _, s := range spans {
		if s.Parent != 0 {
			if _, ok := byID[s.Parent]; !ok {
				t.Fatalf("span %d has dangling parent %d", s.ID, s.Parent)
			}
		}
		// Stage spans are back-dated by their accumulated duration and
		// may legitimately start before their parent; others must not
		// start before the epoch.
		if s.Kind != "stage" && s.StartUS < -1000 {
			t.Fatalf("span %d starts %dus before epoch", s.ID, s.StartUS)
		}
	}
}

func TestSpanDurations(t *testing.T) {
	tr := NewTrace()
	s := tr.Start("work")
	time.Sleep(5 * time.Millisecond)
	s.Finish()
	d := s.Duration()
	if d < 5*time.Millisecond || d > 5*time.Second {
		t.Fatalf("duration = %v", d)
	}
	s.Finish() // double finish keeps the first duration
	if s.Duration() != d {
		t.Fatal("double Finish changed the duration")
	}
	// Unfinished spans report running elapsed time.
	u := tr.Start("running")
	if u.Duration() < 0 {
		t.Fatal("unfinished duration negative")
	}
}

func TestManifestDigestStable(t *testing.T) {
	tr := NewTrace()
	s := tr.Start("campaign")
	s.Child("pair").Finish()
	s.Finish()
	d1, err := tr.Digest()
	if err != nil {
		t.Fatal(err)
	}
	d2, err := tr.Digest()
	if err != nil {
		t.Fatal(err)
	}
	if d1 != d2 {
		t.Fatalf("digest unstable: %s vs %s", d1, d2)
	}
	if len(d1) != 64 {
		t.Fatalf("digest %q is not sha256 hex", d1)
	}
	b, _ := tr.Manifest()
	if ManifestDigest(b) != d1 {
		t.Fatal("ManifestDigest(bytes) != Trace.Digest()")
	}
	// A kept manifest holds no render-buffer slack.
	if cap(b) != len(b) {
		t.Fatalf("manifest is %d bytes in a %d-byte slice", len(b), cap(b))
	}
}

func TestReadManifestErrors(t *testing.T) {
	cases := map[string]string{
		"empty":       "",
		"not json":    "hello\n",
		"wrong kind":  `{"manifest":"other","version":1,"spans":0}` + "\n",
		"bad version": `{"manifest":"speckit-run","version":99,"spans":0}` + "\n",
		"truncated":   `{"manifest":"speckit-run","version":1,"spans":2}` + "\n" + `{"span":1,"name":"a","start_us":0,"dur_us":1}` + "\n",
	}
	for name, in := range cases {
		if _, _, err := ReadManifest(strings.NewReader(in)); err == nil {
			t.Errorf("%s: no error", name)
		}
	}
}

func TestContextSpan(t *testing.T) {
	ctx := context.Background()
	if s := SpanFromContext(ctx); s != nil {
		t.Fatal("empty context returned a span")
	}
	tr := NewTrace()
	s := tr.Start("pair")
	ctx2 := ContextWithSpan(ctx, s)
	if got := SpanFromContext(ctx2); got != s {
		t.Fatal("span did not round-trip through context")
	}
	// nil span attaches nothing.
	if ctx3 := ContextWithSpan(ctx, nil); SpanFromContext(ctx3) != nil {
		t.Fatal("nil span produced a non-nil context span")
	}
}

func TestSetAttrOverwrites(t *testing.T) {
	tr := NewTrace()
	s := tr.Start("x").SetAttr("tier", "miss").SetAttr("tier", "store")
	s.Finish()
	b, err := tr.Manifest()
	if err != nil {
		t.Fatal(err)
	}
	_, spans, err := ReadManifest(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	if got := spans[0].Attrs["tier"]; got != "store" {
		t.Fatalf("tier = %v, want store", got)
	}
	if len(spans[0].Attrs) != 1 {
		t.Fatalf("attrs = %v, want single key", spans[0].Attrs)
	}
}
