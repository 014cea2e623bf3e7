package server

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/profile"
)

// refCharacteristics is core.Characteristics without its methods, so
// encoding/json reflects over it.
type refCharacteristics core.Characteristics

// refStatus is CampaignStatus as encoding/json saw it before the
// status and its results had hand-written codecs: the same members
// (TestStatusCodecMatchesEncoder checks the field list), results
// reflected over. Encoded with a json.Encoder after
// SetEscapeHTML(false), it is the reference for the served bytes.
type refStatus struct {
	ID             string               `json:"id"`
	Spec           CampaignSpec         `json:"spec"`
	Status         string               `json:"status"`
	Pairs          int                  `json:"pairs"`
	Created        time.Time            `json:"created"`
	Started        *time.Time           `json:"started,omitempty"`
	Finished       *time.Time           `json:"finished,omitempty"`
	Progress       ProgressStatus       `json:"progress"`
	Error          string               `json:"error,omitempty"`
	Results        []refCharacteristics `json:"results,omitempty"`
	ManifestDigest string               `json:"manifest_digest,omitempty"`
}

func encodeRef(t testing.TB, st *CampaignStatus) []byte {
	t.Helper()
	ref := refStatus{ID: st.ID, Spec: st.Spec, Status: st.Status, Pairs: st.Pairs,
		Created: st.Created, Started: st.Started, Finished: st.Finished,
		Progress: st.Progress, Error: st.Error, ManifestDigest: st.ManifestDigest}
	for _, c := range st.Results {
		ref.Results = append(ref.Results, refCharacteristics(c))
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(ref); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// paperResults characterizes every pair of every built-in profile (the
// paper campaign: CPU2017 at all three sizes, CPU2006 at ref) at a
// small window, grouped by application.
func paperResults(t testing.TB) map[string][]core.Characteristics {
	t.Helper()
	var pairs []profile.Pair
	for _, size := range []profile.InputSize{profile.Test, profile.Train, profile.Ref} {
		pairs = append(pairs, profile.ExpandSuite(profile.CPU2017(), size)...)
	}
	pairs = append(pairs, profile.ExpandSuite(profile.CPU2006(), profile.Ref)...)
	chars, err := core.Characterize(pairs, core.Options{Instructions: 4000})
	if err != nil {
		t.Fatal(err)
	}
	byApp := map[string][]core.Characteristics{}
	for _, c := range chars {
		byApp[c.Pair.App.Name] = append(byApp[c.Pair.App.Name], c)
	}
	return byApp
}

// TestStatusCodecMatchesEncoder: the served status bytes — head written
// by hand, results spliced in by the record codec — equal what the
// json.Encoder (SetEscapeHTML(false)) wrote for CampaignStatus before,
// with and without results, error and digest, for every built-in
// profile; and UnmarshalJSON reads them back to the same value.
func TestStatusCodecMatchesEncoder(t *testing.T) {
	statusT, refT := reflect.TypeOf(CampaignStatus{}), reflect.TypeOf(refStatus{})
	if statusT.NumField() != refT.NumField() {
		t.Fatalf("CampaignStatus has %d fields, the reference %d", statusT.NumField(), refT.NumField())
	}
	for i := 0; i < statusT.NumField(); i++ {
		if f, r := statusT.Field(i), refT.Field(i); f.Name != r.Name || f.Tag != r.Tag {
			t.Fatalf("field %d: CampaignStatus has %s %q, the reference %s %q", i, f.Name, f.Tag, r.Name, r.Tag)
		}
	}

	created := time.Date(2026, 10, 17, 4, 30, 6, 123456789, time.UTC)
	started, finished := created.Add(time.Millisecond), created.Add(2*time.Second)
	cfg := machine.HaswellScaled()
	spec := CampaignSpec{Suite: "cpu2017", Mini: "rate-int", Size: "ref", Instructions: 30000,
		Machine: &cfg, Scenario: &ScenarioSpec{Fidelity: "exact", RateCopies: 2},
		Pairs: []string{"505.mcf_r", "a<b>&c"}}
	byApp := paperResults(t)
	if len(byApp) < 60 {
		t.Fatalf("only %d built-in profiles", len(byApp))
	}
	for app, results := range byApp {
		for _, st := range []CampaignStatus{
			{ID: "c1", Spec: CampaignSpec{Suite: "cpu2017", Size: "ref"}, Status: StatusQueued,
				Pairs: len(results), Created: created, Progress: ProgressStatus{Total: len(results)}},
			{ID: "c2<&>", Spec: spec, Status: StatusDone, Pairs: len(results), Created: created,
				Started: &started, Finished: &finished,
				Progress: ProgressStatus{Done: len(results), Total: len(results), CacheHits: 1, StoreHits: 1, Remote: 2, ElapsedMS: 2000},
				Results:  results, ManifestDigest: "sha256:abc"},
			{ID: "c3", Spec: spec, Status: StatusFailed, Pairs: len(results), Created: created,
				Started: &started, Finished: &finished, Error: "worker <w1> failed: a & b",
				Progress: ProgressStatus{Done: 1, Total: len(results)}},
			{ID: "c4", Spec: spec, Status: StatusDone, Pairs: len(results), Created: created,
				Started: &started, Finished: &finished, Results: results},
		} {
			want := encodeRef(t, &st)
			rec := httptest.NewRecorder()
			writeJSON(rec, http.StatusOK, st)
			if got := rec.Body.Bytes(); !bytes.Equal(got, want) {
				t.Fatalf("%s/%s: served bytes differ from json.Encoder:\n got %s\nwant %s", app, st.ID, got, want)
			}
			if rec.Code != http.StatusOK || rec.Header().Get("Content-Length") == "" {
				t.Fatalf("%s/%s: code %d, Content-Length %q", app, st.ID, rec.Code, rec.Header().Get("Content-Length"))
			}
			var back CampaignStatus
			if err := back.UnmarshalJSON(want); err != nil {
				t.Fatalf("%s/%s: decode: %v", app, st.ID, err)
			}
			// A machine configuration is compared by its encoding: it
			// does not round-trip to a deeply equal value.
			if again := encodeRef(t, &back); !bytes.Equal(again, want) {
				t.Fatalf("%s/%s: decoded status re-encodes differently", app, st.ID)
			}
			back.Spec.Machine, st.Spec.Machine = nil, nil
			if !reflect.DeepEqual(back, st) {
				t.Fatalf("%s/%s: decoded status differs from the original", app, st.ID)
			}
		}
	}
}

// TestStatusHTMLInResults: a result string with HTML characters
// arrives escaped as json.Marshal escapes it — the one place the served
// bytes differ from the pre-codec encoder's — and decodes to the same
// value.
func TestStatusHTMLInResults(t *testing.T) {
	pair := profile.CPU2017()[2].Expand(profile.Ref)[0]
	app := *pair.App
	app.Name = "a<b>&c"
	pair.App = &app
	c, err := core.CharacterizePair(pair, core.Options{Instructions: 4000})
	if err != nil {
		t.Fatal(err)
	}
	st := CampaignStatus{ID: "x", Status: StatusDone, Results: []core.Characteristics{*c}}
	data, err := st.AppendJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(data, []byte(`"Name":"a\u003cb\u003e\u0026c"`)) {
		t.Fatalf("result name not HTML-escaped: %s", data)
	}
	var back CampaignStatus
	if err := back.UnmarshalJSON(data); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Results, st.Results) {
		t.Fatal("HTML-escaped result does not decode to the original")
	}
}

// TestWriteJSONEncodeError: a response that cannot be encoded is a JSON
// 500 — never a 200 with a truncated body.
func TestWriteJSONEncodeError(t *testing.T) {
	st := CampaignStatus{ID: "x", Status: StatusDone, Results: []core.Characteristics{{IPC: math.NaN()}}}
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, st)
	var envelope struct{ Error string }
	if err := json.Unmarshal(rec.Body.Bytes(), &envelope); err != nil {
		t.Fatalf("error body is not JSON: %v: %s", err, rec.Body)
	}
	if rec.Code != http.StatusInternalServerError || !strings.Contains(envelope.Error, "NaN") {
		t.Fatalf("code %d, body %s; want a 500 naming the NaN", rec.Code, rec.Body)
	}
}

// FuzzCampaignStatusDecode: the status decoder never panics on
// arbitrary bytes, and any input it accepts re-encodes to bytes that
// decode to an equal value.
func FuzzCampaignStatusDecode(f *testing.F) {
	pair := profile.CPU2017()[2].Expand(profile.Ref)[0]
	c, err := core.CharacterizePair(pair, core.Options{Instructions: 4000})
	if err != nil {
		f.Fatal(err)
	}
	created := time.Date(2026, 10, 17, 4, 30, 6, 5, time.UTC)
	st := CampaignStatus{ID: "c1", Spec: CampaignSpec{Suite: "cpu2017", Size: "ref", Pairs: []string{pair.Name()}},
		Status: StatusDone, Pairs: 1, Created: created, Started: &created, Finished: &created,
		Progress: ProgressStatus{Done: 1, Total: 1}, Results: []core.Characteristics{*c}, ManifestDigest: "d"}
	record, err := st.AppendJSON(nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(record)
	for _, n := range []int{0, 1, 10, len(record) / 3, len(record) / 2, len(record) - 1} {
		f.Add(record[:n])
	}
	var members map[string]json.RawMessage
	if err := json.Unmarshal(record, &members); err != nil {
		f.Fatal(err)
	}
	reordered, err := json.Marshal(members) // keys now in sorted order
	if err != nil {
		f.Fatal(err)
	}
	f.Add(reordered)
	f.Add([]byte(`{"results":[null,{}],"started":null,"progress":{"remote":1},"x":[{"y":"😀"}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var st CampaignStatus
		if st.UnmarshalJSON(data) != nil {
			return
		}
		enc, err := st.AppendJSON(nil)
		if err != nil {
			return // e.g. a time json.Marshal refuses too; nothing to round-trip
		}
		var again CampaignStatus
		if err := again.UnmarshalJSON(enc); err != nil {
			t.Fatalf("re-encoded status does not decode: %v\n%s", err, enc)
		}
		// The spec is encoding/json's to round-trip; its omitempty
		// members make [] and absent the same spec.
		again.Spec, st.Spec = CampaignSpec{}, CampaignSpec{}
		if !reflect.DeepEqual(st, again) {
			t.Fatalf("round trip changed the value:\n%s", enc)
		}
	})
}

var sinkStatus CampaignStatus

// BenchmarkCampaignStatusCodec times one 24-result campaign response
// through the codec: the server's encode and the client's decode.
func BenchmarkCampaignStatusCodec(b *testing.B) {
	var pairs []profile.Pair
	for _, p := range profile.CPU2017() {
		if p.Suite == profile.RateFP {
			pairs = append(pairs, p.Expand(profile.Ref)...)
		}
	}
	pairs = append(pairs, profile.ExpandSuite(profile.CPU2017(), profile.Train)...)
	results, err := core.Characterize(pairs[:24], core.Options{Instructions: 4000})
	if err != nil {
		b.Fatal(err)
	}
	created := time.Date(2026, 10, 17, 4, 30, 6, 5, time.UTC)
	st := CampaignStatus{ID: "c1", Spec: CampaignSpec{Suite: "cpu2017", Size: "ref"}, Status: StatusDone,
		Pairs: 24, Created: created, Started: &created, Finished: &created,
		Progress: ProgressStatus{Done: 24, Total: 24}, Results: results, ManifestDigest: "d"}
	data, err := st.AppendJSON(nil)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(data)))
		buf := make([]byte, 0, 2*len(data))
		for i := 0; i < b.N; i++ {
			if _, err := st.AppendJSON(buf[:0]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			sinkStatus = CampaignStatus{}
			if err := sinkStatus.UnmarshalJSON(data); err != nil {
				b.Fatal(err)
			}
		}
	})
}
