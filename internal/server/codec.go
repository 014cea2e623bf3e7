package server

import (
	"bytes"
	"encoding/json"
	"time"

	"repro/internal/core"
	"repro/internal/jsonx"
)

// AppendJSON appends the status's JSON — exactly what a json.Encoder
// with SetEscapeHTML(false) writes for it, minus the trailing newline —
// with each result spliced in by core.Characteristics.WriteJSON rather
// than encoding/json's reflection. Result strings are therefore
// HTML-escaped as json.Marshal escapes them (a '<' in a name arrives
// as its \u003c escape and decodes to the same value); everything
// else is written unescaped, as before. It fails where json.Marshal
// would, on a non-finite float in a result or a time outside years
// 0-9999.
func (st CampaignStatus) AppendJSON(dst []byte) ([]byte, error) {
	w := jsonx.Writer{B: dst}
	w.Raw(`{"id":`)
	rawString(&w, st.ID)
	w.Raw(`,"spec":`)
	if w.Err == nil {
		buf := bytes.NewBuffer(w.B)
		enc := json.NewEncoder(buf)
		enc.SetEscapeHTML(false)
		w.Fail(enc.Encode(st.Spec))
		w.B = bytes.TrimSuffix(buf.Bytes(), []byte("\n"))
	}
	w.Raw(`,"status":`)
	rawString(&w, st.Status)
	w.Raw(`,"pairs":`)
	w.Int(int64(st.Pairs))
	w.Raw(`,"created":`)
	writeTime(&w, st.Created)
	if st.Started != nil {
		w.Raw(`,"started":`)
		writeTime(&w, *st.Started)
	}
	if st.Finished != nil {
		w.Raw(`,"finished":`)
		writeTime(&w, *st.Finished)
	}
	p := &st.Progress
	w.Raw(`,"progress":{"done":`)
	w.Int(int64(p.Done))
	w.Raw(`,"total":`)
	w.Int(int64(p.Total))
	w.Raw(`,"cache_hits":`)
	w.Int(int64(p.CacheHits))
	w.Raw(`,"store_hits":`)
	w.Int(int64(p.StoreHits))
	if p.Remote != 0 {
		w.Raw(`,"remote":`)
		w.Int(int64(p.Remote))
	}
	w.Raw(`,"elapsed_ms":`)
	w.Int(p.ElapsedMS)
	w.Raw("}")
	if st.Error != "" {
		w.Raw(`,"error":`)
		rawString(&w, st.Error)
	}
	if len(st.Results) > 0 {
		w.Raw(`,"results":[`)
		for i := range st.Results {
			if i > 0 {
				w.Raw(",")
			}
			st.Results[i].WriteJSON(&w)
		}
		w.Raw("]")
	}
	if st.ManifestDigest != "" {
		w.Raw(`,"manifest_digest":`)
		rawString(&w, st.ManifestDigest)
	}
	w.Raw("}")
	if w.Err != nil {
		return dst, w.Err
	}
	return w.B, nil
}

// rawString writes s as a json.Encoder with SetEscapeHTML(false) does.
func rawString(w *jsonx.Writer, s string) {
	if w.Err == nil {
		w.B = jsonx.AppendString(w.B, s, false)
	}
}

func writeTime(w *jsonx.Writer, t time.Time) {
	if w.Err != nil {
		return
	}
	b, err := t.MarshalJSON()
	w.Fail(err)
	if w.Err == nil {
		w.B = append(w.B, b...)
	}
}

// UnmarshalJSON implements json.Unmarshaler in one pass: the top level
// is walked once and each result is decoded on the same cursor by
// core.Characteristics.DecodeJSON (the spec alone goes through
// encoding/json, which validates its machine configuration). Keys
// match exact-case; unknown keys are skipped.
func (st *CampaignStatus) UnmarshalJSON(data []byte) error {
	var d jsonx.Decoder
	d.Reset(data)
	if d.Object() {
		for key, ok := d.NextKey(); ok; key, ok = d.NextKey() {
			switch string(key) {
			case "id":
				st.ID = d.String()
			case "spec":
				d.Fail(json.Unmarshal(d.Raw(), &st.Spec))
			case "status":
				st.Status = d.String()
			case "pairs":
				st.Pairs = d.Int()
			case "created":
				d.Fail(st.Created.UnmarshalJSON(d.Raw()))
			case "started":
				st.Started = decodeTime(&d)
			case "finished":
				st.Finished = decodeTime(&d)
			case "progress":
				decodeProgress(&d, &st.Progress)
			case "error":
				st.Error = d.String()
			case "results":
				// An empty array decodes as nil: the field is omitempty,
				// so [] and an absent member are the same status.
				st.Results = nil
				if d.Array() {
					for d.NextElem() {
						st.Results = append(st.Results, core.Characteristics{})
						st.Results[len(st.Results)-1].DecodeJSON(&d)
					}
				}
			case "manifest_digest":
				st.ManifestDigest = d.String()
			default:
				d.Skip()
			}
		}
	}
	return d.End()
}

func decodeTime(d *jsonx.Decoder) *time.Time {
	if d.Null() {
		return nil
	}
	t := new(time.Time)
	d.Fail(t.UnmarshalJSON(d.Raw()))
	return t
}

func decodeProgress(d *jsonx.Decoder, p *ProgressStatus) {
	if !d.Object() {
		return
	}
	for key, ok := d.NextKey(); ok; key, ok = d.NextKey() {
		switch string(key) {
		case "done":
			p.Done = d.Int()
		case "total":
			p.Total = d.Int()
		case "cache_hits":
			p.CacheHits = d.Int()
		case "store_hits":
			p.StoreHits = d.Int()
		case "remote":
			p.Remote = d.Int()
		case "elapsed_ms":
			p.ElapsedMS = int64(d.Int())
		default:
			d.Skip()
		}
	}
}
