package core

import (
	"fmt"

	"repro/internal/jsonx"
	"repro/internal/machine"
	"repro/internal/perf"
	"repro/internal/pipeline"
	"repro/internal/profile"
)

// CharacteristicsCodec translates Characteristics to and from the
// persistent result store's record encoding (sched.Codec). The record
// is Characteristics' JSON form (AppendJSON / UnmarshalJSON): every
// field is an integer, a finite float64 (ExecSeconds is guarded against
// ±Inf/NaN at construction), a string, or a struct of those, and floats
// are written in the shortest form that parses back to the same bits —
// so Decode(Encode(c)) reproduces c bit-identically, which is what lets
// a store hit stand in for a simulation.
type CharacteristicsCodec struct{}

// recordSizeHint is the buffer Encode starts from: a single-copy
// record is about 2.3 KiB, so most records are written without
// regrowing it.
const recordSizeHint = 3 << 10

// Encode serializes one Characteristics value.
func (CharacteristicsCodec) Encode(v any) ([]byte, error) {
	c, ok := v.(Characteristics)
	if !ok {
		return nil, fmt.Errorf("core: cannot encode %T as Characteristics", v)
	}
	return c.AppendJSON(make([]byte, 0, recordSizeHint))
}

// Decode parses a record produced by Encode.
func (CharacteristicsCodec) Decode(data []byte) (any, error) {
	var c Characteristics
	if err := c.UnmarshalJSON(data); err != nil {
		return nil, err
	}
	return c, nil
}

// The record layout below is hand-written so that serving a result
// never goes through encoding/json's reflection, and it is
// byte-identical to what json.Marshal writes for these types: struct
// fields in declaration order under their Go names, Rate and Runtime
// omitted when nil, nil pointers and slices as null, strings and floats
// escaped and formatted as encoding/json does (package jsonx). Adding
// a field to Characteristics or to any struct it nests means adding it
// here, in the writer and in the decoder; TestCodecFieldCoverage fails
// until both are done.

// AppendJSON appends the record's JSON to dst. It fails, leaving dst as
// it was, exactly where json.Marshal fails: on a NaN or infinite float.
func (c *Characteristics) AppendJSON(dst []byte) ([]byte, error) {
	w := jsonx.Writer{B: dst}
	c.WriteJSON(&w)
	if w.Err != nil {
		return dst, w.Err
	}
	return w.B, nil
}

// MarshalJSON implements json.Marshaler through AppendJSON, so every
// encoding of a result goes through the one codec.
func (c Characteristics) MarshalJSON() ([]byte, error) { return c.AppendJSON(nil) }

// WriteJSON is AppendJSON on a caller's writer, for responses that
// embed results.
func (c *Characteristics) WriteJSON(w *jsonx.Writer) {
	w.Raw(`{"Pair":`)
	writePair(w, &c.Pair)
	w.Raw(`,"InstrBillions":`)
	w.Float(c.InstrBillions)
	w.Raw(`,"IPC":`)
	w.Float(c.IPC)
	w.Raw(`,"ExecSeconds":`)
	w.Float(c.ExecSeconds)
	w.Raw(`,"LoadPct":`)
	w.Float(c.LoadPct)
	w.Raw(`,"StorePct":`)
	w.Float(c.StorePct)
	w.Raw(`,"BranchPct":`)
	w.Float(c.BranchPct)
	w.Raw(`,"CondPct":`)
	w.Float(c.CondPct)
	w.Raw(`,"JumpPct":`)
	w.Float(c.JumpPct)
	w.Raw(`,"CallPct":`)
	w.Float(c.CallPct)
	w.Raw(`,"IndirectPct":`)
	w.Float(c.IndirectPct)
	w.Raw(`,"ReturnPct":`)
	w.Float(c.ReturnPct)
	w.Raw(`,"MispredictPct":`)
	w.Float(c.MispredictPct)
	w.Raw(`,"L1MissPct":`)
	w.Float(c.L1MissPct)
	w.Raw(`,"L2MissPct":`)
	w.Float(c.L2MissPct)
	w.Raw(`,"L3MissPct":`)
	w.Float(c.L3MissPct)
	w.Raw(`,"RSSMiB":`)
	w.Float(c.RSSMiB)
	w.Raw(`,"VSZMiB":`)
	w.Float(c.VSZMiB)
	w.Raw(`,"Counters":`)
	if c.Counters == nil {
		w.Raw("null")
	} else {
		c.Counters.WriteJSON(w)
	}
	w.Raw(`,"Breakdown":`)
	writeBreakdown(w, &c.Breakdown)
	w.Raw(`,"Calibrated":`)
	w.Bool(c.Calibrated)
	w.Raw(`,"Sampling":`)
	writeSampling(w, c.Sampling)
	if c.Rate != nil {
		w.Raw(`,"Rate":`)
		writeRate(w, c.Rate)
	}
	if c.Runtime != nil {
		w.Raw(`,"Runtime":`)
		writeRuntime(w, c.Runtime)
	}
	w.Raw("}")
}

func writePair(w *jsonx.Writer, p *profile.Pair) {
	w.Raw(`{"App":`)
	writeProfile(w, p.App)
	w.Raw(`,"Size":`)
	w.Int(int64(p.Size))
	w.Raw(`,"Input":`)
	w.String(p.Input)
	w.Raw(`,"Model":`)
	writeModel(w, &p.Model)
	w.Raw("}")
}

func writeProfile(w *jsonx.Writer, p *profile.Profile) {
	if p == nil {
		w.Raw("null")
		return
	}
	w.Raw(`{"Name":`)
	w.String(p.Name)
	w.Raw(`,"Suite":`)
	w.Int(int64(p.Suite))
	w.Raw(`,"InstrBillions":`)
	w.Float(p.InstrBillions)
	w.Raw(`,"TargetIPC":`)
	w.Float(p.TargetIPC)
	w.Raw(`,"LoadPct":`)
	w.Float(p.LoadPct)
	w.Raw(`,"StorePct":`)
	w.Float(p.StorePct)
	w.Raw(`,"BranchPct":`)
	w.Float(p.BranchPct)
	w.Raw(`,"Mix":`)
	writeMix(w, &p.Mix)
	w.Raw(`,"MispredictPct":`)
	w.Float(p.MispredictPct)
	w.Raw(`,"L1MissPct":`)
	w.Float(p.L1MissPct)
	w.Raw(`,"L2MissPct":`)
	w.Float(p.L2MissPct)
	w.Raw(`,"L3MissPct":`)
	w.Float(p.L3MissPct)
	w.Raw(`,"RSSMiB":`)
	w.Float(p.RSSMiB)
	w.Raw(`,"VSZMiB":`)
	w.Float(p.VSZMiB)
	w.Raw(`,"MLP":`)
	w.Float(p.MLP)
	w.Raw(`,"CodeKiB":`)
	w.Float(p.CodeKiB)
	w.Raw(`,"BranchSites":`)
	w.Int(int64(p.BranchSites))
	w.Raw(`,"Threads":`)
	w.Int(int64(p.Threads))
	w.Raw(`,"RefInputs":`)
	writeStrings(w, p.RefInputs)
	w.Raw(`,"TestInputs":`)
	writeStrings(w, p.TestInputs)
	w.Raw(`,"TrainInputs":`)
	writeStrings(w, p.TrainInputs)
	w.Raw(`,"InputSpread":`)
	w.Float(p.InputSpread)
	w.Raw("}")
}

func writeStrings(w *jsonx.Writer, ss []string) {
	if ss == nil {
		w.Raw("null")
		return
	}
	w.Raw("[")
	for i, s := range ss {
		if i > 0 {
			w.Raw(",")
		}
		w.String(s)
	}
	w.Raw("]")
}

func writeMix(w *jsonx.Writer, m *profile.BranchMix) {
	w.Raw(`{"Cond":`)
	w.Float(m.Cond)
	w.Raw(`,"Jump":`)
	w.Float(m.Jump)
	w.Raw(`,"Call":`)
	w.Float(m.Call)
	w.Raw(`,"IndirectJump":`)
	w.Float(m.IndirectJump)
	w.Raw(`,"Return":`)
	w.Float(m.Return)
	w.Raw("}")
}

func writeModel(w *jsonx.Writer, m *profile.Model) {
	w.Raw(`{"InstrBillions":`)
	w.Float(m.InstrBillions)
	w.Raw(`,"TargetIPC":`)
	w.Float(m.TargetIPC)
	w.Raw(`,"LoadPct":`)
	w.Float(m.LoadPct)
	w.Raw(`,"StorePct":`)
	w.Float(m.StorePct)
	w.Raw(`,"BranchPct":`)
	w.Float(m.BranchPct)
	w.Raw(`,"Mix":`)
	writeMix(w, &m.Mix)
	w.Raw(`,"MispredictPct":`)
	w.Float(m.MispredictPct)
	w.Raw(`,"L1MissPct":`)
	w.Float(m.L1MissPct)
	w.Raw(`,"L2MissPct":`)
	w.Float(m.L2MissPct)
	w.Raw(`,"L3MissPct":`)
	w.Float(m.L3MissPct)
	w.Raw(`,"RSSMiB":`)
	w.Float(m.RSSMiB)
	w.Raw(`,"VSZMiB":`)
	w.Float(m.VSZMiB)
	w.Raw(`,"MLP":`)
	w.Float(m.MLP)
	w.Raw(`,"CodeKiB":`)
	w.Float(m.CodeKiB)
	w.Raw(`,"BranchSites":`)
	w.Int(int64(m.BranchSites))
	w.Raw(`,"Threads":`)
	w.Int(int64(m.Threads))
	w.Raw(`,"Seed":`)
	w.Uint(m.Seed)
	w.Raw("}")
}

func writeBreakdown(w *jsonx.Writer, b *pipeline.Breakdown) {
	w.Raw(`{"Base":`)
	w.Float(b.Base)
	w.Raw(`,"Mispredict":`)
	w.Float(b.Mispredict)
	w.Raw(`,"L2":`)
	w.Float(b.L2)
	w.Raw(`,"L3":`)
	w.Float(b.L3)
	w.Raw(`,"Memory":`)
	w.Float(b.Memory)
	w.Raw(`,"Fetch":`)
	w.Float(b.Fetch)
	w.Raw(`,"TLB":`)
	w.Float(b.TLB)
	w.Raw("}")
}

func writeSampling(w *jsonx.Writer, s *machine.SamplingStats) {
	if s == nil {
		w.Raw("null")
		return
	}
	w.Raw(`{"Period":`)
	w.Uint(s.Period)
	w.Raw(`,"DetailLen":`)
	w.Uint(s.DetailLen)
	w.Raw(`,"WarmupLen":`)
	w.Uint(s.WarmupLen)
	w.Raw(`,"Windows":`)
	w.Int(int64(s.Windows))
	w.Raw(`,"SampledFraction":`)
	w.Float(s.SampledFraction)
	w.Raw(`,"IPCRelErr":`)
	w.Float(s.IPCRelErr)
	w.Raw(`,"L1RelErr":`)
	w.Float(s.L1RelErr)
	w.Raw(`,"L2RelErr":`)
	w.Float(s.L2RelErr)
	w.Raw(`,"L3RelErr":`)
	w.Float(s.L3RelErr)
	w.Raw(`,"MispredictRelErr":`)
	w.Float(s.MispredictRelErr)
	w.Raw("}")
}

func writeRate(w *jsonx.Writer, r *RateStats) {
	w.Raw(`{"Copies":`)
	w.Int(int64(r.Copies))
	w.Raw(`,"AggregateIPC":`)
	w.Float(r.AggregateIPC)
	w.Raw(`,"SharedL3MPKI":`)
	w.Float(r.SharedL3MPKI)
	w.Raw(`,"BackInvalidations":`)
	w.Uint(r.BackInvalidations)
	w.Raw(`,"PerCopyIPC":`)
	if r.PerCopyIPC == nil {
		w.Raw("null")
	} else {
		w.Raw("[")
		for i, v := range r.PerCopyIPC {
			if i > 0 {
				w.Raw(",")
			}
			w.Float(v)
		}
		w.Raw("]")
	}
	w.Raw("}")
}

func writeRuntime(w *jsonx.Writer, r *RuntimeDist) {
	w.Raw(`{"Topology":`)
	w.String(r.Topology)
	w.Raw(`,"Modes":`)
	if r.Modes == nil {
		w.Raw("null")
	} else {
		w.Raw("[")
		for i := range r.Modes {
			m := &r.Modes[i]
			if i > 0 {
				w.Raw(",")
			}
			w.Raw(`{"Class":`)
			w.String(m.Class)
			w.Raw(`,"Weight":`)
			w.Float(m.Weight)
			w.Raw(`,"ExecSeconds":`)
			w.Float(m.ExecSeconds)
			w.Raw(`,"IPC":`)
			w.Float(m.IPC)
			w.Raw("}")
		}
		w.Raw("]")
	}
	w.Raw("}")
}

// UnmarshalJSON implements json.Unmarshaler in one pass over data. It
// accepts any key order, insignificant whitespace, unknown keys
// (skipped) and null for pointers and slices; keys match exact-case.
// Malformed input is an error, never a panic.
func (c *Characteristics) UnmarshalJSON(data []byte) error {
	var d jsonx.Decoder
	d.Reset(data)
	c.DecodeJSON(&d)
	return d.End()
}

// DecodeJSON is UnmarshalJSON on a caller's cursor, for responses that
// embed results; errors are recorded in d.
func (c *Characteristics) DecodeJSON(d *jsonx.Decoder) {
	if !d.Object() {
		return
	}
	for key, ok := d.NextKey(); ok; key, ok = d.NextKey() {
		switch string(key) {
		case "Pair":
			decodePair(d, &c.Pair)
		case "InstrBillions":
			c.InstrBillions = d.Float()
		case "IPC":
			c.IPC = d.Float()
		case "ExecSeconds":
			c.ExecSeconds = d.Float()
		case "LoadPct":
			c.LoadPct = d.Float()
		case "StorePct":
			c.StorePct = d.Float()
		case "BranchPct":
			c.BranchPct = d.Float()
		case "CondPct":
			c.CondPct = d.Float()
		case "JumpPct":
			c.JumpPct = d.Float()
		case "CallPct":
			c.CallPct = d.Float()
		case "IndirectPct":
			c.IndirectPct = d.Float()
		case "ReturnPct":
			c.ReturnPct = d.Float()
		case "MispredictPct":
			c.MispredictPct = d.Float()
		case "L1MissPct":
			c.L1MissPct = d.Float()
		case "L2MissPct":
			c.L2MissPct = d.Float()
		case "L3MissPct":
			c.L3MissPct = d.Float()
		case "RSSMiB":
			c.RSSMiB = d.Float()
		case "VSZMiB":
			c.VSZMiB = d.Float()
		case "Counters":
			c.Counters = nil
			if !d.Null() {
				c.Counters = new(perf.Counters)
				c.Counters.DecodeJSON(d)
			}
		case "Breakdown":
			decodeBreakdown(d, &c.Breakdown)
		case "Calibrated":
			c.Calibrated = d.Bool()
		case "Sampling":
			c.Sampling = decodeSampling(d)
		case "Rate":
			c.Rate = decodeRate(d)
		case "Runtime":
			c.Runtime = decodeRuntime(d)
		default:
			d.Skip()
		}
	}
}

func decodePair(d *jsonx.Decoder, p *profile.Pair) {
	if !d.Object() {
		return
	}
	for key, ok := d.NextKey(); ok; key, ok = d.NextKey() {
		switch string(key) {
		case "App":
			p.App = decodeProfile(d)
		case "Size":
			p.Size = profile.InputSize(d.Int())
		case "Input":
			p.Input = d.String()
		case "Model":
			decodeModel(d, &p.Model)
		default:
			d.Skip()
		}
	}
}

func decodeProfile(d *jsonx.Decoder) *profile.Profile {
	if !d.Object() {
		return nil
	}
	p := new(profile.Profile)
	for key, ok := d.NextKey(); ok; key, ok = d.NextKey() {
		switch string(key) {
		case "Name":
			p.Name = d.String()
		case "Suite":
			p.Suite = profile.Suite(d.Int())
		case "InstrBillions":
			p.InstrBillions = d.Float()
		case "TargetIPC":
			p.TargetIPC = d.Float()
		case "LoadPct":
			p.LoadPct = d.Float()
		case "StorePct":
			p.StorePct = d.Float()
		case "BranchPct":
			p.BranchPct = d.Float()
		case "Mix":
			decodeMix(d, &p.Mix)
		case "MispredictPct":
			p.MispredictPct = d.Float()
		case "L1MissPct":
			p.L1MissPct = d.Float()
		case "L2MissPct":
			p.L2MissPct = d.Float()
		case "L3MissPct":
			p.L3MissPct = d.Float()
		case "RSSMiB":
			p.RSSMiB = d.Float()
		case "VSZMiB":
			p.VSZMiB = d.Float()
		case "MLP":
			p.MLP = d.Float()
		case "CodeKiB":
			p.CodeKiB = d.Float()
		case "BranchSites":
			p.BranchSites = d.Int()
		case "Threads":
			p.Threads = d.Int()
		case "RefInputs":
			p.RefInputs = decodeStrings(d)
		case "TestInputs":
			p.TestInputs = decodeStrings(d)
		case "TrainInputs":
			p.TrainInputs = decodeStrings(d)
		case "InputSpread":
			p.InputSpread = d.Float()
		default:
			d.Skip()
		}
	}
	return p
}

func decodeStrings(d *jsonx.Decoder) []string {
	if !d.Array() {
		return nil
	}
	ss := []string{}
	for d.NextElem() {
		ss = append(ss, d.String())
	}
	return ss
}

func decodeMix(d *jsonx.Decoder, m *profile.BranchMix) {
	if !d.Object() {
		return
	}
	for key, ok := d.NextKey(); ok; key, ok = d.NextKey() {
		switch string(key) {
		case "Cond":
			m.Cond = d.Float()
		case "Jump":
			m.Jump = d.Float()
		case "Call":
			m.Call = d.Float()
		case "IndirectJump":
			m.IndirectJump = d.Float()
		case "Return":
			m.Return = d.Float()
		default:
			d.Skip()
		}
	}
}

func decodeModel(d *jsonx.Decoder, m *profile.Model) {
	if !d.Object() {
		return
	}
	for key, ok := d.NextKey(); ok; key, ok = d.NextKey() {
		switch string(key) {
		case "InstrBillions":
			m.InstrBillions = d.Float()
		case "TargetIPC":
			m.TargetIPC = d.Float()
		case "LoadPct":
			m.LoadPct = d.Float()
		case "StorePct":
			m.StorePct = d.Float()
		case "BranchPct":
			m.BranchPct = d.Float()
		case "Mix":
			decodeMix(d, &m.Mix)
		case "MispredictPct":
			m.MispredictPct = d.Float()
		case "L1MissPct":
			m.L1MissPct = d.Float()
		case "L2MissPct":
			m.L2MissPct = d.Float()
		case "L3MissPct":
			m.L3MissPct = d.Float()
		case "RSSMiB":
			m.RSSMiB = d.Float()
		case "VSZMiB":
			m.VSZMiB = d.Float()
		case "MLP":
			m.MLP = d.Float()
		case "CodeKiB":
			m.CodeKiB = d.Float()
		case "BranchSites":
			m.BranchSites = d.Int()
		case "Threads":
			m.Threads = d.Int()
		case "Seed":
			m.Seed = d.Uint()
		default:
			d.Skip()
		}
	}
}

func decodeBreakdown(d *jsonx.Decoder, b *pipeline.Breakdown) {
	if !d.Object() {
		return
	}
	for key, ok := d.NextKey(); ok; key, ok = d.NextKey() {
		switch string(key) {
		case "Base":
			b.Base = d.Float()
		case "Mispredict":
			b.Mispredict = d.Float()
		case "L2":
			b.L2 = d.Float()
		case "L3":
			b.L3 = d.Float()
		case "Memory":
			b.Memory = d.Float()
		case "Fetch":
			b.Fetch = d.Float()
		case "TLB":
			b.TLB = d.Float()
		default:
			d.Skip()
		}
	}
}

func decodeSampling(d *jsonx.Decoder) *machine.SamplingStats {
	if !d.Object() {
		return nil
	}
	s := new(machine.SamplingStats)
	for key, ok := d.NextKey(); ok; key, ok = d.NextKey() {
		switch string(key) {
		case "Period":
			s.Period = d.Uint()
		case "DetailLen":
			s.DetailLen = d.Uint()
		case "WarmupLen":
			s.WarmupLen = d.Uint()
		case "Windows":
			s.Windows = d.Int()
		case "SampledFraction":
			s.SampledFraction = d.Float()
		case "IPCRelErr":
			s.IPCRelErr = d.Float()
		case "L1RelErr":
			s.L1RelErr = d.Float()
		case "L2RelErr":
			s.L2RelErr = d.Float()
		case "L3RelErr":
			s.L3RelErr = d.Float()
		case "MispredictRelErr":
			s.MispredictRelErr = d.Float()
		default:
			d.Skip()
		}
	}
	return s
}

func decodeRate(d *jsonx.Decoder) *RateStats {
	if !d.Object() {
		return nil
	}
	r := new(RateStats)
	for key, ok := d.NextKey(); ok; key, ok = d.NextKey() {
		switch string(key) {
		case "Copies":
			r.Copies = d.Int()
		case "AggregateIPC":
			r.AggregateIPC = d.Float()
		case "SharedL3MPKI":
			r.SharedL3MPKI = d.Float()
		case "BackInvalidations":
			r.BackInvalidations = d.Uint()
		case "PerCopyIPC":
			r.PerCopyIPC = nil
			if d.Array() {
				r.PerCopyIPC = []float64{}
				for d.NextElem() {
					r.PerCopyIPC = append(r.PerCopyIPC, d.Float())
				}
			}
		default:
			d.Skip()
		}
	}
	return r
}

func decodeRuntime(d *jsonx.Decoder) *RuntimeDist {
	if !d.Object() {
		return nil
	}
	r := new(RuntimeDist)
	for key, ok := d.NextKey(); ok; key, ok = d.NextKey() {
		switch string(key) {
		case "Topology":
			r.Topology = d.String()
		case "Modes":
			r.Modes = nil
			if d.Array() {
				r.Modes = []RuntimeMode{}
				for d.NextElem() {
					r.Modes = append(r.Modes, decodeMode(d))
				}
			}
		default:
			d.Skip()
		}
	}
	return r
}

func decodeMode(d *jsonx.Decoder) RuntimeMode {
	var m RuntimeMode
	if !d.Object() {
		return m
	}
	for key, ok := d.NextKey(); ok; key, ok = d.NextKey() {
		switch string(key) {
		case "Class":
			m.Class = d.String()
		case "Weight":
			m.Weight = d.Float()
		case "ExecSeconds":
			m.ExecSeconds = d.Float()
		case "IPC":
			m.IPC = d.Float()
		default:
			d.Skip()
		}
	}
	return m
}
