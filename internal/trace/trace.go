// Package trace defines the dynamic instruction stream representation
// exchanged between the synthetic workload generators and the
// microarchitecture simulator.
//
// A trace is a sequence of micro-operation records. The simulator consumes
// records one at a time through the Source interface, so traces are never
// materialized in memory; generators produce them lazily.
package trace

import "fmt"

// Kind classifies a micro-operation.
type Kind uint8

const (
	// KindALU is an integer arithmetic/logic operation.
	KindALU Kind = iota
	// KindFP is a floating-point operation.
	KindFP
	// KindLoad is a memory load micro-operation.
	KindLoad
	// KindStore is a memory store micro-operation.
	KindStore
	// KindBranch is a control-transfer instruction; see BranchClass.
	KindBranch
	numKinds
)

// String returns the lowercase mnemonic name of the kind.
func (k Kind) String() string {
	switch k {
	case KindALU:
		return "alu"
	case KindFP:
		return "fp"
	case KindLoad:
		return "load"
	case KindStore:
		return "store"
	case KindBranch:
		return "branch"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// NumKinds is the number of distinct micro-operation kinds.
const NumKinds = int(numKinds)

// BranchClass classifies branch instructions the same way the paper's
// Haswell counters do (br_inst_exec.all_conditional, .all_direct_jmp,
// .all_direct_near_call, .all_indirect_jump_non_call_ret,
// .all_indirect_near_return).
type BranchClass uint8

const (
	// BranchNone marks a non-branch record.
	BranchNone BranchClass = iota
	// BranchConditional is a direction-predicted conditional branch.
	BranchConditional
	// BranchDirectJump is an unconditional direct jump.
	BranchDirectJump
	// BranchDirectCall is a direct near call (pushes a return address).
	BranchDirectCall
	// BranchIndirectJump is an indirect jump that is neither call nor
	// return (e.g. a switch table).
	BranchIndirectJump
	// BranchReturn is an indirect near return (pops the return address).
	BranchReturn
	numBranchClasses
)

// NumBranchClasses counts the real branch classes (excluding BranchNone).
const NumBranchClasses = int(numBranchClasses) - 1

// String returns the counter-style name of the class.
func (c BranchClass) String() string {
	switch c {
	case BranchNone:
		return "none"
	case BranchConditional:
		return "conditional"
	case BranchDirectJump:
		return "direct_jmp"
	case BranchDirectCall:
		return "direct_near_call"
	case BranchIndirectJump:
		return "indirect_jump_non_call_ret"
	case BranchReturn:
		return "indirect_near_return"
	default:
		return fmt.Sprintf("BranchClass(%d)", uint8(c))
	}
}

// Uop is one dynamic micro-operation record. The word-sized fields lead
// so the struct packs into 32 bytes — two records per cache line, never
// straddling one; the simulator streams millions of these through batch
// buffers, and both the padding and the line alignment are measurable
// memory bandwidth there.
type Uop struct {
	// PC is the virtual address of the instruction.
	PC uint64
	// Addr is the virtual data address for loads and stores.
	Addr uint64
	// Target is the resolved target address of a taken branch.
	Target uint64
	// Kind classifies the micro-operation.
	Kind Kind
	// Branch is the branch class for KindBranch records, BranchNone
	// otherwise.
	Branch BranchClass
	// Taken reports the resolved direction of a conditional branch; it is
	// true for all unconditional control transfers.
	Taken bool
}

// IsMem reports whether the uop references data memory.
func (u *Uop) IsMem() bool { return u.Kind == KindLoad || u.Kind == KindStore }

// Source produces a dynamic uop stream. Next fills the provided record and
// reports whether a record was produced; it returns false when the stream
// is exhausted. Implementations are not safe for concurrent use.
type Source interface {
	Next(u *Uop) bool
}

// BatchSource produces uop records in batches, the simulator's preferred
// interface: one virtual dispatch amortizes over an entire buffer instead
// of being paid per record.
//
// NextBatch fills a prefix of buf and returns the number of records
// written. It returns 0 only when the stream is exhausted (an empty buf
// also yields 0). A batch producer must emit exactly the same record
// sequence as repeated Next calls, independent of how consumers slice
// their requests — the machine equivalence tests enforce this for every
// implementation in the tree.
type BatchSource interface {
	NextBatch(buf []Uop) int
}

// Skipper is an optional capability on Source/BatchSource
// implementations: fast-forwarding the stream without materializing
// records. Skip advances the stream by up to n records and returns how
// many were actually skipped; fewer than n means the stream is
// exhausted. Skipping must be stream-equivalent: after Skip(n) the next
// record produced is exactly the record that n discarded Next calls
// would have exposed, including every piece of hidden generator state
// (RNG streams, cursors, stacks). The sampled-simulation tests enforce
// this for every implementation in the tree.
type Skipper interface {
	Skip(n uint64) uint64
}

// WarmSkipper is the warming variant of Skipper: SkipWarm fast-forwards
// exactly like Skip while reporting every branch record inside the
// skipped stretch to observe, each reconstructed bit-identically to the
// record Next would have emitted. Non-branch records are not reported
// (and, in native implementations, never materialized) — that asymmetry
// is the point: branch-predictor state is the one piece of simulator
// state that is both large and phase-sensitive, so sampled simulation
// keeps it functionally warm across fast-forward gaps at a small
// surcharge over a cold skip, while cache recency rides on frozen state
// plus the per-window warmup. A nil observe must behave exactly like
// Skip.
type WarmSkipper interface {
	Skipper
	SkipWarm(n uint64, observe func(*Uop)) uint64
}

// SkipRecords fast-forwards src by n records: SkipRecordsWarm with no
// observer.
func SkipRecords(src BatchSource, buf []Uop, n uint64) uint64 {
	return SkipRecordsWarm(src, buf, n, nil)
}

// SkipRecordsWarm fast-forwards src by n records, reporting the branch
// records of the skipped stretch to observe when it is non-nil. Sources
// implementing WarmSkipper (or Skipper, for a nil observe) do this
// natively; anything else falls back to draining batches into buf and
// observing the branch records among them — the same stream advance and
// the same observations, at materialization cost. Callers own buf
// (typically their existing per-run batch buffer), so the fallback
// allocates nothing. It returns the number of records skipped; fewer
// than n means exhaustion.
func SkipRecordsWarm(src BatchSource, buf []Uop, n uint64, observe func(*Uop)) uint64 {
	if done, ok := skipNative(src, n, observe); ok {
		return done
	}
	return drain(src, buf, n, observe)
}

// skipNative skips n records of src through its own skip capability:
// SkipWarm, or Skip when observe is nil. ok is false when src has
// neither that applies.
func skipNative(src any, n uint64, observe func(*Uop)) (done uint64, ok bool) {
	if ws, ok := src.(WarmSkipper); ok {
		return ws.SkipWarm(n, observe), true
	}
	if s, ok := src.(Skipper); ok && observe == nil {
		return s.Skip(n), true
	}
	return 0, false
}

// drain is the skip fallback every source without a native skip shares:
// it pulls up to n records of src through buf, reporting the branch
// records among them to observe when it is non-nil.
func drain(src BatchSource, buf []Uop, n uint64, observe func(*Uop)) uint64 {
	done := uint64(0)
	for done < n {
		got := src.NextBatch(buf[:min(n-done, uint64(len(buf)))])
		if got == 0 {
			break
		}
		if observe != nil {
			for i := range buf[:got] {
				if buf[i].Kind == KindBranch {
					observe(&buf[i])
				}
			}
		}
		done += uint64(got)
	}
	return done
}

// AsBatch adapts src to the batch interface. Sources that natively
// implement BatchSource are returned unchanged; others are wrapped in an
// adapter that pulls records one at a time, preserving exact stream
// semantics at per-record cost.
func AsBatch(src Source) BatchSource {
	if b, ok := src.(BatchSource); ok {
		return b
	}
	return &sourceBatcher{src: src}
}

// scratchLen is the sourceBatcher's fallback drain-buffer length: big
// enough to amortize the per-batch loop, small enough (16 KB) to stay
// resident while a skip drains millions of records through it.
const scratchLen = 512

// sourceBatcher lifts a per-record Source into a BatchSource.
type sourceBatcher struct {
	src Source
	// scratch is the Skip fallback's drain buffer, allocated once per
	// adapter on first use and reused for every subsequent call (the
	// allocation-regression test pins this at zero steady-state allocs).
	scratch []Uop
}

// NextBatch implements BatchSource.
func (b *sourceBatcher) NextBatch(buf []Uop) int {
	n := 0
	for n < len(buf) && b.src.Next(&buf[n]) {
		n++
	}
	return n
}

// Skip implements Skipper: SkipWarm with no observer.
func (b *sourceBatcher) Skip(n uint64) uint64 { return b.SkipWarm(n, nil) }

// SkipWarm implements WarmSkipper: natively when the wrapped source can
// skip, otherwise by draining into the adapter's reusable scratch buffer.
func (b *sourceBatcher) SkipWarm(n uint64, observe func(*Uop)) uint64 {
	if done, ok := skipNative(b.src, n, observe); ok {
		return done
	}
	if b.scratch == nil {
		b.scratch = make([]Uop, scratchLen)
	}
	return drain(b, b.scratch, n, observe)
}

// SliceSource adapts a materialized uop slice to the Source interface.
// It is primarily useful in tests.
type SliceSource struct {
	Uops []Uop
	pos  int
}

// Next implements Source.
func (s *SliceSource) Next(u *Uop) bool {
	if s.pos >= len(s.Uops) {
		return false
	}
	*u = s.Uops[s.pos]
	s.pos++
	return true
}

// NextBatch implements BatchSource by copying directly from the slice.
func (s *SliceSource) NextBatch(buf []Uop) int {
	n := copy(buf, s.Uops[s.pos:])
	s.pos += n
	return n
}

// Skip implements Skipper: SkipWarm with no observer.
func (s *SliceSource) Skip(n uint64) uint64 { return s.SkipWarm(n, nil) }

// SkipWarm implements WarmSkipper by advancing the cursor; the records
// already exist, so an observer is shown the skipped stretch's branch
// records in place.
func (s *SliceSource) SkipWarm(n uint64, observe func(*Uop)) uint64 {
	n = min(n, uint64(len(s.Uops)-s.pos))
	if observe != nil {
		skipped := s.Uops[s.pos : s.pos+int(n)]
		for i := range skipped {
			if skipped[i].Kind == KindBranch {
				observe(&skipped[i])
			}
		}
	}
	s.pos += int(n)
	return n
}

// Reset rewinds the source to the beginning of the slice.
func (s *SliceSource) Reset() { s.pos = 0 }

// Limit wraps a Source and stops after n records.
type Limit struct {
	Src Source
	N   uint64

	seen uint64
}

// Next implements Source.
func (l *Limit) Next(u *Uop) bool {
	if l.seen >= l.N {
		return false
	}
	if !l.Src.Next(u) {
		return false
	}
	l.seen++
	return true
}

// NextBatch implements BatchSource, clamping the request to the remaining
// budget and delegating to the wrapped source's batch path when it has
// one.
func (l *Limit) NextBatch(buf []Uop) int {
	if l.seen >= l.N {
		return 0
	}
	if rem := l.N - l.seen; uint64(len(buf)) > rem {
		buf = buf[:rem]
	}
	var n int
	if b, ok := l.Src.(BatchSource); ok {
		n = b.NextBatch(buf)
	} else {
		for n < len(buf) && l.Src.Next(&buf[n]) {
			n++
		}
	}
	l.seen += uint64(n)
	return n
}

// Skip implements Skipper: SkipWarm with no observer.
func (l *Limit) Skip(n uint64) uint64 { return l.SkipWarm(n, nil) }

// SkipWarm implements WarmSkipper, clamping to the remaining budget and
// using the wrapped source's skip when it has one. Without one the
// records are drained one at a time, branch records observed — Limit
// wraps arbitrary Sources, so there is no buffer to reuse and none is
// allocated.
func (l *Limit) SkipWarm(n uint64, observe func(*Uop)) uint64 {
	if l.seen >= l.N {
		return 0
	}
	n = min(n, l.N-l.seen)
	done, ok := skipNative(l.Src, n, observe)
	if !ok {
		var u Uop
		for done < n && l.Src.Next(&u) {
			if observe != nil && u.Kind == KindBranch {
				observe(&u)
			}
			done++
		}
	}
	l.seen += done
	return done
}
