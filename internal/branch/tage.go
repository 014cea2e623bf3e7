package branch

// TAGE is a compact TAGE predictor (Seznec & Michaud, JILP 2006): a
// bimodal base predictor plus several partially-tagged tables indexed by
// geometrically growing global-history lengths. The longest-history
// tagged hit provides the prediction; allocation on mispredicts steals
// weakly-held entries in longer tables.
type TAGE struct {
	base *Bimodal
	// tables[t] uses history length histLens[t].
	tables   []tageTable
	histLens []uint
	history  uint64 // newest outcome in bit 0

	// useAlt is a simple confidence counter for preferring the alternate
	// prediction when the provider entry is weak (newly allocated).
	useAlt counter2
}

type tageTable struct {
	tags []uint16
	ctr  []int8 // signed 3-bit counter: >=0 predicts taken
	use  []uint8
	mask uint64
}

// tageHistLens are the geometric history lengths of the tagged tables,
// and tageDetail renders them with the bimodal base's size, as a tage
// spec's String appends them.
var tageHistLens = []uint{5, 15, 44, 64}

const tageDetail = ":5,15,44,64[bimodal:13]"

// NewTAGE returns a TAGE predictor with 2^tableBits entries in each of
// four tagged tables (history lengths tageHistLens) over a bimodal:13
// base.
func NewTAGE(tableBits int) *TAGE {
	t := &TAGE{
		base:     NewBimodal(13),
		histLens: tageHistLens,
	}
	size := 1 << tableBits
	for range tageHistLens {
		t.tables = append(t.tables, tageTable{
			tags: make([]uint16, size),
			ctr:  make([]int8, size),
			use:  make([]uint8, size),
			mask: uint64(size - 1),
		})
	}
	return t
}

// foldedHistory compresses the low histLen bits of history into width
// bits by XOR folding.
func foldedHistory(history uint64, histLen, width uint) uint64 {
	h := history
	if histLen < 64 {
		h &= (1 << histLen) - 1
	}
	folded := uint64(0)
	for h != 0 {
		folded ^= h & ((1 << width) - 1)
		h >>= width
	}
	return folded
}

func (t *TAGE) index(table int, pc uint64) uint64 {
	hl := t.histLens[table]
	return ((pc >> 2) ^ foldedHistory(t.history, hl, 12) ^ (foldedHistory(t.history, hl, 10) << 1)) & t.tables[table].mask
}

func (t *TAGE) tag(table int, pc uint64) uint16 {
	hl := t.histLens[table]
	return uint16(((pc >> 2) ^ foldedHistory(t.history, hl, 9) ^ (foldedHistory(t.history, hl, 7) << 2)) & 0x1FF)
}

// lookup finds the provider (longest matching table) and alternate
// predictions.
func (t *TAGE) lookup(pc uint64) (provider int, providerIdx uint64, pred, altPred bool) {
	provider = -1
	alt := -1
	var altIdx uint64
	for tb := len(t.tables) - 1; tb >= 0; tb-- {
		idx := t.index(tb, pc)
		if t.tables[tb].tags[idx] == t.tag(tb, pc) {
			if provider < 0 {
				provider, providerIdx = tb, idx
			} else if alt < 0 {
				alt, altIdx = tb, idx
			}
		}
	}
	basePred := t.base.Predict(pc)
	if provider < 0 {
		return -1, 0, basePred, basePred
	}
	pred = t.tables[provider].ctr[providerIdx] >= 0
	if alt >= 0 {
		altPred = t.tables[alt].ctr[altIdx] >= 0
	} else {
		altPred = basePred
	}
	// Newly allocated (weak, unuseful) entries defer to the alternate
	// prediction when the useAlt counter says alternates do better.
	weak := t.tables[provider].ctr[providerIdx] == 0 || t.tables[provider].ctr[providerIdx] == -1
	if weak && t.tables[provider].use[providerIdx] == 0 && t.useAlt.taken() {
		pred = altPred
	}
	return provider, providerIdx, pred, altPred
}

// Predict implements Predictor.
func (t *TAGE) Predict(pc uint64) bool {
	_, _, pred, _ := t.lookup(pc)
	return pred
}

// Update implements Predictor.
func (t *TAGE) Update(pc uint64, taken bool) {
	provider, providerIdx, pred, altPred := t.lookup(pc)
	if provider >= 0 {
		tbl := &t.tables[provider]
		tbl.ctr[providerIdx] = satAdd3(tbl.ctr[providerIdx], taken)
		if pred != altPred {
			if pred == taken && tbl.use[providerIdx] < 3 {
				tbl.use[providerIdx]++
			} else if pred != taken && tbl.use[providerIdx] > 0 {
				tbl.use[providerIdx]--
			}
			// Track whether alternates would have done better.
			t.useAlt = t.useAlt.update(altPred == taken && pred != taken)
		}
	} else {
		t.base.Update(pc, taken)
	}
	// Allocate into a longer table on a mispredict.
	if pred != taken && provider < len(t.tables)-1 {
		t.allocate(provider+1, pc, taken)
	}
	t.history = (t.history << 1) | boolBit(taken)
}

// allocate claims an unuseful entry in some table at or above start.
func (t *TAGE) allocate(start int, pc uint64, taken bool) {
	for tb := start; tb < len(t.tables); tb++ {
		idx := t.index(tb, pc)
		tbl := &t.tables[tb]
		if tbl.use[idx] == 0 {
			tbl.tags[idx] = t.tag(tb, pc)
			if taken {
				tbl.ctr[idx] = 0
			} else {
				tbl.ctr[idx] = -1
			}
			return
		}
		tbl.use[idx]--
	}
}

func satAdd3(c int8, taken bool) int8 {
	if taken {
		if c < 3 {
			return c + 1
		}
		return c
	}
	if c > -4 {
		return c - 1
	}
	return c
}

func boolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
