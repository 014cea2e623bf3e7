// Package store implements the persistent, content-addressed result
// store that sits under the in-memory campaign cache (internal/sched) as
// its second tier. One record holds one cached campaign result, keyed by
// the same content hashes the memory tier uses
// (machine Config.Fingerprint + pair model + run options), so a record
// is immutable by construction: equal keys imply bit-identical payloads,
// which is why duplicate writes, concurrent writers and cross-process
// sharing need no coordination.
//
// Layout. Each Store handle appends its records to one segment file of
// its own, <dir>/seg-<time>-<random>.log, created on the handle's first
// Store. A record is one header line — the Go-quoted key, the hex
// SHA-256 of the payload and the payload length — followed by the raw
// payload bytes and a newline, written with a single write. Appending
// to an existing file costs a few microseconds where creating a file
// per record cost most of a millisecond.
//
// Packs. A segment unchanged for quietAge is quiet: its writer is gone
// or idle. Once a Load miss finds compactSegments quiet segments of other
// handles, or compactBytes of them, the handle compacts them into one
// pack, <dir>/pack-<time>-<random>.log, and removes them. A pack holds
// the same records grouped into buckets by a hash of the key, behind a
// table of the buckets' ends, so a handle looking up a key reads one
// bucket of each pack instead of the whole store, and the segments of
// processes long gone do not pile up for every miss to stat.
//
// Durability model. A handle indexes its own appends and, on a Load
// miss, every complete record that other handles' segments gained since
// its last look and the key's bucket of every pack. A Load verifies the
// record it reads, so a reader never sees a partial or damaged payload:
// a torn tail, a flipped byte or a garbage segment is a counted miss,
// never an error, and costs at most one recomputation, whose
// write-through appends an intact copy. A handle whose append fails
// abandons that segment, so a torn record is only ever a segment's tail.
package store

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math/bits"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// Process-wide store metrics: operation outcomes plus read/write
// latency histograms. These aggregate across every Store handle in the
// process (handles already keep per-handle Stats).
var (
	metOps = map[string]*obs.Counter{
		"hit":         obs.Default().Counter("speckit_store_ops_total", "Store operations by outcome.", "op", "hit"),
		"miss":        obs.Default().Counter("speckit_store_ops_total", "", "op", "miss"),
		"corrupt":     obs.Default().Counter("speckit_store_ops_total", "", "op", "corrupt"),
		"write":       obs.Default().Counter("speckit_store_ops_total", "", "op", "write"),
		"write_error": obs.Default().Counter("speckit_store_ops_total", "", "op", "write_error"),
	}
	metReadSeconds = obs.Default().Histogram("speckit_store_read_seconds",
		"Record load latency (any outcome).", obs.LatencyBuckets)
	metWriteSeconds = obs.Default().Histogram("speckit_store_write_seconds",
		"Record persist latency (any outcome).", obs.LatencyBuckets)
)

const (
	// maxHeader bounds a record's header line, newline included. A
	// Store whose key would not fit fails, and a scan stops at a longer
	// line.
	maxHeader = 4096
	// scanChunk is how much of a file one scan read takes at a time.
	scanChunk = 1 << 20

	// quietAge is how long a segment must go unchanged before it counts
	// as quiet: a candidate for compaction, and a record cut short at
	// its end a torn tail rather than a write in progress.
	quietAge = time.Minute
	// A miss compacts once it finds compactSegments quiet segments of
	// other handles, or compactBytes in them.
	compactSegments = 8
	compactBytes    = 4 << 20
	// maxPacks is how many packs a directory keeps before a compaction
	// merges them all into its new one.
	maxPacks = 4
	// bucketRecords is a pack's mean records per bucket; maxBuckets
	// bounds its table.
	bucketRecords = 16
	maxBuckets    = 1 << 20
)

// Store is a directory of content-addressed result records. It
// implements sched.Backend. Safe for concurrent use by any number of
// goroutines and processes sharing the directory.
type Store struct {
	dir string

	// wmu serializes the handle's appends. seg is the segment they go
	// to (nil until the first Store and after a failed append), end its
	// length.
	wmu sync.Mutex
	seg *segment
	end int64

	// smu serializes directory scans, compactions and the creation of
	// the handle's segments; seen maps every listed file the handle
	// knows, and buf is the scans' read buffer.
	smu  sync.Mutex
	seen map[string]*segment
	buf  []byte

	mu    sync.Mutex
	stats Stats
	index map[string]loc
	bad   map[string]bool // keys that had a damaged record: a miss on one is Corrupt
}

// segment is one segment or pack file the handle knows.
type segment struct {
	name string
	// own marks a segment this handle appends to: its records are
	// indexed as they are written, so scans skip it.
	own bool
	// done is the offset up to which a scan indexed a segment.
	done int64
	// pack marks a pack. buckets is its bucket count (0 until first
	// read, -1 if its table is malformed) and size its length; read marks
	// the buckets the handle has indexed, all that it indexed every one.
	pack    bool
	buckets int
	size    int64
	read    map[int]bool
	all     bool
}

// loc is where one indexed record lies: its file, offset and framed
// length.
type loc struct {
	seg *segment
	off int64
	n   int
}

// Stats are cumulative operation counters for one Store handle.
type Stats struct {
	// Hits counts Loads that returned an intact record; Misses counts
	// Loads that found nothing usable.
	Hits, Misses uint64
	// Corrupt is the subset of Misses whose key had a record that failed
	// framing or checksum validation.
	Corrupt uint64
	// Writes counts successful Stores; WriteErrors counts Stores that
	// failed to land (best-effort, so they surface only here).
	Writes, WriteErrors uint64
}

// Open creates (if needed) and returns the store rooted at dir. It
// neither lists the directory nor creates a segment: the first Load miss
// and the first Store do.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, errors.New("store: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &Store{
		dir:   dir,
		seen:  map[string]*segment{},
		index: map[string]loc{},
		bad:   map[string]bool{},
	}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Load returns the payload stored under key. Implements sched.Backend:
// every failure mode — no record, an unreadable file, a torn or garbled
// record, a checksum mismatch — is a miss, never an error. A key the
// index lacks costs one directory listing, which indexes what other
// handles appended since the last one and the key's bucket of each pack.
func (s *Store) Load(key string) ([]byte, bool) {
	start := time.Now()
	defer func() { metReadSeconds.ObserveDuration(time.Since(start)) }()
	data, ok, _ := s.get(key)
	// A scan can index a copy that a compaction removes before the read,
	// so a failed read after a scan earns another (at most three in all).
	for i := 0; !ok && i < 3; i++ {
		s.scan(key, false)
		var failed bool
		if data, ok, failed = s.get(key); !failed {
			break
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case ok:
		s.stats.Hits++
		metOps["hit"].Inc()
	case s.bad[key]:
		s.stats.Misses++
		s.stats.Corrupt++
		metOps["corrupt"].Inc()
	default:
		s.stats.Misses++
		metOps["miss"].Inc()
	}
	return data, ok
}

// get reads key's indexed record and verifies it. A record that fails
// leaves the index and get reports failed; a damaged one also marks its
// key bad, while one whose file is gone (compacted into a pack) is found
// again by the next scan.
func (s *Store) get(key string) (data []byte, ok, failed bool) {
	s.mu.Lock()
	l, ok := s.index[key]
	s.mu.Unlock()
	if !ok {
		return nil, false, false
	}
	f, err := os.Open(filepath.Join(s.dir, l.seg.name))
	gone := err != nil
	if err == nil {
		buf := make([]byte, l.n)
		_, err = f.ReadAt(buf, l.off)
		f.Close()
		if r, st := parse(buf); err == nil && st == recWhole && r.n == len(buf) && r.key == key && r.intact() {
			return bytes.Clone(r.payload), true, false
		}
	}
	s.mu.Lock()
	if s.index[key] == l {
		delete(s.index, key)
	}
	if !gone {
		s.bad[key] = true
	}
	s.mu.Unlock()
	// A pack may hold another copy, passed over when its bucket was read
	// because this one was indexed: the next scan reads the buckets again.
	s.smu.Lock()
	for _, sg := range s.seen {
		clear(sg.read)
		sg.all = false
	}
	s.smu.Unlock()
	// A damaged segment of the handle's own may no longer frame from its
	// start, so the repair goes to a new one other handles can read.
	s.wmu.Lock()
	if s.seg == l.seg {
		s.seg = nil
	}
	s.wmu.Unlock()
	return nil, false, true
}

// Store appends data under key to the handle's segment. Implements
// sched.Backend: failures are swallowed (they only cost a future
// recomputation) and surface in Stats.WriteErrors.
func (s *Store) Store(key string, data []byte) {
	start := time.Now()
	defer func() { metWriteSeconds.ObserveDuration(time.Since(start)) }()
	err := s.append(key, data)
	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil {
		s.stats.WriteErrors++
		metOps["write_error"].Inc()
		return
	}
	s.stats.Writes++
	metOps["write"].Inc()
}

func (s *Store) append(key string, data []byte) error {
	rec := frame(key, data)
	if len(rec)-len(data) > maxHeader+1 {
		return fmt.Errorf("store: key of %d bytes does not fit a record header", len(key))
	}
	s.wmu.Lock()
	defer s.wmu.Unlock()
	f, err := s.openSegment()
	if err != nil {
		return err
	}
	// One write per record. A failed or short one may leave a torn
	// record behind, so the segment is abandoned: the torn record stays
	// its tail and the next Store starts a new segment.
	_, err = f.WriteAt(rec, s.end)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		s.seg = nil
		return err
	}
	s.mu.Lock()
	s.index[key] = loc{seg: s.seg, off: s.end, n: len(rec)}
	s.mu.Unlock()
	s.end += int64(len(rec))
	return nil
}

// openSegment opens the handle's segment for writing, creating a new one
// if it has none. The caller holds wmu and closes the file.
func (s *Store) openSegment() (*os.File, error) {
	if s.seg != nil {
		f, err := os.OpenFile(filepath.Join(s.dir, s.seg.name), os.O_WRONLY, 0)
		if err == nil || !errors.Is(err, os.ErrNotExist) {
			if err != nil {
				s.seg = nil
			}
			return f, err
		}
		// Another handle compacted the segment away: start a new one.
		s.seg = nil
	}
	// Segment names sort by creation time, so a scan meets older
	// segments first and a newer copy of a key wins.
	s.smu.Lock()
	defer s.smu.Unlock()
	f, err := os.CreateTemp(s.dir, fmt.Sprintf("seg-%016x-*.log", time.Now().UnixNano()))
	if err != nil {
		return nil, err
	}
	s.seg, s.end = &segment{name: filepath.Base(f.Name()), own: true}, 0
	s.seen[s.seg.name] = s.seg
	return f, nil
}

// scan lists the directory once. It indexes the complete records that
// other handles' segments gained since the handle last looked and, in
// each pack, key's bucket (every bucket if all is set), then compacts if
// enough quiet segments piled up.
func (s *Store) scan(key string, all bool) {
	s.smu.Lock()
	defer s.smu.Unlock()
	// A file that vanishes between the listing and its read was
	// compacted into a pack the listing may have missed: list again.
	for range 4 {
		packs, quiet, quietBytes, vanished := s.list(key, all)
		if vanished {
			continue
		}
		if len(quiet) >= compactSegments || quietBytes >= compactBytes {
			if len(packs) >= maxPacks {
				quiet = append(packs, quiet...)
			}
			s.compact(quiet)
		}
		return
	}
}

// list is one pass of scan: it returns the packs and quiet segments it
// listed, and whether a listed file vanished before it was read.
func (s *Store) list(key string, all bool) (packs, quiet []*segment, quietBytes int64, vanished bool) {
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, nil, 0, false
	}
	now := time.Now()
	listed := make(map[string]bool, len(ents))
	for _, e := range ents {
		name := e.Name()
		pack := strings.HasPrefix(name, "pack-")
		if pack && strings.HasSuffix(name, ".tmp") {
			// A compaction that died before its rename.
			if info, err := e.Info(); err == nil && now.Sub(info.ModTime()) >= quietAge {
				os.Remove(filepath.Join(s.dir, name))
			}
			continue
		}
		if !strings.HasSuffix(name, ".log") || !pack && !strings.HasPrefix(name, "seg-") {
			continue
		}
		listed[name] = true
		sg := s.seen[name]
		if sg == nil {
			sg = &segment{name: name, pack: pack}
			s.seen[name] = sg
		}
		if sg.pack {
			packs = append(packs, sg)
			vanished = !s.scanPack(sg, key, all) || vanished
			continue
		}
		if sg.own {
			continue
		}
		info, err := e.Info()
		if err != nil {
			vanished = true
			continue
		}
		isQuiet := now.Sub(info.ModTime()) >= quietAge
		if info.Size() > sg.done {
			vanished = !s.scanSegment(sg, info.Size(), isQuiet) || vanished
		}
		if isQuiet {
			quiet = append(quiet, sg)
			quietBytes += info.Size()
		}
	}
	for name := range s.seen {
		if !listed[name] {
			delete(s.seen, name) // compacted away: its records are in a pack
		}
	}
	return packs, quiet, quietBytes, vanished
}

// scanSegment indexes the records of one segment from where the last
// scan stopped up to size. It stops at the first record it cannot
// frame — a torn tail or a garbled header — and starts there next time.
// A record cut short counts against its key only in a quiet segment: in
// a live one it may be a write still landing. scanSegment reports false
// if the segment could not be opened.
func (s *Store) scanSegment(sg *segment, size int64, quiet bool) bool {
	f, err := os.Open(filepath.Join(s.dir, sg.name))
	if err != nil {
		return false
	}
	defer f.Close()
	end, r, st := s.walk(f, sg.done, size, func(r record, off int64) {
		s.add(loc{seg: sg, off: off, n: r.n}, r)
	})
	sg.done = end
	if st == recShort && r.n > 0 && quiet {
		s.mu.Lock()
		s.bad[r.key] = true
		s.mu.Unlock()
	}
	return true
}

// scanPack indexes key's bucket of a pack, or every bucket if all is
// set, unless the handle has already. It reports false if the pack had
// to be read and could not be opened.
func (s *Store) scanPack(sg *segment, key string, all bool) bool {
	if sg.buckets < 0 || sg.all || sg.buckets > 0 && !all && sg.read[bucket(key, sg.buckets)] {
		return true
	}
	f, err := os.Open(filepath.Join(s.dir, sg.name))
	if err != nil {
		return false
	}
	defer f.Close()
	if !sg.openPack(f) {
		return true
	}
	lo, hi := 0, sg.buckets-1
	if all {
		sg.all = true
	} else {
		lo = bucket(key, sg.buckets)
		hi = lo
		sg.read[lo] = true
	}
	if from, to, ok := sg.span(f, lo, hi); ok {
		s.walk(f, from, to, func(r record, off int64) {
			s.add(loc{seg: sg, off: off, n: r.n}, r)
		})
	}
	return true
}

// add indexes one scanned record. A later copy of an indexed key replaces
// it only if intact, so of several copies the newest intact one loads; a
// pack's copy never replaces one already indexed, which is as new or
// newer.
func (s *Store) add(l loc, r record) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.index[r.key]; ok {
		if l.seg.pack {
			return
		}
		if !r.intact() {
			s.bad[r.key] = true
			return
		}
	}
	s.index[strings.Clone(r.key)] = l // not the whole header line it slices
}

// walk calls fn for each whole record of f between from and to, reading
// scanChunk bytes at a time, and returns where framing stopped: to, or
// the start of the record it could not frame, with that record's outcome
// (recShort with r.n set if its header is whole). The caller holds smu.
func (s *Store) walk(f *os.File, from, to int64, fn func(r record, off int64)) (int64, record, int) {
	var r record
	st, want := recWhole, 0
	for from < to {
		n := int(min(to-from, int64(max(scanChunk, want))))
		if cap(s.buf) < n {
			s.buf = make([]byte, n)
		}
		buf := s.buf[:n]
		// A short read, at EOF or on an error, ends the file where it
		// stopped; the next scan tries again from the last record.
		m, _ := f.ReadAt(buf, from)
		if m < n {
			to = from + int64(m)
		}
		p := 0
		for p < m {
			if r, st = parse(buf[p:m]); st != recWhole {
				break
			}
			fn(r, from+int64(p))
			p += r.n
		}
		from += int64(p)
		if p == m {
			continue
		}
		if st != recShort || from+max(int64(r.n), int64(m-p)+1) > to {
			return from, r, st
		}
		// The record runs past this read but not past the file.
		want = r.n
	}
	return from, record{}, recWhole
}

// compact copies the newest intact copy of every record in inputs into
// one new pack, then removes the inputs it read. A record appended to an
// input after it was read is lost, which costs one recomputation. The
// caller holds smu.
func (s *Store) compact(inputs []*segment) {
	type src struct {
		f   *os.File
		off int64
		n   int
	}
	newest := map[string]src{}
	var read []*segment
	for _, sg := range inputs {
		f, err := os.Open(filepath.Join(s.dir, sg.name))
		if err != nil {
			continue // another handle compacted it
		}
		defer f.Close()
		from, to, ok := int64(0), sg.done, true
		if sg.pack {
			if !sg.openPack(f) {
				continue
			}
			from, to, ok = sg.span(f, 0, sg.buckets-1)
		}
		if !ok {
			continue
		}
		s.walk(f, from, to, func(r record, off int64) {
			if _, ok := newest[r.key]; (!ok || !sg.pack) && r.intact() {
				newest[r.key] = src{f, off, r.n}
			}
		})
		read = append(read, sg)
	}
	if len(read) == 0 {
		return
	}

	nb := 1 << bits.Len(uint(len(newest)/bucketRecords))
	nb = min(nb, maxBuckets)
	byBucket := make([][]string, nb)
	for key := range newest {
		b := bucket(key, nb)
		byBucket[b] = append(byBucket[b], key)
	}
	tmp, err := os.CreateTemp(s.dir, fmt.Sprintf("pack-%016x-*.tmp", time.Now().UnixNano()))
	if err != nil {
		return
	}
	w := bufio.NewWriterSize(tmp, scanChunk)
	ends := make([]int64, nb)
	offs := make(map[string]int64, len(newest))
	off := tableSize(nb)
	_, err = w.Write(make([]byte, off))
	for b, keys := range byBucket {
		sort.Strings(keys)
		for _, key := range keys {
			r := newest[key]
			if cap(s.buf) < r.n {
				s.buf = make([]byte, r.n)
			}
			if err == nil {
				_, err = r.f.ReadAt(s.buf[:r.n], r.off)
			}
			if err == nil {
				_, err = w.Write(s.buf[:r.n])
			}
			offs[key] = off
			off += int64(r.n)
		}
		ends[b] = off
	}
	if err == nil {
		err = w.Flush()
	}
	if err == nil {
		table := binary.LittleEndian.AppendUint64(nil, uint64(nb))
		for _, e := range ends {
			table = binary.LittleEndian.AppendUint64(table, uint64(e))
		}
		_, err = tmp.WriteAt(table, 0)
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	name := strings.TrimSuffix(filepath.Base(tmp.Name()), ".tmp") + ".log"
	if err == nil {
		err = os.Rename(tmp.Name(), filepath.Join(s.dir, name))
	}
	if err != nil {
		os.Remove(tmp.Name())
		return
	}

	pack := &segment{name: name, pack: true, buckets: nb, size: off, read: map[int]bool{}, all: true}
	s.seen[name] = pack
	gone := map[*segment]bool{}
	for _, sg := range read {
		os.Remove(filepath.Join(s.dir, sg.name))
		delete(s.seen, sg.name)
		gone[sg] = true
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for key, off := range offs {
		if l, ok := s.index[key]; !ok || gone[l.seg] {
			s.index[key] = loc{seg: pack, off: off, n: newest[key].n}
		}
	}
}

// tableSize is the length of a pack's bucket table: the bucket count and
// each bucket's end offset, little-endian uint64s.
func tableSize(buckets int) int64 { return 8 * int64(1+buckets) }

// openPack reads a pack's bucket count and length on first use and
// reports whether its table is well formed.
func (sg *segment) openPack(f *os.File) bool {
	if sg.buckets == 0 {
		sg.buckets = -1
		var head [8]byte
		_, err := f.ReadAt(head[:], 0)
		info, serr := f.Stat()
		if nb := binary.LittleEndian.Uint64(head[:]); err == nil && serr == nil &&
			nb > 0 && nb <= maxBuckets && nb&(nb-1) == 0 && tableSize(int(nb)) <= info.Size() {
			sg.buckets, sg.size, sg.read = int(nb), info.Size(), map[int]bool{}
		}
	}
	return sg.buckets > 0
}

// span returns where a pack's buckets lo through hi lie, and whether the
// table's offsets for them are sound.
func (sg *segment) span(f *os.File, lo, hi int) (from, to int64, ok bool) {
	end := func(b int) int64 {
		if b < 0 {
			return tableSize(sg.buckets)
		}
		var raw [8]byte
		if _, err := f.ReadAt(raw[:], 8+8*int64(b)); err != nil {
			return -1
		}
		return int64(binary.LittleEndian.Uint64(raw[:]))
	}
	from, to = end(lo-1), end(hi)
	return from, to, tableSize(sg.buckets) <= from && from <= to && to <= sg.size
}

// bucket is key's bucket in a pack of nb (a power of two) buckets: the
// low bits of its 32-bit FNV-1a hash.
func bucket(key string, nb int) int {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint32(key[i])) * 16777619
	}
	return int(h & uint32(nb-1))
}

// Keys lists the directory and returns the keys of every record the
// handle has indexed, sorted: its own appends and every whole record the
// other segments and the packs hold. A damaged record is found only when
// a Load reads it, so its key may still be listed.
func (s *Store) Keys() []string {
	s.scan("", true)
	s.mu.Lock()
	keys := make([]string, 0, len(s.index))
	for k := range s.index {
		keys = append(keys, k)
	}
	s.mu.Unlock()
	sort.Strings(keys)
	return keys
}

// Stats returns the handle's cumulative counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// frame returns data as one record under key: the header line
// `"<key>" <sha256 hex> <length>`, the payload and a newline.
func frame(key string, data []byte) []byte {
	sum := sha256.Sum256(data)
	rec := make([]byte, 0, len(key)+len(data)+100)
	rec = strconv.AppendQuote(rec, key)
	rec = append(rec, ' ')
	rec = hex.AppendEncode(rec, sum[:])
	rec = append(rec, ' ')
	rec = strconv.AppendInt(rec, int64(len(data)), 10)
	rec = append(rec, '\n')
	rec = append(rec, data...)
	return append(rec, '\n')
}

// record is one record parse found at the start of some bytes.
type record struct {
	key string
	// sum is the header's checksum field and payload the payload, both
	// within the parsed bytes.
	sum, payload []byte
	// n is the record's framed length: header line, payload and the
	// closing newline.
	n int
}

// intact reports whether the payload matches the header's checksum.
func (r record) intact() bool {
	got := sha256.Sum256(r.payload)
	var want [2 * sha256.Size]byte
	hex.Encode(want[:], got[:])
	return bytes.Equal(r.sum, want[:])
}

// A parse outcome.
const (
	recWhole = iota // a whole record (its checksum is for intact to check)
	recShort        // the bytes end inside the record (n is its length if the header is whole, else 0)
	recBad          // the bytes do not start with a record header
)

// parse frames the record at the start of b without checking its
// checksum.
func parse(b []byte) (record, int) {
	nl := bytes.IndexByte(b[:min(len(b), maxHeader)], '\n')
	if nl < 0 {
		if len(b) < maxHeader {
			return record{}, recShort
		}
		return record{}, recBad
	}
	line := string(b[:nl])
	q, err := strconv.QuotedPrefix(line)
	if err != nil || q[0] != '"' || !strings.HasPrefix(line[len(q):], " ") {
		return record{}, recBad
	}
	key, err := strconv.Unquote(q)
	if err != nil {
		return record{}, recBad
	}
	sum, length, ok := strings.Cut(line[len(q)+1:], " ")
	size, err := strconv.ParseUint(length, 10, 32)
	if !ok || err != nil {
		return record{}, recBad
	}
	r := record{key: key, sum: b[len(q)+1 : len(q)+1+len(sum)], n: nl + 1 + int(size) + 1}
	if r.n > len(b) {
		return r, recShort
	}
	if b[r.n-1] != '\n' {
		return record{}, recBad
	}
	r.payload = b[nl+1 : r.n-1]
	return r, recWhole
}
