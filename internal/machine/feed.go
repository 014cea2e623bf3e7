package machine

import (
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/trace"
)

// feedDepth is the number of uop buffers in each core's ring: enough
// that whichever side is ahead can run a few buffers before it must
// wait, so a partner that was parked (the wait policy below parks when
// the process has no CPU to spare) has time to be woken.
const feedDepth = 4

// feed generates one core's uops ahead of the kernel. A long-lived
// producer goroutine fills a ring of feedDepth buffers from the core's
// source, in stream order, while the kernel simulates the filled ones in
// place, so synthesis overlaps simulation on a second CPU. Buffers pass
// between the two sides through two handoffs: full ones to the kernel,
// consumed ones back to the producer.
//
// The producer works only inside a request: simulate asks each core's
// feed for exactly the records it will consume (request) and closes the
// request before it returns (end), which stops a producer the kernel
// left early and hands every buffer back. Between requests the producer
// is parked and the source and ring are idle, so the driver's skips
// (bridge) use them directly. Records reach the kernel in stream order
// whatever the buffer boundaries, and batch boundaries are not
// observable, so results are bit-identical to generating each batch
// in line.
type feed struct {
	src trace.BatchSource
	// ring backs the feedDepth buffers; between requests it is idle
	// scratch for skips that must materialize records.
	ring []trace.Uop
	want chan uint64      // requests: produce exactly n records
	full chan []trace.Uop // filled buffers; an empty one ends a request early
	free chan []trace.Uop // consumed buffers handed back
	// full and free are each sized to hold all feedDepth buffers, so
	// neither side ever blocks on a send.
	stop atomic.Bool // set by end: fill nothing more in this request
	// producerWait is the time the producer has waited for free
	// buffers, in nanoseconds, since the driver last took it.
	producerWait atomic.Int64
	done         chan struct{} // closed when the producer exits

	// The consumer's side of the current request.
	cur  []trace.Uop // the buffer being consumed
	off  int         // records of cur already consumed
	left uint64      // records requested but not yet received
	// kernelWait is the time the kernel has waited for full buffers
	// since the driver last took it.
	kernelWait time.Duration
}

// demand counts the simulation goroutines that want a CPU: the kernel
// of every open driver and the producer of every open request. A side
// waiting for the other stays counted, since it has work the moment
// its buffer arrives. The kernel counts a producer in when it sends the
// request, not when the producer wakes for it, so the count never lags
// the goroutines about to run.
var demand atomic.Int64

// maxSpin bounds how long one wait yields before it parks. A running
// partner delivers within about one buffer's generation time (1024
// records take some 13 µs to synthesize on a 2-vCPU AMD EPYC), so a
// wait that outlasts maxSpin means the partner is not running, and the
// waiting side stops holding a CPU. The bound also caps what a wrong
// spin costs: demand does not count goroutines outside the simulation
// (another pair worker between runs, HTTP handlers), and a P that
// yields takes its own goroutine back from the global run queue
// instead of stealing theirs from another P's queue (DESIGN.md §7 has
// the measurements).
const maxSpin = 50 * time.Microsecond

// spins is the wait policy: a side that must wait keeps its CPU,
// yielding to the scheduler between checks, only while every
// simulation goroutine that wants a CPU can have one. Otherwise it
// parks, and a CPU it would hold is left to goroutines with work. With
// one CPU nothing spins.
func spins(demand int64, procs int) bool {
	return procs > 1 && demand <= int64(procs)
}

// wait is both sides' one wait: it returns the next buffer from c and
// how long it waited for it. While the wait policy allows, it yields
// for up to maxSpin before it parks. Waking a parked goroutine costs the
// scheduler about as long as generating a buffer, and the woken side
// is queued behind its waker on the waker's CPU, so a feed whose sides
// park on every wait runs them in turns on one CPU.
func wait(c chan []trace.Uop) ([]trace.Uop, time.Duration) {
	select {
	case buf := <-c:
		return buf, 0
	default:
	}
	start := time.Now()
	if spins(demand.Load(), runtime.GOMAXPROCS(0)) {
		for time.Since(start) < maxSpin {
			runtime.Gosched()
			select {
			case buf := <-c:
				return buf, time.Since(start)
			default:
			}
		}
	}
	return <-c, time.Since(start)
}

// newFeed starts src's producer on ring, which it splits into feedDepth
// equal buffers. The feed must be closed.
func newFeed(src trace.BatchSource, ring []trace.Uop) *feed {
	f := &feed{
		src:  src,
		ring: ring,
		want: make(chan uint64, 1),
		full: make(chan []trace.Uop, feedDepth),
		free: make(chan []trace.Uop, feedDepth),
		done: make(chan struct{}),
	}
	n := len(ring) / feedDepth
	for i := range feedDepth {
		f.free <- ring[i*n : (i+1)*n : (i+1)*n]
	}
	go f.produce()
	return f
}

// produce is the producer goroutine: for each request it fills free
// buffers until the request is met, the source is exhausted or end
// stops it, and hands each over. A request cut short ends with an
// empty buffer. The producer leaves demand when its request ends;
// request counted it in.
func (f *feed) produce() {
	defer close(f.done)
	for n := range f.want {
		for n > 0 {
			buf, waited := wait(f.free)
			f.producerWait.Add(int64(waited))
			got := 0
			if !f.stop.Load() {
				got = f.src.NextBatch(buf[:min(n, uint64(len(buf)))])
			}
			f.full <- buf[:got]
			if got == 0 {
				break
			}
			n -= uint64(got)
		}
		demand.Add(-1)
	}
}

// request asks the producer for exactly n records, which the kernel
// then takes with next. The previous request must have ended.
func (f *feed) request(n uint64) {
	f.left = n
	demand.Add(1)
	f.want <- n
}

// next returns up to max further records of the request, in place in a
// ring buffer; they stay valid until the following next or end. An
// empty result means the source is exhausted.
func (f *feed) next(max uint64) []trace.Uop {
	if f.off == len(f.cur) {
		f.release()
		if f.left == 0 {
			return nil
		}
		buf := f.take()
		if len(buf) == 0 {
			f.free <- buf[:cap(buf)]
			f.left = 0
			return nil
		}
		f.cur, f.left = buf, f.left-uint64(len(buf))
	}
	k := f.off + int(min(max, uint64(len(f.cur)-f.off)))
	recs := f.cur[f.off:k]
	f.off = k
	return recs
}

// take waits for the producer's next full buffer.
func (f *feed) take() []trace.Uop {
	buf, waited := wait(f.full)
	f.kernelWait += waited
	return buf
}

// release hands the buffer being consumed back to the producer.
func (f *feed) release() {
	if f.cur != nil {
		f.free <- f.cur[:cap(f.cur)]
		f.cur, f.off = nil, 0
	}
}

// end closes the request. When the kernel stopped short of it (an
// error or a cancelled context), the producer is told to fill nothing
// more and the buffers it already filled are drained, so afterwards it
// holds no buffer whichever way the request went and is about to park
// for the next request.
func (f *feed) end() {
	f.release()
	if f.left == 0 {
		return
	}
	f.stop.Store(true)
	for f.left > 0 {
		buf := f.take()
		f.free <- buf[:cap(buf)]
		if len(buf) == 0 {
			break
		}
		f.left -= uint64(len(buf))
	}
	f.left = 0
	f.stop.Store(false)
}

// waits returns and resets the time each side has waited since the
// last call. Called after end, it covers every wait of the request.
func (f *feed) waits() (kernel, producer time.Duration) {
	kernel, f.kernelWait = f.kernelWait, 0
	return kernel, time.Duration(f.producerWait.Swap(0))
}

// close ends any open request, then stops the producer and waits for it
// to exit.
func (f *feed) close() {
	f.end()
	close(f.want)
	<-f.done
}
