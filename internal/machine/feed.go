package machine

import (
	"sync/atomic"

	"repro/internal/trace"
)

// feedDepth is the number of uop buffers in each core's ring. Waking a
// parked producer takes the Go scheduler tens of microseconds, as long
// as generating a buffer or longer, so the producer stays ahead of the
// kernel only with several buffers in hand: with two, the kernel still
// waited on synthesis for about a third of its batches.
const feedDepth = 4

// feed generates one core's uops ahead of the kernel. A long-lived
// producer goroutine fills a ring of feedDepth buffers from the core's
// source, in stream order, while the kernel simulates the filled ones in
// place, so synthesis overlaps simulation on a second CPU.
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
	stop atomic.Bool   // set by end: fill nothing more in this request
	done chan struct{} // closed when the producer exits

	// The consumer's side of the current request.
	cur  []trace.Uop // the buffer being consumed
	off  int         // records of cur already consumed
	left uint64      // records requested but not yet received
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
// stops it, and sends each on full. A request cut short ends with an
// empty buffer.
func (f *feed) produce() {
	defer close(f.done)
	for n := range f.want {
		for n > 0 {
			buf := <-f.free
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
	}
}

// request asks the producer for exactly n records, which the kernel
// then takes with next. The previous request must have ended.
func (f *feed) request(n uint64) {
	f.left = n
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
		buf := <-f.full
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
// is parked and holds no buffer whichever way the request went.
func (f *feed) end() {
	f.release()
	if f.left == 0 {
		return
	}
	f.stop.Store(true)
	for f.left > 0 {
		buf := <-f.full
		f.free <- buf[:cap(buf)]
		if len(buf) == 0 {
			break
		}
		f.left -= uint64(len(buf))
	}
	f.left = 0
	f.stop.Store(false)
}

// close ends any open request, then stops the producer and waits for it
// to exit.
func (f *feed) close() {
	f.end()
	close(f.want)
	<-f.done
}
