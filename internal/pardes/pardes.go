// Package pardes is a conservative parallel harness over deterministic
// discrete-event lanes (DESIGN.md §11). A Lane is an independent event
// loop — in this repository, one internal/des.Engine per cluster rack —
// and the Coordinator advances every lane to a common horizon per call,
// spreading the lanes over a bounded pool of persistent workers.
//
// The conservative contract is the caller's: it must pick horizons such
// that no lane can affect another inside the window (the classic
// null-message lookahead bound — here, the minimum inter-shard network
// latency), and it must exchange cross-lane messages only between Advance
// calls, via Ring inboxes it drains at the barrier. Under that contract
// the lanes' event streams are independent of the worker count, so a
// seeded simulation produces byte-identical results for any parallelism.
//
// Synchronization is two channel hops per window: each worker receives
// the horizon on its own start channel and reports on a shared done
// channel. Both hops are happens-before edges, so lane state written
// inside a window is visible to the coordinator (and to whichever worker
// owns the lane next window) without locks; lanes are never touched by
// two goroutines at once because the lane→worker assignment is static.
package pardes

import "time"

// Lane is one independently advancing event loop. *des.Engine satisfies
// it. AdvanceTo must process every event strictly before the horizon and
// leave the lane's clock at the horizon; PeekTime must report the earliest
// pending event without disturbing the queue.
type Lane interface {
	PeekTime() (time.Duration, bool)
	AdvanceTo(horizon time.Duration) int
}

// Coordinator advances a fixed set of lanes in lock-stepped windows
// across a persistent worker pool. Workers > 1 spawns goroutines that
// live until Stop; workers <= 1 (or a single lane) runs inline with no
// goroutines at all, so a serial caller pays nothing for the abstraction.
type Coordinator struct {
	lanes  []Lane
	starts []chan time.Duration // one per worker; nil in inline mode
	done   chan struct{}
	blocks [][]Lane // static lane→worker assignment
}

// NewCoordinator builds a coordinator over lanes with the given worker
// count, clamped to [1, len(lanes)]. Lane index order is preserved within
// each worker's contiguous block, so any per-block iteration the caller
// observes (none, under the conservative contract) is deterministic.
func NewCoordinator(lanes []Lane, workers int) *Coordinator {
	c := &Coordinator{lanes: lanes}
	if workers > len(lanes) {
		workers = len(lanes)
	}
	if workers <= 1 {
		return c
	}
	c.starts = make([]chan time.Duration, workers)
	c.done = make(chan struct{}, workers)
	c.blocks = make([][]Lane, workers)
	// Contiguous blocks, remainder spread over the leading workers.
	per, extra := len(lanes)/workers, len(lanes)%workers
	lo := 0
	for w := 0; w < workers; w++ {
		hi := lo + per
		if w < extra {
			hi++
		}
		c.blocks[w] = lanes[lo:hi]
		lo = hi
		c.starts[w] = make(chan time.Duration, 1)
		go c.work(w)
	}
	return c
}

// Advance moves every lane to horizon and returns once all have arrived —
// the merge barrier. The caller drains cross-lane inboxes before the next
// call.
func (c *Coordinator) Advance(horizon time.Duration) {
	if c.starts == nil {
		advanceBlock(c.lanes, horizon)
		return
	}
	for _, ch := range c.starts {
		ch <- horizon
	}
	for range c.starts {
		<-c.done
	}
}

// NextEvent returns the earliest pending event time across all lanes.
// Call only at a barrier (between Advance calls).
func (c *Coordinator) NextEvent() (time.Duration, bool) {
	var earliest time.Duration
	any := false
	for _, ln := range c.lanes {
		if at, ok := ln.PeekTime(); ok && (!any || at < earliest) {
			earliest, any = at, true
		}
	}
	return earliest, any
}

// Stop terminates the worker pool. Idempotent; a no-op in inline mode.
// The coordinator must not be advanced again afterwards.
func (c *Coordinator) Stop() {
	if c.starts == nil {
		return
	}
	for _, ch := range c.starts {
		close(ch)
	}
	c.starts = nil
}

// work is one persistent worker: advance the static lane block each
// window, then report at the barrier.
func (c *Coordinator) work(w int) {
	block := c.blocks[w]
	for h := range c.starts[w] {
		advanceBlock(block, h)
		c.done <- struct{}{}
	}
}

// advanceBlock is the shard loop: every lane in the block runs its own
// event queue to the horizon.
//
//rstorm:hotpath
func advanceBlock(block []Lane, horizon time.Duration) {
	for _, ln := range block {
		ln.AdvanceTo(horizon)
	}
}

// Ring is a growable FIFO on a circular buffer: the inbox for cross-lane
// messages, and the simulator's task queues, waiter lists and link
// queues. It takes no locks. As an inbox it is single-producer/
// single-consumer by phase: during a window exactly one lane pushes, and
// at the barrier exactly the coordinator pops — the Advance barrier
// itself is the fence between the phases, so the hot path carries no
// atomics. Steady state is allocation-free: capacity is retained across
// windows.
type Ring[T any] struct {
	buf  []T
	head int
	n    int
}

// Push appends v.
//
//rstorm:hotpath
func (r *Ring[T]) Push(v T) {
	if r.n == len(r.buf) {
		r.grow()
	}
	// Compare-and-wrap instead of modulo: this runs per tuple hop, and an
	// integer divide would be the most expensive step in it.
	i := r.head + r.n
	if i >= len(r.buf) {
		i -= len(r.buf)
	}
	r.buf[i] = v
	r.n++
}

// Pop removes and returns the oldest element. The caller must check Len
// first; popping an empty ring panics by index.
//
//rstorm:hotpath
func (r *Ring[T]) Pop() T {
	var zero T
	v := r.buf[r.head]
	r.buf[r.head] = zero // release references for the GC
	r.head++
	if r.head == len(r.buf) {
		r.head = 0
	}
	r.n--
	return v
}

// Len returns the number of queued elements.
//
//rstorm:hotpath
func (r *Ring[T]) Len() int { return r.n }

// grow doubles capacity from a first buffer of 8, relinearizing the
// queue.
func (r *Ring[T]) grow() {
	n := 2 * len(r.buf)
	if n == 0 {
		n = 8
	}
	next := make([]T, n)
	for i := 0; i < r.n; i++ {
		j := r.head + i
		if j >= len(r.buf) {
			j -= len(r.buf)
		}
		next[i] = r.buf[j]
	}
	r.buf = next
	r.head = 0
}
