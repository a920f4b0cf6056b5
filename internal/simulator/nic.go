package simulator

import (
	"time"

	"rstorm/internal/metrics"
	"rstorm/internal/pardes"
)

// transfer is one tuple crossing a link.
type transfer struct {
	tup     *tuple
	dest    *simTask
	latency time.Duration
	// uplink, when non-nil, is the rack uplink the tuple must traverse
	// after this node's NIC (inter-rack path, Fig. 4).
	uplink *link
	// accepted unblocks the sender once the transfer is admitted to the
	// egress queue.
	accepted completion
}

// link models a store-and-forward network stage: a bounded FIFO served at a
// byte rate, with a window of transfers allowed downstream awaiting
// acceptance (approximate TCP windowing). Node NICs and rack uplinks are
// both links. Saturating a link is what bounds network-bound topologies;
// the window propagates remote backpressure upstream.
//
// A link belongs to one lane — a node's NIC to its node's lane, a rack
// uplink to its rack's lane — and all its methods run on that lane: senders
// are tasks hosted on the same rack, and window-slot releases are routed
// home by scheduleComplete.
type link struct {
	alive    func() bool
	lane     *simLane
	rateBps  float64 // bytes per second; 0 = infinite
	capacity int
	window   int

	queue    pardes.Ring[transfer]
	waiters  pardes.Ring[transfer]
	serving  bool
	inFlight int
	busy     metrics.BusyTracker
}

func newLink(alive func() bool, mbps float64, capacity, window int) *link {
	return &link{
		alive:    alive,
		rateBps:  mbps * 1e6 / 8,
		capacity: capacity,
		window:   window,
	}
}

// send admits tr to the egress queue, or parks the sender when full.
//
//rstorm:hotpath
func (n *link) send(ln *simLane, tr transfer) {
	if !n.alive() {
		ln.dropTuple(tr.tup)
		ln.scheduleComplete(0, tr.accepted)
		return
	}
	if n.queue.Len() < n.capacity {
		n.queue.Push(tr)
		ln.scheduleComplete(0, tr.accepted)
		n.startServe(ln)
		return
	}
	n.waiters.Push(tr)
}

// startServe begins transmitting the head transfer if the link is idle and
// the in-flight window has room.
//
//rstorm:hotpath
func (n *link) startServe(ln *simLane) {
	if n.serving || !n.alive() || n.queue.Len() == 0 || n.inFlight >= n.window {
		return
	}
	n.serving = true
	tr := n.queue.Pop()
	if n.waiters.Len() > 0 {
		w := n.waiters.Pop()
		n.queue.Push(w)
		ln.scheduleComplete(0, w.accepted)
	}

	service := time.Nanosecond
	if n.rateBps > 0 {
		service = time.Duration(float64(tr.tup.bytes) / n.rateBps * float64(time.Second))
		if service <= 0 {
			service = time.Nanosecond
		}
	}
	n.busy.AddBusy(service)
	ev := ln.newEvent(evLinkDone)
	ev.link = n
	ev.tr = tr
	ln.eng.ScheduleEvent(service, ev)
}

// linkDone runs when the link finishes serializing a transfer: the tuple
// occupies a window slot while it propagates (through the rack uplink for
// inter-rack hops) and the slot frees once it is admitted downstream.
//
//rstorm:hotpath
func (ln *simLane) linkDone(n *link, tr transfer) {
	n.serving = false
	n.inFlight++
	release := completion{kind: compRelease, link: n}
	if up := tr.uplink; up != nil {
		// Hand off to the rack uplink; the NIC's window slot frees once
		// the uplink admits the transfer. The uplink is the NIC's own
		// rack's, so the hand-off never leaves the lane.
		up.send(ln, transfer{
			tup:      tr.tup,
			dest:     tr.dest,
			latency:  tr.latency,
			accepted: release,
		})
	} else {
		ln.scheduleArrive(tr.latency, tr.dest, tr.tup, release)
	}
	n.startServe(ln)
}

// fail drops everything queued and unblocks parked senders.
func (n *link) fail(ln *simLane) {
	for n.queue.Len() > 0 {
		ln.dropTuple(n.queue.Pop().tup)
	}
	for n.waiters.Len() > 0 {
		tr := n.waiters.Pop()
		ln.dropTuple(tr.tup)
		ln.scheduleComplete(0, tr.accepted)
	}
}
