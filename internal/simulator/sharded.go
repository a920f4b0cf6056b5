package simulator

import "time"

// runWindows is the simulation's one event loop: it drives every lane
// from the global clock to target, alternating conservative lookahead
// windows with merge barriers. Each iteration: drain the cross-lane
// inboxes into the destination engines, pick the largest horizon h no
// lane can be affected across (at most clock+lookahead, clamped to the
// next metrics flush and to target), let the coordinator advance every
// lane through [clock, h), then land the flush if h hit it. With one lane
// each window runs straight to the next flush or target.
//
// The lookahead bound is the inter-rack path latency: an event firing at
// time τ inside the window can push a cross-lane message no earlier than
// τ + lookahead ≥ h, so nothing drained at the next barrier belongs inside
// the window just run. (The single exception — an in-flight tuple whose
// new post-Reassign route is suddenly local — arrives clamped to the
// barrier time, which is itself identical for every shard count.)
//
// When every lane is idle until some future time, the loop skips ahead:
// the window opens at the earliest pending event rather than crawling from
// the current clock in lookahead-sized steps through dead air.
func (s *Simulation) runWindows(target time.Duration) {
	for s.clock < target {
		s.drainInboxes()
		// hmax: hard ceiling for this window — next flush barrier or target.
		hmax := target
		if s.nextFlush > 0 && s.nextFlush < hmax {
			hmax = s.nextFlush
		}
		var h time.Duration
		if len(s.lanes) == 1 {
			// One lane cannot race itself: run straight to the ceiling.
			h = hmax
		} else {
			h = s.clock + s.lookahead
			if h > hmax {
				h = hmax
			}
			if earliest, ok := s.coord.NextEvent(); !ok {
				h = hmax
			} else if earliest >= h && earliest < hmax {
				// Idle gap: open the window at the earliest event instead.
				h = earliest + s.lookahead
				if h > hmax {
					h = hmax
				}
			} else if earliest >= hmax {
				h = hmax
			}
		}
		s.coord.Advance(h)
		s.clock = h
		if s.nextFlush > 0 && s.clock == s.nextFlush {
			// Barrier doubles as the flush point: all lanes quiescent, so
			// the flush may read task state across lanes.
			s.flushWindow(s.clock)
			s.nextFlush += s.cfg.MetricsWindow
			if s.nextFlush > s.cfg.Duration {
				s.nextFlush = 0
			}
		}
	}
	// Epoch exit: queue anything still in flight so engines hold the
	// complete pending set (Reassign/Finish rely on this).
	s.drainInboxes()
	s.mergeLaneFaults()
}
