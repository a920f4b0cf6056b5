package simulator

import (
	"fmt"

	"rstorm/internal/trace"
)

// Observability attach points (DESIGN.md §8). Both are opt-in and inert
// by default: with no journal attached and tracing off, every guarded
// branch below is a single nil check and the simulation is byte-identical
// to the uninstrumented one.

// SetJournal attaches the decision journal: runtime control events (fault
// injections, OOM kills, topology submit/kill epochs) are recorded into
// it at simulated time. It must be called before the simulation starts;
// passing nil detaches it. The same journal is typically shared with the
// adaptive loop and Nimbus so Seq orders decisions across all three.
func (s *Simulation) SetJournal(j *trace.Journal) error {
	if s.started {
		return fmt.Errorf("simulation already started")
	}
	if j != nil && s.cfg.Shards > 0 {
		return fmt.Errorf("decision journal requires the single-threaded kernel (shards = 0)")
	}
	s.journal = j
	return nil
}

// Tracer returns the sampled tuple tracer, or nil when
// Config.TraceSampleEvery is zero. Read its spans after the run.
func (s *Simulation) Tracer() *trace.Tracer { return s.tracer }

// traceOf returns tup's trace ID: nonzero only when tracing is on and
// the tuple's tree was sampled. The tracer nil check comes first so the
// untraced hot path pays one comparison.
func (s *Simulation) traceOf(tup *tuple) uint64 {
	if s.tracer == nil || tup.tree == nil {
		return 0
	}
	return tup.tree.trace
}

// journalRecord appends a runtime event at current virtual time if a
// journal is attached.
func (s *Simulation) journalRecord(code, topo, node string, task int, detail string) {
	if s.journal != nil {
		s.journal.Record(s.now(), code, topo, node, task, detail)
	}
}
