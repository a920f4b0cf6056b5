// Package faults is the chaos-injection harness: a declarative fault
// model (crash, recover, slow) with a scripted-schedule parser, consumed
// by the simulator's injection API (Simulation.InjectFault), the failover
// experiment, and rstorm-sim's -fail flag.
//
// A schedule is a comma-separated list of events:
//
//	node-0-3@20s              crash node-0-3 at t=20s (legacy form)
//	crash:node-0-3@20s        the same, spelled out
//	recover:node-0-3@40s      bring node-0-3 back at t=40s
//	slow:node-0-5@10s:2.5     degrade node-0-5 by 2.5x from t=10s
//
// Times are Go durations relative to simulation start; the slow factor is
// a finite service-time multiplier > 1 (recover resets it).
package faults

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"rstorm/internal/cluster"
)

// Kind classifies a fault event.
type Kind uint8

const (
	// Crash kills a node: its tasks die, queued tuples drop, its NIC
	// fails.
	Crash Kind = iota
	// Recover brings a crashed node back with full capacity (its dead
	// tasks stay dead until a control plane re-places them) and clears
	// any slow factor.
	Recover
	// Slow degrades a node transiently: per-tuple service times stretch
	// by Factor until the node recovers.
	Slow
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Crash:
		return "crash"
	case Recover:
		return "recover"
	case Slow:
		return "slow"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Fault is one scheduled fault event.
type Fault struct {
	Kind Kind
	Node cluster.NodeID
	At   time.Duration
	// Factor is the service-time multiplier of a Slow fault (finite and
	// > 1); ignored for Crash and Recover.
	Factor float64
}

// String renders the fault in schedule syntax (parseable by ParseSchedule).
func (f Fault) String() string {
	switch f.Kind {
	case Slow:
		return fmt.Sprintf("slow:%s@%v:%g", f.Node, f.At, f.Factor)
	case Recover:
		return fmt.Sprintf("recover:%s@%v", f.Node, f.At)
	default:
		return fmt.Sprintf("crash:%s@%v", f.Node, f.At)
	}
}

// Validate rejects malformed faults independent of any cluster.
func (f Fault) Validate() error {
	if f.Node == "" {
		return fmt.Errorf("fault has no node")
	}
	if f.At < 0 {
		return fmt.Errorf("fault time %v, want >= 0", f.At)
	}
	switch f.Kind {
	case Crash, Recover:
	case Slow:
		// NaN and +Inf slip past a bare "<= 1" rejection, and the
		// simulator would clamp their non-finite service times to no
		// cost at all: the "slowed" node would speed up.
		if !(f.Factor > 1) || math.IsInf(f.Factor, 1) {
			return fmt.Errorf("slow factor %g, want a finite factor > 1", f.Factor)
		}
	default:
		return fmt.Errorf("unknown fault kind %d", f.Kind)
	}
	return nil
}

// Schedule is an ordered list of fault events.
type Schedule []Fault

// ParseEvent parses one schedule event: [kind:]node@time[:factor]. The
// bare node@time form is a crash, byte-compatible with the original
// rstorm-sim -fail grammar.
func ParseEvent(spec string) (Fault, error) {
	var f Fault
	rest := spec
	switch {
	case strings.HasPrefix(spec, "crash:"):
		f.Kind = Crash
		rest = spec[len("crash:"):]
	case strings.HasPrefix(spec, "recover:"):
		f.Kind = Recover
		rest = spec[len("recover:"):]
	case strings.HasPrefix(spec, "slow:"):
		f.Kind = Slow
		rest = spec[len("slow:"):]
	}
	parts := strings.SplitN(rest, "@", 2)
	if len(parts) != 2 || parts[0] == "" {
		return Fault{}, fmt.Errorf("fault spec %q, want [crash:|recover:|slow:]node@time (e.g. node-0-3@20s)", spec)
	}
	f.Node = cluster.NodeID(parts[0])
	timePart := parts[1]
	if f.Kind == Slow {
		tf := strings.SplitN(timePart, ":", 2)
		if len(tf) != 2 {
			return Fault{}, fmt.Errorf("slow spec %q, want slow:node@time:factor (e.g. slow:node-0-3@20s:2.5)", spec)
		}
		timePart = tf[0]
		factor, err := strconv.ParseFloat(tf[1], 64)
		if err != nil {
			return Fault{}, fmt.Errorf("slow factor in %q: %w", spec, err)
		}
		f.Factor = factor
	}
	at, err := time.ParseDuration(timePart)
	if err != nil {
		return Fault{}, fmt.Errorf("fault time in %q: %w", spec, err)
	}
	f.At = at
	if err := f.Validate(); err != nil {
		return Fault{}, fmt.Errorf("fault spec %q: %w", spec, err)
	}
	return f, nil
}

// ParseSchedule parses a comma-separated list of events. Events keep their
// written order; use Sorted for time order. An empty spec is an empty
// schedule.
func ParseSchedule(spec string) (Schedule, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	var out Schedule
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		f, err := ParseEvent(part)
		if err != nil {
			return nil, err
		}
		out = append(out, f)
	}
	return out, nil
}

// String renders the schedule in parseable syntax.
func (s Schedule) String() string {
	parts := make([]string, len(s))
	for i, f := range s {
		parts[i] = f.String()
	}
	return strings.Join(parts, ",")
}

// Validate checks every event, and — per node — that the sequence is
// coherent: a recover must follow a crash or slow, and two crashes of the
// same node need a recover between them.
func (s Schedule) Validate() error {
	for _, f := range s {
		if err := f.Validate(); err != nil {
			return err
		}
	}
	type state struct {
		down bool
		slow bool
		any  bool
	}
	states := make(map[cluster.NodeID]*state)
	for _, f := range s.Sorted() {
		st := states[f.Node]
		if st == nil {
			st = &state{}
			states[f.Node] = st
		}
		switch f.Kind {
		case Crash:
			if st.down {
				return fmt.Errorf("node %s crashes twice without a recover", f.Node)
			}
			st.down = true
		case Recover:
			if !st.any {
				return fmt.Errorf("node %s recovers at %v before any fault", f.Node, f.At)
			}
			st.down = false
			st.slow = false
		case Slow:
			st.slow = true
		}
		st.any = true
	}
	return nil
}

// Sorted returns a copy ordered by time (stable: written order breaks
// ties), which is the order an injector should apply them in.
func (s Schedule) Sorted() Schedule {
	out := make(Schedule, len(s))
	copy(out, s)
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// Injector is anything that accepts fault events —
// simulator.Simulation.InjectFault satisfies it. Defined here (and
// consumed via Apply) so the harness does not import the simulator.
type Injector interface {
	InjectFault(f Fault) error
}

// Apply injects every event of the schedule, in time order.
func (s Schedule) Apply(inj Injector) error {
	if err := s.Validate(); err != nil {
		return err
	}
	for _, f := range s.Sorted() {
		if err := inj.InjectFault(f); err != nil {
			return fmt.Errorf("injecting %s: %w", f, err)
		}
	}
	return nil
}
