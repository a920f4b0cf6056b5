package trace

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// Journal event codes — the decision-event taxonomy (DESIGN.md §8): every
// runtime decision of the simulator and the adaptive loop lands here with
// a reason code and enough identity (topology/node/task) to correlate
// across the two layers.
const (
	// Adaptive loop.
	CodeTriggerFired     = "trigger-fired"     // controller demanded a rebalance
	CodePlanComputed     = "plan-computed"     // incremental plan built (detail: moves)
	CodeRebalanceApplied = "rebalance-applied" // plan applied to the running simulator
	// Simulator runtime.
	CodeTopologySubmitted = "topology-submitted" // runtime submit epoch
	CodeTopologyKilled    = "topology-killed"    // runtime kill epoch
	CodeOOMKill           = "oom-kill"           // memory model killed a task
	CodeFaultInjected     = "fault-injected"     // crash/recover/slow applied mid-run
)

// Event is one journal entry. At is the simulated time of the decision;
// Seq is a journal-assigned monotonic sequence number, the total causal
// order, which also orders events recorded at the same instant. Task is
// -1 when the event is not about a specific task.
type Event struct {
	Seq      uint64        `json:"seq"`
	At       time.Duration `json:"at"`
	Code     string        `json:"code"`
	Topology string        `json:"topology,omitempty"`
	Node     string        `json:"node,omitempty"`
	Task     int           `json:"task"`
	Detail   string        `json:"detail,omitempty"`
}

// Journal is a bounded, concurrency-safe decision-event ring. Appends
// from the simulator event loop and the adaptive loop interleave under
// one mutex, so Seq defines a single causal order across both. When
// full, the oldest events are overwritten.
type Journal struct {
	mu      sync.Mutex
	max     int
	seq     uint64
	head    int
	events  []Event
	dropped uint64
}

// DefaultJournalCap bounds a journal nobody sized explicitly.
const DefaultJournalCap = 4096

// NewJournal returns a journal holding at most max events (DefaultJournalCap
// if max <= 0).
func NewJournal(max int) *Journal {
	if max <= 0 {
		max = DefaultJournalCap
	}
	return &Journal{max: max}
}

// Record appends an event, assigning its sequence number. The zero-field
// helper signature keeps call sites one line; Task -1 means "no task".
func (j *Journal) Record(at time.Duration, code, topo, node string, task int, detail string) {
	j.Append(Event{At: at, Code: code, Topology: topo, Node: node, Task: task, Detail: detail})
}

// Append appends e, assigning Seq. Overwrites the oldest event when full.
func (j *Journal) Append(e Event) {
	j.mu.Lock()
	j.seq++
	e.Seq = j.seq
	if len(j.events) < j.max {
		j.events = append(j.events, e)
	} else {
		j.events[j.head] = e
		j.head = (j.head + 1) % j.max
		j.dropped++
	}
	j.mu.Unlock()
}

// Len returns the number of retained events.
func (j *Journal) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.events)
}

// Dropped returns how many events were overwritten after the ring filled.
func (j *Journal) Dropped() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.dropped
}

// Events returns the retained events in causal (Seq) order.
func (j *Journal) Events() []Event {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]Event, 0, len(j.events))
	out = append(out, j.events[j.head:]...)
	out = append(out, j.events[:j.head]...)
	return out
}

// WriteJSONL writes the retained events as JSON Lines, one event per
// line in causal order — rstorm-sim's -journal section.
func (j *Journal) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, e := range j.Events() {
		if err := enc.Encode(e); err != nil {
			return err
		}
	}
	return nil
}
