package nimbus

import (
	"encoding/json"
	"fmt"
	"strconv"

	"rstorm/internal/cluster"
	"rstorm/internal/statestore"
)

// HeartbeatPayload is what a supervisor publishes to the state store —
// R-Storm modifies Storm so machines "send their resource availability to
// Nimbus" (§5). Seq must stay the last field: Heartbeat rewrites only the
// payload's tail.
type HeartbeatPayload struct {
	Node     string  `json:"node"`
	CPU      float64 `json:"cpu"`
	MemoryMB float64 `json:"memoryMb"`
	Slots    int     `json:"slots"`
	Seq      int64   `json:"seq"`
}

// Supervisor is a worker node's daemon: it registers an ephemeral presence
// node bound to its session and heartbeats through it. Expiring the
// session models a machine failure.
//
// A Supervisor is driven by one goroutine. Its presence node's data
// version equals its heartbeat seq, which HeartbeatTick relies on:
// StartSupervisor creates the node with seq 0, and each Heartbeat is
// exactly one Set.
type Supervisor struct {
	id      cluster.NodeID
	store   *statestore.Store
	session statestore.SessionID
	seq     int64
	failed  bool
	path    string // presence node, /supervisors/<id>
	// beat holds the payload: the registration payload's first prefix
	// bytes (everything before the seq value), then the seq and '}'.
	beat   []byte
	prefix int
}

// StartSupervisor registers a supervisor for a cluster node.
func (n *Nimbus) StartSupervisor(id cluster.NodeID) (*Supervisor, error) {
	if err := n.registerSupervisor(id); err != nil {
		return nil, err
	}
	node := n.cluster.Node(id)
	session := n.store.NewSession()
	payload, err := json.Marshal(HeartbeatPayload{
		Node:     string(id),
		CPU:      node.Spec.Capacity.CPU,
		MemoryMB: node.Spec.Capacity.MemoryMB,
		Slots:    node.Spec.Slots,
	})
	if err != nil {
		return nil, fmt.Errorf("encode heartbeat: %w", err)
	}
	path := supervisorsPath + "/" + string(id)
	if err := n.store.Create(path, payload, session); err != nil {
		return nil, fmt.Errorf("register presence: %w", err)
	}
	return &Supervisor{id: id, store: n.store, session: session, path: path,
		beat: payload, prefix: len(payload) - len("0}")}, nil
}

// ID returns the supervisor's node ID.
func (sv *Supervisor) ID() cluster.NodeID { return sv.id }

// Heartbeat publishes a fresh sequence number. The bytes equal
// json.Marshal of the HeartbeatPayload with the new Seq.
func (sv *Supervisor) Heartbeat() error {
	if sv.failed {
		return fmt.Errorf("supervisor %s has failed", sv.id)
	}
	sv.seq++
	sv.beat = append(strconv.AppendInt(sv.beat[:sv.prefix], sv.seq, 10), '}')
	return sv.store.Set(sv.path, sv.beat)
}

// Fail simulates the machine dying: the session expires and the ephemeral
// presence node disappears. Nimbus notices at its next DetectFailures.
func (sv *Supervisor) Fail() error {
	if sv.failed {
		return fmt.Errorf("supervisor %s already failed", sv.id)
	}
	sv.failed = true
	return sv.store.ExpireSession(sv.session)
}
