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

// StartSupervisor registers a supervisor for a cluster node. A node may
// register when the failure detector has no record of it or has declared
// it dead. Its presence node is created before any registration state
// changes, so a refused registration changes nothing.
func (n *Nimbus) StartSupervisor(id cluster.NodeID) (*Supervisor, error) {
	node := n.cluster.Node(id)
	if node == nil {
		return nil, fmt.Errorf("unknown node %q", id)
	}
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
	n.mu.Lock()
	defer n.mu.Unlock()
	h := n.detector.nodes[id]
	if h != nil && h.state != HealthDead {
		return nil, fmt.Errorf("supervisor %q already registered", id)
	}
	session := n.store.NewSession()
	if err := n.store.Create(path, payload, session); err != nil {
		_ = n.store.ExpireSession(session)
		return nil, fmt.Errorf("register presence: %w", err)
	}
	// lastSeq -1 makes the registration payload's seq 0 the first fresh
	// beat.
	if h != nil {
		// Flap-damping hold-down: a node the detector saw die rejoins
		// without capacity; HeartbeatTick restores it once FlapDamping
		// beats accumulate.
		h.state = HealthRecovering
		h.lastSeq = -1
		h.healthy = 0
		n.logf("supervisor %s rejoined; held down for flap damping", id)
	} else {
		n.detector.nodes[id] = &nodeHealth{state: HealthHealthy, lastSeq: -1}
		_ = n.state.RestoreNode(id) // cannot fail: the node is in the cluster
		n.logf("supervisor %s joined", id)
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
// presence node disappears. Nimbus declares the node dead at its next
// HeartbeatTick.
func (sv *Supervisor) Fail() error {
	if sv.failed {
		return fmt.Errorf("supervisor %s already failed", sv.id)
	}
	sv.failed = true
	return sv.store.ExpireSession(sv.session)
}
