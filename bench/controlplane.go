package main

import (
	"fmt"
	"math/rand"
	"time"

	"rstorm/internal/cluster"
	"rstorm/internal/core"
	"rstorm/internal/nimbus"
	"rstorm/internal/resource"
	"rstorm/internal/topology"
	"rstorm/internal/workloads"
)

const (
	// sessionCycles is the length of one control-plane session, of which
	// the first fillCycles fill the cluster.
	sessionCycles = 200
	fillCycles    = 100
	// maxLive is the tenant population: once it is reached, the oldest
	// tenant is killed every cycle.
	maxLive = 60
	// stallTicks is how long a stalled node stops heartbeating: past the
	// detector's default death threshold, so every stall fails over.
	stallTicks = 8
)

// controlPlane is Nimbus with R-Storm over 256 nodes, driven by one
// closed-loop client: each cycle waits for the previous one.
type controlPlane struct {
	c     *cluster.Cluster
	n     *nimbus.Nimbus
	svs   []*nimbus.Supervisor
	stall []int // heartbeats each supervisor still skips
	rng   *rand.Rand
	seed  int64

	cycles int
	live   []string
	topos  map[string]*topology.Topology

	admitMS, failoverMS, tickMS []float64
	submitted, admitted         int
}

func newControlPlane(seed int64, racks int) (*controlPlane, error) {
	c, err := cluster.TwoRack(racks, 32, cluster.EmulabNodeSpec())
	if err != nil {
		return nil, err
	}
	n, err := nimbus.New(c, core.NewResourceAwareScheduler())
	if err != nil {
		return nil, err
	}
	n.EnableFailureDetector(nimbus.DetectorConfig{})
	cp := &controlPlane{c: c, n: n, rng: rand.New(rand.NewSource(seed)), seed: seed,
		topos: make(map[string]*topology.Topology)}
	for _, id := range c.NodeIDs() {
		sv, err := n.StartSupervisor(id)
		if err != nil {
			return nil, err
		}
		cp.svs = append(cp.svs, sv)
	}
	cp.stall = make([]int, len(cp.svs))
	n.HeartbeatTick() // first sight of every supervisor
	return cp, nil
}

// cycle is one client round: every live supervisor heartbeats and the
// detector ticks, every second cycle one seeded node stalls, then one
// seeded tenant is submitted and a scheduling round runs.
func (cp *controlPlane) cycle(t *Tracer, parent int) error {
	cp.cycles++
	id := t.Begin("nimbus.Heartbeat", parent)
	for i, sv := range cp.svs {
		if cp.stall[i] > 0 {
			cp.stall[i]--
			continue
		}
		if err := sv.Heartbeat(); err != nil {
			t.End(id)
			return err
		}
	}
	t.End(id)

	t0 := time.Now()
	id = t.Begin("nimbus.HeartbeatTick", parent)
	dead := cp.n.HeartbeatTick()
	t.End(id)
	if tick := float64(time.Since(t0)) / 1e6; len(dead) > 0 {
		cp.failoverMS = append(cp.failoverMS, tick)
	} else {
		cp.tickMS = append(cp.tickMS, tick)
	}
	if cp.cycles%2 == 0 {
		if i := cp.rng.Intn(len(cp.svs)); cp.stall[i] == 0 {
			cp.stall[i] = stallTicks
		}
	}

	id = t.Begin("workloads.RandomTopology", parent)
	topo, err := workloads.RandomTopology(cp.seed*1_000_000+int64(cp.cycles),
		workloads.RandomParams{MaxComponents: 8, MaxParallelism: 12})
	t.End(id)
	if err != nil {
		return err
	}
	t0 = time.Now()
	id = t.Begin("nimbus.SubmitTopology", parent)
	err = cp.n.SubmitTopologyWithPriority(topo, cp.rng.Intn(4))
	t.End(id)
	if err != nil {
		return err
	}
	id = t.Begin("nimbus.RunSchedulingRound", parent)
	scheduled := cp.n.RunSchedulingRound()
	t.End(id)
	cp.admitMS = append(cp.admitMS, float64(time.Since(t0))/1e6)
	cp.submitted++
	cp.topos[topo.Name()] = topo
	cp.live = append(cp.live, topo.Name())

	id = t.Begin("core.Validate", parent)
	err = cp.validate(scheduled)
	t.End(id)
	if err != nil {
		return err
	}
	if len(cp.live) >= maxLive {
		oldest := cp.live[0]
		cp.live = cp.live[1:]
		delete(cp.topos, oldest)
		id = t.Begin("nimbus.KillTopology", parent)
		err = cp.n.KillTopology(oldest)
		t.End(id)
	}
	return err
}

// validate checks every assignment a round admitted.
func (cp *controlPlane) validate(scheduled []string) error {
	for _, name := range scheduled {
		cp.admitted++
		a := cp.n.Assignment(name)
		if a == nil {
			return fmt.Errorf("%s admitted without an assignment", name)
		}
		if err := a.Validate(cp.topos[name], cp.c, resource.DefaultClasses()); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
	}
	return nil
}

// runControlPlane times control-plane sessions. Each session sets up a
// fresh Nimbus and runs sessionCycles cycles from the same seed, so every
// session does the same work and ends in the same master log; the first
// fillCycles cycles fill the cluster to its steady tenant population, and
// the per-call latencies come from the cycles after them.
func runControlPlane(r *runner) error {
	racks, cycles, fill := 8, sessionCycles, fillCycles
	if r.short {
		racks, cycles, fill = 2, 20, 10
	}
	var cp *controlPlane
	var admitMS, failoverMS, tickMS []float64
	for r.more() {
		r.next()
		seed := r.scenario()
		// The previous session is dropped first, so its state and the new
		// one's are never live together, as they never are for a user.
		cp = nil
		if err := r.setup(func() (err error) { cp, err = newControlPlane(seed, racks); return err }); err != nil {
			return err
		}
		r.op(func(t *Tracer, parent int) (float64, error) {
			for i := 0; i < cycles; i++ {
				if i == fill {
					cp.admitMS, cp.failoverMS, cp.tickMS = nil, nil, nil
				}
				if err := cp.cycle(t, parent); err != nil {
					return 0, fmt.Errorf("cycle %d: %w", i+1, err)
				}
			}
			return float64(cycles), r.sameDigest(seed, cp.n.Events())
		})
		admitMS = append(admitMS, cp.admitMS...)
		failoverMS = append(failoverMS, cp.failoverMS...)
		tickMS = append(tickMS, cp.tickMS...)
	}

	r.extra["admit_p50_ms"] = medianOf(admitMS, "ms")
	r.extra["tick_p50_ms"] = medianOf(tickMS, "ms")
	for name, xs := range map[string][]float64{"admit_p99_ms": admitMS, "failover_p99_ms": failoverMS} {
		if v, err := Percentile(xs, 99); err == nil {
			r.extra[name] = Metric{Value: v, Unit: "ms", N: len(xs)}
		} else {
			fmt.Fprintf(r.log, "%s: %v\n", name, err)
		}
	}
	// Every session repeats the same decisions, so the last one speaks
	// for all.
	requeued := 0
	for _, f := range cp.n.Failovers() {
		if f.Requeued {
			requeued++
		}
	}
	submitted := float64(max(cp.submitted, 1))
	r.extra["nimbus.admitted_frac"] = Metric{Value: float64(cp.admitted) / submitted, Unit: "ratio"}
	r.extra["nimbus.evictions_per_round"] = Metric{Value: float64(len(cp.n.Evictions())) / submitted, Unit: "count"}
	r.extra["nimbus.requeue_frac"] = Metric{Value: float64(requeued) / float64(max(len(cp.n.Failovers()), 1)), Unit: "ratio"}
	r.extra["nimbus.events_len"] = Metric{Value: float64(len(cp.n.Events())), Unit: "count"}
	r.extra["nimbus.failovers_per_cycle"] = Metric{Value: float64(len(cp.n.Failovers())) / float64(cycles), Unit: "ratio"}
	return nil
}
