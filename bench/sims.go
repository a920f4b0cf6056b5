package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"rstorm/internal/cluster"
	"rstorm/internal/core"
	"rstorm/internal/faults"
	"rstorm/internal/resource"
	"rstorm/internal/simulator"
	"rstorm/internal/topology"
	"rstorm/internal/workloads"
)

// simCase is one simulator workload's inputs. Every rep builds them from
// nothing, so set-up is timed once per rep.
type simCase struct {
	cluster  func() (*cluster.Cluster, error)
	topology func() (*topology.Topology, error)
	sched    core.Scheduler
	cfg      simulator.Config
}

// simRep is a started simulation.
type simRep struct {
	c    *cluster.Cluster
	topo *topology.Topology
	a    *core.Assignment
	sim  *simulator.Simulation
}

// build runs the set-up: cluster, topology, placement, New, AddTopology,
// the observer if any, and Start.
func (sc simCase) build(t *Tracer, obs simulator.Observer) (*simRep, error) {
	c, err := sc.cluster()
	if err != nil {
		return nil, err
	}
	topo, err := sc.topology()
	if err != nil {
		return nil, err
	}
	id := t.Begin("core.Schedule", 0)
	a, err := sc.sched.Schedule(topo, c, core.NewGlobalState(c))
	t.End(id)
	if err != nil {
		return nil, err
	}
	id = t.Begin("simulator.Start", 0)
	defer t.End(id)
	sim, err := simulator.New(c, sc.cfg)
	if err != nil {
		return nil, err
	}
	if err := sim.AddTopology(topo, a); err != nil {
		return nil, err
	}
	if obs != nil {
		if err := sim.SetObserver(obs); err != nil {
			return nil, err
		}
	}
	return &simRep{c: c, topo: topo, a: a, sim: sim}, sim.Start()
}

// finish runs the simulation to its end.
func (rep *simRep) finish(t *Tracer, parent int) (*simulator.Result, error) {
	id := t.Begin("simulator.Finish", parent)
	defer t.End(id)
	return rep.sim.Finish()
}

// playFn runs a set-up rep to its end. It returns the result and the value
// whose digest every rep of the same inputs must repeat.
type playFn func(t *Tracer, parent int) (res *simulator.Result, digest any, err error)

// setUpFn builds one rep of sc.
type setUpFn func(sc simCase, t *Tracer) (playFn, error)

// oneShot plays a rep straight to its end.
func oneShot(sc simCase, t *Tracer) (playFn, error) {
	rep, err := sc.build(t, nil)
	if err != nil {
		return nil, err
	}
	return func(t *Tracer, parent int) (*simulator.Result, any, error) {
		res, err := rep.finish(t, parent)
		return res, res, err
	}, nil
}

// runReps spends the budget on reps of sc, each on the inputs of the
// runner's current scenario; reps of the same scenario must repeat their
// output digest.
func runReps(r *runner, sc simCase, setUp setUpFn, topoName string) error {
	var remote, replayed, processed []float64
	for r.more() {
		t := r.next()
		seed := r.scenario()
		var play playFn
		if err := r.setup(func() (err error) {
			sc := sc
			sc.cfg.Seed = seed
			play, err = setUp(sc, t)
			return err
		}); err != nil {
			return err
		}
		r.op(func(t *Tracer, parent int) (float64, error) {
			res, dg, err := play(t, parent)
			if err != nil {
				return 0, err
			}
			tr := res.Topology(topoName)
			n := float64(tr.TuplesProcessed)
			processed = append(processed, n)
			remote = append(remote, tr.InterNodeFraction())
			replayed = append(replayed, float64(res.TuplesReplayed)/float64(max(tr.TuplesEmitted, 1)))
			return n, r.sameDigest(seed, dg)
		})
	}
	r.extra["simulator.tuples_processed"] = medianOf(processed, "tuples")
	r.extra["simulator.remote_frac"] = medianOf(remote, "ratio")
	r.extra["simulator.replayed_frac"] = medianOf(replayed, "ratio")
	return nil
}

// checkShardInvariance plays the first scenario once more at Shards = 1
// and checks its digest equals the digest at Shards = nproc. Traced runs
// only: the extra rep would otherwise come out of the untraced run's
// budget.
func checkShardInvariance(r *runner, sc simCase, setUp setUpFn) {
	if r.tr == nil {
		return
	}
	sc.cfg.Seed = r.seed * scenarios
	sc.cfg.Shards = 1
	play, err := setUp(sc, nil)
	if err == nil {
		var dg any
		if _, dg, err = play(nil, 0); err == nil {
			err = r.sameDigest(sc.cfg.Seed, dg)
		}
	}
	if err != nil {
		err = fmt.Errorf("shards=1 against shards=%d: %w", runtime.NumCPU(), err)
	}
	r.check(err)
}

func rack400() (*cluster.Cluster, error) {
	return cluster.TwoRack(8, 50, cluster.EmulabNodeSpec())
}

func linearNetworkBound() (*topology.Topology, error) {
	return workloads.LinearTopology(workloads.NetworkBound)
}

// runChain is the paper's Fig. 8a micro-benchmark on the default kernel:
// per-tuple cost is nearly all of the time.
func runChain(r *runner) error {
	cfg := simulator.Config{Duration: 5 * time.Second, MetricsWindow: time.Second}
	if r.short {
		cfg.Duration, cfg.MetricsWindow = 500*time.Millisecond, 250*time.Millisecond
	}
	sc := simCase{cluster: cluster.Emulab12, topology: linearNetworkBound, sched: core.NewResourceAwareScheduler(), cfg: cfg}
	return runReps(r, sc, oneShot, "linear-network-bound")
}

// pipeline is the 96-task spout → mid → sink pipeline of the repository's
// sharded-kernel benchmark.
func pipeline() (*topology.Topology, error) {
	p := topology.ExecProfile{CPUPerTuple: 100 * time.Microsecond, TupleBytes: 256}
	b := topology.NewBuilder("pipeline")
	b.SetSpout("s", 32).SetCPULoad(10).SetMemoryLoad(256).SetProfile(p)
	b.SetBolt("m", 32).ShuffleGrouping("s").SetCPULoad(10).SetMemoryLoad(256).SetProfile(p)
	b.SetBolt("z", 32).ShuffleGrouping("m").SetCPULoad(10).SetMemoryLoad(256).SetProfile(p)
	return b.Build()
}

// rackCase is the 400-node, 8-rack pipeline, spread evenly over the racks
// so every rack's lane is busy, on the sharded kernel with one worker per
// CPU.
func rackCase(cfg simulator.Config) simCase {
	cfg.Shards = runtime.NumCPU()
	return simCase{cluster: rack400, topology: pipeline, sched: core.EvenScheduler{}, cfg: cfg}
}

// runRackScale plays the 400-node pipeline in one shot per rep.
func runRackScale(r *runner) error {
	cfg := simulator.Config{Duration: time.Second, MetricsWindow: 500 * time.Millisecond}
	if r.short {
		cfg.Duration, cfg.MetricsWindow = 125*time.Millisecond, 62500*time.Microsecond
	}
	sc := rackCase(cfg)
	if err := runReps(r, sc, oneShot, "pipeline"); err != nil {
		return err
	}
	checkShardInvariance(r, sc, oneShot)
	return nil
}

// runRackChurn plays the 400-node pipeline in epochs with replay on. A
// seeded node crashes every crash gap and recovers half a gap later, its
// dead tasks restart elsewhere, and every epoch moves four seeded bolt
// tasks across racks. Spouts are never moved or crashed: moving a spout
// across racks mid-run races in the sharded kernel today.
func runRackChurn(r *runner) error {
	cfg := simulator.Config{Duration: 2 * time.Second, MetricsWindow: 250 * time.Millisecond, Replay: true}
	crashGap := time.Second
	if r.short {
		cfg.Duration, cfg.MetricsWindow, crashGap = 250*time.Millisecond, 62500*time.Microsecond, 125*time.Millisecond
	}
	sc := rackCase(cfg)
	setUp := func(sc simCase, t *Tracer) (playFn, error) {
		ch := &churn{rng: rand.New(rand.NewSource(sc.cfg.Seed)), ras: core.NewResourceAwareScheduler(),
			epoch: sc.cfg.MetricsWindow, crashGap: crashGap, dur: sc.cfg.Duration}
		var err error
		ch.simRep, err = sc.build(t, ch)
		return ch.play, err
	}
	if err := runReps(r, sc, setUp, "pipeline"); err != nil {
		return err
	}
	checkShardInvariance(r, sc, setUp)
	return nil
}

// churn drives one rack-churn rep through its epochs. It is also the
// rep's observer, counting the windows and task samples delivered.
type churn struct {
	*simRep
	rng             *rand.Rand
	ras             *core.ResourceAwareScheduler
	epoch, crashGap time.Duration
	dur             time.Duration
	counts          churnCounts
}

// churnCounts join the rep's result in its digest.
type churnCounts struct {
	Windows, Samples, Restarted, Moved int
}

func (ch *churn) OnWindow(s []simulator.TaskSample) {
	ch.counts.Windows++
	ch.counts.Samples += len(s)
}

func (ch *churn) play(t *Tracer, parent int) (*simulator.Result, any, error) {
	name := ch.topo.Name()
	for at := ch.epoch; at < ch.dur; at += ch.epoch {
		id := t.Begin("simulator.RunTo", parent)
		err := ch.sim.RunTo(at)
		t.End(id)
		if err == nil {
			err = ch.restartDead(t, parent, name)
		}
		if err == nil {
			err = ch.moveBolts(t, parent, name)
		}
		if err == nil && (at+ch.crashGap/2)%ch.crashGap == 0 {
			err = ch.crash(t, parent, at)
		}
		if err != nil {
			return nil, nil, fmt.Errorf("epoch at %v: %w", at, err)
		}
	}
	res, err := ch.finish(t, parent)
	digest := struct {
		Result *simulator.Result
		Counts churnCounts
	}{res, ch.counts}
	return res, digest, err
}

// deadNodes returns the set of crashed nodes.
func (ch *churn) deadNodes() map[cluster.NodeID]bool {
	dead := make(map[cluster.NodeID]bool)
	for _, id := range ch.sim.DeadNodes() {
		dead[id] = true
	}
	return dead
}

// restartDead re-places the tasks of crashed nodes with the incremental
// scheduler's Restart option, every live task frozen, then revives them
// where it put them.
func (ch *churn) restartDead(t *Tracer, parent int, name string) error {
	dead := ch.deadNodes()
	restart, frozen := make(map[int]bool), make(map[int]bool)
	for _, task := range ch.topo.Tasks() {
		if dead[ch.a.Placements[task.ID].Node] {
			restart[task.ID] = true
		} else {
			frozen[task.ID] = true
		}
	}
	if len(restart) == 0 {
		return nil
	}
	avail := make(map[cluster.NodeID]resource.Vector, ch.c.Size())
	for _, n := range ch.c.Nodes() {
		if !dead[n.ID] {
			avail[n.ID] = n.Spec.Capacity
		}
	}
	id := t.Begin("core.IncrementalReschedule", parent)
	next, moves, err := ch.ras.IncrementalReschedule(ch.topo, ch.c, ch.a,
		core.IncrementalOptions{Available: avail, Restart: restart, Frozen: frozen})
	t.End(id)
	if err != nil {
		return err
	}
	if len(moves) != len(restart) {
		return fmt.Errorf("restart placed %d of %d dead tasks", len(moves), len(restart))
	}
	id = t.Begin("simulator.ReassignRestarting", parent)
	n, err := ch.sim.ReassignRestarting(name, next, restart)
	t.End(id)
	ch.a = next
	ch.counts.Restarted += n
	return err
}

// moveBolts moves four seeded live bolt tasks to seeded live nodes in
// other racks.
func (ch *churn) moveBolts(t *Tracer, parent int, name string) error {
	dead := ch.deadNodes()
	var bolts []int
	for _, task := range ch.topo.Tasks() {
		if ch.topo.Component(task.Component).Kind == topology.KindBolt && !dead[ch.a.Placements[task.ID].Node] {
			bolts = append(bolts, task.ID)
		}
	}
	ids := ch.c.NodeIDs()
	next := ch.a.Clone()
	for i := 0; i < 4 && len(bolts) > 0; i++ {
		k := ch.rng.Intn(len(bolts))
		tid := bolts[k]
		bolts = append(bolts[:k], bolts[k+1:]...)
		from := ch.c.Node(next.Placements[tid].Node).Rack
		for {
			to := ids[ch.rng.Intn(len(ids))]
			if !dead[to] && ch.c.Node(to).Rack != from {
				next.Place(tid, core.Placement{Node: to})
				break
			}
		}
	}
	id := t.Begin("simulator.Reassign", parent)
	n, err := ch.sim.Reassign(name, next)
	t.End(id)
	ch.a = next
	ch.counts.Moved += n
	return err
}

// crash picks a seeded live node that hosts bolts but no spout, crashes it
// at the epoch boundary, and schedules its recovery half a gap later.
func (ch *churn) crash(t *Tracer, parent int, at time.Duration) error {
	hosts, hasSpout := make(map[cluster.NodeID]bool), make(map[cluster.NodeID]bool)
	for _, task := range ch.topo.Tasks() {
		node := ch.a.Placements[task.ID].Node
		hosts[node] = true
		if ch.topo.Component(task.Component).Kind == topology.KindSpout {
			hasSpout[node] = true
		}
	}
	dead := ch.deadNodes()
	var candidates []cluster.NodeID
	for _, id := range ch.c.NodeIDs() {
		if hosts[id] && !hasSpout[id] && !dead[id] {
			candidates = append(candidates, id)
		}
	}
	if len(candidates) == 0 {
		return fmt.Errorf("no node to crash")
	}
	victim := candidates[ch.rng.Intn(len(candidates))]
	id := t.Begin("simulator.InjectFault", parent)
	defer t.End(id)
	if err := ch.sim.InjectFault(faults.Fault{Kind: faults.Crash, Node: victim, At: at}); err != nil {
		return err
	}
	return ch.sim.InjectFault(faults.Fault{Kind: faults.Recover, Node: victim, At: at + ch.crashGap/2})
}
