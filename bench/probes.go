package main

import (
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"rstorm/internal/cluster"
	"rstorm/internal/core"
	"rstorm/internal/des"
	"rstorm/internal/nimbus"
	"rstorm/internal/pardes"
	"rstorm/internal/simulator"
	"rstorm/internal/statestore"
	"rstorm/internal/topology"
)

// probeReps is how many timed batches each probe runs; it reports their
// median.
const probeReps = 5

// runProbes times each layer's public functions on small fixed inputs.
// Every traced run reports them, whatever its workload, so each layer has
// a number even on workloads that bypass it.
func runProbes(seed int64, short bool) (map[string]Metric, error) {
	scale, rounds := 1, 3
	if short {
		scale, rounds = 100, 1
	}
	m := map[string]Metric{
		"des.step_ns.1k":   probeDES(1<<10, 100_000/scale, seed),
		"des.step_ns.16k":  probeDES(1<<14, 100_000/scale, seed),
		"pardes.window_ns": probeWindow(2000 / scale),
	}
	for _, s := range []struct {
		name                          string
		components, par, racks, nodes int
		calls                         int
	}{
		{"core.schedule_us.40", 4, 10, 2, 6, 200},
		{"core.schedule_us.400", 8, 50, 4, 16, 40},
		{"core.schedule_us.4000", 8, 500, 8, 32, probeReps},
	} {
		v, err := probeSchedule(s.components, s.par, s.racks, s.nodes, max(s.calls/scale, 1))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.name, err)
		}
		m[s.name] = v
	}
	get, children, err := probeStore(10_000 / scale)
	if err != nil {
		return nil, err
	}
	m["statestore.get_us"], m["statestore.children_us"] = get, children
	if m["nimbus.tick_us"], err = probeTick(seed, max(30/scale, 3)); err != nil {
		return nil, err
	}
	simDur := 2 * time.Second
	if short {
		simDur = 100 * time.Millisecond
	}
	if m["simulator.tuple_ns"], err = probeTuplePath(seed, simDur, rounds); err != nil {
		return nil, err
	}
	if m["pardes.speedup"], m["pardes.cores_busy"], m["simulator.allocs_per_tuple"], err = probeRack(seed, simDur/2, rounds); err != nil {
		return nil, err
	}
	return m, nil
}

// timeBatches runs batch probeReps times and returns the median time per
// call, in unit, for batches of calls calls.
func timeBatches(calls int, unit time.Duration, batch func() error) (Metric, error) {
	var per []float64
	for i := 0; i < probeReps; i++ {
		t0 := time.Now()
		if err := batch(); err != nil {
			return Metric{}, err
		}
		per = append(per, float64(time.Since(t0))/float64(calls)/float64(unit))
	}
	return medianOf(per, unitName(unit)), nil
}

func unitName(d time.Duration) string {
	switch d {
	case time.Nanosecond:
		return "ns"
	case time.Microsecond:
		return "us"
	}
	return "ms"
}

// desEvent reschedules itself on every firing at a pseudo-random delay, so
// the engine's standing population stays fixed.
type desEvent struct {
	eng *des.Engine
	x   uint64
}

func (e *desEvent) Fire() {
	e.x = e.x*6364136223846793005 + 1442695040888963407
	e.eng.ScheduleEvent(time.Duration(e.x>>50), e)
}

// probeDES times ScheduleEvent + Step with standing events queued.
func probeDES(standing, steps int, seed int64) Metric {
	ev := &desEvent{eng: des.NewEngine(), x: uint64(seed)}
	for i := 0; i < standing; i++ {
		ev.Fire()
	}
	m, _ := timeBatches(steps, time.Nanosecond, func() error {
		for i := 0; i < steps; i++ {
			ev.eng.Step()
		}
		return nil
	})
	return m
}

// probeWindow times one Coordinator.Advance over eight idle lanes with a
// worker per CPU: the cost of a window barrier with nothing to do.
func probeWindow(windows int) Metric {
	lanes := make([]pardes.Lane, 8)
	for i := range lanes {
		lanes[i] = des.NewEngine()
	}
	co := pardes.NewCoordinator(lanes, runtime.NumCPU())
	defer co.Stop()
	var h time.Duration
	m, _ := timeBatches(windows, time.Nanosecond, func() error {
		for i := 0; i < windows; i++ {
			h += time.Millisecond
			co.Advance(h)
		}
		return nil
	})
	return m
}

// probeSchedule times R-Storm's Schedule on a chain of components x par
// tasks over racks x nodes nodes.
func probeSchedule(components, par, racks, nodes, calls int) (Metric, error) {
	b := topology.NewBuilder("probe")
	b.SetSpout("c0", par).SetCPULoad(5).SetMemoryLoad(16)
	for i := 1; i < components; i++ {
		b.SetBolt(fmt.Sprintf("c%d", i), par).ShuffleGrouping(fmt.Sprintf("c%d", i-1)).
			SetCPULoad(5).SetMemoryLoad(16)
	}
	topo, err := b.Build()
	if err != nil {
		return Metric{}, err
	}
	c, err := cluster.TwoRack(racks, nodes, cluster.EmulabNodeSpec())
	if err != nil {
		return Metric{}, err
	}
	sched := core.NewResourceAwareScheduler()
	var us []float64
	for i := 0; i < calls; i++ {
		state := core.NewGlobalState(c)
		t0 := time.Now()
		_, err := sched.Schedule(topo, c, state)
		us = append(us, float64(time.Since(t0))/1e3)
		if err != nil {
			return Metric{}, err
		}
	}
	return medianOf(us, "us"), nil
}

// probeStore times Get of one heartbeat-sized node and Children of a
// directory of 256, the reads every detector tick makes.
func probeStore(calls int) (get, children Metric, err error) {
	s := statestore.New()
	if err = s.Create("/supervisors", nil, 0); err != nil {
		return
	}
	payload, err := json.Marshal(nimbus.HeartbeatPayload{Node: "r0-n00", CPU: 100, MemoryMB: 2048, Slots: 4, Seq: 1})
	if err != nil {
		return
	}
	session := s.NewSession()
	paths := make([]string, 256)
	for i := range paths {
		paths[i] = fmt.Sprintf("/supervisors/n%03d", i)
		if err = s.Create(paths[i], payload, session); err != nil {
			return
		}
	}
	get, err = timeBatches(calls, time.Microsecond, func() error {
		for i := 0; i < calls; i++ {
			if _, err := s.Get(paths[i%len(paths)]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return
	}
	n := max(calls/100, 1)
	children, err = timeBatches(n, time.Microsecond, func() error {
		for i := 0; i < n; i++ {
			if _, err := s.Children("/supervisors"); err != nil {
				return err
			}
		}
		return nil
	})
	return
}

// probeTick times the failure detector's HeartbeatTick over 256 healthy
// supervisors with no tenants.
func probeTick(seed int64, ticks int) (Metric, error) {
	cp, err := newControlPlane(seed, 8)
	if err != nil {
		return Metric{}, err
	}
	var us []float64
	for i := 0; i < ticks; i++ {
		for _, sv := range cp.svs {
			if err := sv.Heartbeat(); err != nil {
				return Metric{}, err
			}
		}
		t0 := time.Now()
		if dead := cp.n.HeartbeatTick(); len(dead) > 0 {
			return Metric{}, fmt.Errorf("tick probe declared %v dead", dead)
		}
		us = append(us, float64(time.Since(t0))/1e3)
	}
	return medianOf(us, "us"), nil
}

// playCounted plays sc to its end and returns the tuples it processed and
// the process counters' change meanwhile.
func playCounted(sc simCase) (tuples float64, d rtCounters, err error) {
	rep, err := sc.build(nil, nil)
	if err != nil {
		return 0, d, err
	}
	before := readCounters()
	res, err := rep.sim.Finish()
	if err != nil {
		return 0, d, err
	}
	return float64(max(res.Topology(rep.topo.Name()).TuplesProcessed, 1)), readCounters().sub(before), nil
}

// probeTuplePath plays the paper-chain simulation on the default kernel
// rounds times and reports wall time per processed tuple.
func probeTuplePath(seed int64, dur time.Duration, rounds int) (Metric, error) {
	sc := simCase{cluster: cluster.Emulab12, topology: linearNetworkBound, sched: core.NewResourceAwareScheduler(),
		cfg: simulator.Config{Duration: dur, MetricsWindow: dur / 2, Seed: seed}}
	var nsPer []float64
	for i := 0; i < rounds; i++ {
		n, d, err := playCounted(sc)
		if err != nil {
			return Metric{}, err
		}
		nsPer = append(nsPer, d.wall*1e9/n)
	}
	return medianOf(nsPer, "ns"), nil
}

// probeRack plays the rack-scale pipeline rounds times at Shards = 1 and
// at one worker per CPU, alternating. It reports the tuples/s ratio, and
// the cores kept busy and heap allocations per processed tuple at one
// worker per CPU.
func probeRack(seed int64, dur time.Duration, rounds int) (speedup, busy, allocs Metric, err error) {
	var tps [2][]float64
	var rt rtCounters
	var tuples float64
	for i := 0; i < rounds; i++ {
		for k, shards := range []int{1, runtime.NumCPU()} {
			sc := simCase{cluster: rack400, topology: pipeline, sched: core.EvenScheduler{},
				cfg: simulator.Config{Duration: dur, MetricsWindow: dur / 2, Seed: seed, Shards: shards}}
			n, d, err := playCounted(sc)
			if err != nil {
				return speedup, busy, allocs, err
			}
			if k == 1 {
				rt.add(d)
				tuples += n
			}
			tps[k] = append(tps[k], n/d.wall)
		}
	}
	speedup = Metric{Value: Summarize(tps[1]).Median / Summarize(tps[0]).Median, Unit: "ratio", N: rounds}
	busy = Metric{Value: rt.cpu / rt.wall, Unit: "cores", N: rounds}
	allocs = Metric{Value: rt.allocs / tuples, Unit: "allocs", N: rounds}
	return speedup, busy, allocs, nil
}
