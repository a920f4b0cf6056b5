package resource

import (
	"errors"
	"fmt"
)

// Class distinguishes hard constraints, which must never be violated, from
// soft constraints, which the scheduler may overcommit (paper §3).
type Class int

const (
	// Hard constraints must be satisfied in full. In R-Storm memory is
	// hard: exceeding physical memory is catastrophic.
	Hard Class = iota + 1
	// Soft constraints degrade gracefully under overcommit. In R-Storm
	// CPU and bandwidth are soft.
	Soft
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case Hard:
		return "hard"
	case Soft:
		return "soft"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// Axis identifies one dimension of the resource space.
type Axis int

const (
	AxisCPU Axis = iota + 1
	AxisMemory
	AxisBandwidth
)

// String implements fmt.Stringer.
func (a Axis) String() string {
	switch a {
	case AxisCPU:
		return "cpu"
	case AxisMemory:
		return "memory"
	case AxisBandwidth:
		return "bandwidth"
	default:
		return fmt.Sprintf("Axis(%d)", int(a))
	}
}

// Axes lists every axis in canonical order. It returns a fixed-size
// array by value — no shared backing slice a caller could mutate, no
// heap allocation in the scheduler inner loops that range over it.
func Axes() [3]Axis {
	return [...]Axis{AxisCPU, AxisMemory, AxisBandwidth}
}

// Component extracts the named axis from v.
func Component(v Vector, a Axis) float64 {
	switch a {
	case AxisCPU:
		return v.CPU
	case AxisMemory:
		return v.MemoryMB
	case AxisBandwidth:
		return v.Bandwidth
	default:
		return 0
	}
}

// Classes maps each axis to its constraint class. The R-Storm default
// (memory hard; CPU and bandwidth soft) is DefaultClasses; users may
// override per the paper ("whether a constraint is soft or hard is
// specified by the user", §3).
type Classes map[Axis]Class

// DefaultClasses returns the paper's constraint classification.
func DefaultClasses() Classes {
	return Classes{
		AxisCPU:       Soft,
		AxisMemory:    Hard,
		AxisBandwidth: Soft,
	}
}

// HardAxes returns the axes classified as hard, in canonical order.
func (c Classes) HardAxes() []Axis {
	var out []Axis
	for _, a := range Axes() {
		if c[a] == Hard {
			out = append(out, a)
		}
	}
	return out
}

// SoftAxes returns the axes classified as soft, in canonical order.
func (c Classes) SoftAxes() []Axis {
	var out []Axis
	for _, a := range Axes() {
		if c[a] == Soft {
			out = append(out, a)
		}
	}
	return out
}

// Validate checks that every axis is classified and every class is known.
func (c Classes) Validate() error {
	if len(c) == 0 {
		return errors.New("constraint classes are empty")
	}
	for _, a := range Axes() {
		cl, ok := c[a]
		if !ok {
			return fmt.Errorf("axis %s has no constraint class", a)
		}
		if cl != Hard && cl != Soft {
			return fmt.Errorf("axis %s has invalid class %d", a, int(cl))
		}
	}
	return nil
}

// HardSet is a Classes resolved to which axes are hard, so scheduler inner
// loops (every candidate node, every task) check feasibility without a
// map lookup per axis. Resolve it once per call with Classes.Hard.
type HardSet struct{ cpu, memory, bandwidth bool }

// Hard resolves the hard axes of c.
func (c Classes) Hard() HardSet {
	return HardSet{cpu: c[AxisCPU] == Hard, memory: c[AxisMemory] == Hard, bandwidth: c[AxisBandwidth] == Hard}
}

// Satisfies reports whether availability covers demand on every hard
// axis. This is the H_θ > H_τ check of Algorithm 4: a node is eligible only
// if no hard constraint would be violated.
func (h HardSet) Satisfies(avail, demand Vector) bool {
	return !(h.cpu && avail.CPU < demand.CPU) &&
		!(h.memory && avail.MemoryMB < demand.MemoryMB) &&
		!(h.bandwidth && avail.Bandwidth < demand.Bandwidth)
}

// SatisfiesHard is classes.Hard().Satisfies(avail, demand).
func SatisfiesHard(avail, demand Vector, classes Classes) bool {
	return classes.Hard().Satisfies(avail, demand)
}

// ViolatedSoft returns the soft axes on which demand exceeds availability,
// along with the overcommit amount per axis. The scheduler aims to minimize
// these but may accept them.
func ViolatedSoft(avail, demand Vector, classes Classes) map[Axis]float64 {
	var out map[Axis]float64
	for _, a := range classes.SoftAxes() {
		if d, av := Component(demand, a), Component(avail, a); d > av {
			if out == nil {
				out = make(map[Axis]float64, 2)
			}
			out[a] = d - av
		}
	}
	return out
}
