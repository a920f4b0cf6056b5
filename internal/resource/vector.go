// Package resource models the n-dimensional resource vectors used by
// R-Storm's scheduling algorithm (paper §3–4).
//
// A task's demand and a node's availability are both points in a
// 3-dimensional space with axes CPU (points, where 100 points ≈ one core),
// memory (megabytes) and bandwidth (an abstract budget; during node
// selection R-Storm substitutes the network distance from the reference
// node on this axis). Memory is a hard constraint; CPU and bandwidth are
// soft constraints that may be overcommitted.
package resource

import (
	"fmt"
	"math"
)

// Vector is a point in the 3-dimensional resource space.
//
// The zero value is a valid "no resources" vector.
type Vector struct {
	// CPU is measured in points: 100 points ≈ 100% of one core
	// (paper §5.2's point system).
	CPU float64
	// MemoryMB is measured in megabytes.
	MemoryMB float64
	// Bandwidth is an abstract budget. For node availability it is the
	// nominal network budget; during node selection the scheduler
	// overwrites this axis with the network distance to the ref node.
	Bandwidth float64
}

// Add returns v + o componentwise.
func (v Vector) Add(o Vector) Vector {
	return Vector{
		CPU:       v.CPU + o.CPU,
		MemoryMB:  v.MemoryMB + o.MemoryMB,
		Bandwidth: v.Bandwidth + o.Bandwidth,
	}
}

// Sub returns v - o componentwise.
func (v Vector) Sub(o Vector) Vector {
	return Vector{
		CPU:       v.CPU - o.CPU,
		MemoryMB:  v.MemoryMB - o.MemoryMB,
		Bandwidth: v.Bandwidth - o.Bandwidth,
	}
}

// Scale returns v scaled by f componentwise.
func (v Vector) Scale(f float64) Vector {
	return Vector{
		CPU:       v.CPU * f,
		MemoryMB:  v.MemoryMB * f,
		Bandwidth: v.Bandwidth * f,
	}
}

// Dominates reports whether every component of v is >= the corresponding
// component of o.
func (v Vector) Dominates(o Vector) bool {
	return v.CPU >= o.CPU && v.MemoryMB >= o.MemoryMB && v.Bandwidth >= o.Bandwidth
}

// IsZero reports whether v is the zero vector.
func (v Vector) IsZero() bool {
	return v == Vector{}
}

// Norm returns the Euclidean norm of v.
func (v Vector) Norm() float64 {
	return math.Sqrt(v.CPU*v.CPU + v.MemoryMB*v.MemoryMB + v.Bandwidth*v.Bandwidth)
}

// Total returns the sum of the components. It is the scalar "amount of
// resources" used when R-Storm picks the rack and node with the most
// resources for the ref node (Algorithm 4, lines 6–9). Components should be
// normalized (see Weights.Apply) before Total is meaningful across axes.
func (v Vector) Total() float64 {
	return v.CPU + v.MemoryMB + v.Bandwidth
}

// String renders the vector for logs and error messages.
func (v Vector) String() string {
	return fmt.Sprintf("{cpu:%.1f mem:%.1fMB bw:%.1f}", v.CPU, v.MemoryMB, v.Bandwidth)
}

// Validate returns an error if any component is negative or non-finite.
func (v Vector) Validate() error {
	for _, c := range []struct {
		name string
		val  float64
	}{
		{"cpu", v.CPU},
		{"memory", v.MemoryMB},
		{"bandwidth", v.Bandwidth},
	} {
		if math.IsNaN(c.val) || math.IsInf(c.val, 0) {
			return fmt.Errorf("resource %s is not finite: %v", c.name, c.val)
		}
		if c.val < 0 {
			return fmt.Errorf("resource %s is negative: %v", c.name, c.val)
		}
	}
	return nil
}

// Sum adds a series of vectors.
func Sum(vs ...Vector) Vector {
	var total Vector
	for _, v := range vs {
		total = total.Add(v)
	}
	return total
}

// Max returns the componentwise maximum of a and b.
func Max(a, b Vector) Vector {
	return Vector{
		CPU:       math.Max(a.CPU, b.CPU),
		MemoryMB:  math.Max(a.MemoryMB, b.MemoryMB),
		Bandwidth: math.Max(a.Bandwidth, b.Bandwidth),
	}
}
