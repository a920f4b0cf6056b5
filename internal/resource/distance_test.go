package resource

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDistanceZeroAtPerfectFit(t *testing.T) {
	demand := Vector{CPU: 50, MemoryMB: 1024}
	avail := Vector{CPU: 50, MemoryMB: 1024}
	if d := Distance(demand, avail, 0, DefaultWeights()); d != 0 {
		t.Fatalf("Distance at perfect fit with zero network distance = %v, want 0", d)
	}
}

func TestDistanceGrowsWithNetworkDistance(t *testing.T) {
	demand := Vector{CPU: 50, MemoryMB: 1024}
	avail := Vector{CPU: 80, MemoryMB: 2048}
	w := DefaultWeights()
	near := Distance(demand, avail, 0, w)
	sameRack := Distance(demand, avail, 1, w)
	otherRack := Distance(demand, avail, 2, w)
	if !(near < sameRack && sameRack < otherRack) {
		t.Fatalf("distance not monotone in network distance: %v %v %v", near, sameRack, otherRack)
	}
}

func TestDistancePrefersTighterFit(t *testing.T) {
	// With equal network distance, the node whose availability is closer
	// to the demand wins, which is how R-Storm minimizes resource waste.
	demand := Vector{CPU: 50, MemoryMB: 512}
	tight := Vector{CPU: 55, MemoryMB: 600}
	loose := Vector{CPU: 100, MemoryMB: 2048}
	w := DefaultWeights()
	if dt, dl := Distance(demand, tight, 1, w), Distance(demand, loose, 1, w); dt >= dl {
		t.Fatalf("tight fit %v should beat loose fit %v", dt, dl)
	}
}

func TestDistanceWeightsSelectAxes(t *testing.T) {
	demand := Vector{CPU: 10, MemoryMB: 10}
	availA := Vector{CPU: 10, MemoryMB: 1000} // bad on memory only
	availB := Vector{CPU: 1000, MemoryMB: 10} // bad on cpu only
	cpuOnly := Weights{CPU: 1, Memory: 0, Bandwidth: 0}
	memOnly := Weights{CPU: 0, Memory: 1, Bandwidth: 0}
	if d := Distance(demand, availA, 5, cpuOnly); d != 0 {
		t.Errorf("cpu-only weights should ignore memory and network: got %v", d)
	}
	if d := Distance(demand, availB, 5, memOnly); d != 0 {
		t.Errorf("memory-only weights should ignore cpu and network: got %v", d)
	}
}

func TestWeightsValidate(t *testing.T) {
	tests := []struct {
		name    string
		w       Weights
		wantErr bool
	}{
		{"defaults", DefaultWeights(), false},
		{"zero weights allowed", Weights{}, false},
		{"negative", Weights{CPU: -1}, true},
		{"nan", Weights{Memory: math.NaN()}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.w.Validate(); (err != nil) != tt.wantErr {
				t.Errorf("Validate() = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestQuickDistanceNonNegativeSymmetricInResources(t *testing.T) {
	f := func(d1, d2, a1, a2, nd float64) bool {
		demand := boundedVector(d1, d2, 0)
		avail := boundedVector(a1, a2, 0)
		netDist := math.Mod(math.Abs(nd), 10)
		if math.IsNaN(netDist) {
			netDist = 0
		}
		w := DefaultWeights()
		fwd := Distance(demand, avail, netDist, w)
		rev := Distance(avail, demand, netDist, w)
		// Squared differences make the resource part symmetric.
		return fwd >= 0 && math.Abs(fwd-rev) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSatisfiesHard(t *testing.T) {
	classes := DefaultClasses()
	tests := []struct {
		name   string
		avail  Vector
		demand Vector
		want   bool
	}{
		{
			name:   "memory covered",
			avail:  Vector{CPU: 0, MemoryMB: 1024, Bandwidth: 0},
			demand: Vector{CPU: 500, MemoryMB: 1024, Bandwidth: 500},
			want:   true, // CPU/bandwidth are soft; only memory is checked
		},
		{
			name:   "memory exceeded",
			avail:  Vector{CPU: 1000, MemoryMB: 100, Bandwidth: 1000},
			demand: Vector{CPU: 1, MemoryMB: 101, Bandwidth: 1},
			want:   false,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := SatisfiesHard(tt.avail, tt.demand, classes); got != tt.want {
				t.Errorf("SatisfiesHard = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestViolatedSoft(t *testing.T) {
	classes := DefaultClasses()
	avail := Vector{CPU: 30, MemoryMB: 1024, Bandwidth: 2}
	demand := Vector{CPU: 50, MemoryMB: 512, Bandwidth: 1}
	v := ViolatedSoft(avail, demand, classes)
	if len(v) != 1 {
		t.Fatalf("want exactly one violated soft axis, got %v", v)
	}
	if got := v[AxisCPU]; math.Abs(got-20) > 1e-9 {
		t.Errorf("cpu overcommit = %v, want 20", got)
	}
	if v2 := ViolatedSoft(Vector{CPU: 100, MemoryMB: 1, Bandwidth: 100}, Vector{CPU: 1, MemoryMB: 100, Bandwidth: 1}, classes); v2 != nil {
		t.Errorf("memory is hard, not soft: got %v", v2)
	}
}

func TestClassesValidate(t *testing.T) {
	if err := DefaultClasses().Validate(); err != nil {
		t.Fatalf("default classes invalid: %v", err)
	}
	bad := Classes{AxisCPU: Soft}
	if err := bad.Validate(); err == nil {
		t.Fatal("incomplete classes should be invalid")
	}
	if err := (Classes{}).Validate(); err == nil {
		t.Fatal("empty classes should be invalid")
	}
	worse := Classes{AxisCPU: Class(99), AxisMemory: Hard, AxisBandwidth: Soft}
	if err := worse.Validate(); err == nil {
		t.Fatal("unknown class should be invalid")
	}
}

func TestClassAndAxisStrings(t *testing.T) {
	if Hard.String() != "hard" || Soft.String() != "soft" {
		t.Error("class strings wrong")
	}
	if Class(42).String() == "" || Axis(42).String() == "" {
		t.Error("unknown enums should still render")
	}
	if AxisCPU.String() != "cpu" || AxisMemory.String() != "memory" || AxisBandwidth.String() != "bandwidth" {
		t.Error("axis strings wrong")
	}
}

// TestQuickHardSetMatchesClasses checks the resolved HardSet against the
// per-axis definition for every hard/soft split of the axes.
func TestQuickHardSetMatchesClasses(t *testing.T) {
	f := func(mask uint8, a, d [3]float64) bool {
		classes := Classes{}
		for i, axis := range Axes() {
			classes[axis] = Soft
			if mask&(1<<i) != 0 {
				classes[axis] = Hard
			}
		}
		avail := Vector{CPU: a[0], MemoryMB: a[1], Bandwidth: a[2]}
		demand := Vector{CPU: d[0], MemoryMB: d[1], Bandwidth: d[2]}
		want := true
		for _, axis := range classes.HardAxes() {
			if Component(avail, axis) < Component(demand, axis) {
				want = false
			}
		}
		return classes.Hard().Satisfies(avail, demand) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
