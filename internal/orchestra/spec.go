package orchestra

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// A Spec is a parsed experiment-matrix description. The grammar (one
// line, whitespace-separated terms joined by the cross operator):
//
//	spec     := ids ( "×" term )*          ("x" is accepted for "×")
//	ids      := "all" | id ("," id)*
//	term     := "seeds=" ints | "duration=" durs | "window=" durs
//	ints     := int ".." int | int ("," int)*
//	durs     := dur ("," dur)*             (Go duration syntax: "6s")
//
// Examples:
//
//	"failover,consolidate × seeds=1..16"
//	"all × seeds=1,3,5 × duration=6s,12s"
//
// The first term always names the experiments; ID validity is checked at
// resolution time by the caller (orchestra does not know the registry).
// Every later term multiplies the matrix. Omitted terms contribute a
// single unset value, which resolution replaces with the caller's
// defaults. A spec may expand to at most maxCells cells.
type Spec struct {
	IDs       []string
	Seeds     []int64
	Durations []time.Duration
	Windows   []time.Duration
}

// A CellSpec is one point of the expanded matrix. Zero fields mean "not
// set by the spec": the resolver applies its defaults.
type CellSpec struct {
	ID       string
	Seed     int64
	Duration time.Duration
	Window   time.Duration
}

// Key names the cell in results and reports: the experiment ID followed
// by the knobs the spec actually set, in grammar order.
func (c CellSpec) Key() string {
	var b strings.Builder
	b.WriteString(c.ID)
	if c.Seed != 0 {
		fmt.Fprintf(&b, " seed=%d", c.Seed)
	}
	if c.Duration != 0 {
		fmt.Fprintf(&b, " duration=%v", c.Duration)
	}
	if c.Window != 0 {
		fmt.Fprintf(&b, " window=%v", c.Window)
	}
	return b.String()
}

// maxCells bounds the cells one spec may expand to. A seed range is
// checked against it before its slice is allocated, so a range such as
// 1..9223372036854775807 is an error, not an out-of-memory crash.
const maxCells = 1 << 16

// ParseSpec parses the matrix grammar above.
func ParseSpec(s string) (*Spec, error) {
	fields := strings.Fields(s)
	if len(fields) == 0 {
		return nil, fmt.Errorf("empty matrix spec")
	}
	// Group whitespace-separated fields into terms split on the cross
	// operator. "×" may also appear glued to a term ("a ×seeds=1"): split
	// those too.
	var terms []string
	cur := ""
	flush := func() error {
		if cur == "" {
			return fmt.Errorf("matrix spec %q: empty term (two crosses in a row?)", s)
		}
		terms = append(terms, cur)
		cur = ""
		return nil
	}
	for _, f := range fields {
		for {
			before, after, found := cutCross(f)
			if !found {
				break
			}
			if before != "" {
				if cur != "" {
					return nil, fmt.Errorf("matrix spec %q: term %q and %q not separated by ×", s, cur, before)
				}
				cur = before
			}
			if err := flush(); err != nil {
				return nil, err
			}
			f = after
		}
		if f == "" {
			continue
		}
		if cur != "" {
			return nil, fmt.Errorf("matrix spec %q: term %q and %q not separated by ×", s, cur, f)
		}
		cur = f
	}
	if err := flush(); err != nil {
		return nil, err
	}

	spec := &Spec{}
	for i, t := range terms {
		if i == 0 {
			if strings.Contains(t, "=") {
				return nil, fmt.Errorf("matrix spec %q: first term must name experiments, got %q", s, t)
			}
			if t == "all" {
				spec.IDs = []string{"all"}
				continue
			}
			for _, id := range strings.Split(t, ",") {
				if id == "" {
					return nil, fmt.Errorf("matrix spec %q: empty experiment ID in %q", s, t)
				}
				spec.IDs = append(spec.IDs, id)
			}
			continue
		}
		key, val, found := strings.Cut(t, "=")
		if !found || val == "" {
			return nil, fmt.Errorf("matrix spec %q: term %q is not key=values", s, t)
		}
		switch key {
		case "seeds":
			if spec.Seeds != nil {
				return nil, fmt.Errorf("matrix spec %q: duplicate seeds term", s)
			}
			seeds, err := parseInts(val)
			if err != nil {
				return nil, fmt.Errorf("matrix spec %q: seeds: %w", s, err)
			}
			spec.Seeds = seeds
		case "duration":
			if spec.Durations != nil {
				return nil, fmt.Errorf("matrix spec %q: duplicate duration term", s)
			}
			durs, err := parseDurations(val)
			if err != nil {
				return nil, fmt.Errorf("matrix spec %q: duration: %w", s, err)
			}
			spec.Durations = durs
		case "window":
			if spec.Windows != nil {
				return nil, fmt.Errorf("matrix spec %q: duplicate window term", s)
			}
			durs, err := parseDurations(val)
			if err != nil {
				return nil, fmt.Errorf("matrix spec %q: window: %w", s, err)
			}
			spec.Windows = durs
		default:
			return nil, fmt.Errorf("matrix spec %q: unknown knob %q (want seeds, duration, or window)", s, key)
		}
	}
	cells := 1
	for _, n := range []int{len(spec.IDs), len(spec.Seeds), len(spec.Durations), len(spec.Windows)} {
		cells *= max(n, 1)
		if cells > maxCells {
			return nil, fmt.Errorf("matrix spec %q expands to more than %d cells", s, maxCells)
		}
	}
	return spec, nil
}

// cutCross splits a field at the first cross operator. A bare "x" field
// is an operator; an embedded "x" is not (it could be part of an ID like
// "exact"), so only "×" splits mid-field.
func cutCross(f string) (before, after string, found bool) {
	if f == "x" || f == "×" {
		return "", "", true
	}
	return strings.Cut(f, "×")
}

// parseInts parses "1..16" (inclusive range) or "1,2,5".
func parseInts(val string) ([]int64, error) {
	if lo, hi, found := strings.Cut(val, ".."); found {
		a, err := parseSeed(lo)
		if err != nil {
			return nil, err
		}
		b, err := parseSeed(hi)
		if err != nil {
			return nil, err
		}
		if b < a {
			return nil, fmt.Errorf("range %s..%s is descending", lo, hi)
		}
		if b-a >= maxCells {
			return nil, fmt.Errorf("range %s..%s has more than %d values", lo, hi, maxCells)
		}
		// Count offsets rather than values: v <= b never fails when b is
		// the largest int64, and v++ would wrap.
		out := make([]int64, 0, b-a+1)
		for i := int64(0); i <= b-a; i++ {
			out = append(out, a+i)
		}
		return out, nil
	}
	var out []int64
	for _, part := range strings.Split(val, ",") {
		v, err := parseSeed(part)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// parseSeed parses one seed value. Seeds must be positive: 0 is the
// "unset" sentinel that resolution replaces with the caller's default.
func parseSeed(s string) (int64, error) {
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad seed %q", s)
	}
	if v < 1 {
		return 0, fmt.Errorf("seed %d out of range (want >= 1)", v)
	}
	return v, nil
}

func parseDurations(val string) ([]time.Duration, error) {
	var out []time.Duration
	for _, part := range strings.Split(val, ",") {
		d, err := time.ParseDuration(part)
		if err != nil {
			return nil, fmt.Errorf("bad duration %q", part)
		}
		if d <= 0 {
			return nil, fmt.Errorf("duration %v out of range (want > 0)", d)
		}
		out = append(out, d)
	}
	return out, nil
}

// Cells expands the matrix in row-major grammar order: experiments vary
// slowest, then seeds, durations, windows. This ordering is the
// deterministic merge key the results store preserves.
func (s *Spec) Cells() []CellSpec {
	ids := s.IDs
	seeds := s.Seeds
	if seeds == nil {
		seeds = []int64{0}
	}
	durs := s.Durations
	if durs == nil {
		durs = []time.Duration{0}
	}
	wins := s.Windows
	if wins == nil {
		wins = []time.Duration{0}
	}
	out := make([]CellSpec, 0, len(ids)*len(seeds)*len(durs)*len(wins))
	for _, id := range ids {
		for _, seed := range seeds {
			for _, d := range durs {
				for _, w := range wins {
					out = append(out, CellSpec{ID: id, Seed: seed, Duration: d, Window: w})
				}
			}
		}
	}
	return out
}
