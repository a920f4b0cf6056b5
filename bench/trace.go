package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// Span is one timed call into a layer's public function, recorded by the
// benchmark around the call. Parent 0 marks a root span.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Tracer keeps every span in memory until the run ends. A nil *Tracer is
// the untraced run: Begin returns 0 and End does nothing. It is safe for
// concurrent use, because suite cells run on orchestrator workers.
type Tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []Span
}

func newTracer() *Tracer { return &Tracer{t0: time.Now()} }

// Begin opens a span named layer.Function under parent and returns its id.
func (t *Tracer) Begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: now})
	return len(t.spans)
}

// End closes the span Begin returned.
func (t *Tracer) End(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
}

// Spans returns a copy of the recorded spans, in the order they began.
func (t *Tracer) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// WriteFile writes the spans as one JSON array.
func (t *Tracer) WriteFile(path string) error {
	data, err := json.Marshal(t.Spans())
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// SpanStats is what the trace says about one span name.
type SpanStats struct {
	Durations []float64 // seconds, one per span
	Self      float64   // seconds, summed over the spans
}

// Analyze groups spans by name. A span's self time is its duration minus
// the part of it its children cover; children of one parent may overlap
// (suite cells run in parallel), so the covered part is the union of their
// intervals.
func Analyze(spans []Span) map[string]*SpanStats {
	children := make(map[int][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]*SpanStats)
	for _, s := range spans {
		st := out[s.Name]
		if st == nil {
			st = &SpanStats{}
			out[s.Name] = st
		}
		dur := s.End - s.Start
		st.Durations = append(st.Durations, float64(dur)/1e9)
		st.Self += float64(dur-covered(s, children[s.ID])) / 1e9
	}
	return out
}

// covered returns how much of parent's interval its children's union spans.
func covered(parent Span, kids []Span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total, curStart, curEnd int64
	open := false
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi <= lo {
			continue
		}
		if open && lo <= curEnd {
			curEnd = max(curEnd, hi)
			continue
		}
		if open {
			total += curEnd - curStart
		}
		curStart, curEnd, open = lo, hi, true
	}
	if open {
		total += curEnd - curStart
	}
	return total
}

// layerOf is the layer a span name belongs to: the text before the first dot.
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}
