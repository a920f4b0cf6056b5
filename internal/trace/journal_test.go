package trace

import (
	"bufio"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestJournalOrderAndSeq(t *testing.T) {
	j := NewJournal(16)
	j.Record(1*time.Second, CodeTriggerFired, "topo", "", -1, "hotspot")
	j.Record(1*time.Second, CodePlanComputed, "topo", "", -1, "moves=2")
	j.Record(2*time.Second, CodeOOMKill, "topo", "node-1", 5, "")
	evs := j.Events()
	if len(evs) != 3 {
		t.Fatalf("len = %d", len(evs))
	}
	for i, e := range evs {
		if e.Seq != uint64(i+1) {
			t.Fatalf("event %d has Seq %d", i, e.Seq)
		}
	}
	if evs[2].Code != CodeOOMKill || evs[2].Task != 5 || evs[2].Node != "node-1" {
		t.Fatalf("event fields lost: %+v", evs[2])
	}
	if j.Len() != 3 || j.Dropped() != 0 {
		t.Fatalf("Len=%d Dropped=%d", j.Len(), j.Dropped())
	}
}

func TestJournalRingOverwrite(t *testing.T) {
	j := NewJournal(4)
	for i := 0; i < 10; i++ {
		j.Record(time.Duration(i), CodeFaultInjected, "", "n", -1, "")
	}
	evs := j.Events()
	if len(evs) != 4 {
		t.Fatalf("len = %d, want 4", len(evs))
	}
	// Oldest retained must be Seq 7 (events 1..6 overwritten).
	for i, e := range evs {
		if want := uint64(7 + i); e.Seq != want {
			t.Fatalf("event %d: Seq %d, want %d", i, e.Seq, want)
		}
	}
	if j.Dropped() != 6 {
		t.Fatalf("Dropped = %d, want 6", j.Dropped())
	}
}

func TestJournalDefaultCap(t *testing.T) {
	j := NewJournal(0)
	if j.max != DefaultJournalCap {
		t.Fatalf("max = %d", j.max)
	}
}

func TestJournalWriteJSONL(t *testing.T) {
	j := NewJournal(8)
	j.Record(500*time.Millisecond, CodeOOMKill, "lowpri", "node-3", 4, "resident=2100MB")
	j.Record(0, CodeFaultInjected, "", "node-3", -1, "crash")
	var b strings.Builder
	if err := j.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(strings.NewReader(b.String()))
	var lines []Event
	for sc.Scan() {
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("line %q: %v", sc.Text(), err)
		}
		lines = append(lines, e)
	}
	if len(lines) != 2 {
		t.Fatalf("lines = %d", len(lines))
	}
	if lines[0].Code != CodeOOMKill || lines[0].At != 500*time.Millisecond || lines[0].Task != 4 {
		t.Fatalf("round-trip lost fields: %+v", lines[0])
	}
	if lines[1].Seq != 2 {
		t.Fatalf("Seq = %d", lines[1].Seq)
	}
}

// TestJournalConcurrentAppend drives appends from many goroutines while
// readers snapshot — run under -race by the CI race job.
func TestJournalConcurrentAppend(t *testing.T) {
	j := NewJournal(256)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				j.Record(0, CodeTriggerFired, "t", "", -1, "")
			}
		}()
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				_ = j.Events()
				_ = j.Len()
			}
		}()
	}
	wg.Wait()
	evs := j.Events()
	if len(evs) != 256 {
		t.Fatalf("retained %d, want 256", len(evs))
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq <= evs[i-1].Seq {
			t.Fatalf("Seq not strictly increasing at %d: %d <= %d", i, evs[i].Seq, evs[i-1].Seq)
		}
	}
	if got := j.Dropped() + uint64(j.Len()); got != 4000 {
		t.Fatalf("dropped+retained = %d, want 4000", got)
	}
}
