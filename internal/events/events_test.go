package events

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestKindStrings(t *testing.T) {
	kinds := map[Kind]string{
		VMPlaced:           "vm-placed",
		VMRemoved:          "vm-removed",
		VMArrived:          "vm-arrived",
		MigrationStarted:   "migration-started",
		MigrationCompleted: "migration-completed",
		HostSleeping:       "host-sleeping",
		HostWaking:         "host-waking",
		HostSettled:        "host-settled",
	}
	for k, want := range kinds {
		if k.String() != want {
			t.Errorf("%d → %q, want %q", k, k.String(), want)
		}
	}
	if Kind(99).String() != "event?" {
		t.Error("unknown kind name")
	}
}

func TestEventString(t *testing.T) {
	e := Event{At: 90 * time.Minute, Kind: MigrationStarted, VM: 7, Host: 3, Detail: "1→3"}
	s := e.String()
	for _, want := range []string{"01:30:00", "migration-started", "vm=7", "host=3", "1→3"} {
		if !strings.Contains(s, want) {
			t.Fatalf("event string %q missing %q", s, want)
		}
	}
	// Zero subjects are omitted.
	s = Event{Kind: HostSettled, Host: 2}.String()
	if strings.Contains(s, "vm=") {
		t.Fatalf("zero VM rendered: %q", s)
	}
}

func TestLogAppendAndFilter(t *testing.T) {
	l := NewLog(100)
	l.Append(Event{At: 1 * time.Minute, Kind: VMPlaced, VM: 1, Host: 2})
	l.Append(Event{At: 2 * time.Minute, Kind: HostSleeping, Host: 2})
	l.Append(Event{At: 3 * time.Minute, Kind: VMPlaced, VM: 3, Host: 4})
	if l.Len() != 3 {
		t.Fatalf("len = %d", l.Len())
	}
	placed := l.Filter(OfKind(VMPlaced))
	if len(placed) != 2 {
		t.Fatalf("placed = %d", len(placed))
	}
	if got := l.Filter(OfKind(VMPlaced), ForVM(3)); len(got) != 1 || got[0].Host != 4 {
		t.Fatalf("combined filter = %v", got)
	}
	if got := l.Filter(ForHost(2)); len(got) != 2 {
		t.Fatalf("host filter = %d", len(got))
	}
	if got := l.Filter(Between(90*time.Second, 4*time.Minute)); len(got) != 2 {
		t.Fatalf("time filter = %d", len(got))
	}
	counts := l.Counts()
	if counts[VMPlaced] != 2 || counts[HostSleeping] != 1 {
		t.Fatalf("counts = %v", counts)
	}
}

func TestLogBoundedDropsOldestHalf(t *testing.T) {
	l := NewLog(10)
	for i := 0; i < 15; i++ {
		l.Append(Event{At: time.Duration(i) * time.Second, Kind: VMPlaced, VM: i + 1})
	}
	if l.Len() > 10 {
		t.Fatalf("len = %d exceeds cap", l.Len())
	}
	if l.Dropped() != 5 {
		t.Fatalf("dropped = %d, want 5", l.Dropped())
	}
	// The newest events survive.
	all := l.All()
	if all[len(all)-1].VM != 15 {
		t.Fatalf("lost the newest event: %v", all[len(all)-1])
	}
	if all[0].VM != 6 {
		t.Fatalf("oldest retained = %v, want vm 6", all[0])
	}
}

func TestLogWrite(t *testing.T) {
	l := NewLog(4)
	for i := 0; i < 7; i++ {
		l.Append(Event{At: time.Duration(i) * time.Second, Kind: HostWaking, Host: 1})
	}
	var buf bytes.Buffer
	if err := l.Write(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "earlier events dropped") {
		t.Fatalf("drop notice missing:\n%s", out)
	}
	if strings.Count(out, "host-waking") != l.Len() {
		t.Fatalf("wrong line count:\n%s", out)
	}
}

func TestNewLogDefaultCap(t *testing.T) {
	l := NewLog(0)
	if l.cap != 100_000 {
		t.Fatalf("default cap = %d", l.cap)
	}
}

// TestConcurrentClonesAreIndependent clones one log from several
// goroutines at once (run it under -race) and checks that every clone,
// and the source, keeps its own history through appends and drops.
func TestConcurrentClonesAreIndependent(t *testing.T) {
	src := NewLog(8)
	for i := 0; i < 6; i++ {
		src.Append(Event{Kind: VMPlaced, VM: i + 1})
	}
	const clones = 8
	var wg sync.WaitGroup
	got := make([]*Log, clones)
	for c := 0; c < clones; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			l := src.Clone()
			// Enough appends to cross the cap and drop the shared prefix.
			for i := 0; i < 10; i++ {
				l.Append(Event{Kind: HostSleeping, Host: 100*c + i + 1})
			}
			got[c] = l
		}(c)
	}
	wg.Wait()
	// An untouched clone must survive the source dropping its prefix.
	idle := src.Clone()
	for i := 0; i < 10; i++ {
		src.Append(Event{Kind: HostWaking, Host: i + 1})
	}
	for i, e := range idle.All() {
		if e.Kind != VMPlaced || e.VM != i+1 {
			t.Fatalf("idle clone event %d = %v, want vm-placed vm=%d", i, e, i+1)
		}
	}
	for c, l := range got {
		all := l.All()
		if l.Dropped() != 8 || len(all) != 8 {
			t.Fatalf("clone %d: len %d dropped %d, want 8 and 8", c, len(all), l.Dropped())
		}
		for i, e := range all {
			if want := 100*c + i + 3; e.Kind != HostSleeping || e.Host != want {
				t.Fatalf("clone %d event %d = %v, want host-sleeping host=%d", c, i, e, want)
			}
		}
	}
	all := src.All()
	if src.Dropped() != 8 || len(all) != 8 || all[0].Kind != HostWaking || all[0].Host != 3 {
		t.Fatalf("source after clones: dropped %d, events %v", src.Dropped(), all)
	}
}
