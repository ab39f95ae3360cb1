package migrate

import (
	"errors"
	"slices"
	"testing"
	"time"

	"agilepower/internal/sim"
	"agilepower/internal/vm"
)

func newTestManager(t *testing.T, limit int) (*sim.Engine, *Manager) {
	t.Helper()
	eng := sim.NewEngine(1)
	m, err := NewManager(eng, DefaultModel(), limit)
	if err != nil {
		t.Fatal(err)
	}
	return eng, m
}

func TestNewManagerRejectsInvalidModel(t *testing.T) {
	bad := DefaultModel()
	bad.BandwidthGbps = 0
	if _, err := NewManager(sim.NewEngine(1), bad, 2); err == nil {
		t.Fatal("NewManager accepted invalid model")
	}
}

func TestStartAndComplete(t *testing.T) {
	eng, m := newTestManager(t, 2)
	var done *Migration
	m.OnComplete(func(mg *Migration) { done = mg })

	mig, err := m.Start(1, 10, 20, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Migrating(1) || m.Inflight() != 1 {
		t.Fatal("migration not tracked")
	}
	if m.HostLoad(10) != 1 || m.HostLoad(20) != 1 {
		t.Fatal("host load not tracked")
	}
	eng.RunUntil(mig.End)
	if done == nil || done.VM != 1 {
		t.Fatal("completion callback not fired")
	}
	if m.Migrating(1) || m.Inflight() != 0 {
		t.Fatal("migration still tracked after completion")
	}
	if m.HostLoad(10) != 0 || m.HostLoad(20) != 0 {
		t.Fatal("host load not released")
	}
	st := m.Stats()
	if st.Started != 1 || st.Completed != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.TotalDowntime <= 0 || st.TrafficGB < 8 {
		t.Fatalf("stats missing downtime/traffic: %+v", st)
	}
}

func TestStartRejectsSamePlace(t *testing.T) {
	_, m := newTestManager(t, 2)
	if _, err := m.Start(1, 5, 5, 8); !errors.Is(err, ErrSamePlace) {
		t.Fatalf("err = %v, want ErrSamePlace", err)
	}
}

func TestStartRejectsDoubleMigration(t *testing.T) {
	_, m := newTestManager(t, 4)
	if _, err := m.Start(1, 10, 20, 8); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Start(1, 20, 30, 8); !errors.Is(err, ErrAlreadyMigrating) {
		t.Fatalf("err = %v, want ErrAlreadyMigrating", err)
	}
}

func TestPerHostLimitEnforced(t *testing.T) {
	_, m := newTestManager(t, 1)
	if _, err := m.Start(1, 10, 20, 8); err != nil {
		t.Fatal(err)
	}
	// Host 10 is saturated as a source.
	if _, err := m.Start(2, 10, 30, 8); !errors.Is(err, ErrHostSaturated) {
		t.Fatalf("err = %v, want ErrHostSaturated (source)", err)
	}
	// Host 20 is saturated as a destination.
	if _, err := m.Start(3, 30, 20, 8); !errors.Is(err, ErrHostSaturated) {
		t.Fatalf("err = %v, want ErrHostSaturated (dest)", err)
	}
	// An unrelated pair is fine.
	if _, err := m.Start(4, 30, 40, 8); err != nil {
		t.Fatalf("unrelated migration rejected: %v", err)
	}
	if m.CanStart(10, 40) || m.CanStart(40, 20) {
		t.Fatal("CanStart disagrees with Start")
	}
	if !m.CanStart(50, 60) {
		t.Fatal("CanStart rejects free pair")
	}
}

func TestLimitReleasedAfterCompletion(t *testing.T) {
	eng, m := newTestManager(t, 1)
	mig, err := m.Start(1, 10, 20, 2)
	if err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(mig.End + time.Second)
	if _, err := m.Start(2, 10, 20, 2); err != nil {
		t.Fatalf("slot not released after completion: %v", err)
	}
}

func TestDefaultPerHostLimit(t *testing.T) {
	_, m := newTestManager(t, 0) // 0 selects default of 4
	for i := 1; i <= 4; i++ {
		if _, err := m.Start(vm.ID(i), 10, 20+i, 2); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Start(5, 10, 40, 2); !errors.Is(err, ErrHostSaturated) {
		t.Fatalf("fifth outbound from host 10 = %v, want ErrHostSaturated", err)
	}
}

func TestCPUOverhead(t *testing.T) {
	_, m := newTestManager(t, 4)
	if m.CPUOverhead(10) != 0 {
		t.Fatal("idle host has overhead")
	}
	if _, err := m.Start(1, 10, 20, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Start(2, 10, 30, 2); err != nil {
		t.Fatal(err)
	}
	want := 2 * DefaultModel().CPUOverheadCores
	if m.CPUOverhead(10) != want {
		t.Fatalf("overhead = %v, want %v", m.CPUOverhead(10), want)
	}
	if m.CPUOverhead(20) != DefaultModel().CPUOverheadCores {
		t.Fatal("destination overhead wrong")
	}
}

func TestMigrationTimesRecorded(t *testing.T) {
	eng, m := newTestManager(t, 2)
	eng.RunUntil(10 * time.Second)
	mig, err := m.Start(1, 1, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if mig.Start != 10*time.Second {
		t.Fatalf("start = %v, want 10s", mig.Start)
	}
	if mig.End != mig.Start+mig.Plan.Duration {
		t.Fatalf("end %v != start+duration %v", mig.End, mig.Start+mig.Plan.Duration)
	}
}

// TestInflightsMatchesSortedOracle checks the ID-ordered in-flight view
// against a map oracle sorted on demand, across interleaved starts,
// completions and host failures — including failure callbacks that
// start new moves while FailHost is still walking the set.
func TestInflightsMatchesSortedOracle(t *testing.T) {
	eng, m := newTestManager(t, 3)
	rng := sim.NewRNG(42)
	oracle := make(map[vm.ID]*Migration)
	var nextVM vm.ID
	start := func() {
		nextVM++
		// Shuffle IDs so inserts land all over the ordered view.
		id := vm.ID(rng.Intn(1000)+1)*1000 + nextVM
		mig, err := m.Start(id, rng.Intn(6)+1, rng.Intn(6)+1, rng.Range(1, 16))
		if err == nil {
			oracle[id] = mig
		}
	}
	done := func(mg *Migration) {
		if oracle[mg.VM] != mg {
			t.Fatalf("completion of vm %d that the oracle does not hold", mg.VM)
		}
		delete(oracle, mg.VM)
	}
	m.OnComplete(done)
	m.OnFailed(func(mg *Migration) {
		done(mg)
		if rng.Bernoulli(0.5) {
			start()
		}
	})
	check := func(step int) {
		t.Helper()
		ids := make([]vm.ID, 0, len(oracle))
		for id := range oracle {
			ids = append(ids, id)
		}
		slices.Sort(ids)
		got := m.Inflights()
		if len(got) != len(ids) || m.Inflight() != len(ids) {
			t.Fatalf("step %d: Inflights has %d, Inflight %d, oracle %d", step, len(got), m.Inflight(), len(ids))
		}
		for i, id := range ids {
			if got[i] != oracle[id] {
				t.Fatalf("step %d: Inflights[%d] is vm %d, want vm %d", step, i, got[i].VM, id)
			}
		}
	}
	for step := 0; step < 2000; step++ {
		switch r := rng.Intn(10); {
		case r < 6:
			start()
		case r < 9:
			eng.RunUntil(eng.Now() + sim.Time(rng.Intn(3000))*sim.Time(time.Millisecond))
		default:
			h, touching := rng.Intn(6)+1, 0
			for _, mg := range oracle {
				if mg.Src == h || mg.Dst == h {
					touching++
				}
			}
			if n := m.FailHost(h); n != touching {
				t.Fatalf("step %d: FailHost(%d) aborted %d, want %d", step, h, n, touching)
			}
		}
		check(step)
	}
	if m.Stats().Aborted == 0 || m.Stats().Completed == 0 {
		t.Fatalf("script never exercised both exits: %+v", m.Stats())
	}
}
