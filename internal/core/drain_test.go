package core

import (
	"testing"
	"time"

	"agilepower/internal/cluster"
	"agilepower/internal/host"
	"agilepower/internal/sim"
	"agilepower/internal/vm"
	"agilepower/internal/workload"
)

// The drain burst: a lightly loaded fleet whose first control step
// marks most hosts evacuating, so the evacuees outnumber the migration
// slots many times over and every completion re-plans the drain and
// re-attempts moves the slot limit refuses.

const (
	burstHosts = 32
	burstVMs   = 512
)

// buildDrainBurstWorld builds one side of the paired drain-burst world:
// 32 × 16-core hosts with 16 light VMs each, the default four-slot
// migration limit, and no scale-down persistence delay. fullScan
// selects the eager oracle planner.
func buildDrainBurstWorld(t testing.TB, fullScan bool) *parityWorld {
	t.Helper()
	eng := sim.NewEngine(3)
	cl, err := cluster.New(eng, cluster.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < burstHosts; i++ {
		if _, err := cl.AddHost(host.Config{Cores: 16, MemoryGB: 64}); err != nil {
			t.Fatal(err)
		}
	}
	// Half the traces step every second, so peak-window forecasts keep
	// rising through the burst and the cached packing order is rebuilt
	// between replans as well as reused.
	trng := sim.NewRNG(17)
	traces := make([]*workload.Trace, 8)
	for i := range traces {
		if i%2 == 0 {
			samples := make([]float64, 64)
			for j := range samples {
				samples[j] = trng.Range(0.05, 0.5)
			}
			tr, err := workload.NewTrace(time.Second, samples)
			if err != nil {
				t.Fatal(err)
			}
			traces[i] = tr
		} else {
			traces[i] = workload.Constant(trng.Range(0.1, 0.4))
		}
	}
	for i := 0; i < burstVMs; i++ {
		cfg := vm.Config{VCPUs: 2, MemoryGB: 2, Trace: traces[i%len(traces)]}
		if _, err := cl.AddVM(cfg, host.ID(i%burstHosts+1)); err != nil {
			t.Fatal(err)
		}
	}
	m, err := NewManager(cl, Config{Policy: DPMS3, SleepDelay: -1, fullScan: fullScan})
	if err != nil {
		t.Fatal(err)
	}
	cl.Start()
	m.Start()
	return &parityWorld{eng: eng, cl: cl, m: m}
}

// TestIncrementalPlanningParityDrainBurst runs the production drain
// replan — cached packing order, slot check before each attempt, dense
// scratch — against the full-scan oracle, which sorts every plan
// afresh and attempts every planned move, through a drain burst. Both
// must agree on every planning intermediate and every counter,
// rejected moves included, at each checkpoint.
func TestIncrementalPlanningParityDrainBurst(t *testing.T) {
	a := buildDrainBurstWorld(t, false)
	b := buildDrainBurstWorld(t, true)
	// The burst drains about half the fleet within ten simulated
	// seconds; check it densely, then the diurnal hours after it.
	var checkpoints []sim.Time
	for ms := 250; ms <= 12000; ms += 250 {
		checkpoints = append(checkpoints, sim.Time(ms)*sim.Time(time.Millisecond))
	}
	for h := 1; h <= 4; h++ {
		checkpoints = append(checkpoints, sim.Time(h)*sim.Time(time.Hour))
	}
	sawEvacuating := false
	for _, to := range checkpoints {
		a.eng.RunUntil(to)
		b.eng.RunUntil(to)
		comparePlanning(t, a, b)
		if len(a.m.evacuating) >= burstHosts/4 {
			sawEvacuating = true
		}
	}
	st := a.m.Stats()
	if !sawEvacuating {
		t.Fatal("no checkpoint saw a quarter of the fleet evacuating: the world does not drain in a burst")
	}
	if st.MigrationsFailed == 0 || st.MigrationsConsolidation == 0 {
		t.Fatalf("burst exercised no slot rejections or no moves: %+v", st)
	}
	if st.Sleeps == 0 {
		t.Fatalf("burst parked no host: %+v", st)
	}
}

// TestDrainReplanAllocFree pins the cost of a refused replan: in the
// middle of a drain burst, once the scratch has grown, a plane-free
// continueMoves that re-plans the drain and finds every planned move
// refused for want of slots allocates nothing.
func TestDrainReplanAllocFree(t *testing.T) {
	w := buildDrainBurstWorld(t, false)
	w.eng.RunUntil(sim.Time(3 * time.Second))
	if len(w.m.evacuating) == 0 || w.cl.Migrations().Inflight() == 0 {
		t.Fatalf("not mid-burst: %d evacuating, %d in flight", len(w.m.evacuating), w.cl.Migrations().Inflight())
	}
	w.m.continueMoves()
	before := w.m.Stats()
	if allocs := testing.AllocsPerRun(20, w.m.continueMoves); allocs != 0 {
		t.Fatalf("mid-burst continueMoves allocates: %v allocs/op, want 0", allocs)
	}
	after := w.m.Stats()
	if after.MigrationsFailed == before.MigrationsFailed {
		t.Fatal("the measured replans refused no move: the gate is not exercising rejections")
	}
	if after.MigrationsConsolidation != before.MigrationsConsolidation {
		t.Fatal("a measured replan started a move")
	}
}
