package cluster

import (
	"errors"
	"testing"
	"time"

	"agilepower/internal/host"
	"agilepower/internal/migrate"
	"agilepower/internal/sim"
	"agilepower/internal/vm"
	"agilepower/internal/workload"
)

// TestEvaluateSteadyStateAllocFree is the allocation regression gate
// for the simulator's hot path: once the cluster is built and the
// telemetry series are preallocated (Horizon), a steady-state
// evaluation tick must not touch the heap. The budget is zero — any
// regression (a per-tick map, a forgotten scratch buffer, a growing
// slice) fails the test outright.
func TestEvaluateSteadyStateAllocFree(t *testing.T) {
	eng := sim.NewEngine(1)
	c, err := New(eng, Config{Horizon: 30 * 24 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	for h := 0; h < 16; h++ {
		if _, err := c.AddHost(host.Config{Cores: 16, MemoryGB: 256}); err != nil {
			t.Fatal(err)
		}
	}
	rng := sim.NewRNG(1)
	for v := 0; v < 80; v++ {
		tr := workload.Diurnal(rng.Fork(), workload.DiurnalSpec{BaseCores: 0.4, PeakCores: 3})
		if _, err := c.AddVM(vm.Config{VCPUs: 4, MemoryGB: 8, Trace: tr}, host.ID(v%16+1)); err != nil {
			t.Fatal(err)
		}
	}
	// Prime all scratch buffers and close the first interval, then
	// measure ticks that advance time so the SLA recording path (the
	// dt > 0 branch) is exercised too. The cluster is deliberately not
	// Started: the clock is advanced manually so each measured run is
	// exactly one evaluation.
	now := eng.Now()
	c.evaluate()
	now += sim.Time(time.Minute)
	eng.RunUntil(now)
	c.evaluate()

	avg := testing.AllocsPerRun(200, func() {
		now += sim.Time(time.Minute)
		eng.RunUntil(now) // empty queue: advances the clock only
		c.evaluate()
	})
	if avg != 0 {
		t.Fatalf("steady-state evaluate allocates %.2f times per tick, want 0", avg)
	}
}

// TestEvaluateAllocFreeWithMigrationOverhead covers the evaluate path
// while a migration is in flight (CPU overhead lookups active on both
// ends), which must stay allocation-free as well.
func TestEvaluateAllocFreeWithMigrationOverhead(t *testing.T) {
	eng := sim.NewEngine(1)
	c, err := New(eng, Config{Horizon: 30 * 24 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	for h := 0; h < 2; h++ {
		if _, err := c.AddHost(host.Config{Cores: 16, MemoryGB: 256}); err != nil {
			t.Fatal(err)
		}
	}
	for v := 0; v < 8; v++ {
		if _, err := c.AddVM(vm.Config{VCPUs: 4, MemoryGB: 32, Trace: workload.Constant(1)}, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.StartMigration(1, 2); err != nil {
		t.Fatal(err)
	}
	c.evaluate()
	// Do not run the engine: the migration completion event must stay
	// queued so the overhead path remains active.
	avg := testing.AllocsPerRun(50, func() {
		c.evaluate()
	})
	if avg != 0 {
		t.Fatalf("evaluate with migration overhead allocates %.2f times per tick, want 0", avg)
	}
}

// TestStartMigrationSlotRejectionAllocFree pins the cheap refusal: a
// drain re-attempts every planned move on each migration completion,
// so a move refused for want of migration slots must cost no heap
// allocation and must surface as the migrate.ErrHostSaturated
// sentinel.
func TestStartMigrationSlotRejectionAllocFree(t *testing.T) {
	eng := sim.NewEngine(1)
	c, err := New(eng, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for h := 0; h < 3; h++ {
		if _, err := c.AddHost(host.Config{Cores: 16, MemoryGB: 256}); err != nil {
			t.Fatal(err)
		}
	}
	for v := 0; v < 6; v++ {
		if _, err := c.AddVM(vm.Config{VCPUs: 2, MemoryGB: 4, Trace: workload.Constant(1)}, 1); err != nil {
			t.Fatal(err)
		}
	}
	// Fill host 1's four default slots, then every further move off it
	// is refused at the slot check.
	for v := vm.ID(1); v <= 4; v++ {
		if err := c.StartMigration(v, 2); err != nil {
			t.Fatal(err)
		}
	}
	err = c.StartMigration(5, 3)
	if !errors.Is(err, migrate.ErrHostSaturated) {
		t.Fatalf("slot-rejected StartMigration = %v, want migrate.ErrHostSaturated", err)
	}
	if avg := testing.AllocsPerRun(100, func() { _ = c.StartMigration(5, 3) }); avg != 0 {
		t.Fatalf("slot-rejected StartMigration allocates %.2f times per call, want 0", avg)
	}
	if c.Migrating(5) {
		t.Fatal("a refused move is in flight")
	}
}
