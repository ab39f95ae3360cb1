package core_test

import (
	"testing"
	"time"

	"agilepower"
	"agilepower/internal/core"
)

// TestIncrementalPlanningParityScenarios extends the parity table to
// whole scenarios, for the features the paired core worlds cannot
// build on their own: Poisson churn, predictive wake, DVFS under
// injected faults, a lossy control plane, and a heterogeneous fleet
// with S3 resume failures. Each scenario runs once with the
// incremental planner and once with the full-scan oracle; the Results
// must agree field by field and event by event.
func TestIncrementalPlanningParityScenarios(t *testing.T) {
	cases := []struct {
		name string
		sc   agilepower.Scenario
	}{
		{"dpm-s3 mixed churn", agilepower.Scenario{
			Hosts: 6, VMs: agilepower.MixedFleet(24, 5), Horizon: 8 * time.Hour, Seed: 5,
			Manager: agilepower.ManagerConfig{Policy: agilepower.DPMS3},
			Churn:   &agilepower.ChurnSpec{ArrivalsPerHour: 3, MeanLifetime: 2 * time.Hour},
		}},
		{"dpm-s5 predictive", agilepower.Scenario{
			Hosts: 6, VMs: agilepower.WorkdayFleet(18, 1, 5), Horizon: 12 * time.Hour, Seed: 5,
			Manager: agilepower.ManagerConfig{Policy: agilepower.DPMS5, PredictiveWake: true},
		}},
		{"faulted dvfs combo", func() agilepower.Scenario {
			f := agilepower.FaultPreset(0.2)
			return agilepower.Scenario{
				Hosts: 6, VMs: agilepower.DiurnalFleet(18, 5), Horizon: 8 * time.Hour, Seed: 5,
				Manager: agilepower.ManagerConfig{Policy: agilepower.Policy{
					Name: "combo", LoadBalance: true, Consolidate: true,
					PowerManage: true, SleepState: agilepower.S3, DVFS: true,
				}},
				Faults: &f,
			}
		}()},
		{"lossy ctrlplane", func() agilepower.Scenario {
			cp := agilepower.CtrlPreset(50*time.Millisecond, 0.05)
			return agilepower.Scenario{
				Hosts: 8, VMs: agilepower.ReplicatedFleet(6, 3, 5), Horizon: 8 * time.Hour, Seed: 5,
				Manager:   agilepower.ManagerConfig{Policy: agilepower.DPMS3, PanicShortfall: 0.3},
				CtrlPlane: &cp,
			}
		}()},
		{"hetero resume-failures", func() agilepower.Scenario {
			p := agilepower.DefaultProfile()
			p.ResumeFailProb = 0.2
			return agilepower.Scenario{
				HostClasses: []agilepower.HostClass{{Count: 3, Cores: 32}, {Count: 4}},
				Profile:     p,
				VMs:         agilepower.BatchFleet(16, 5),
				Horizon:     8 * time.Hour,
				Seed:        5,
				Manager:     agilepower.ManagerConfig{Policy: agilepower.DPMS3},
			}
		}()},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			oracle := tc.sc
			oracle.Manager = core.FullScan(oracle.Manager)
			a, err := tc.sc.Run()
			if err != nil {
				t.Fatal(err)
			}
			b, err := oracle.Run()
			if err != nil {
				t.Fatal(err)
			}
			if a.Energy != b.Energy {
				t.Fatalf("energy diverged: %v vs %v", a.Energy, b.Energy)
			}
			if a.Satisfaction != b.Satisfaction || a.ViolationFraction != b.ViolationFraction {
				t.Fatalf("SLA diverged")
			}
			if a.Migrations.Completed != b.Migrations.Completed ||
				a.Sleeps != b.Sleeps || a.Wakes != b.Wakes ||
				a.ResumeFailures != b.ResumeFailures ||
				a.Manager.FreqChanges != b.Manager.FreqChanges {
				t.Fatalf("action counts diverged: %+v vs %+v", a.Manager, b.Manager)
			}
			if a.Events.Len() != b.Events.Len() {
				t.Fatalf("event logs diverged: %d vs %d", a.Events.Len(), b.Events.Len())
			}
			for i, ea := range a.Events.All() {
				if ea != b.Events.All()[i] {
					t.Fatalf("event %d diverged: %v vs %v", i, ea, b.Events.All()[i])
				}
			}
		})
	}
}
