package agilepower

import (
	"testing"
	"time"
)

func smallScenario() Scenario {
	return Scenario{
		Name:    "test",
		Hosts:   4,
		VMs:     ConstantFleet(8, 0.5),
		Horizon: 2 * time.Hour,
		Manager: ManagerConfig{Policy: DPMS3},
	}
}

func TestScenarioValidate(t *testing.T) {
	s := smallScenario()
	if err := s.Validate(); err != nil {
		t.Fatalf("valid scenario rejected: %v", err)
	}
	s.Hosts = 0
	if err := s.Validate(); err == nil {
		t.Error("accepted zero hosts")
	}
	s = smallScenario()
	s.VMs = nil
	if err := s.Validate(); err == nil {
		t.Error("accepted empty fleet")
	}
	s = smallScenario()
	s.VMs = []VMSpec{{Name: "x", VCPUs: 1, MemoryGB: 1}}
	if err := s.Validate(); err == nil {
		t.Error("accepted VM without trace")
	}
	// Manager tuning is checked as NewManager will run it, defaults
	// applied, so a bad config fails here and not at Start.
	for _, m := range []ManagerConfig{
		{Policy: DPMS3, TargetUtil: 1.5},
		{Policy: DPMS3, SpareHosts: -1},
		{Policy: DPMS3, TargetUtil: 0.9}, // above the default wake threshold
	} {
		s = smallScenario()
		s.Manager = m
		if err := s.Validate(); err == nil {
			t.Errorf("accepted manager %+v", m)
		}
	}
}

func TestRunProducesFullResult(t *testing.T) {
	res, err := smallScenario().Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Policy != "dpm-s3" || res.Scenario != "test" {
		t.Fatalf("labels: %q/%q", res.Policy, res.Scenario)
	}
	if res.Energy <= 0 || res.MeanPowerW <= 0 || res.PeakPowerW <= 0 {
		t.Fatalf("energy metrics missing: %+v", res)
	}
	if res.Satisfaction <= 0 || res.Satisfaction > 1 {
		t.Fatalf("satisfaction = %v", res.Satisfaction)
	}
	if res.Power.Len() == 0 || res.Demand.Len() == 0 || res.ActiveHosts.Len() == 0 {
		t.Fatal("series not recorded")
	}
	if res.EnergyKWh() <= 0 {
		t.Fatal("kWh conversion failed")
	}
	// Light load consolidates: sleeps happen.
	if res.Sleeps == 0 {
		t.Fatal("no sleep actions under light load")
	}
}

func TestRunDeterministic(t *testing.T) {
	a, err := smallScenario().Run()
	if err != nil {
		t.Fatal(err)
	}
	b, err := smallScenario().Run()
	if err != nil {
		t.Fatal(err)
	}
	if a.Energy != b.Energy || a.Satisfaction != b.Satisfaction ||
		a.Migrations.Completed != b.Migrations.Completed {
		t.Fatalf("same scenario diverged: %v vs %v", a.Energy, b.Energy)
	}
}

func TestRunPoliciesOrderAndLabels(t *testing.T) {
	s := smallScenario()
	s.Horizon = time.Hour
	results, err := s.RunPolicies(Policies())
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("results = %d", len(results))
	}
	names := []string{"static", "nopm-drm", "dpm-s5", "dpm-s3"}
	for i, r := range results {
		if r.Policy != names[i] {
			t.Fatalf("result %d policy = %q, want %q", i, r.Policy, names[i])
		}
	}
	// DPM beats static on energy under light flat load.
	static, dpmS3 := results[0], results[3]
	if dpmS3.SavingsVs(static) <= 0 {
		t.Fatalf("dpm-s3 saved %v vs static, want positive", dpmS3.SavingsVs(static))
	}
}

func TestOracleBoundsBracketDPM(t *testing.T) {
	s := smallScenario()
	s.Horizon = 4 * time.Hour
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	oracleE, err := res.OracleEnergy()
	if err != nil {
		t.Fatal(err)
	}
	propE, err := res.ProportionalEnergy()
	if err != nil {
		t.Fatal(err)
	}
	if !(propE < oracleE) {
		t.Fatalf("proportional %v should undercut oracle %v", propE, oracleE)
	}
	if !(oracleE < res.Energy) {
		t.Fatalf("oracle %v should undercut the real controller %v", oracleE, res.Energy)
	}
}

func TestFleetBuilders(t *testing.T) {
	if got := len(DiurnalFleet(10, 1)); got != 10 {
		t.Fatalf("diurnal fleet size = %d", got)
	}
	if got := len(SpikyFleet(5, 3, 1)); got != 5 {
		t.Fatalf("spiky fleet size = %d", got)
	}
	if got := len(BatchFleet(4, 1)); got != 4 {
		t.Fatalf("batch fleet size = %d", got)
	}
	mixed := MixedFleet(20, 1)
	if len(mixed) != 20 {
		t.Fatalf("mixed fleet size = %d", len(mixed))
	}
	for _, v := range mixed {
		if v.Trace == nil || v.VCPUs <= 0 || v.MemoryGB <= 0 {
			t.Fatalf("malformed VM spec %+v", v)
		}
	}
	// Determinism.
	a, b := DiurnalFleet(3, 7), DiurnalFleet(3, 7)
	for i := range a {
		if a[i].Trace.At(6*time.Hour) != b[i].Trace.At(6*time.Hour) {
			t.Fatal("fleet builder not deterministic")
		}
	}
}

func TestGeneratorExports(t *testing.T) {
	d := GenerateDiurnal(1, 1, 4, 0.05, time.Hour)
	if d.Duration() != 24*time.Hour {
		t.Fatalf("diurnal duration = %v", d.Duration())
	}
	sp := GenerateSpiky(1, 0.5, 6, 4, 10*time.Minute)
	if sp.Peak() != 6 {
		t.Fatalf("spiky peak = %v", sp.Peak())
	}
	if ConstantTrace(2).At(time.Hour) != 2 {
		t.Fatal("constant trace wrong")
	}
}

func TestDefaultsExposed(t *testing.T) {
	if DefaultProfile() == nil {
		t.Fatal("nil default profile")
	}
	if DefaultMigrationModel().BandwidthGbps <= 0 {
		t.Fatal("bad default migration model")
	}
	if len(Policies()) != 4 {
		t.Fatal("policy set wrong")
	}
}
