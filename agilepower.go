// Package agilepower reproduces "Agile, efficient virtualization power
// management with low-latency server power states" (Isci et al., ISCA
// 2013): an end-to-end power-aware virtualization manager that
// consolidates VMs via live migration and parks idle servers in
// low-latency sleep states (ACPI S3), evaluated against traditional
// soft-off (S5) management, plain load-balancing DRM, and static
// provisioning over a calibrated datacenter simulation.
//
// The quickest way in is a Scenario:
//
//	sc := agilepower.Scenario{
//		Hosts: 8, HostCores: 16, HostMemoryGB: 64,
//		VMs:     agilepower.DiurnalFleet(32, 1),
//		Horizon: 24 * time.Hour,
//		Manager: agilepower.ManagerConfig{Policy: agilepower.DPMS3},
//	}
//	res, err := sc.Run()
//
// Result carries energy, SLA, action counts and the time series needed
// to regenerate the paper's figures.
package agilepower

import (
	"context"
	"fmt"
	"time"

	"agilepower/internal/chaos"
	"agilepower/internal/core"
	"agilepower/internal/ctrlplane"
	"agilepower/internal/events"
	"agilepower/internal/faults"
	"agilepower/internal/migrate"
	"agilepower/internal/parallel"
	"agilepower/internal/power"
	"agilepower/internal/script"
	"agilepower/internal/telemetry"
	"agilepower/internal/workload"
)

// Re-exported types so library users never import internal packages.
type (
	// Profile is a server power calibration (states, latencies, curve).
	Profile = power.Profile
	// StateSpec describes one sleep state of a platform.
	StateSpec = power.StateSpec
	// State is a platform power state (S0, S3, S5).
	State = power.State
	// Watts is electrical power.
	Watts = power.Watts
	// Joules is energy.
	Joules = power.Joules
	// Policy selects the management behaviour to run.
	Policy = core.Policy
	// ManagerConfig tunes the control loop.
	ManagerConfig = core.Config
	// ForecastSpec selects the demand predictor.
	ForecastSpec = core.ForecastSpec
	// Oracle computes analytic lower bounds.
	Oracle = core.Oracle
	// MigrationModel parameterizes pre-copy live migration.
	MigrationModel = migrate.Model
	// Facility models datacenter infrastructure overhead (PUE).
	Facility = power.Facility
	// ManagerStats are controller action counters.
	ManagerStats = core.Stats
	// MigrationStats are migration counters.
	MigrationStats = migrate.Stats
	// Trace is a CPU demand trace.
	Trace = workload.Trace
	// Series is a recorded time series.
	Series = telemetry.Series
	// SLATracker scores delivered versus demanded CPU.
	SLATracker = telemetry.SLATracker
	// Event is one audit record (placement, migration, power action).
	Event = events.Event
	// EventLog is the bounded audit trail of a run.
	EventLog = events.Log
	// FaultConfig selects injected faults (failed/slow transitions,
	// migration aborts and stalls, transient host crashes). The zero
	// value is fully dormant: runs are byte-identical to fault-unaware
	// builds.
	FaultConfig = faults.Config
	// CtrlPlaneConfig parameterizes the imperfect management network
	// between manager and hosts (telemetry delay and loss, lossy
	// retried commands, heartbeat liveness). The zero value is fully
	// dormant: runs are byte-identical to plane-unaware builds.
	CtrlPlaneConfig = ctrlplane.Config
	// ScriptEvent is one timed action in a scenario's event script
	// (crash, maintenance, power-cap, demand-surge, fault retune,
	// control-plane degradation). An empty script schedules nothing:
	// runs are byte-identical to script-unaware builds.
	ScriptEvent = script.Event
	// AssertSpec is one predicate a scenario run must satisfy,
	// checked continuously against evaluation ticks or once against
	// the final Result.
	AssertSpec = script.Assertion
	// ChaosParams parameterizes one named chaos pattern (see
	// ChaosPatterns and Scenario.WithChaos).
	ChaosParams = chaos.Params
)

// Script actions and assertion kinds, re-exported so scenario literals
// never import internal packages.
const (
	ActionCrash          = script.ActionCrash
	ActionMaintenance    = script.ActionMaintenance
	ActionMaintenanceEnd = script.ActionMaintenanceEnd
	ActionPowerCap       = script.ActionPowerCap
	ActionDemandSurge    = script.ActionDemandSurge
	ActionFaultRate      = script.ActionFaultRate
	ActionWakeFail       = script.ActionWakeFail
	ActionCtrlDegrade    = script.ActionCtrlDegrade
	ActionCtrlPartition  = script.ActionCtrlPartition

	AssertNoStrandedVM    = script.KindNoStrandedVM
	AssertPowerBelow      = script.KindPowerBelow
	AssertNoPendingVM     = script.KindNoPendingVM
	AssertActiveHostsMin  = script.KindActiveHostsMin
	AssertSLAViolationMax = script.KindSLAViolationMax
	AssertSatisfactionMin = script.KindSatisfactionMin
	AssertEnergyBelow     = script.KindEnergyBelow
)

// Chaos pattern names (see internal/chaos for semantics).
const (
	ChaosCascadingFailure = chaos.CascadingFailure
	ChaosAZOutage         = chaos.AZOutage
	ChaosThermalEmergency = chaos.ThermalEmergency
	ChaosFlakyResume      = chaos.FlakyResume
	ChaosControlPartition = chaos.ControlPartition
)

// ChaosPatterns lists every named chaos pattern, in stable order.
func ChaosPatterns() []string { return chaos.Patterns() }

// Power states.
const (
	S0 = power.S0
	S3 = power.S3
	S5 = power.S5
)

// Preset policies (see internal/core for semantics).
var (
	Static   = core.Static
	NoPM     = core.NoPM
	DPMS5    = core.DPMS5
	DPMS3    = core.DPMS3
	DVFSOnly = core.DVFSOnly
)

// Forecast kinds.
const (
	ForecastDefault    = core.ForecastDefault
	ForecastLastValue  = core.ForecastLastValue
	ForecastEWMA       = core.ForecastEWMA
	ForecastPeakWindow = core.ForecastPeakWindow
)

// Policies returns the standard comparison set (Static, NoPM, DPM-S5,
// DPM-S3).
func Policies() []Policy { return core.Policies() }

// DefaultProfile returns the calibrated 2-socket enterprise server
// model documented in DESIGN.md.
func DefaultProfile() *Profile { return power.DefaultProfile() }

// DefaultMigrationModel returns the 10 GbE pre-copy calibration.
func DefaultMigrationModel() MigrationModel { return migrate.DefaultModel() }

// DefaultFacility returns the mid-efficiency datacenter overhead model.
func DefaultFacility() Facility { return power.DefaultFacility() }

// FaultPreset returns the standard fault mix at intensity rate ∈
// [0, 1] (0 = dormant) — the knob the robustness experiment sweeps.
func FaultPreset(rate float64) FaultConfig { return faults.Preset(rate) }

// CtrlPreset returns the standard degraded-management-network mix for
// a mean one-way delay and per-leg loss probability (both zero =
// dormant) — the two knobs the ctrlplane experiment sweeps.
func CtrlPreset(delay time.Duration, loss float64) CtrlPlaneConfig {
	return ctrlplane.Preset(delay, loss)
}

// HostClass describes one group of identical hosts in a heterogeneous
// fleet.
type HostClass struct {
	// Count is how many hosts of this class to create.
	Count int
	// Cores and MemoryGB size each host (defaults 16 / 256).
	Cores    float64
	MemoryGB float64
	// Profile is the class's power calibration (default
	// DefaultProfile).
	Profile *Profile
}

// VMSpec describes one VM in a scenario.
type VMSpec struct {
	Name     string
	VCPUs    float64
	MemoryGB float64
	Trace    *Trace
	// SLOTarget defaults to 0.95.
	SLOTarget float64
	// Shares weight the VM's claim under host contention (default
	// 1000), hypervisor-style.
	Shares int
	// Group is an optional anti-affinity group: VMs sharing a
	// non-empty group (replicas of one service) are never co-located,
	// the availability constraint that caps consolidation.
	Group string
	// ReservedCores guarantees a CPU minimum under contention.
	ReservedCores float64
	// LimitCores caps delivered CPU below VCPUs (0 = uncapped).
	LimitCores float64
}

// Scenario is a declarative experiment: a fleet, a workload, a policy,
// and a horizon.
type Scenario struct {
	// Name labels the run in reports.
	Name string
	// Hosts is the fleet size (required).
	Hosts int
	// HostCores and HostMemoryGB size each host (defaults 16 cores /
	// 256 GB — consolidation-grade virtualization hosts carry far more
	// memory per core than compute nodes, and memory is the packing
	// constraint that would otherwise cap consolidation).
	HostCores    float64
	HostMemoryGB float64
	// Profile is the per-host power calibration (default
	// DefaultProfile).
	Profile *Profile
	// HostClasses, when non-empty, builds a heterogeneous fleet and
	// overrides Hosts/HostCores/HostMemoryGB/Profile. The analytic
	// Oracle helpers assume a homogeneous fleet and use the
	// class-weighted mean core count when classes are present.
	HostClasses []HostClass
	// VMs is the workload (required).
	VMs []VMSpec
	// Horizon is the simulated duration (default 24h).
	Horizon time.Duration
	// Manager tunes the control loop and selects the policy.
	Manager ManagerConfig
	// Migration overrides the live-migration model.
	Migration *MigrationModel
	// Churn adds dynamic VM arrivals and departures (nil = static
	// population).
	Churn *ChurnSpec
	// EvalStep is the demand evaluation period (default 1 minute).
	EvalStep time.Duration
	// Shards partitions each evaluation tick's per-host work into this
	// many fixed, ID-contiguous host ranges run concurrently inside the
	// simulation on min(Shards, GOMAXPROCS) goroutines (clamped to the
	// fleet size; 0 or 1 keeps the serial loop). Purely a wall-clock
	// knob for datacenter-scale fleets: results are byte-identical for
	// every value.
	Shards int
	// Delta switches the evaluation tick from a full per-host scan to
	// event-driven delta evaluation: only hosts whose inputs changed
	// since the last tick (demand edge, placement, migration, power
	// transition, DVFS move) are re-evaluated, and quiescent hosts'
	// energy integrates analytically. Purely a wall-clock knob like
	// Shards: results are byte-identical with it on or off.
	Delta bool
	// TelemetryCap, when positive, bounds each recorded time series
	// (power, demand, delivered, active hosts) to at most this many
	// stored samples via deterministic bucket folding — memory stays
	// O(cap) for any horizon. 0 stores every evaluation step.
	TelemetryCap int
	// Seed drives all simulation randomness (default 1).
	Seed uint64
	// Faults, when non-nil and enabled, injects transition failures,
	// migration aborts/stalls, and transient host crashes, all drawn
	// from a substream of Seed. Nil (or a dormant config) leaves the
	// simulation byte-identical to a fault-free build.
	Faults *FaultConfig
	// CtrlPlane, when non-nil and enabled, interposes an imperfect
	// message layer between manager and cluster: delayed/lossy
	// telemetry, retried commands, heartbeat liveness. Nil (or a
	// dormant config) leaves the simulation byte-identical to a
	// plane-free build.
	CtrlPlane *CtrlPlaneConfig
	// Script is the scenario's timed event script: crashes, drains,
	// power caps, demand surges, fault retunes, control-plane
	// degradation windows, each compiled to one engine event at Start.
	// Empty leaves the run byte-identical to a script-free build.
	// Events that retune faults require Faults to be enabled; events
	// that impair the plane require CtrlPlane to be enabled.
	Script []ScriptEvent
	// Asserts are predicates the run must satisfy; violations land in
	// Result.Assertions (and drive nonzero CLI exits) without stopping
	// the run. Empty adds no checks and changes no bytes.
	Asserts []AssertSpec
}

func (s Scenario) withDefaults() Scenario {
	if s.HostCores == 0 {
		s.HostCores = 16
	}
	if s.HostMemoryGB == 0 {
		s.HostMemoryGB = 256
	}
	if s.Horizon == 0 {
		s.Horizon = 24 * time.Hour
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	return s
}

// Validate checks the scenario.
func (s Scenario) Validate() error {
	s = s.withDefaults()
	if s.Hosts <= 0 && len(s.HostClasses) == 0 {
		return fmt.Errorf("agilepower: scenario needs hosts > 0 or host classes")
	}
	for i, hc := range s.HostClasses {
		if hc.Count <= 0 {
			return fmt.Errorf("agilepower: host class %d has count %d", i, hc.Count)
		}
	}
	if len(s.VMs) == 0 {
		return fmt.Errorf("agilepower: scenario needs at least one VM")
	}
	for i, v := range s.VMs {
		if v.Trace == nil {
			return fmt.Errorf("agilepower: vm %d (%s) has no trace", i, v.Name)
		}
	}
	if s.Shards < 0 {
		return fmt.Errorf("agilepower: negative shards %d", s.Shards)
	}
	if s.TelemetryCap < 0 {
		return fmt.Errorf("agilepower: negative telemetry cap %d", s.TelemetryCap)
	}
	if err := s.Manager.Check(); err != nil {
		return err
	}
	if s.Churn != nil {
		if err := s.Churn.Validate(); err != nil {
			return err
		}
	}
	if s.Faults != nil {
		if err := s.Faults.Validate(); err != nil {
			return err
		}
	}
	if s.CtrlPlane != nil {
		if err := s.CtrlPlane.Validate(); err != nil {
			return err
		}
	}
	hosts := s.totalHosts()
	for i, e := range s.Script {
		if err := e.Validate(hosts); err != nil {
			return fmt.Errorf("agilepower: script event %d: %w", i, err)
		}
		if e.NeedsFaults() && (s.Faults == nil || !s.Faults.Enabled()) {
			return fmt.Errorf("agilepower: script event %d (%s) needs fault injection enabled (set Scenario.Faults)", i, e.Action)
		}
		if e.NeedsCtrlPlane() && (s.CtrlPlane == nil || !s.CtrlPlane.Enabled()) {
			return fmt.Errorf("agilepower: script event %d (%s) needs a control plane enabled (set Scenario.CtrlPlane)", i, e.Action)
		}
	}
	for i, a := range s.Asserts {
		if err := a.Validate(); err != nil {
			return fmt.Errorf("agilepower: assertion %d: %w", i, err)
		}
	}
	return nil
}

// totalHosts returns the fleet size after class expansion.
func (s Scenario) totalHosts() int {
	if len(s.HostClasses) == 0 {
		return s.Hosts
	}
	n := 0
	for _, hc := range s.HostClasses {
		n += hc.Count
	}
	return n
}

// WithChaos appends the named pattern's generated event script to a
// copy of the scenario. Generation is a pure function of the scenario
// seed and the params — deterministic across runs — and an intensity
// of zero appends nothing at all. Patterns may be stacked by chaining
// calls (use distinct Salt values to decorrelate same-pattern
// instances).
func (s Scenario) WithChaos(p ChaosParams) (Scenario, error) {
	s2 := s.withDefaults()
	evs, err := chaos.Generate(chaos.World{
		Hosts:     s2.totalHosts(),
		HostPeakW: s2.maxHostPeakW(),
		Faults:    s2.Faults != nil && s2.Faults.Enabled(),
		CtrlPlane: s2.CtrlPlane != nil && s2.CtrlPlane.Enabled(),
		Seed:      s2.Seed,
	}, p)
	if err != nil {
		return s, err
	}
	if len(evs) == 0 {
		return s, nil
	}
	out := s
	out.Script = append(append([]ScriptEvent(nil), s.Script...), evs...)
	return out, nil
}

// maxHostPeakW returns the largest single-host peak draw across the
// scenario's host classes — the unit chaos power ramps budget in.
func (s Scenario) maxHostPeakW() float64 {
	base := resolvedProfile(s)
	peak := float64(base.ActivePower(1))
	for _, hc := range s.HostClasses {
		if hc.Profile != nil {
			if p := float64(hc.Profile.ActivePower(1)); p > peak {
				peak = p
			}
		}
	}
	return peak
}

// Result is the outcome of one scenario run.
type Result struct {
	Scenario string
	Policy   string
	Horizon  time.Duration

	// Energy and power.
	Energy     Joules
	MeanPowerW float64
	PeakPowerW float64

	// SLA.
	Satisfaction      float64
	ViolationFraction float64
	UnmetCoreHours    float64

	// Management overhead.
	Manager    ManagerStats
	Migrations MigrationStats
	Sleeps     int
	Wakes      int
	// ResumeFailures counts S3 resumes that fell back to a full boot
	// (nonzero only when the profile injects failures).
	ResumeFailures int

	// Churn summarizes dynamic provisioning (zero when the scenario
	// had no ChurnSpec).
	Churn ChurnStats

	// Robustness (all zero unless the scenario injected faults).
	// FaultCounters is the manager's reaction ledger: retries,
	// quarantines, aborted migrations, re-plans (see core.Ctr*).
	FaultCounters map[string]int
	// SuspendFailures and WakeFailures count injected transitions that
	// did not take; Crashes counts transient host crashes.
	SuspendFailures int
	WakeFailures    int
	Crashes         int
	// StrandedVMHours integrates VMs frozen on crashed hosts over time
	// (VM·hours) — the availability cost crashes exact.
	StrandedVMHours float64
	// StrandedVMs counts VMs still frozen on crashed hosts when the
	// run ended — the end-of-run health signal the CLIs turn into a
	// nonzero exit.
	StrandedVMs int

	// Assertions holds one verdict per Scenario.Asserts entry, in
	// order; AssertionFailures counts the violated ones.
	Assertions        []AssertionResult
	AssertionFailures int

	// Events is the audit trail of everything the manager did.
	Events *EventLog

	// Series for figure regeneration.
	Power       *Series
	Demand      *Series
	Delivered   *Series
	ActiveHosts *Series

	// Fleet parameters, for oracle comparisons.
	Hosts     int
	HostCores float64
	Profile   *Profile

	// EvalTicks and HostEvals count evaluation passes and the per-host
	// evaluations they performed — the delta-evaluation skip ratio is
	// 1 − HostEvals/(EvalTicks×Hosts). Execution diagnostics like wall
	// time: deterministic within an evaluation mode but different
	// between delta and full, so experiments report them on the
	// progress stream, never in byte-compared reports.
	EvalTicks int64
	HostEvals int64
}

// Run executes the scenario to its horizon and collects the result.
// It is the one-shot form of Start → RunUntil → Result; use Start for
// interactive sessions with operator actions.
func (s Scenario) Run() (*Result, error) {
	se, err := s.Start()
	if err != nil {
		return nil, err
	}
	if err := se.RunUntil(s.withDefaults().Horizon); err != nil {
		return nil, err
	}
	return se.Result(), nil
}

// RunPolicies runs the scenario once per policy (same workload, same
// seed) and returns results in the given order. The runs are
// independent simulations and execute concurrently on up to
// GOMAXPROCS workers; results are identical to a sequential loop (use
// RunPoliciesWorkers to pin the worker count).
func (s Scenario) RunPolicies(policies []Policy) ([]*Result, error) {
	return s.RunPoliciesWorkers(0, policies)
}

// RunPoliciesWorkers is RunPolicies with an explicit concurrency
// bound (workers <= 0 means GOMAXPROCS, 1 means sequential). The
// world — host fleet plus initial placement — is built once as a
// Prototype and forked per policy; each worker then runs its fork on
// its own engine, so results — and any report rendered from them in
// policy order — are byte-identical for every worker count, and to a
// per-policy Start.
func (s Scenario) RunPoliciesWorkers(workers int, policies []Policy) ([]*Result, error) {
	// With no policies there is nothing to run, so nothing to report.
	proto, err := s.Prototype()
	if err != nil && len(policies) > 0 {
		return nil, fmt.Errorf("policy %q: %w", policies[0].Name, err)
	}
	return parallel.Map(context.Background(), len(policies), workers,
		func(_ context.Context, i int) (*Result, error) {
			sc := s
			sc.Manager.Policy = policies[i]
			res, err := proto.Run(sc)
			if err != nil {
				return nil, fmt.Errorf("policy %q: %w", policies[i].Name, err)
			}
			return res, nil
		})
}

// TotalMigrations returns all completed migrations.
func (r *Result) TotalMigrations() int { return r.Migrations.Completed }

// EnergyKWh returns energy in kilowatt-hours.
func (r *Result) EnergyKWh() float64 { return r.Energy.KWh() }

// Oracle returns the analytic oracle matching this run's fleet.
func (r *Result) Oracle() *Oracle {
	return &Oracle{
		Hosts:     r.Hosts,
		HostCores: r.HostCores,
		Profile:   r.Profile,
	}
}

// OracleEnergy returns the zero-latency perfect-knowledge power
// manager's energy over this run's recorded demand.
func (r *Result) OracleEnergy() (Joules, error) {
	return r.Oracle().Energy(r.Demand, r.Horizon)
}

// ProportionalEnergy returns the ideal energy-proportional fleet's
// energy over this run's recorded demand.
func (r *Result) ProportionalEnergy() (Joules, error) {
	return r.Oracle().ProportionalEnergy(r.Demand, r.Horizon)
}

// FacilityEnergy converts the run's IT energy into meter energy under
// the given facility overhead model.
func (r *Result) FacilityEnergy(f Facility) (Joules, error) {
	if err := f.Validate(); err != nil {
		return 0, err
	}
	return f.Energy(r.Energy, r.Horizon), nil
}

// SavingsVs returns the fractional energy saving of r relative to
// base (positive when r uses less energy).
func (r *Result) SavingsVs(base *Result) float64 {
	if base.Energy <= 0 {
		return 0
	}
	return 1 - float64(r.Energy)/float64(base.Energy)
}
