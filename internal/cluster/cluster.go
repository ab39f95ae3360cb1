// Package cluster is the substrate the management layer operates on:
// an inventory of hosts and VMs, the committed placement map, in-flight
// migrations, and the periodic evaluation loop that turns VM demand
// traces into delivered CPU, host utilization, power draw and SLA
// accounting.
//
// The cluster is mechanism, not policy: it exposes the actuators the
// paper's manager uses (migrate a VM, sleep a host, wake a host) and
// faithfully charges their costs, but decides nothing itself.
//
// Host and VM IDs are dense (assigned 1, 2, 3, … in creation order),
// so all per-entity state lives in slices indexed by ID-1 rather than
// maps: the evaluation tick — the simulator's innermost loop — runs
// without hashing and, in steady state, without allocating.
//
// At fleet scale the tick itself can be sharded (Config.Shards):
// hosts are partitioned into fixed ID-contiguous ranges and the
// expensive per-host work runs concurrently on a bounded set of
// persistent workers, each writing into per-host slots; the cheap
// final reduction walks those slots serially in host-ID order, so the
// floating-point accumulation sequence — and therefore every report
// byte — is identical for any shard and worker count, including the
// serial path.
//
// On top of sharding, the tick can run in delta mode (Config.Delta):
// a host is re-evaluated only when marked dirty — by a cluster event
// (placement, migration, crash, power transition, DVFS move) or by a
// resident VM's demand trace reaching its next change time (a
// per-shard indexed min-heap of deadlines) — and the shard workers
// drain per-shard dirty queues instead of scanning fixed ranges.
// Quiescent hosts integrate energy and SLA time analytically: power
// accrues in closed-form watts × Δt segments between real changes, and
// each VM's (demand, delivered) run is charged in one SLA record when
// it ends. Because an unchanged input performs no floating-point
// operation in either mode, delta-vs-full is byte-identical too.
package cluster

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"time"

	"agilepower/internal/events"
	"agilepower/internal/host"
	"agilepower/internal/migrate"
	"agilepower/internal/power"
	"agilepower/internal/sim"
	"agilepower/internal/telemetry"
	"agilepower/internal/vm"
)

// Config describes a cluster to create.
type Config struct {
	// EvalStep is the demand re-evaluation period (default 1 minute;
	// should match the workload trace interval).
	EvalStep time.Duration
	// Migration is the live-migration model (default
	// migrate.DefaultModel).
	Migration *migrate.Model
	// PerHostMigrationLimit caps concurrent migrations per host
	// (default 4).
	PerHostMigrationLimit int
	// Horizon, when positive, is the expected simulated duration. It
	// is only a capacity hint: the telemetry series are preallocated
	// for Horizon/EvalStep samples so the per-tick recording path does
	// not grow slices from nil on every run. Running past the horizon
	// stays correct, just reallocates.
	Horizon time.Duration
	// Shards partitions the evaluation tick's per-host work into this
	// many fixed, ID-contiguous host ranges (clamped to the host count
	// at Start), run concurrently by min(Shards, GOMAXPROCS) persistent
	// goroutines. 0 or 1 keeps the serial loop. Results are
	// byte-identical for every value — see the package comment for the
	// determinism argument.
	Shards int
	// Delta switches the evaluation tick from a full scan to delta
	// evaluation: after Start, a host is re-evaluated only when
	// something affecting its power or SLA changed — a resident's
	// demand trace advanced, a placement/migration/crash event landed,
	// a power transition settled, or its DVFS point moved. Quiescent
	// hosts integrate energy and SLA time analytically between events.
	// Like Shards, Delta is wall-clock only: every report byte is
	// identical with it on or off.
	Delta bool
	// TelemetryCap, when positive, bounds each cluster telemetry series
	// to about this many stored samples (see telemetry.Series.SetCap):
	// long runs fold samples into fixed-width bucket means instead of
	// growing without bound. Changes report bytes (deterministically) —
	// off by default.
	TelemetryCap int
}

// Cluster owns the simulated datacenter state.
type Cluster struct {
	eng  *sim.Engine
	step time.Duration
	// cfg is the Config the cluster was built from, kept verbatim so
	// Fork can rebuild an identically configured empty cluster.
	cfg Config

	// hostList holds every host in creation order; host N has ID N+1
	// and hosts are never removed, so the slice doubles as the cached
	// read-only view returned by Hosts().
	hostList []*host.Host
	// vmsByID is indexed by vm.ID-1 and nil once a VM departs.
	vmsByID []*vm.VM
	// vmList holds live VMs in creation order — the cached view
	// returned by VMs(). Departures splice it (cold path).
	vmList []*vm.VM
	// placement is indexed by vm.ID-1; 0 means not placed (pending,
	// departed, or never existed).
	placement []host.ID

	migrations *migrate.Manager

	// sla is indexed by vm.ID-1 and survives departure: a departed
	// VM's service history still counts toward the run's aggregate.
	// The trackers themselves live in slaArena chunks (fixed-capacity,
	// so the pointers are stable): one bump allocation per chunk
	// instead of one per VM, which matters at a million VMs.
	sla      []*telemetry.SLATracker
	slaArena [][]telemetry.SLATracker
	// current holds the open allocation run of each VM (indexed by
	// vm.ID-1): the (demand, delivered) pair in effect since rec.since.
	// A run is charged to the VM's SLA tracker in one closed-form
	// Record call when the pair changes (or the VM departs, or Flush
	// closes the books) — not once per tick — so an unchanged VM costs
	// nothing no matter how long it idles.
	current []allocRecord

	powerSeries     *telemetry.Series
	demandSeries    *telemetry.Series
	deliveredSeries *telemetry.Series
	activeSeries    *telemetry.Series

	onHostSettled     func(host.ID, power.State)
	onMigrationDone   func(vm.ID, host.ID)
	onMigrationFailed func(vm.ID, host.ID, host.ID)
	onHostCrashed     func(host.ID)
	// onHostDirty is the management layer's event feed: it fires on
	// every event-path change to a host's scheduling inputs (placement,
	// migration endpoints, crash/repair, power commands, settles, DVFS)
	// regardless of the evaluation mode. Unlike markDirty — which is a
	// no-op outside an active delta window — this callback is
	// unconditional, so an incremental manager can invalidate its
	// cached planning inputs even when the cluster itself runs full
	// scans. See noteDirty.
	onHostDirty func(host.ID)
	// vmEpoch counts VM-set changes (arrivals, placements-at-creation,
	// departures — including pending VMs, which touch no host and so
	// fire no dirty signal). Managers compare it across control steps
	// to detect that fleet membership moved.
	vmEpoch uint64

	// strandedCount is the number of VMs currently frozen on crashed
	// (unavailable) hosts; strandedVMSec integrates it over time in
	// run-length segments: the open segment started at strandedSince
	// and is folded in when the count changes (or at Flush).
	strandedCount int
	strandedVMSec float64
	strandedSince sim.Time

	// demandScale holds per-VM runtime demand multipliers (indexed by
	// vm.ID-1), the mechanism behind scenario demand-surge events. It
	// stays nil until the first ScaleDemandPrefix call, and an entry of
	// 0 or 1 means unscaled, so script-free runs never branch into the
	// scaling path and VMDemand degenerates to vm.Demand bit-for-bit.
	// The scale lives here, not on the VM: VM objects are shared by
	// pointer across prototype forks, and per-run mutable state must
	// stay with the run.
	demandScale []float64

	// onTick observers see every evaluation tick's cluster-wide
	// aggregates — the hook the scenario assertion engine and the
	// service's streaming-progress layer ride, so continuous predicates
	// and live dashboards are fed without scheduling a single extra
	// engine event (dormancy: an empty list changes nothing).
	onTick []func(TickStats)

	// pending marks VMs that have arrived but are not yet placed on a
	// host (dynamic provisioning, indexed by vm.ID-1). Their demand is
	// charged as unserved until placement. pendingCount lets the
	// evaluation tick skip the scan entirely in the common case.
	pending      []bool
	pendingCount int
	// arrivedAt records when each pending VM arrived; provisionLat
	// collects arrival→placement latencies. Cold path: stays a map.
	arrivedAt    map[vm.ID]sim.Time
	provisionLat []time.Duration

	nextHostID host.ID
	nextVMID   vm.ID
	started    bool

	departed int

	log *events.Log

	// Evaluation sharding and delta state (dormant until Start). Shard
	// k owns the host-index range shardBounds[k]; its worker writes
	// each host's partials into the hostPartial slots for that range,
	// and evaluate reduces the slots serially in host-ID order. The
	// slots are per host, not per shard, so the reduction's
	// floating-point order cannot depend on where the shard boundaries
	// fall. From Start on, every tick reduces from the slots — in full
	// mode all slots are refreshed first; in delta mode only dirty
	// hosts' slots are, and a clean host's cached slot is bitwise what
	// recomputing it would produce.
	shards      int
	delta       bool
	shardBounds []shardRange
	shardSize   int
	hostPartial []hostPartial
	// evalNow and evalFull are the tick's parameters, published to the
	// workers by the evalWork sends (channel happens-before).
	evalNow  sim.Time
	evalFull bool
	evalWork chan int
	evalDone chan struct{}
	// primed flips true after the first post-Start evaluation: until
	// the partial slots, deadlines and heaps hold a full fleet
	// snapshot, every tick is a full one.
	primed bool
	closed bool

	// Delta bookkeeping (allocated at Start when delta is on).
	// dirtyQ[s] is shard s's queue of event-dirtied host indices
	// (deduplicated by dirtyFlag); hostNext[i] is the earliest time a
	// resident of host i changes demand; dueHeaps[s] is shard s's
	// indexed min-heap over hostNext (heapPos[i] is i's position+1 in
	// its shard's heap, 0 when absent). All arrays are preallocated to
	// fleet size so steady-state ticks never allocate.
	dirtyQ    [][]int32
	dirtyFlag []bool
	hostNext  []sim.Time
	dueHeaps  [][]int32
	heapPos   []int32

	// Evaluation-volume counters (diagnostics, never reported):
	// tickCount counts evaluation passes; shardEvals[s] counts per-host
	// evaluations shard s performed (per shard so workers never share a
	// cache line on the hot path); directEvals counts per-host
	// evaluations on the serial direct path. EvalCounts sums them.
	tickCount   int64
	shardEvals  []int64
	directEvals int64
}

// never is the hostNext sentinel for "no future demand change": such
// hosts are left out of the due-heaps entirely.
const never = sim.Time(math.MaxInt64)

// shardRange is one shard's half-open host-index range.
type shardRange struct{ lo, hi int }

// hostPartial holds one host's contribution to the tick's aggregates,
// written by exactly one shard worker and read by the serial reduce.
// In delta mode a clean host's slot is simply reused: its inputs are
// unchanged, so the cached values are bitwise what evalHost would
// recompute.
type hostPartial struct {
	power     power.Watts
	demand    float64
	delivered float64
	avail     bool
	// vms caches NumVMs for the stranded count (residents only change
	// on events, which dirty the host).
	vms int
}

type allocRecord struct {
	demand    float64
	delivered float64
	slo       float64
	// since is when this (demand, delivered) run opened; the run is
	// charged to the SLA tracker as one closed-form Record when it
	// ends.
	since sim.Time
	// present distinguishes "no open run for this VM" (freshly added,
	// or departed) from a genuine zero record — the slice analogue of
	// the record existing in a map.
	present bool
}

// New builds an empty cluster attached to the engine.
func New(eng *sim.Engine, cfg Config) (*Cluster, error) {
	step := cfg.EvalStep
	if step <= 0 {
		step = time.Minute
	}
	model := migrate.DefaultModel()
	if cfg.Migration != nil {
		model = *cfg.Migration
	}
	mgr, err := migrate.NewManager(eng, model, cfg.PerHostMigrationLimit)
	if err != nil {
		return nil, err
	}
	// Preallocate one slot per evaluation tick (plus slack for the
	// start/flush samples) when the caller told us the horizon.
	seriesCap := 0
	if cfg.Horizon > 0 {
		seriesCap = int(cfg.Horizon/step) + 2
	}
	if cfg.TelemetryCap > 0 && seriesCap > cfg.TelemetryCap {
		seriesCap = 0 // SetCap below preallocates the bounded store
	}
	c := &Cluster{
		eng:             eng,
		step:            step,
		cfg:             cfg,
		migrations:      mgr,
		shards:          cfg.Shards,
		delta:           cfg.Delta,
		powerSeries:     telemetry.NewSeriesCap("cluster_power_w", seriesCap),
		demandSeries:    telemetry.NewSeriesCap("cluster_demand_cores", seriesCap),
		deliveredSeries: telemetry.NewSeriesCap("cluster_delivered_cores", seriesCap),
		activeSeries:    telemetry.NewSeriesCap("active_hosts", seriesCap),
		arrivedAt:       make(map[vm.ID]sim.Time),
		nextHostID:      1,
		nextVMID:        1,
		strandedSince:   eng.Now(),
		log:             events.NewLog(0),
	}
	if cfg.TelemetryCap > 0 {
		c.powerSeries.SetCap(cfg.TelemetryCap)
		c.demandSeries.SetCap(cfg.TelemetryCap)
		c.deliveredSeries.SetCap(cfg.TelemetryCap)
		c.activeSeries.SetCap(cfg.TelemetryCap)
	}
	mgr.OnComplete(c.finishMigration)
	mgr.OnFailed(c.failMigration)
	return c, nil
}

// hostByID returns the host with the given ID, or nil. IDs are dense,
// so this is a bounds check and an index.
func (c *Cluster) hostByID(id host.ID) *host.Host {
	if id < 1 || int(id) > len(c.hostList) {
		return nil
	}
	return c.hostList[id-1]
}

// vmByID returns the VM with the given ID, or nil if it never existed
// or has departed.
func (c *Cluster) vmByID(id vm.ID) *vm.VM {
	if id < 1 || int(id) > len(c.vmsByID) {
		return nil
	}
	return c.vmsByID[id-1]
}

// InjectFaults installs fault injectors on every host's power machine
// and on the migration manager. Call it after all hosts are added and
// before Start; passing nils disables injection (the default).
func (c *Cluster) InjectFaults(pf power.FaultInjector, mf migrate.FaultInjector) {
	for _, h := range c.hostList {
		h.SetFaultInjector(pf)
	}
	c.migrations.SetFaultInjector(mf)
}

// Fork copies a pristine cluster — fully built (hosts added, VMs
// placed) but never started, evaluated, or faulted — into an
// independent cluster attached to eng. The copy is flat: the host
// fleet clones in three arena allocations (host.CloneFleet), per-VM
// state copies as dense slices, and the construction event log is
// duplicated, while immutable structure (VM objects, demand traces,
// power profiles) is shared by pointer. Because a pristine cluster has
// scheduled no engine events, consumed no randomness, and recorded no
// telemetry, a forked cluster then driven through Start is
// byte-identical to building the same cluster cold — the invariant the
// snapshot/fork layer's golden tests pin. Fork only reads the source,
// so many forks may run concurrently from one prototype.
func (c *Cluster) Fork(eng *sim.Engine) (*Cluster, error) {
	if c.started || c.closed {
		return nil, fmt.Errorf("cluster: fork requires a cluster that has not been started")
	}
	if c.tickCount != 0 {
		return nil, fmt.Errorf("cluster: fork requires a pristine cluster (evaluations already ran)")
	}
	if eng.Now() != c.eng.Now() {
		return nil, fmt.Errorf("cluster: fork engine clock %v differs from source %v", eng.Now(), c.eng.Now())
	}
	if len(c.migrations.Inflights()) != 0 {
		return nil, fmt.Errorf("cluster: fork with in-flight migrations")
	}
	nc, err := New(eng, c.cfg)
	if err != nil {
		return nil, err
	}
	fleet, err := host.CloneFleet(eng, c.hostList)
	if err != nil {
		return nil, err
	}
	nc.hostList = fleet
	nc.nextHostID = c.nextHostID
	// Rebind the per-host observer exactly as AddHost does on the cold
	// path: one shared listener value, zero allocations across the
	// fleet.
	for _, h := range fleet {
		h.SetListener(nc)
	}
	// Per-VM dense state: flat slice copies, VM pointers shared. The two
	// pointer slices share one arena allocation, capacity-clipped so
	// appends copy-on-grow instead of clobbering the neighbor.
	vmArena := make([]*vm.VM, len(c.vmsByID)+len(c.vmList))
	nc.vmsByID = vmArena[:len(c.vmsByID):len(c.vmsByID)]
	copy(nc.vmsByID, c.vmsByID)
	nc.vmList = vmArena[len(c.vmsByID):len(vmArena):len(vmArena)]
	copy(nc.vmList, c.vmList)
	nc.placement = append([]host.ID(nil), c.placement...)
	nc.pending = append([]bool(nil), c.pending...)
	nc.pendingCount = c.pendingCount
	nc.current = append([]allocRecord(nil), c.current...)
	// SLA trackers rebuild in fixed-capacity arena chunks so the sla
	// pointers stay stable as later arrivals append into the open chunk
	// (see growVMState).
	if len(c.sla) > 0 {
		nc.sla = make([]*telemetry.SLATracker, 0, len(c.sla))
		nc.slaArena = make([][]telemetry.SLATracker, 0, len(c.slaArena))
		for _, chunk := range c.slaArena {
			copied := make([]telemetry.SLATracker, len(chunk), slaChunkSize)
			copy(copied, chunk)
			nc.slaArena = append(nc.slaArena, copied)
			for j := range copied {
				nc.sla = append(nc.sla, &copied[j])
			}
		}
	}
	for id, at := range c.arrivedAt {
		nc.arrivedAt[id] = at
	}
	nc.provisionLat = append([]time.Duration(nil), c.provisionLat...)
	nc.vmEpoch = c.vmEpoch
	nc.demandScale = append([]float64(nil), c.demandScale...)
	nc.strandedCount = c.strandedCount
	nc.strandedVMSec = c.strandedVMSec
	nc.strandedSince = c.strandedSince
	nc.nextVMID = c.nextVMID
	nc.departed = c.departed
	nc.log = c.log.Clone()
	return nc, nil
}

// Engine returns the simulation engine driving this cluster.
func (c *Cluster) Engine() *sim.Engine { return c.eng }

// Events returns the cluster's audit log.
func (c *Cluster) Events() *events.Log { return c.log }

func (c *Cluster) record(kind events.Kind, vmID vm.ID, hostID host.ID, detail string) {
	c.log.Append(events.Event{
		At:     c.eng.Now(),
		Kind:   kind,
		VM:     int(vmID),
		Host:   int(hostID),
		Detail: detail,
	})
}

// EvalStep returns the demand re-evaluation period.
func (c *Cluster) EvalStep() time.Duration { return c.step }

// Migrations returns the migration manager (read-only use).
func (c *Cluster) Migrations() *migrate.Manager { return c.migrations }

// AddHost creates a host. All hosts must be added before Start.
func (c *Cluster) AddHost(cfg host.Config) (*host.Host, error) {
	if c.started {
		return nil, fmt.Errorf("cluster: cannot add hosts after Start")
	}
	id := c.nextHostID
	h, err := host.New(c.eng, id, cfg)
	if err != nil {
		return nil, err
	}
	c.nextHostID++
	c.hostList = append(c.hostList, h)
	h.SetListener(c)
	return h, nil
}

// HostChanged implements host.Listener: a host-local change to
// scheduling inputs (today: a DVFS frequency move) marks the host
// dirty for delta evaluation.
func (c *Cluster) HostChanged(id host.ID) { c.noteDirty(id) }

// HostSettled implements host.Listener: a completed power transition
// runs the cluster's settle bookkeeping.
func (c *Cluster) HostSettled(id host.ID, st power.State) { c.hostSettled(id, st) }

// slaChunkSize is the arena granularity for SLA trackers: large enough
// to amortize allocation at fleet scale, small enough not to waste
// memory on toy clusters.
const slaChunkSize = 1024

// growVMState appends one slot of per-VM state for a newly created VM.
func (c *Cluster) growVMState(v *vm.VM) {
	c.vmEpoch++
	c.vmsByID = append(c.vmsByID, v)
	c.vmList = append(c.vmList, v)
	c.placement = append(c.placement, 0)
	c.pending = append(c.pending, false)
	c.current = append(c.current, allocRecord{})
	if n := len(c.slaArena); n == 0 || len(c.slaArena[n-1]) == slaChunkSize {
		c.slaArena = append(c.slaArena, make([]telemetry.SLATracker, 0, slaChunkSize))
	}
	chunk := &c.slaArena[len(c.slaArena)-1]
	*chunk = append(*chunk, telemetry.SLATracker{})
	c.sla = append(c.sla, &(*chunk)[len(*chunk)-1])
}

// AddVM creates a VM and places it on the given host.
func (c *Cluster) AddVM(cfg vm.Config, on host.ID) (*vm.VM, error) {
	h := c.hostByID(on)
	if h == nil {
		return nil, fmt.Errorf("cluster: unknown host %d", on)
	}
	id := c.nextVMID
	v, err := vm.New(id, cfg)
	if err != nil {
		return nil, err
	}
	if c.GroupConflict(on, v.Group(), id) {
		return nil, fmt.Errorf("cluster: anti-affinity group %q conflict on host %d", v.Group(), on)
	}
	if err := h.Place(v); err != nil {
		return nil, err
	}
	c.nextVMID++
	c.growVMState(v)
	c.placement[id-1] = on
	c.noteDirty(on)
	c.record(events.VMPlaced, id, on, "initial")
	return v, nil
}

// AddPendingVM creates a VM that has arrived but is not yet placed —
// dynamic provisioning. Its demand is charged as fully unserved until
// the management layer places it with PlaceVM.
func (c *Cluster) AddPendingVM(cfg vm.Config) (*vm.VM, error) {
	id := c.nextVMID
	v, err := vm.New(id, cfg)
	if err != nil {
		return nil, err
	}
	c.nextVMID++
	c.growVMState(v)
	c.pending[id-1] = true
	c.pendingCount++
	c.arrivedAt[id] = c.eng.Now()
	c.record(events.VMArrived, id, 0, "")
	c.evaluate()
	return v, nil
}

// PlaceVM commits a pending VM onto a host, recording its provisioning
// latency.
func (c *Cluster) PlaceVM(id vm.ID, on host.ID) error {
	if id < 1 || int(id) > len(c.pending) || !c.pending[id-1] {
		return fmt.Errorf("cluster: vm %d is not pending", id)
	}
	h := c.hostByID(on)
	if h == nil {
		return fmt.Errorf("cluster: unknown host %d", on)
	}
	if !h.Available() {
		return fmt.Errorf("cluster: host %d not available", on)
	}
	v := c.vmsByID[id-1]
	if c.GroupConflict(on, v.Group(), id) {
		return fmt.Errorf("cluster: anti-affinity group %q conflict on host %d", v.Group(), on)
	}
	if err := h.Place(v); err != nil {
		return err
	}
	c.pending[id-1] = false
	c.pendingCount--
	c.placement[id-1] = on
	c.provisionLat = append(c.provisionLat, time.Duration(c.eng.Now()-c.arrivedAt[id]))
	delete(c.arrivedAt, id)
	c.noteDirty(on)
	c.record(events.VMPlaced, id, on, "provisioned")
	c.evaluate()
	return nil
}

// RemoveVM departs a VM (placed or pending). Migrating VMs cannot be
// removed mid-flight; callers retry after the migration commits.
func (c *Cluster) RemoveVM(id vm.ID) error {
	v := c.vmByID(id)
	if v == nil {
		return fmt.Errorf("cluster: unknown vm %d", id)
	}
	if c.migrations.Migrating(id) {
		return fmt.Errorf("cluster: vm %d is migrating; retry after it commits", id)
	}
	// Evaluate first so the departing VM's final allocation is current,
	// then close its open run while the record still exists.
	c.evaluate()
	c.closeRun(int(id)-1, c.eng.Now())
	if c.pending[id-1] {
		c.pending[id-1] = false
		c.pendingCount--
		delete(c.arrivedAt, id)
	} else if hid := c.placement[id-1]; hid != 0 {
		if err := c.hostList[hid-1].Remove(id); err != nil {
			return err
		}
		c.placement[id-1] = 0
		c.noteDirty(hid)
	}
	c.vmsByID[id-1] = nil
	for i, lv := range c.vmList {
		if lv == v {
			c.vmList = append(c.vmList[:i], c.vmList[i+1:]...)
			break
		}
	}
	c.current[id-1] = allocRecord{}
	// The SLA tracker stays in c.sla: departed VMs' service history
	// still counts toward the run's aggregate.
	c.vmEpoch++
	c.departed++
	c.record(events.VMRemoved, id, 0, "")
	c.evaluate()
	return nil
}

// PendingVMs returns the IDs of arrived-but-unplaced VMs in arrival
// order.
func (c *Cluster) PendingVMs() []vm.ID {
	var out []vm.ID
	for _, v := range c.vmList {
		if c.pending[v.ID()-1] {
			out = append(out, v.ID())
		}
	}
	return out
}

// Departed returns how many VMs have left the cluster.
func (c *Cluster) Departed() int { return c.departed }

// ProvisionLatencies returns arrival→placement latencies of all VMs
// placed so far (callers must not mutate).
func (c *Cluster) ProvisionLatencies() []time.Duration { return c.provisionLat }

// startEval builds the evaluation machinery the fleet's size fixes at
// Start: the shard partition (one ID-contiguous range per shard), the
// per-host partial slots every tick reduces from, the delta
// bookkeeping, and the persistent worker pool when there is more than
// one shard. Evaluations before Start (pending-VM arrivals during
// setup) take the direct serial path.
func (c *Cluster) startEval() {
	n := len(c.hostList)
	if n == 0 {
		return
	}
	s := c.shards
	if s > n {
		s = n
	}
	if s < 1 {
		s = 1
	}
	per := (n + s - 1) / s
	c.shardSize = per
	c.shardBounds = make([]shardRange, 0, s)
	for lo := 0; lo < n; lo += per {
		hi := lo + per
		if hi > n {
			hi = n
		}
		c.shardBounds = append(c.shardBounds, shardRange{lo: lo, hi: hi})
	}
	c.hostPartial = make([]hostPartial, n)
	c.shardEvals = make([]int64, len(c.shardBounds))
	if c.delta {
		c.dirtyFlag = make([]bool, n)
		c.hostNext = make([]sim.Time, n)
		c.heapPos = make([]int32, n)
		c.dirtyQ = make([][]int32, len(c.shardBounds))
		c.dueHeaps = make([][]int32, len(c.shardBounds))
		for k, b := range c.shardBounds {
			c.dirtyQ[k] = make([]int32, 0, b.hi-b.lo)
			c.dueHeaps[k] = make([]int32, 0, b.hi-b.lo)
		}
	}
	if len(c.shardBounds) <= 1 {
		return
	}
	w := runtime.GOMAXPROCS(0)
	if w > len(c.shardBounds) {
		w = len(c.shardBounds)
	}
	// Buffered to the shard count: the dispatch loop in evaluate never
	// blocks on a slow worker, and the channel operations stay
	// allocation-free in steady state.
	c.evalWork = make(chan int, len(c.shardBounds))
	c.evalDone = make(chan struct{}, len(c.shardBounds))
	for i := 0; i < w; i++ {
		go c.evalWorker()
	}
}

// shardOf maps a host index to its owning shard.
func (c *Cluster) shardOf(i int) int { return i / c.shardSize }

// noteDirty is the single entry point for event-path host changes: it
// feeds the management layer's unconditional dirty callback, then the
// delta tick's queue. Every mutation site (placement, migration
// endpoints, crash/repair, power commands, settles, DVFS) calls this
// rather than markDirty directly, so the two consumers can never
// drift apart.
func (c *Cluster) noteDirty(id host.ID) {
	if c.onHostDirty != nil {
		c.onHostDirty(id)
	}
	c.markDirty(id)
}

// OnHostDirty registers fn to run whenever an event-path change
// touches a host's scheduling inputs. One observer only; register
// before Start. The callback fires on the serial event paths (never
// concurrently with a running tick) and in delta and full-scan modes
// alike.
func (c *Cluster) OnHostDirty(fn func(host.ID)) { c.onHostDirty = fn }

// VMEpoch returns a counter that advances on every VM-set change
// (arrival, initial placement, departure — pending VMs included).
func (c *Cluster) VMEpoch() uint64 { return c.vmEpoch }

// MaxVMID returns the highest VM ID ever issued (IDs are monotonic
// and never reused), or 0 before the first VM.
func (c *Cluster) MaxVMID() vm.ID { return c.nextVMID - 1 }

// PendingCount returns how many arrived-but-unplaced VMs exist,
// without materializing the ID list (see PendingVMs).
func (c *Cluster) PendingCount() int { return c.pendingCount }

// markDirty queues host id for re-evaluation at the next tick. Called
// from the serial event paths only (never concurrently with a running
// tick); a no-op outside an active delta window (before Start, after
// Close, or with delta off) because those modes re-scan everything
// anyway.
func (c *Cluster) markDirty(id host.ID) {
	if c.dirtyFlag == nil || c.closed {
		return
	}
	i := int(id) - 1
	if i < 0 || i >= len(c.dirtyFlag) || c.dirtyFlag[i] {
		return
	}
	c.dirtyFlag[i] = true
	s := c.shardOf(i)
	c.dirtyQ[s] = append(c.dirtyQ[s], int32(i))
}

// evalWorker processes shard indices until Close. Each host's partials
// land in slots no other worker touches; the evalDone send publishes
// them to the reducing goroutine.
func (c *Cluster) evalWorker() {
	for s := range c.evalWork {
		c.runShard(s, c.evalNow, c.evalFull)
		c.evalDone <- struct{}{}
	}
}

// runShard performs one shard's slice of a tick: either a full refresh
// of every host in the shard, or — in a delta tick — only the hosts
// made dirty by events (the shard's queue) or by a resident's demand
// trace advancing (the shard's due-heap). Everything touched here is
// owned by this shard: its hosts' scratch and partial slots, its
// residents' allocation records and SLA trackers, its queue, its heap.
func (c *Cluster) runShard(s int, now sim.Time, full bool) {
	if full {
		b := c.shardBounds[s]
		for i := b.lo; i < b.hi; i++ {
			c.refreshHost(i, now)
		}
		c.shardEvals[s] += int64(b.hi - b.lo)
		return
	}
	evals := int64(0)
	q := c.dirtyQ[s]
	for _, i := range q {
		c.dirtyFlag[i] = false
		c.refreshHost(int(i), now)
	}
	evals += int64(len(q))
	c.dirtyQ[s] = q[:0]
	h := c.dueHeaps[s]
	for len(h) > 0 && c.hostNext[h[0]] <= now {
		c.refreshHost(int(h[0]), now)
		h = c.dueHeaps[s] // refreshHost reheapified
		evals++
	}
	c.shardEvals[s] += evals
}

// refreshHost recomputes one host's partial slot and, in delta mode,
// its next-demand-change deadline and due-heap entry.
func (c *Cluster) refreshHost(i int, now sim.Time) {
	h := c.hostList[i]
	c.hostPartial[i] = c.evalHost(h, now)
	if c.hostNext == nil {
		return
	}
	next := never
	for _, v := range h.Residents() {
		if nc := v.NextDemandChange(now); nc < next {
			next = nc
		}
	}
	c.hostNext[i] = next
	c.heapSet(c.shardOf(i), int32(i))
}

// heapSet inserts, repositions, or removes host index i in shard s's
// due-heap to match hostNext[i]. The heap is indexed (heapPos) so the
// update is in-place and allocation-free; a host has at most one entry.
func (c *Cluster) heapSet(s int, i int32) {
	h := c.dueHeaps[s]
	p := int(c.heapPos[i]) - 1
	if c.hostNext[i] == never {
		if p >= 0 {
			// Remove: move the tail into the hole and sift.
			last := len(h) - 1
			if p != last {
				h[p] = h[last]
				c.heapPos[h[p]] = int32(p) + 1
			}
			c.heapPos[i] = 0
			c.dueHeaps[s] = h[:last]
			if p != last {
				c.heapFix(s, p)
			}
		}
		return
	}
	if p < 0 {
		h = append(h, i)
		c.dueHeaps[s] = h
		p = len(h) - 1
		c.heapPos[i] = int32(p) + 1
	}
	c.heapFix(s, p)
}

// heapFix restores the heap property around position p.
func (c *Cluster) heapFix(s, p int) {
	if !c.heapDown(s, p) {
		c.heapUp(s, p)
	}
}

func (c *Cluster) heapUp(s, p int) {
	h := c.dueHeaps[s]
	for p > 0 {
		parent := (p - 1) / 2
		if c.hostNext[h[parent]] <= c.hostNext[h[p]] {
			break
		}
		h[p], h[parent] = h[parent], h[p]
		c.heapPos[h[p]] = int32(p) + 1
		c.heapPos[h[parent]] = int32(parent) + 1
		p = parent
	}
}

// heapDown sifts position p down; reports whether it moved.
func (c *Cluster) heapDown(s, p int) bool {
	h := c.dueHeaps[s]
	n := len(h)
	moved := false
	for {
		kid := 2*p + 1
		if kid >= n {
			break
		}
		if r := kid + 1; r < n && c.hostNext[h[r]] < c.hostNext[h[kid]] {
			kid = r
		}
		if c.hostNext[h[p]] <= c.hostNext[h[kid]] {
			break
		}
		h[p], h[kid] = h[kid], h[p]
		c.heapPos[h[p]] = int32(p) + 1
		c.heapPos[h[kid]] = int32(kid) + 1
		p = kid
		moved = true
	}
	return moved
}

// Close retires the evaluation machinery: shard workers stop, and
// every later evaluation — including a post-Close Flush — falls back
// to the direct serial full scan, which produces the same bytes.
// Idempotent.
func (c *Cluster) Close() {
	if c.closed {
		return
	}
	c.closed = true
	if c.evalWork != nil {
		close(c.evalWork)
	}
}

// Start performs the initial evaluation and schedules the periodic
// re-evaluation loop.
func (c *Cluster) Start() {
	if c.started {
		return
	}
	c.started = true
	c.startEval()
	c.evaluate()
	var tick func()
	tick = func() {
		c.evaluate()
		c.eng.AfterFunc(c.step, tick)
	}
	c.eng.AfterFunc(c.step, tick)
}

// Flush closes the accounting books up to the current virtual time:
// one evaluation at now, then every open SLA run and the open stranded
// segment are charged. Call it after the final RunUntil so SLA and
// telemetry cover the whole horizon, including the analytically
// integrated tails of quiescent VMs. Flush works after Close too — the
// post-Close evaluation is a full direct scan, never a delta pass, so
// a final report can never miss tail accounting.
func (c *Cluster) Flush() {
	c.evaluate()
	now := c.eng.Now()
	for i := range c.current {
		c.closeRun(i, now)
	}
	c.closeStranded(now)
}

// closeStranded charges the open stranded segment up to now.
func (c *Cluster) closeStranded(now sim.Time) {
	if dt := now - c.strandedSince; dt > 0 {
		c.strandedVMSec += float64(c.strandedCount) * time.Duration(dt).Seconds()
		c.strandedSince = now
	}
}

// evaluate recomputes allocations, utilization and telemetry at the
// current time.
//
// This is the simulator's innermost hot path: it runs once per
// EvalStep per run plus once per management action. It must not
// allocate in steady state — demand vectors live in per-host scratch
// buffers, allocations are written into host-owned records, and all
// per-VM state is indexed by dense IDs. Floating-point accumulation
// order is fixed (hosts in ID order, VMs in ascending ID within each
// host, pending VMs in creation order) so results stay byte-identical
// run to run — and identical between the full-scan and delta modes,
// because a clean host's cached partial is bitwise what recomputation
// would produce and an unchanged allocation run performs no
// floating-point operations at all in either mode.
func (c *Cluster) evaluate() {
	c.tickCount++
	now := c.eng.Now()
	if c.hostPartial == nil || c.closed {
		// Direct path: before Start the shard machinery does not exist
		// yet, and after Close it must not be used — both fall back to a
		// serial full scan, which produces the same bytes.
		c.evaluateDirect(now)
		return
	}
	// A delta tick only touches dirty hosts; every tick before the
	// delta bookkeeping is primed (the Start evaluation) is full, as is
	// every tick when delta is off.
	full := !c.delta || !c.primed
	if c.evalWork != nil {
		// Fan the per-host work out to the persistent workers, then
		// reduce the per-host slots serially in host-ID order below.
		c.evalNow = now
		c.evalFull = full
		for s := range c.shardBounds {
			c.evalWork <- s
		}
		for range c.shardBounds {
			<-c.evalDone
		}
	} else {
		for s := range c.shardBounds {
			c.runShard(s, now, full)
		}
	}
	c.primed = true
	totalPower := power.Watts(0)
	totalDemand, totalDelivered := 0.0, 0.0
	active, stranded := 0, 0
	for i := range c.hostPartial {
		p := &c.hostPartial[i]
		totalPower += p.power
		totalDemand += p.demand
		totalDelivered += p.delivered
		if p.avail {
			active++
		} else {
			stranded += p.vms
		}
	}
	c.finishTick(now, totalPower, totalDemand, totalDelivered, active, stranded)
}

// evaluateDirect is the partial-free serial scan used before Start and
// after Close.
func (c *Cluster) evaluateDirect(now sim.Time) {
	totalPower := power.Watts(0)
	totalDemand, totalDelivered := 0.0, 0.0
	active, stranded := 0, 0
	for _, h := range c.hostList {
		p := c.evalHost(h, now)
		totalPower += p.power
		totalDemand += p.demand
		totalDelivered += p.delivered
		if p.avail {
			active++
		} else {
			stranded += p.vms
		}
	}
	c.directEvals += int64(len(c.hostList))
	c.finishTick(now, totalPower, totalDemand, totalDelivered, active, stranded)
}

// EvalCounts returns how many evaluation passes have run and how many
// per-host evaluations they performed in total. Full-scan mode
// evaluates every host every pass; delta mode's host count is the
// fleet's actual change volume, so 1 − hostEvals/(ticks×hosts) is the
// skip ratio. Diagnostics only — deterministic within a mode but
// different between modes, so the numbers must never reach a report.
// Not safe to call while a sharded tick is in flight (call between
// engine steps or after Close).
func (c *Cluster) EvalCounts() (ticks, hostEvals int64) {
	hostEvals = c.directEvals
	for _, n := range c.shardEvals {
		hostEvals += n
	}
	return c.tickCount, hostEvals
}

// finishTick applies a tick's reduced aggregates: stranded-population
// accounting, pending-VM demand, and the telemetry samples.
func (c *Cluster) finishTick(now sim.Time, totalPower power.Watts, totalDemand, totalDelivered float64, active, stranded int) {
	// stranded counts VMs frozen on downed hosts. Only crashed hosts
	// can hold residents while unavailable, so the sum is exactly the
	// stranded population; the integral charges run-length segments at
	// the old count whenever it moves.
	if stranded != c.strandedCount {
		c.closeStranded(now)
		c.strandedCount = stranded
	}
	// Pending (unplaced) VMs demand but receive nothing — the cost of
	// provisioning latency.
	if c.pendingCount > 0 {
		for _, v := range c.vmList {
			i := int(v.ID()) - 1
			if !c.pending[i] {
				continue
			}
			d := c.VMDemand(v, now)
			rec := &c.current[i]
			if !rec.present || rec.demand != d {
				c.closeRun(i, now)
				*rec = allocRecord{demand: d, delivered: 0, slo: v.SLOTarget(), since: now, present: true}
			}
			totalDemand += d
		}
	}
	c.powerSeries.Append(now, float64(totalPower))
	c.demandSeries.Append(now, totalDemand)
	c.deliveredSeries.Append(now, totalDelivered)
	c.activeSeries.Append(now, float64(active))
	if len(c.onTick) > 0 {
		ts := TickStats{
			Now: now, PowerW: float64(totalPower),
			Demand: totalDemand, Delivered: totalDelivered,
			Active: active, Stranded: stranded, Pending: c.pendingCount,
		}
		for _, fn := range c.onTick {
			fn(ts)
		}
	}
}

// TickStats is one evaluation tick's cluster-wide aggregates, handed
// to the OnTick observer: the same numbers the telemetry series
// record, plus the stranded and pending populations.
type TickStats struct {
	Now       sim.Time
	PowerW    float64
	Demand    float64
	Delivered float64
	Active    int
	Stranded  int
	Pending   int
}

// OnTick registers fn to observe every evaluation tick's aggregates.
// Observers accumulate and run in registration order: the scenario
// assertion engine and the service's streaming-progress feed can both
// watch one run. Registration schedules no events and perturbs
// nothing — the simulation is byte-identical with any observer set.
func (c *Cluster) OnTick(fn func(TickStats)) { c.onTick = append(c.onTick, fn) }

// VMDemand returns v's CPU demand at time at, including any runtime
// demand scaling applied by scenario demand-surge events. With no
// scale in effect it returns exactly v.Demand(at) — same branch-free
// arithmetic, same bits — so script-free runs are untouched. A scale
// multiplies the raw trace demand and then applies the vCPU and limit
// caps in vm.Demand's clamping order.
func (c *Cluster) VMDemand(v *vm.VM, at sim.Time) float64 {
	if c.demandScale != nil {
		if i := int(v.ID()) - 1; i < len(c.demandScale) {
			if s := c.demandScale[i]; s != 0 && s != 1 {
				d := v.Trace().At(at) * s
				if vc := v.VCPUs(); d > vc {
					d = vc
				}
				if lim := v.LimitCores(); lim > 0 && d > lim {
					d = lim
				}
				return d
			}
		}
	}
	return v.Demand(at)
}

// ScaleDemandPrefix sets the demand multiplier of every live VM whose
// name starts with prefix ("" = all VMs) to factor (1 restores
// normal), returning how many VMs matched. Affected hosts are dirtied
// and the cluster re-evaluates once, so allocation runs, SLA
// accounting, and the delta machinery all see the step exactly at the
// event time. Repeated calls overwrite (absolute scale, not
// compounding); VMs arriving later are unscaled.
func (c *Cluster) ScaleDemandPrefix(prefix string, factor float64) int {
	matched := 0
	for _, v := range c.vmList {
		if prefix != "" && !strings.HasPrefix(v.Name(), prefix) {
			continue
		}
		if c.demandScale == nil {
			c.demandScale = make([]float64, len(c.vmsByID))
		}
		i := int(v.ID()) - 1
		if i >= len(c.demandScale) {
			grown := make([]float64, len(c.vmsByID))
			copy(grown, c.demandScale)
			c.demandScale = grown
		}
		c.demandScale[i] = factor
		matched++
		if h, ok := c.Placement(v.ID()); ok {
			c.noteDirty(h)
		}
	}
	if matched == 0 {
		return 0
	}
	c.record(events.DemandScaled, 0, 0,
		fmt.Sprintf("fleet %q ×%g (%d vms)", prefix, factor, matched))
	if c.started {
		c.evaluate()
	}
	return matched
}

// StrandedCount returns how many VMs are frozen on crashed hosts right
// now (as opposed to StrandedVMSeconds, the time integral) — the
// end-of-run health signal the CLIs turn into a nonzero exit.
func (c *Cluster) StrandedCount() int { return c.strandedCount }

// closeRun charges VM index i's open allocation run up to now and
// restarts the run there (no-op when there is no open run or it is
// empty) — idempotent, so callers may close defensively before
// rewriting or clearing the record.
func (c *Cluster) closeRun(i int, now sim.Time) {
	rec := &c.current[i]
	if !rec.present {
		return
	}
	if dt := now - rec.since; dt > 0 {
		c.sla[i].Record(dt, rec.demand, rec.delivered, rec.slo)
		rec.since = now
	}
}

// evalHost performs one host's share of the evaluation tick: fill the
// host's demand scratch, run the proportional-share scheduler, push
// utilization into the power model, and maintain the per-VM allocation
// runs — a run is closed (one closed-form SLA Record over its whole
// span) only when the VM's (demand, delivered) pair actually moved, so
// an idle-stable VM costs zero work and zero FP operations per tick.
// evalHost touches only state owned by this host (scratch buffers,
// power machine) or indexed by its resident VMs (c.current slots and
// SLA trackers — each VM is resident on exactly one host), plus
// read-only shared state (migration overhead map, engine clock), so
// distinct hosts can be evaluated concurrently.
func (c *Cluster) evalHost(h *host.Host, now sim.Time) hostPartial {
	res := h.Residents() // ascending VM ID
	demands := h.DemandScratch()
	for i, v := range res {
		demands[i] = c.VMDemand(v, now)
	}
	alloc := h.Schedule(demands, c.migrations.CPUOverhead(int(h.ID())))
	h.Machine().SetUtilization(alloc.Utilization)
	for i, v := range res {
		idx := int(v.ID()) - 1
		d, del := demands[i], alloc.DeliveredAt(i)
		rec := &c.current[idx]
		if rec.present && rec.demand == d && rec.delivered == del {
			continue // the open run extends — nothing to record
		}
		c.closeRun(idx, now)
		*rec = allocRecord{demand: d, delivered: del, slo: v.SLOTarget(), since: now, present: true}
	}
	return hostPartial{
		power:     h.Machine().Power(),
		demand:    alloc.TotalDemand,
		delivered: alloc.TotalDelivered,
		avail:     h.Available(),
		vms:       len(res),
	}
}

// hostSettled runs when a host finishes a power transition.
func (c *Cluster) hostSettled(id host.ID, st power.State) {
	c.noteDirty(id)
	c.record(events.HostSettled, 0, id, st.String())
	c.evaluate()
	if c.onHostSettled != nil {
		c.onHostSettled(id, st)
	}
}

// OnHostSettled registers fn to run after any host completes a power
// transition. The management layer uses this to react to wakes
// immediately instead of waiting for its next control period.
func (c *Cluster) OnHostSettled(fn func(host.ID, power.State)) { c.onHostSettled = fn }

// Hosts returns all hosts in creation order. The slice is a cached
// read-only view owned by the cluster — callers must not mutate it.
func (c *Cluster) Hosts() []*host.Host { return c.hostList }

// Host returns a host by ID.
func (c *Cluster) Host(id host.ID) (*host.Host, bool) {
	h := c.hostByID(id)
	return h, h != nil
}

// VMs returns all live VMs in creation order. The slice is a cached
// read-only view owned by the cluster — callers must not mutate it.
func (c *Cluster) VMs() []*vm.VM { return c.vmList }

// VM returns a VM by ID.
func (c *Cluster) VM(id vm.ID) (*vm.VM, bool) {
	v := c.vmByID(id)
	return v, v != nil
}

// Placement returns the host a VM currently runs on.
func (c *Cluster) Placement(id vm.ID) (host.ID, bool) {
	if id < 1 || int(id) > len(c.placement) || c.placement[id-1] == 0 {
		return 0, false
	}
	return c.placement[id-1], true
}

// Migrating reports whether the VM is in flight.
func (c *Cluster) Migrating(id vm.ID) bool { return c.migrations.Migrating(id) }

// GroupConflict reports whether placing a VM of the given
// anti-affinity group on host h would violate the group: another
// member is resident, or an in-flight migration is about to land one
// there. An empty group never conflicts.
func (c *Cluster) GroupConflict(h host.ID, group string, exclude vm.ID) bool {
	if group == "" {
		return false
	}
	hh := c.hostByID(h)
	if hh == nil {
		return false
	}
	for _, v := range hh.Residents() {
		if v.ID() == exclude {
			continue
		}
		if v.Group() == group {
			return true
		}
	}
	for _, mig := range c.migrations.Inflights() {
		if host.ID(mig.Dst) != h || mig.VM == exclude {
			continue
		}
		if v := c.vmByID(mig.VM); v != nil && v.Group() == group {
			return true
		}
	}
	return false
}

// StartMigration begins moving a VM to dst. The VM keeps running on
// its source (with migration CPU overhead on both ends) until the
// pre-copy completes; the final stop-and-copy downtime is charged to
// the VM's SLA.
func (c *Cluster) StartMigration(id vm.ID, dst host.ID) error {
	v := c.vmByID(id)
	if v == nil {
		return fmt.Errorf("cluster: unknown vm %d", id)
	}
	src, ok := c.Placement(id)
	if !ok {
		return fmt.Errorf("cluster: vm %d has no placement", id)
	}
	if src == dst {
		return fmt.Errorf("cluster: vm %d already on host %d", id, dst)
	}
	if srcHost := c.hostByID(src); srcHost == nil || !srcHost.Available() {
		// A manager acting on a stale view can order a move off a host
		// that has since crashed; the frozen VM cannot be pre-copied.
		return fmt.Errorf("cluster: source host %d not available", src)
	}
	dstHost := c.hostByID(dst)
	if dstHost == nil {
		return fmt.Errorf("cluster: unknown destination host %d", dst)
	}
	if !dstHost.Available() {
		return fmt.Errorf("cluster: destination host %d not available (%v/%v)",
			dst, dstHost.Machine().State(), dstHost.Machine().Phase())
	}
	if c.migrations.Migrating(id) {
		return fmt.Errorf("cluster: vm %d already migrating", id)
	}
	if !c.migrations.CanStart(int(src), int(dst)) {
		// The expected rejection of a drain that plans ahead of its
		// slots: a sentinel, so refusing costs no formatting.
		return migrate.ErrHostSaturated
	}
	if c.GroupConflict(dst, v.Group(), id) {
		return fmt.Errorf("cluster: anti-affinity group %q conflict on host %d", v.Group(), dst)
	}
	if err := dstHost.Reserve(id, v.MemoryGB()); err != nil {
		return err
	}
	if _, err := c.migrations.Start(id, int(src), int(dst), v.MemoryGB()); err != nil {
		dstHost.ReleaseReservation(id)
		return err
	}
	c.noteDirty(src)
	c.noteDirty(dst)
	c.record(events.MigrationStarted, id, dst, fmt.Sprintf("%d→%d", src, dst))
	c.evaluate() // migration overhead starts now
	return nil
}

// finishMigration commits a completed migration.
func (c *Cluster) finishMigration(mig *migrate.Migration) {
	v := c.vmsByID[mig.VM-1]
	src := c.hostList[mig.Src-1]
	dst := c.hostList[mig.Dst-1]
	if err := src.Remove(mig.VM); err != nil {
		panic(fmt.Sprintf("cluster: migration invariant broken: %v", err))
	}
	dst.ReleaseReservation(mig.VM)
	if err := dst.Place(v); err != nil {
		panic(fmt.Sprintf("cluster: migration reservation broken: %v", err))
	}
	c.placement[mig.VM-1] = host.ID(mig.Dst)
	c.noteDirty(host.ID(mig.Src))
	c.noteDirty(host.ID(mig.Dst))
	// The stop-and-copy pause fully blanks the VM.
	c.sla[mig.VM-1].RecordOutage(mig.Plan.Downtime, c.VMDemand(v, c.eng.Now()))
	c.record(events.MigrationCompleted, mig.VM, host.ID(mig.Dst),
		fmt.Sprintf("%d→%d in %v", mig.Src, mig.Dst, mig.Plan.Duration.Round(time.Millisecond)))
	c.evaluate()
	if c.onMigrationDone != nil {
		c.onMigrationDone(mig.VM, host.ID(mig.Dst))
	}
}

// OnMigrationDone registers fn to run after each migration commits.
// The management layer uses it to issue follow-up moves as soon as
// migration slots free up, instead of waiting for the next control
// period.
func (c *Cluster) OnMigrationDone(fn func(vm.ID, host.ID)) { c.onMigrationDone = fn }

// failMigration unwinds an aborted migration: the VM never left its
// source, so only the destination reservation is released.
func (c *Cluster) failMigration(mig *migrate.Migration) {
	dst := c.hostList[mig.Dst-1]
	dst.ReleaseReservation(mig.VM)
	c.noteDirty(host.ID(mig.Src)) // migration CPU overhead ends on both hosts
	c.noteDirty(host.ID(mig.Dst))
	c.record(events.MigrationFailed, mig.VM, host.ID(mig.Dst),
		fmt.Sprintf("%d→%d aborted", mig.Src, mig.Dst))
	c.evaluate()
	if c.onMigrationFailed != nil {
		c.onMigrationFailed(mig.VM, host.ID(mig.Src), host.ID(mig.Dst))
	}
}

// OnMigrationFailed registers fn to run after a migration aborts, with
// the VM and the move's source and destination. The VM is still on the
// source; the management layer re-plans.
func (c *Cluster) OnMigrationFailed(fn func(vm.ID, host.ID, host.ID)) { c.onMigrationFailed = fn }

// CrashHost takes an available host down transiently: its VMs freeze in
// place (delivering nothing) until the repair completes and the host
// boots back to S0, and every in-flight migration touching it aborts.
// Crashing an unavailable host fails — see power.Machine.Crash.
func (c *Cluster) CrashHost(id host.ID, repair time.Duration) error {
	h := c.hostByID(id)
	if h == nil {
		return fmt.Errorf("cluster: unknown host %d", id)
	}
	if err := h.Machine().Crash(repair); err != nil {
		return err
	}
	aborted := c.migrations.FailHost(int(id))
	c.noteDirty(id)
	c.record(events.HostCrashed, 0, id,
		fmt.Sprintf("repair %v, %d migrations aborted", repair.Round(time.Second), aborted))
	c.evaluate()
	if c.onHostCrashed != nil {
		c.onHostCrashed(id)
	}
	return nil
}

// OnHostCrashed registers fn to run after a host crashes (its repair is
// already scheduled; OnHostSettled fires when it returns).
func (c *Cluster) OnHostCrashed(fn func(host.ID)) { c.onHostCrashed = fn }

// StrandedVMSeconds returns the integral of VMs-frozen-on-crashed-hosts
// over time, in VM·seconds — the availability cost of crashes that the
// robustness experiment reports.
func (c *Cluster) StrandedVMSeconds() float64 { return c.strandedVMSec }

// TransitionFaultStats sums injected transition faults and crashes
// across all hosts.
func (c *Cluster) TransitionFaultStats() (suspendFailures, wakeFailures, crashes int) {
	for _, h := range c.hostList {
		st := h.Machine().Stats()
		suspendFailures += st.SuspendFailures
		wakeFailures += st.WakeFailures
		crashes += st.Crashes
	}
	return suspendFailures, wakeFailures, crashes
}

// SleepHost parks an empty, available host in the given sleep state.
func (c *Cluster) SleepHost(id host.ID, st power.State) error {
	h := c.hostByID(id)
	if h == nil {
		return fmt.Errorf("cluster: unknown host %d", id)
	}
	if !h.Empty() {
		return fmt.Errorf("cluster: host %d not empty (%d vms)", id, h.NumVMs())
	}
	if c.migrations.HostLoad(int(id)) > 0 {
		return fmt.Errorf("cluster: host %d has in-flight migrations", id)
	}
	if err := h.Machine().Sleep(st); err != nil {
		return err
	}
	c.noteDirty(id)
	c.record(events.HostSleeping, 0, id, st.String())
	c.evaluate()
	return nil
}

// WakeHost starts waking a sleeping host. The host becomes available
// after its power state's exit latency; OnHostSettled fires then.
func (c *Cluster) WakeHost(id host.ID) error {
	h := c.hostByID(id)
	if h == nil {
		return fmt.Errorf("cluster: unknown host %d", id)
	}
	if err := h.Machine().Wake(); err != nil {
		return err
	}
	c.noteDirty(id)
	c.record(events.HostWaking, 0, id, "")
	c.evaluate()
	return nil
}

// LastEvaluation returns the total demand and delivered CPU recorded
// at the most recent evaluation — the monitoring signal the manager's
// panic brake watches.
func (c *Cluster) LastEvaluation() (demand, delivered float64) {
	n := c.demandSeries.Len()
	if n == 0 {
		return 0, 0
	}
	return c.demandSeries.Points()[n-1].Value, c.deliveredSeries.Points()[n-1].Value
}

// TotalDemand returns the sum of all VM demands at the current time.
func (c *Cluster) TotalDemand() float64 {
	total := 0.0
	now := c.eng.Now()
	for _, v := range c.vmList {
		total += c.VMDemand(v, now)
	}
	return total
}

// TotalPower returns the instantaneous cluster draw.
func (c *Cluster) TotalPower() power.Watts {
	total := power.Watts(0)
	for _, h := range c.hostList {
		total += h.Machine().Power()
	}
	return total
}

// TotalEnergy returns the cluster energy consumed so far.
func (c *Cluster) TotalEnergy() power.Joules {
	total := power.Joules(0)
	for _, h := range c.hostList {
		total += h.Machine().Energy()
	}
	return total
}

// AvailableHosts returns hosts currently able to run VMs, in ID order.
func (c *Cluster) AvailableHosts() []*host.Host {
	var out []*host.Host
	for _, h := range c.hostList {
		if h.Available() {
			out = append(out, h)
		}
	}
	return out
}

// SLA returns the tracker of one VM. Trackers survive departure, so
// this resolves for any VM that ever existed.
func (c *Cluster) SLA(id vm.ID) (*telemetry.SLATracker, bool) {
	if id < 1 || int(id) > len(c.sla) {
		return nil, false
	}
	return c.sla[id-1], true
}

// AggregateSLA merges all VM trackers into one cluster-wide view.
// Trackers are merged in ascending VM ID order so the aggregation is
// deterministic. Open allocation runs (accounting coalesced since the
// last change — see allocRecord) are folded in virtually, without
// mutating the per-VM trackers, so the aggregate is complete at any
// time; after a Flush the fold contributes nothing.
func (c *Cluster) AggregateSLA() *telemetry.SLATracker {
	agg := &telemetry.SLATracker{}
	now := c.eng.Now()
	for i, s := range c.sla {
		agg.Merge(s)
		rec := &c.current[i]
		if rec.present {
			if dt := now - rec.since; dt > 0 {
				agg.Record(dt, rec.demand, rec.delivered, rec.slo)
			}
		}
	}
	return agg
}

// PowerSeries returns the sampled cluster power (watts).
func (c *Cluster) PowerSeries() *telemetry.Series { return c.powerSeries }

// DemandSeries returns the sampled total demand (cores).
func (c *Cluster) DemandSeries() *telemetry.Series { return c.demandSeries }

// DeliveredSeries returns the sampled delivered CPU (cores).
func (c *Cluster) DeliveredSeries() *telemetry.Series { return c.deliveredSeries }

// ActiveHostSeries returns the sampled count of available hosts.
func (c *Cluster) ActiveHostSeries() *telemetry.Series { return c.activeSeries }

// ResumeFailures returns total failed S3 resumes across all hosts.
func (c *Cluster) ResumeFailures() int {
	total := 0
	for _, h := range c.hostList {
		total += h.Machine().Stats().ResumeFailures
	}
	return total
}

// PowerActions returns total sleep entries and exits across all hosts.
func (c *Cluster) PowerActions() (entries, exits int) {
	for _, h := range c.hostList {
		st := h.Machine().Stats()
		for _, n := range st.Entries {
			entries += n
		}
		for _, n := range st.Exits {
			exits += n
		}
	}
	return entries, exits
}
