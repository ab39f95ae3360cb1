package migrate

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"time"

	"agilepower/internal/sim"
	"agilepower/internal/vm"
)

// Manager errors.
var (
	// ErrHostSaturated — starting the migration would exceed a host's
	// concurrent-migration limit.
	ErrHostSaturated = errors.New("migrate: host at concurrent migration limit")
	// ErrAlreadyMigrating — the VM is already in flight.
	ErrAlreadyMigrating = errors.New("migrate: vm already migrating")
	// ErrSamePlace — source equals destination.
	ErrSamePlace = errors.New("migrate: source and destination are the same host")
)

// Fault is one injected defect on a migration. Stall lengthens the
// pre-copy (network congestion, dirty-page churn); Fail makes the
// final switchover abort after the full (stalled) duration — the VM
// stays on its source and the caller re-plans.
type Fault struct {
	Fail  bool
	Stall time.Duration
}

// FaultInjector decides faults for migrations. Nil (the default) is
// fully dormant. Injectors must be deterministic functions of their own
// seeded stream so simulations stay reproducible.
type FaultInjector interface {
	MigrationFault(memGB float64) Fault
}

// Migration is one in-flight (or completed) VM move. Hosts are
// identified by opaque ints supplied by the caller (the cluster layer).
type Migration struct {
	VM       vm.ID
	Src, Dst int
	Start    sim.Time
	End      sim.Time
	Plan     Plan
	// Failed marks a migration whose switchover aborts (injected fault
	// or a crash of an endpoint host): the VM never leaves its source.
	Failed bool

	// ev is the scheduled completion, kept so an endpoint crash can
	// abort the move early.
	ev *sim.Event
}

// Stats are cumulative manager counters.
type Stats struct {
	Started   int
	Completed int
	TrafficGB float64
	// TotalDowntime is the sum of stop-and-copy pauses across all
	// completed migrations — direct SLA impact of management actions.
	TotalDowntime time.Duration
	// TotalDuration is the sum of wall durations of completed moves.
	TotalDuration time.Duration
	// Aborted counts migrations that ran and then failed (injected
	// switchover faults and endpoint crashes), distinct from requests
	// rejected at Start.
	Aborted int
	// Stalled counts migrations that were slowed by injected stalls;
	// StallTime is the total extra pre-copy time.
	Stalled   int
	StallTime time.Duration
}

// Manager tracks in-flight migrations, enforces per-host concurrency
// limits, and fires a completion callback through the simulation
// engine when each move finishes.
type Manager struct {
	eng   *sim.Engine
	model Model
	// perHostLimit caps concurrent migrations touching one host
	// (inbound plus outbound), as real hypervisors do.
	perHostLimit int

	inflight map[vm.ID]*Migration
	// ordered holds the same migrations as inflight, by ascending VM ID:
	// the view Inflights hands out, kept sorted as moves start and end.
	ordered []*Migration
	perHost map[int]int
	stats   Stats

	// faults, when non-nil, is consulted on every admitted migration.
	faults FaultInjector

	onComplete func(*Migration)
	onFailed   func(*Migration)
}

// NewManager builds a manager. perHostLimit ≤ 0 selects the default
// of 4 concurrent migrations per host (the order of what enterprise
// hypervisors allow on a 10 GbE migration network).
func NewManager(eng *sim.Engine, model Model, perHostLimit int) (*Manager, error) {
	if err := model.Validate(); err != nil {
		return nil, err
	}
	if perHostLimit <= 0 {
		perHostLimit = 4
	}
	return &Manager{
		eng:          eng,
		model:        model,
		perHostLimit: perHostLimit,
		inflight:     make(map[vm.ID]*Migration),
		perHost:      make(map[int]int),
	}, nil
}

// Model returns the manager's migration model.
func (m *Manager) Model() Model { return m.model }

// OnComplete registers fn to run when any migration completes.
func (m *Manager) OnComplete(fn func(*Migration)) { m.onComplete = fn }

// OnFailed registers fn to run when any migration aborts. The VM is
// still on its source host; the caller releases whatever it reserved
// at the destination.
func (m *Manager) OnFailed(fn func(*Migration)) { m.onFailed = fn }

// SetFaultInjector installs a migration fault injector (nil disables
// injection entirely — the default).
func (m *Manager) SetFaultInjector(f FaultInjector) { m.faults = f }

// Inflight returns the number of migrations currently in flight.
func (m *Manager) Inflight() int { return len(m.inflight) }

// Migrating reports whether the VM is currently in flight.
func (m *Manager) Migrating(id vm.ID) bool {
	_, ok := m.inflight[id]
	return ok
}

// HostLoad returns how many in-flight migrations touch host h.
func (m *Manager) HostLoad(h int) int { return m.perHost[h] }

// Inflights returns the in-flight migrations ordered by VM ID, for
// deterministic planning by the management layer. The slice is a
// read-only view owned by the manager, valid until the next Start or
// completion: callers must not modify it, and a caller that starts or
// aborts migrations while iterating must iterate a copy.
func (m *Manager) Inflights() []*Migration { return m.ordered }

// orderedIndex returns where the migration of VM id sits (or would be
// inserted) in the ID-ordered view.
func (m *Manager) orderedIndex(id vm.ID) int {
	i, _ := slices.BinarySearchFunc(m.ordered, id, func(mig *Migration, id vm.ID) int {
		return cmp.Compare(mig.VM, id)
	})
	return i
}

// CanStart reports whether a src→dst migration would be admitted.
func (m *Manager) CanStart(src, dst int) bool {
	return src != dst &&
		m.perHost[src] < m.perHostLimit &&
		m.perHost[dst] < m.perHostLimit
}

// Start begins migrating the VM with the given memory footprint from
// src to dst. The returned Migration completes (callback fires) after
// the planned duration.
func (m *Manager) Start(id vm.ID, src, dst int, memGB float64) (*Migration, error) {
	if src == dst {
		return nil, fmt.Errorf("%w: host %d", ErrSamePlace, src)
	}
	if m.Migrating(id) {
		return nil, fmt.Errorf("%w: vm %d", ErrAlreadyMigrating, id)
	}
	if m.perHost[src] >= m.perHostLimit {
		return nil, fmt.Errorf("%w: source %d", ErrHostSaturated, src)
	}
	if m.perHost[dst] >= m.perHostLimit {
		return nil, fmt.Errorf("%w: destination %d", ErrHostSaturated, dst)
	}
	plan, err := m.model.Plan(memGB)
	if err != nil {
		return nil, err
	}
	duration := plan.Duration
	failed := false
	if m.faults != nil {
		f := m.faults.MigrationFault(memGB)
		if f.Stall > 0 {
			duration += f.Stall
			m.stats.Stalled++
			m.stats.StallTime += f.Stall
		}
		failed = f.Fail
	}
	mig := &Migration{
		VM:     id,
		Src:    src,
		Dst:    dst,
		Start:  m.eng.Now(),
		End:    m.eng.Now() + duration,
		Plan:   plan,
		Failed: failed,
	}
	m.inflight[id] = mig
	m.ordered = slices.Insert(m.ordered, m.orderedIndex(id), mig)
	m.perHost[src]++
	m.perHost[dst]++
	m.stats.Started++
	mig.ev = m.eng.Schedule(mig.End, func() { m.complete(mig) })
	return mig, nil
}

// FailHost aborts every in-flight migration touching host h (which
// crashed): their completion events are cancelled and each fires the
// failure path immediately. It returns how many were aborted.
func (m *Manager) FailHost(h int) int {
	aborted := 0
	// complete shrinks the ordered view (and failure callbacks may start
	// new moves), so walk a snapshot.
	for _, mig := range slices.Clone(m.ordered) {
		if mig.Src != h && mig.Dst != h {
			continue
		}
		mig.ev.Cancel()
		mig.Failed = true
		mig.End = m.eng.Now()
		m.complete(mig)
		aborted++
	}
	return aborted
}

func (m *Manager) complete(mig *Migration) {
	delete(m.inflight, mig.VM)
	if i := m.orderedIndex(mig.VM); i < len(m.ordered) && m.ordered[i] == mig {
		m.ordered = slices.Delete(m.ordered, i, i+1)
	}
	m.perHost[mig.Src]--
	m.perHost[mig.Dst]--
	if m.perHost[mig.Src] == 0 {
		delete(m.perHost, mig.Src)
	}
	if m.perHost[mig.Dst] == 0 {
		delete(m.perHost, mig.Dst)
	}
	if mig.Failed {
		// The pre-copy traffic was spent even though the move aborted.
		m.stats.Aborted++
		m.stats.TrafficGB += mig.Plan.TrafficGB
		if m.onFailed != nil {
			m.onFailed(mig)
		}
		return
	}
	m.stats.Completed++
	m.stats.TrafficGB += mig.Plan.TrafficGB
	m.stats.TotalDowntime += mig.Plan.Downtime
	m.stats.TotalDuration += mig.Plan.Duration
	if m.onComplete != nil {
		m.onComplete(mig)
	}
}

// Stats returns a snapshot of cumulative counters.
func (m *Manager) Stats() Stats { return m.stats }

// CPUOverhead returns the extra cores consumed on host h right now by
// in-flight migrations.
func (m *Manager) CPUOverhead(h int) float64 {
	return float64(m.perHost[h]) * m.model.CPUOverheadCores
}
