package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"agilepower"
	"agilepower/internal/report"
)

// The simulation workloads run fixed inputs: the fleets the
// repository's experiments build by default and the ops-day example,
// with their own seeds. Their cost follows the simulated dynamics,
// which the seed moves by more than any usable regression bound: on
// steady-fleet the load-balancing storms move from hours 3, 5 and 8
// (fleet seed 1) to a 21 s hour 6 (fleet seed 2); drain-burst's
// rejected moves range over ±8% between fleet seeds; ops-day's day
// takes 12 or 15 s depending on the simulation seed. So --seed varies
// only service-mix's traffic, and every simulation run is checked
// against the one stored reference of its inputs. fleetSeed is the
// experiments' default seed.
const fleetSeed = 1

// simWorkload is a simulation workload: one world forked into one cell
// per policy; every cell runs to the horizon in fixed simulated chunks.
type simWorkload struct {
	name     string
	policies []agilepower.Policy
	horizon  time.Duration
	chunk    time.Duration
	// setups is how many times a run builds its world; setup_s is the
	// median, so cheap set-ups repeat more to steady it.
	setups int
	sizes  map[string]int
	// inputs generates the workload's input: nothing the program does
	// is timed here.
	inputs func() (any, error)
	// build turns the generated input into the world's scenario — the
	// fleet builders or the scenario-file parser — under spans.
	build func(in any, sc scope) (agilepower.Scenario, error)
}

// scope is where a span is opened: the recorder (nil when untraced),
// the operation the span belongs to, and its parent span.
type scope struct {
	rec    *recorder
	op     string
	parent int
}

func (s scope) begin(name string) int { return s.rec.begin(name, s.op, s.parent) }
func (s scope) end(id int)            { s.rec.end(id) }
func (s scope) child(id int) scope    { return scope{rec: s.rec, op: s.op, parent: id} }

var drainBurst = &simWorkload{
	name:     "drain-burst",
	policies: []agilepower.Policy{agilepower.DPMS3, agilepower.DPMS5},
	horizon:  time.Hour,
	chunk:    15 * time.Minute,
	setups:   15,
	sizes:    map[string]int{"hosts": 256, "hostCores": 16, "vms": 4096, "cells": 2, "horizonMin": 60},
	inputs:   func() (any, error) { return nil, nil },
	build: func(_ any, sc scope) (agilepower.Scenario, error) {
		id := sc.begin("agilepower.HyperscaleFleet")
		vms := agilepower.HyperscaleFleet(4096, fleetSeed)
		sc.end(id)
		return agilepower.Scenario{
			Name: "drain-burst", Hosts: 256, HostCores: 16, HostMemoryGB: 256,
			VMs: vms, Horizon: time.Hour, Seed: fleetSeed,
		}, nil
	},
}

var steadyFleet = &simWorkload{
	name:     "steady-fleet",
	policies: []agilepower.Policy{agilepower.Static, agilepower.NoPM},
	horizon:  3 * time.Hour,
	chunk:    15 * time.Minute,
	setups:   5,
	sizes:    map[string]int{"hosts": 2048, "hosts16c": 1536, "hosts32c": 512, "vms": 16384, "cells": 2, "horizonMin": 180},
	inputs:   func() (any, error) { return nil, nil },
	build: func(_ any, sc scope) (agilepower.Scenario, error) {
		id := sc.begin("agilepower.MixedFleet")
		vms := agilepower.MixedFleet(16384, fleetSeed)
		sc.end(id)
		return agilepower.Scenario{
			Name: "steady-fleet",
			HostClasses: []agilepower.HostClass{
				{Count: 1536, Cores: 16, MemoryGB: 256},
				{Count: 512, Cores: 32, MemoryGB: 512},
			},
			VMs: vms, Horizon: 3 * time.Hour, Seed: fleetSeed,
		}, nil
	},
}

// opsDayJSON is scenarios/ops-day.json as of the benchmark's writing,
// kept here so the workload does not drift when the example changes.
//
//go:embed ops-day.json
var opsDayJSON []byte

// opsDayScale multiplies the example's host and fleet counts, keeping
// its density: 256 hosts, 704 VMs.
const opsDayScale = 8

var opsDay = &simWorkload{
	name:     "ops-day",
	policies: agilepower.Policies(),
	horizon:  24 * time.Hour,
	chunk:    time.Hour,
	setups:   9,
	sizes:    map[string]int{"hosts": 256, "vms": 704, "cells": 4, "horizonMin": 1440},
	inputs: func() (any, error) {
		var f agilepower.ScenarioFile
		if err := json.Unmarshal(opsDayJSON, &f); err != nil {
			return nil, fmt.Errorf("decoding ops-day template: %w", err)
		}
		f.Hosts *= opsDayScale
		for i := range f.Fleets {
			f.Fleets[i].Count *= opsDayScale
		}
		return json.Marshal(f)
	},
	build: func(in any, sc scope) (agilepower.Scenario, error) {
		id := sc.begin("agilepower.ParseScenario")
		s, err := agilepower.ParseScenario(in.([]byte))
		sc.end(id)
		return s, err
	},
}

// world is one set-up: the prototype and a session per cell.
type world struct {
	sc       agilepower.Scenario
	proto    *agilepower.Prototype
	sessions []*agilepower.Session
}

// cell returns the scenario of the workload's i-th cell.
func (w *simWorkload) cell(sc agilepower.Scenario, i int) agilepower.Scenario {
	sc.Manager.Policy = w.policies[i]
	return sc
}

// setup builds the world from the generated input and forks every
// cell: the work setup_s times.
func (w *simWorkload) setup(in any, sc scope) (*world, error) {
	root := sc.begin("setup")
	defer sc.end(root)
	inner := sc.child(root)
	s, err := w.build(in, inner)
	if err != nil {
		return nil, err
	}
	id := inner.begin("Scenario.Prototype")
	proto, err := s.Prototype()
	inner.end(id)
	if err != nil {
		return nil, err
	}
	wd := &world{sc: s, proto: proto}
	for i := range w.policies {
		id := inner.begin("Prototype.Fork")
		se, err := proto.Fork(w.cell(s, i))
		inner.end(id)
		if err != nil {
			return nil, err
		}
		wd.sessions = append(wd.sessions, se)
	}
	return wd, nil
}

// simPass is the outcome of one pass of repetitions.
type simPass struct {
	reps     int
	wall     time.Duration // run phase: RunUntil, Result, Summarize, render
	cellMs   []float64
	cellRSS  []float64 // peak resident set while each cell ran, MiB
	counts   counts    // the first repetition's
	allocMB  float64
	gcCycles float64
}

// runPass runs repetitions of every cell on forks of wd until the run
// phase has lasted at least seconds (fixedReps = 0) or for exactly
// fixedReps repetitions. Forks are timed as set-up, not as run phase.
func (w *simWorkload) runPass(wd *world, seconds float64, fixedReps int, rec *recorder, chk *checker, o *outcome) simPass {
	var p simPass
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var firstReport []byte
	for rep := 0; ; rep++ {
		if fixedReps > 0 && rep == fixedReps {
			break
		}
		if fixedReps == 0 && rep > 0 && p.wall.Seconds() >= seconds {
			break
		}
		p.reps++
		row := make([]*agilepower.Result, len(w.policies))
		p95s := make([]float64, len(w.policies))
		for i := range w.policies {
			op := fmt.Sprintf("rep%d/%s", rep, w.policies[i].Name)
			sc := scope{rec: rec, op: op}
			root := sc.begin("cell")
			in := sc.child(root)
			o.attempted++
			var se *agilepower.Session
			if rep == 0 && wd.sessions[i] != nil {
				se, wd.sessions[i] = wd.sessions[i], nil
			} else {
				id := in.begin("Prototype.Fork")
				var err error
				se, err = wd.proto.Fork(w.cell(wd.sc, i))
				in.end(id)
				if err != nil {
					sc.end(root)
					o.fail("%s: fork: %v", op, err)
					continue
				}
			}
			rs := sampleRSS()
			res, p95, d, err := w.runCell(se, in)
			p.cellRSS = append(p.cellRSS, rs.end())
			sc.end(root)
			p.wall += d
			p.cellMs = append(p.cellMs, ms(d))
			if err != nil {
				o.fail("%s: %v", op, err)
				continue
			}
			row[i], p95s[i] = res, p95
			if err := checkResult(res, w.policies[i].Name, chk); err != nil {
				o.fail("%s: %v", op, err)
			}
		}
		if rep == 0 {
			// Counted now, not kept: holding results across repetitions
			// would make peak memory depend on how many fit in the run.
			for _, r := range row {
				if r != nil {
					p.counts.add(r)
				}
			}
		}
		start := time.Now()
		out, err := w.render(row, p95s, scope{rec: rec, op: fmt.Sprintf("rep%d", rep)})
		p.wall += time.Since(start)
		o.attempted++
		switch {
		case err != nil:
			o.fail("rep%d: report: %v", rep, err)
		case firstReport == nil:
			firstReport = out
		case !bytes.Equal(out, firstReport):
			o.fail("rep%d: report differs from the first repetition's", rep)
		}
	}
	runtime.ReadMemStats(&m1)
	p.allocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20) / float64(p.reps)
	p.gcCycles = float64(m1.NumGC-m0.NumGC) / float64(p.reps)
	return p
}

// runCell advances one session to the horizon in fixed simulated
// chunks, collects its result and summarizes its power series. It
// returns the time that took; the invariant check between the last
// chunk and Result is not part of it.
func (w *simWorkload) runCell(se *agilepower.Session, sc scope) (*agilepower.Result, float64, time.Duration, error) {
	start := time.Now()
	for at := w.chunk; at <= w.horizon; at += w.chunk {
		id := sc.begin("Session.RunUntil")
		err := se.RunUntil(at)
		sc.end(id)
		if err != nil {
			return nil, 0, time.Since(start), err
		}
	}
	ran := time.Since(start)
	if err := se.CheckInvariants(); err != nil {
		return nil, 0, ran, fmt.Errorf("invariants: %w", err)
	}
	start = time.Now()
	id := sc.begin("Session.Result")
	res := se.Result()
	sc.end(id)
	id = sc.begin("Series.Summarize")
	p95 := res.Power.Summarize().P95
	sc.end(id)
	return res, p95, ran + time.Since(start), nil
}

// checkResult applies the per-cell correctness checks: no failed
// assertion, no stranded VM without a crash to strand it, and a digest
// matching the reference. A crash late in the day legitimately leaves
// its VMs stranded at the horizon (they wait on the host for its
// repair), so with crashes the stranded count is pinned by the digest
// instead.
func checkResult(res *agilepower.Result, cell string, chk *checker) error {
	if res.StrandedVMs != 0 && res.Crashes == 0 {
		return fmt.Errorf("%d stranded VMs without a crash", res.StrandedVMs)
	}
	if res.AssertionFailures != 0 {
		return fmt.Errorf("%d failed assertions", res.AssertionFailures)
	}
	return chk.check(cell, digestResult(res))
}

// render writes the repetition's policy table, as the experiments do.
func (w *simWorkload) render(row []*agilepower.Result, p95 []float64, sc scope) ([]byte, error) {
	id := sc.begin("report.Table")
	defer sc.end(id)
	tbl := report.NewTable(w.name, "policy", "energy_kwh", "satisfaction", "violation_frac",
		"migrations", "sleeps", "wakes", "power_p95_w")
	for i, r := range row {
		if r == nil {
			return nil, fmt.Errorf("cell %s has no result", w.policies[i].Name)
		}
		tbl.AddRow(r.Policy, r.EnergyKWh(), r.Satisfaction, r.ViolationFraction,
			r.Migrations.Completed, r.Sleeps, r.Wakes, p95[i])
	}
	var buf bytes.Buffer
	err := tbl.Write(&buf)
	return buf.Bytes(), err
}

// run measures the workload: w.setups set-ups, then the run
// phase. A traced run first repeats the untraced pass, then runs the
// same number of repetitions with spans recorded.
func (w *simWorkload) run(cfg config) (*outcome, error) {
	o := newOutcome(w.sizes)
	in, err := w.inputs()
	if err != nil {
		return nil, err
	}
	chk := newChecker(w.name, 0, cfg.refs) // inputs do not depend on the seed
	var rec *recorder
	if cfg.trace {
		rec = newRecorder()
	}
	var setupS []float64
	var wd *world
	for i := 0; i < w.setups; i++ {
		wd = nil     // release the previous world before collecting
		runtime.GC() // each set-up starts from the same heap
		start := time.Now()
		wd, err = w.setup(in, scope{rec: rec, op: fmt.Sprintf("setup%d", i)})
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}
	runtime.GC()

	var untraced simPass
	if cfg.trace {
		// The reference pass: same repetitions, no spans.
		untraced = w.runPass(wd, cfg.seconds, 0, nil, chk, o)
		wd, err = w.setup(in, scope{})
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
	}
	pass := w.runPass(wd, cfg.seconds, untraced.reps, rec, chk, o)
	o.digests = chk.seen

	simHours := w.horizon.Hours() * float64(len(w.policies)*pass.reps)
	rate := simHours / pass.wall.Seconds()
	setup := summarize(setupS)
	cells := summarize(pass.cellMs)
	o.human = append(o.human,
		fmt.Sprintf("setup_s            %.4f s  (median of %d set-ups)", setup.Median, setup.N),
		fmt.Sprintf("sim_hours_per_s    %.4f h/s  (%.1f simulated h in %.3f s, %d repetitions)", rate, simHours, pass.wall.Seconds(), pass.reps),
		fmt.Sprintf("cell_ms            p50 %.1f ms, max %.1f ms  (n=%d)", cells.Median, cells.Max, cells.N),
		fmt.Sprintf("references         %d of %d cells checked against a stored digest", chk.referenced(), len(w.policies)))

	if !cfg.trace {
		// The median over cells, not the process's high-water mark: the
		// mark is the largest of a few GC-timed peaks, and it creeps up
		// with each repetition, so it moved with how many repetitions
		// fit in the run (a tenth between runs on drain-burst).
		rss := summarize(pass.cellRSS).Median
		hwm, err := peakRSSMB(os.Getpid())
		if err != nil || rss == 0 {
			return nil, fmt.Errorf("reading resident set: %v (sampled median %g MB)", err, rss)
		}
		o.human = append(o.human, fmt.Sprintf("peak_rss_mb        %.1f MB  (median over %d cells of the resident set's peak while the cell ran, sampled every %v; process high-water mark %.1f MB)",
			rss, len(pass.cellRSS), rssEvery, hwm))
		o.e2e = map[string]float64{
			"setup_s":          setup.Median,
			"throughput_per_s": rate,
			"op_p50_ms":        cells.Median,
			"peak_rss_mb":      rss,
		}
		return o, nil
	}

	spans := rec.snapshot()
	o.spans = spans
	self := selfTimes(spans)
	durs := byName(spans, nil)
	selfs := byName(spans, self)
	chunks := durs["Session.RunUntil"]
	c := pass.counts
	reps := float64(pass.reps)
	runS := sum(chunks) / 1000 / reps
	simMin := w.horizon.Minutes() * float64(len(w.policies))
	l := o.layers
	l["setup.fleet_ms"] = medianOf(selfs["agilepower.HyperscaleFleet"], selfs["agilepower.MixedFleet"])
	l["setup.parse_ms"] = medianOf(selfs["agilepower.ParseScenario"])
	l["setup.prototype_ms"] = medianOf(selfs["Scenario.Prototype"])
	l["setup.fork_ms"] = medianOf(selfs["Prototype.Fork"])
	l["run.session_s"] = runS
	l["run.chunk_ms_p50"] = summarize(chunks).Median
	l["run.chunk_ms_max"] = summarize(chunks).Max
	if c.evalTicks > 0 {
		l["run.us_per_eval"] = runS * 1e6 / float64(c.evalTicks)
		l["cluster.skip_frac"] = c.skipFrac()
	}
	l["cluster.eval_ticks"] = float64(c.evalTicks)
	l["cluster.evals_per_sim_min"] = float64(c.evalTicks) / simMin
	l["cluster.host_evals"] = float64(c.hostEvals)
	l["core.control_steps"] = float64(c.controlSteps)
	l["core.sleeps"] = float64(c.sleeps)
	l["core.wakes"] = float64(c.wakes)
	l["core.fault_reactions"] = float64(c.faultReactions)
	l["migrate.started"] = float64(c.started)
	l["migrate.completed"] = float64(c.completed)
	l["core.move_rejects"] = float64(c.rejects)
	if c.started > 0 {
		l["core.rejects_per_start"] = float64(c.rejects) / float64(c.started)
	}
	l["events.logged"] = float64(c.events)
	l["result.fold_ms"] = mean(selfs["Session.Result"])
	l["telemetry.summarize_ms"] = mean(selfs["Series.Summarize"])
	l["report.render_ms"] = mean(selfs["report.Table"])
	l["go.alloc_mb"] = pass.allocMB
	l["go.gc_cycles"] = pass.gcCycles
	l["trace.overhead_frac"] = pass.wall.Seconds()/untraced.wall.Seconds() - 1
	return o, nil
}

// counts are the deterministic counters of one repetition, summed
// over its cells.
type counts struct {
	evalTicks, hostEvals, hostTicks                     int64
	controlSteps, sleeps, wakes, faultReactions, events int
	started, completed, rejects                         int
}

func (c *counts) add(r *agilepower.Result) {
	c.evalTicks += r.EvalTicks
	c.hostEvals += r.HostEvals
	c.hostTicks += r.EvalTicks * int64(r.Hosts)
	c.controlSteps += r.Manager.ControlSteps
	c.sleeps += r.Sleeps
	c.wakes += r.Wakes
	for _, v := range r.FaultCounters {
		c.faultReactions += v
	}
	c.events += r.Events.Len()
	c.started += r.Migrations.Started
	c.completed += r.Migrations.Completed
	c.rejects += r.Manager.MigrationsFailed
}

// skipFrac is the share of host evaluations the tick skipped.
func (c *counts) skipFrac() float64 {
	if c.hostTicks == 0 {
		return 0
	}
	return 1 - float64(c.hostEvals)/float64(c.hostTicks)
}

// medianOf is the median of the concatenated samples (0 for none).
func medianOf(groups ...[]float64) float64 {
	var all []float64
	for _, g := range groups {
		all = append(all, g...)
	}
	return summarize(all).Median
}

func sum(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s
}
