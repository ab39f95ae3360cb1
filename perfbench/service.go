package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemonBin is the agilepmd binary run.sh builds from the checkout
// under test.
const daemonBin = ".bench_build/agilepmd"

// The service-mix traffic. Requests are POST /v1/runs?wait=1 of one
// fleet size, so the classes differ only in how much of the service
// they reach: a hit stops at the result cache, a fork reuses a pooled
// world prototype, a cold request builds its world.
//
// Shapes, tenants and the hit share are cmd/apiload's defaults (4
// shapes, 8 tenants, every 4th request a miss). Its 25% of misses are
// split here between forks and cold requests, which apiload does not
// tell apart. The request size is a choice: at apiload's 4 hosts × 8
// VMs × 1 h a cold miss, a fork and a hit all cost about 1 ms, so the
// pool and executor paths would not show; at 8 × 32 × 6 h a cold miss
// takes about 5 ms, a fork 2.5 ms and a hit 1.7 ms (README.md).
const (
	svcHosts    = 8
	svcVMs      = 32
	svcHorizonH = 6
	svcShapes   = 4 // fleet seeds warmed up, each a hit target and a fork base
	svcTenants  = 8
	hitShare    = 0.75
	coldShare   = 0.04 // the rest of the misses fork
	// maxColds caps the unseen fleets one daemon lifetime sees, whatever
	// --seconds is: with the warmed-up shapes they stay under the
	// daemon's prototype pool bound (64 worlds, internal/api), which
	// evicts an arbitrary world when full, so every fork finds its world
	// pooled.
	maxColds = 48
	// Both rates sit where the latency curve is still flat (on 2 cores
	// the median held at 2.2 ms up to 450 req/s; the knee is between 600
	// and 800), so the median repeats from run to run; each phase's
	// request count fixes which tail percentile it can report.
	lightRPS     = 50
	heavyRPS     = 150
	lightShare   = 0.3 // of --seconds; heavy takes the rest
	latencyLimit = 500 * time.Millisecond
	// daemonStarts is how many times a run starts the daemon; setup_s
	// is the median start-to-ready time.
	daemonStarts = 15
)

type svcClass string

const (
	classWarm svcClass = "warm"
	classHit  svcClass = "hit"
	classFork svcClass = "fork"
	classCold svcClass = "cold"
)

// runRequest is the subset of the daemon's /v1/runs request the
// benchmark sends.
type runRequest struct {
	Hosts         int     `json:"hosts"`
	VMs           int     `json:"vms"`
	Fleet         string  `json:"fleet"`
	Policy        string  `json:"policy"`
	HorizonHours  float64 `json:"horizonHours"`
	PeriodMinutes float64 `json:"periodMinutes,omitempty"`
	TargetUtil    float64 `json:"targetUtil,omitempty"`
	Seed          uint64  `json:"seed"`
	Tenant        string  `json:"tenant"`
}

// runResult is the part of the daemon's response body the benchmark
// checks.
type runResult struct {
	Policy       string  `json:"policy"`
	Hosts        int     `json:"hosts"`
	VMs          int     `json:"vms"`
	EnergyKWh    float64 `json:"energyKWh"`
	Satisfaction float64 `json:"satisfaction"`
}

// svcReq is one scheduled request.
type svcReq struct {
	class  svcClass
	shape  int           // warm-up shape a hit repeats
	due    time.Duration // from the phase start
	policy string
	cell   string // reference key of a warm-up, fork or cold response
	body   []byte
}

// svcSample is one request's outcome.
type svcSample struct {
	req                   *svcReq
	due, dispatched, done time.Time
	sent                  time.Time
	status                int
	xcache, jobID         string
	body                  []byte
	err                   error
	ok                    bool // passed checkSample
}

func (s *svcSample) latency() time.Duration { return s.done.Sub(s.due) }

type serviceWorkload struct{}

var serviceMix = serviceWorkload{}

// svcPlan is the seeded schedule: warm-up requests and the two phases.
type svcPlan struct {
	warm, light, heavy []*svcReq
}

var policyNames = []string{"static", "nopm-drm", "dpm-s5", "dpm-s3"}

func newPlan(seed uint64, seconds float64) svcPlan {
	rng := rand.New(rand.NewPCG(seed, 0x5eed))
	var p svcPlan
	shapeSeed := func(shape int) uint64 { return seed*100 + uint64(shape) }
	tenant := func() string { return "tenant-" + strconv.Itoa(rng.IntN(svcTenants)) }
	mk := func(r runRequest) []byte {
		b, err := json.Marshal(r)
		if err != nil {
			panic(err) // a fixed struct of numbers and strings always marshals
		}
		return b
	}
	base := func(shape int) runRequest {
		return runRequest{Hosts: svcHosts, VMs: svcVMs, Fleet: "mixed", Policy: "dpm-s3",
			HorizonHours: svcHorizonH, Seed: shapeSeed(shape), Tenant: "tenant-0"}
	}
	for j := 0; j < svcShapes; j++ {
		p.warm = append(p.warm, &svcReq{class: classWarm, shape: j, policy: "dpm-s3",
			cell: "warm" + strconv.Itoa(j), body: mk(base(j))})
	}
	// Fork and cold responses are checked against references recorded
	// for one --seconds; the plan, and so the n-th fork, depends on it.
	cellPrefix := "s" + strconv.Itoa(int(seconds)) + "-"
	forks, colds := 0, 0
	phase := func(rps float64, dur time.Duration) []*svcReq {
		n := int(rps * dur.Seconds())
		// Exact class counts in seeded order: the seed moves which
		// request comes when, not how much work the phase holds.
		nHit := int(hitShare * float64(n))
		nCold := min(int(coldShare*float64(n)), maxColds-colds)
		classes := make([]svcClass, n)
		for i := range classes {
			switch {
			case i < nHit:
				classes[i] = classHit
			case i < nHit+nCold:
				classes[i] = classCold
			default:
				classes[i] = classFork
			}
		}
		rng.Shuffle(n, func(i, j int) { classes[i], classes[j] = classes[j], classes[i] })
		out := make([]*svcReq, n)
		for i := range out {
			r := &svcReq{due: time.Duration(float64(i) / rps * float64(time.Second)), class: classes[i]}
			req := base(rng.IntN(svcShapes))
			r.shape = int(req.Seed - shapeSeed(0))
			req.Tenant = tenant()
			switch r.class {
			case classHit:
			case classFork:
				// A seen fleet with a manager setting no request used
				// before: misses the result cache, forks a pooled world.
				forks++
				r.cell = cellPrefix + "fork" + strconv.Itoa(forks)
				req.Policy = policyNames[rng.IntN(len(policyNames))]
				req.PeriodMinutes = float64(4 + rng.IntN(3))
				req.TargetUtil = 0.55 + 0.0001*float64(forks)
			case classCold:
				colds++
				r.cell = cellPrefix + "cold" + strconv.Itoa(colds)
				req.Seed = 1_000_000 + seed*10_000 + uint64(colds)
			}
			r.policy = req.Policy
			r.body = mk(req)
			out[i] = r
		}
		return out
	}
	lightDur := time.Duration(seconds * lightShare * float64(time.Second))
	p.light = phase(lightRPS, lightDur)
	p.heavy = phase(heavyRPS, time.Duration(seconds*float64(time.Second))-lightDur)
	return p
}

// daemon is one agilepmd process.
type daemon struct {
	cmd  *exec.Cmd
	base string
}

// startDaemon starts agilepmd with its default flags on a free
// loopback port and waits for /healthz; it returns the time that took.
func startDaemon() (*daemon, time.Duration, error) {
	if _, err := os.Stat(daemonBin); err != nil {
		return nil, 0, fmt.Errorf("daemon binary: %w (run through run.sh, which builds it)", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	addr := ln.Addr().String()
	if err := ln.Close(); err != nil {
		return nil, 0, err
	}
	cmd := exec.Command(daemonBin, "-addr", addr)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	d := &daemon{cmd: cmd, base: "http://" + addr}
	client := &http.Client{Timeout: time.Second}
	for time.Since(start) < 30*time.Second {
		resp, err := client.Get(d.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(start), nil
			}
		}
		time.Sleep(100 * time.Microsecond)
	}
	d.stop()
	return nil, 0, errors.New("daemon not healthy after 30s")
}

// stop asks the daemon to drain and waits for it to exit, killing it
// if it does not within the grace period.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		_ = d.cmd.Wait() // a SIGTERM exit status is expected
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		_ = d.cmd.Process.Kill()
		<-done
	}
}

// drive sends reqs in an open loop from start: each is dispatched at
// its due time to one of conns keep-alive connections, whether or not
// earlier requests have finished, and is timed from its due time.
func drive(client *http.Client, base string, reqs []*svcReq, conns int, start time.Time) []svcSample {
	samples := make([]svcSample, len(reqs))
	next := make(chan int, len(reqs)) // sized to the schedule: the dispatcher never blocks
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				s := &samples[i]
				s.sent = time.Now()
				s.status, s.xcache, s.jobID, s.body, s.err = post(client, base, reqs[i].body)
				s.done = time.Now()
			}
		}()
	}
	for i, r := range reqs {
		due := start.Add(r.due)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		samples[i].req, samples[i].due, samples[i].dispatched = r, due, time.Now()
		next <- i
	}
	close(next)
	wg.Wait()
	return samples
}

func post(client *http.Client, base string, body []byte) (int, string, string, []byte, error) {
	resp, err := client.Post(base+"/v1/runs?wait=1", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, "", "", nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header.Get("X-Cache"), resp.Header.Get("X-Job-Id"), b, err
}

// checkSample validates one response: 200, and a body that is either
// byte-identical to the warm-up body it repeats (hits) or a result for
// the requested fleet and policy. Warm-up, fork and cold bodies are
// compared with their references by checkPhase and runPass as well.
func checkSample(s *svcSample, warm [][]byte) error {
	if s.err != nil {
		return s.err
	}
	if s.status != http.StatusOK {
		return fmt.Errorf("status %d: %s", s.status, strings.TrimSpace(string(s.body)))
	}
	if s.req.class == classHit {
		if !bytes.Equal(s.body, warm[s.req.shape]) {
			return fmt.Errorf("hit body differs from the warm-up body of shape %d", s.req.shape)
		}
		return nil
	}
	var r runResult
	if err := json.Unmarshal(s.body, &r); err != nil {
		return fmt.Errorf("decoding body: %w", err)
	}
	if r.Policy != s.req.policy || r.Hosts != svcHosts || r.VMs != svcVMs ||
		!(r.EnergyKWh > 0) || !(r.Satisfaction > 0 && r.Satisfaction <= 1) {
		return fmt.Errorf("implausible result %s", s.body)
	}
	return nil
}

// checkPhase counts every sample as an attempted operation and each
// one failing checkSample, or whose fork or cold body differs from its
// reference, as a failed one.
func checkPhase(samples []svcSample, warm [][]byte, chk *checker, o *outcome) {
	for i := range samples {
		s := &samples[i]
		o.attempted++
		err := checkSample(s, warm)
		if err == nil && s.req.cell != "" {
			err = chk.check(s.req.cell, digestBytes(s.body))
		}
		if err != nil {
			o.fail("%s request: %v", s.req.class, err)
			continue
		}
		s.ok = true
	}
}

// lateness is how late the generator dispatched each request after its
// due time, in ms: the validity check on latencies timed from due.
func lateness(phases ...[]svcSample) []float64 {
	var out []float64
	for _, ph := range phases {
		for _, s := range ph {
			out = append(out, ms(s.dispatched.Sub(s.due)))
		}
	}
	return out
}

// svcPass is one daemon lifetime: warm-up, light phase, heavy phase.
type svcPass struct {
	light, heavy []svcSample
	heavyWall    time.Duration
	cpuSeconds   float64 // daemon CPU time over the two phases
	rssMB        float64
	metrics      map[string]float64 // /metrics delta over the phases (traced)
	runWall      map[string]float64 // job ID → wallSeconds (traced)
}

// runPass drives one fresh-started daemon d through the plan.
func (serviceWorkload) runPass(d *daemon, plan svcPlan, traced bool, chk *checker, o *outcome) (svcPass, error) {
	var p svcPass
	conns := runtime.NumCPU()
	client := &http.Client{
		Timeout: time.Minute,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
	defer client.CloseIdleConnections()
	warm := make([][]byte, len(plan.warm))
	for j, r := range plan.warm {
		o.attempted++
		st, xc, _, body, err := post(client, d.base, r.body)
		s := svcSample{req: r, status: st, xcache: xc, body: body, err: err}
		if err := checkSample(&s, nil); err != nil {
			o.fail("warm-up %d: %v", j, err)
			continue
		}
		if xc != "miss" {
			o.fail("warm-up %d: X-Cache %q on a fresh daemon", j, xc)
		}
		if err := chk.check(r.cell, digestBytes(body)); err != nil {
			o.fail("warm-up %d: %v", j, err)
		}
		warm[j] = body
	}
	var before map[string]float64
	if traced {
		var err error
		if before, err = scrape(client, d.base); err != nil {
			return p, err
		}
	}
	cpuBefore, err := cpuSeconds(d.cmd.Process.Pid)
	if err != nil {
		return p, fmt.Errorf("reading daemon CPU time: %w", err)
	}
	p.light = drive(client, d.base, plan.light, conns, time.Now())
	heavyStart := time.Now()
	p.heavy = drive(client, d.base, plan.heavy, conns, heavyStart)
	p.heavyWall = time.Since(heavyStart)
	cpuAfter, err := cpuSeconds(d.cmd.Process.Pid)
	if err != nil {
		return p, fmt.Errorf("reading daemon CPU time: %w", err)
	}
	p.cpuSeconds = cpuAfter - cpuBefore
	checkPhase(p.light, warm, chk, o)
	checkPhase(p.heavy, warm, chk, o)
	rss, err := peakRSSMB(d.cmd.Process.Pid)
	if err != nil {
		return p, fmt.Errorf("reading daemon peak RSS: %w", err)
	}
	p.rssMB = rss
	if traced {
		after, err := scrape(client, d.base)
		if err != nil {
			return p, err
		}
		p.metrics = map[string]float64{}
		for k, v := range after {
			p.metrics[k] = v - before[k]
		}
		p.runWall = map[string]float64{}
		for _, phase := range [][]svcSample{p.light, p.heavy} {
			for _, s := range phase {
				if s.xcache == "miss" && s.jobID != "" {
					w, err := jobWall(client, d.base, s.jobID)
					if err != nil {
						return p, err
					}
					p.runWall[s.jobID] = w
				}
			}
		}
	}
	return p, nil
}

// scrape reads the daemon's unlabelled /metrics series.
func scrape(client *http.Client, base string) (map[string]float64, error) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") || strings.Contains(line, "{") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("/metrics line %q: %w", line, err)
		}
		out[name] = v
	}
	return out, sc.Err()
}

// jobWall reads a finished job's executor wall time.
func jobWall(client *http.Client, base, id string) (float64, error) {
	resp, err := client.Get(base + "/v1/jobs/" + id)
	if err != nil {
		return 0, fmt.Errorf("job %s: %w", id, err)
	}
	defer resp.Body.Close()
	var st struct {
		WallSeconds float64 `json:"wallSeconds"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return 0, fmt.Errorf("job %s: %w", id, err)
	}
	return st.WallSeconds, nil
}

// latencies returns the samples' latencies in ms, optionally only
// those of one class.
func latencies(samples []svcSample, class svcClass) []float64 {
	var out []float64
	for _, s := range samples {
		if class == "" || s.req.class == class {
			out = append(out, ms(s.latency()))
		}
	}
	return out
}

// served counts the requests that passed their checks.
func served(phases ...[]svcSample) int {
	n := 0
	for _, ph := range phases {
		for i := range ph {
			if ph[i].ok {
				n++
			}
		}
	}
	return n
}

// goodput counts requests that passed their checks within
// latencyLimit, per second of phase wall time.
func goodput(samples []svcSample, wall time.Duration) float64 {
	good := 0
	for i := range samples {
		if samples[i].ok && samples[i].latency() <= latencyLimit {
			good++
		}
	}
	return float64(good) / wall.Seconds()
}

func (w serviceWorkload) run(cfg config) (*outcome, error) {
	plan := newPlan(cfg.seed, cfg.seconds)
	o := newOutcome(map[string]int{
		"hosts": svcHosts, "vms": svcVMs, "horizonH": svcHorizonH, "shapes": svcShapes,
		"tenants": svcTenants, "maxColds": maxColds, "lightRPS": lightRPS, "heavyRPS": heavyRPS,
		"lightRequests": len(plan.light), "heavyRequests": len(plan.heavy),
		"connections": runtime.NumCPU(),
	})
	chk := newChecker("service-mix", cfg.seed, cfg.refs)
	var readyMs []float64
	var d *daemon
	for i := 0; i < daemonStarts; i++ {
		if d != nil {
			d.stop()
		}
		var ready time.Duration
		var err error
		if d, ready, err = startDaemon(); err != nil {
			return nil, err
		}
		readyMs = append(readyMs, ms(ready))
	}
	pass, err := w.runPass(d, plan, false, chk, o)
	d.stop()
	if err != nil {
		return nil, err
	}
	o.digests = chk.seen
	heavy := summarize(latencies(pass.heavy, ""))
	light := summarize(latencies(pass.light, ""))
	good := goodput(pass.heavy, pass.heavyWall)
	lags := lateness(pass.light, pass.heavy)
	setup := summarize(readyMs)
	perCPU := ratio(float64(served(pass.light, pass.heavy)), pass.cpuSeconds)
	o.human = append(o.human,
		fmt.Sprintf("setup_s            %.4f s  (median daemon start to /healthz 200, %d starts)", setup.Median/1000, setup.N),
		fmt.Sprintf("req_per_cpu_s      %.1f 1/s  (requests served per daemon CPU second, %.2f s CPU)", perCPU, pass.cpuSeconds),
		fmt.Sprintf("peak_rss_mb        %.1f MB  (daemon)", pass.rssMB),
		latLine("light", light), latLine("heavy", heavy),
		fmt.Sprintf("goodput_rps.heavy  %.2f 1/s  (within %v; offered %d 1/s)", good, latencyLimit, heavyRPS),
		fmt.Sprintf("loadgen lag        p99 %.3f ms", percentile(lags, 99)))
	if !cfg.trace {
		o.e2e = map[string]float64{
			"setup_s":          setup.Median / 1000,
			"throughput_per_s": perCPU,
			"op_p50_ms":        heavy.Median,
			"peak_rss_mb":      pass.rssMB,
		}
		return o, nil
	}

	rec := newRecorder()
	td, ready, err := startDaemon()
	if err != nil {
		return nil, err
	}
	readyMs = append(readyMs, ms(ready))
	tp, err := w.runPass(td, plan, true, chk, o)
	td.stop()
	if err != nil {
		return nil, err
	}
	recordSpans(rec, tp)
	o.spans = rec.snapshot()
	l := o.layers
	l["svc.ready_ms"] = summarize(readyMs).Median
	l["lat_p50_ms.light"], l["lat_tail_ms.light"] = light.Median, light.Tail
	l["lat_p50_ms.heavy"], l["lat_tail_ms.heavy"] = heavy.Median, heavy.Tail
	l["goodput_rps.heavy"] = good
	l["loadgen.lag_ms_p99"] = percentile(lags, 99)
	all := append(append([]svcSample(nil), tp.light...), tp.heavy...)
	hits := summarize(latencies(all, classHit))
	l["svc.hit_ms_p50"], l["svc.hit_ms_tail"] = hits.Median, hits.Tail
	l["svc.fork_ms_p50"] = summarize(latencies(all, classFork)).Median
	l["svc.cold_ms_p50"] = summarize(latencies(all, classCold)).Median
	var outside []float64
	for _, s := range all {
		if w, ok := tp.runWall[s.jobID]; ok {
			outside = append(outside, ms(s.latency())-w*1000)
		}
	}
	l["svc.outside_run_ms_p50"] = summarize(outside).Median
	m := tp.metrics
	l["jobs.run_ms_mean"] = ratio(m["agilepower_run_wall_seconds_sum"]*1000, m["agilepower_run_wall_seconds_count"])
	l["jobs.handler_ms_mean"] = ratio(m["agilepower_wait_request_seconds_sum"]*1000, m["agilepower_wait_request_seconds_count"])
	l["jobs.rejected"] = m["agilepower_jobs_rejected_total"]
	l["rescache.hit_frac"] = ratio(m["agilepower_cache_hits_total"], m["agilepower_cache_hits_total"]+m["agilepower_cache_misses_total"])
	l["rescache.evictions"] = m["agilepower_cache_evictions_total"]
	tHeavy := summarize(latencies(tp.heavy, ""))
	l["trace.overhead_frac"] = tHeavy.Median/heavy.Median - 1
	return o, nil
}

// recordSpans turns a traced pass's samples into spans: a root span
// per request from its due time, with the HTTP exchange as its child,
// so the root's self time is the wait for a free connection.
func recordSpans(rec *recorder, p svcPass) {
	for pi, phase := range [][]svcSample{p.light, p.heavy} {
		for i, s := range phase {
			op := fmt.Sprintf("p%d-r%d-%s", pi, i, s.req.class)
			root := rec.add("request", op, 0, s.due, s.done)
			rec.add("POST /v1/runs", op, root, s.sent, s.done)
		}
	}
}

func latLine(phase string, d dist) string {
	tail := "no tail: too few samples"
	if d.TailP > 0 {
		tail = fmt.Sprintf("p%g %.2f ms, %d samples beyond", d.TailP, d.Tail, d.Beyond)
	}
	return fmt.Sprintf("lat_ms.%-11s p50 %.2f ms, %s  (n=%d, timed from due time)", phase, d.Median, tail, d.N)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
