// The async simulation service: the v1 HTTP surface over the job
// queue, the content-addressed result cache, the shared-world
// prototype cache, streaming progress, and the Prometheus metrics
// endpoint — plus the pieces live sessions share with it: the prepare
// step that admits a run request, the world pool, and the canonical
// result encoder.
package api

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"agilepower"
	"agilepower/internal/apimetrics"
	"agilepower/internal/jobs"
	"agilepower/internal/rescache"
)

// RunResult is the canonical terminal payload of an async run: the
// run summary with no server-assigned fields (no job ID, no cached
// flag), so a cache hit's bytes are identical to the cold run that
// populated it. Whether a response came from the cache travels out of
// band (the X-Cache header and the job's cached flag).
type RunResult struct {
	Name     string  `json:"name"`
	Policy   string  `json:"policy"`
	Hosts    int     `json:"hosts"`
	VMs      int     `json:"vms"`
	HorizonH float64 `json:"horizonHours"`

	EnergyKWh         float64 `json:"energyKWh"`
	MeanPowerW        float64 `json:"meanPowerW"`
	PeakPowerW        float64 `json:"peakPowerW"`
	Satisfaction      float64 `json:"satisfaction"`
	ViolationFraction float64 `json:"violationFraction"`
	Migrations        int     `json:"migrations"`
	Sleeps            int     `json:"sleeps"`
	Wakes             int     `json:"wakes"`
	OracleKWh         float64 `json:"oracleKWh,omitempty"`

	ChurnArrived     int     `json:"churnArrived,omitempty"`
	ChurnPlaced      int     `json:"churnPlaced,omitempty"`
	ProvisionP95Secs float64 `json:"provisionP95Secs,omitempty"`

	SuspendFailures   int `json:"suspendFailures,omitempty"`
	WakeFailures      int `json:"wakeFailures,omitempty"`
	Crashes           int `json:"crashes,omitempty"`
	AssertionFailures int `json:"assertionFailures,omitempty"`
}

// summarize builds the canonical RunResult of a finished run: the one
// place a result payload is assembled, shared by job execution and
// session finalize, so both produce the same bytes for the same run.
// vms is the scenario's initial fleet size.
func summarize(name string, vms int, res *agilepower.Result) RunResult {
	out := RunResult{
		Name:              name,
		Policy:            res.Policy,
		Hosts:             res.Hosts,
		VMs:               vms,
		HorizonH:          res.Horizon.Hours(),
		EnergyKWh:         res.EnergyKWh(),
		MeanPowerW:        res.MeanPowerW,
		PeakPowerW:        res.PeakPowerW,
		Satisfaction:      res.Satisfaction,
		ViolationFraction: res.ViolationFraction,
		Migrations:        res.Migrations.Completed,
		Sleeps:            res.Sleeps,
		Wakes:             res.Wakes,
		ChurnArrived:      res.Churn.Arrived,
		ChurnPlaced:       res.Churn.Placed,
		ProvisionP95Secs:  res.Churn.ProvisionP95.Seconds(),
		SuspendFailures:   res.SuspendFailures,
		WakeFailures:      res.WakeFailures,
		Crashes:           res.Crashes,
		AssertionFailures: res.AssertionFailures,
	}
	if oracle, err := res.OracleEnergy(); err == nil {
		out.OracleKWh = oracle.KWh()
	}
	return out
}

// ProgressEvent is one streamed progress sample (an SSE "progress"
// event), the wire form of agilepower.Progress.
type ProgressEvent struct {
	AtHours        float64 `json:"atHours"`
	PowerW         float64 `json:"powerW"`
	DemandCores    float64 `json:"demandCores"`
	DeliveredCores float64 `json:"deliveredCores"`
	ActiveHosts    int     `json:"activeHosts"`
	StrandedVMs    int     `json:"strandedVMs,omitempty"`
	PendingVMs     int     `json:"pendingVMs,omitempty"`
}

// SubmitResponse acknowledges an async submission (202).
type SubmitResponse struct {
	Job       jobs.Status `json:"job"`
	StatusURL string      `json:"statusUrl"`
	ResultURL string      `json:"resultUrl"`
	StreamURL string      `json:"streamUrl"`
}

// runPayload is an admitted run: the scenario to execute, its
// result-cache key, and (for run requests) the world fingerprint that
// lets repeated fleet shapes fork a shared prototype. It is the job
// payload and the input of a live session's start.
type runPayload struct {
	key      string
	worldKey string // "" = always run cold (scenario-file jobs)
	sc       agilepower.Scenario
}

// protoEntry is one cached world: the base scenario that owns the VM
// slice and profile pointer (Prototype.Fork requires pointer
// identity, not just equal specs) plus the built prototype. The
// sync.Once makes the first job for a shape pay construction while
// concurrent jobs for the same shape wait instead of duplicating it.
// lastUse is the pool's use counter at the entry's latest lookup
// (guarded by Server.protoMu), the key for least-recently-used
// eviction.
type protoEntry struct {
	once    sync.Once
	sc      agilepower.Scenario
	proto   *agilepower.Prototype
	err     error
	lastUse uint64
}

// protoCacheMax bounds distinct cached world shapes; each entry holds
// a full host fleet and VM traces, so the map cannot grow with every
// novel request forever.
const protoCacheMax = 64

// instruments is the server's direct-write metric set (callback
// instruments read the queue and cache at scrape time and need no
// fields here).
type instruments struct {
	start   time.Time
	runWall *apimetrics.Histogram
	waitReq *apimetrics.Histogram
}

// registerMetrics wires the /metrics instruments to the queue, the
// cache, and the executor.
func (s *Server) registerMetrics() {
	m := s.metrics
	s.im.start = time.Now()
	m.Gauge("agilepower_jobs_queued", "Jobs waiting in the queue.", func() float64 {
		queued, _ := s.queue.Depth()
		return float64(queued)
	})
	m.Gauge("agilepower_jobs_running", "Jobs currently executing.", func() float64 {
		_, running := s.queue.Depth()
		return float64(running)
	})
	m.CounterFunc("agilepower_jobs_submitted_total", "Jobs accepted for execution.", func() uint64 {
		return s.queue.Counters().Submitted
	})
	m.CounterFunc("agilepower_jobs_completed_total", "Jobs that reached done (including cache hits).", func() uint64 {
		return s.queue.Counters().Completed
	})
	m.CounterFunc("agilepower_jobs_failed_total", "Jobs that failed.", func() uint64 {
		return s.queue.Counters().Failed
	})
	m.CounterFunc("agilepower_jobs_cancelled_total", "Jobs cancelled before or during execution.", func() uint64 {
		return s.queue.Counters().Cancelled
	})
	m.CounterFunc("agilepower_jobs_rejected_total", "Submissions rejected by backpressure or draining.", func() uint64 {
		return s.queue.Counters().Rejected
	})
	m.Gauge("agilepower_runs_per_second", "Mean completed runs per second since start.", func() float64 {
		secs := time.Since(s.im.start).Seconds()
		if secs <= 0 {
			return 0
		}
		return float64(s.queue.Counters().Completed) / secs
	})
	m.CounterFunc("agilepower_cache_hits_total", "Result-cache hits.", func() uint64 {
		return s.cache.Stats().Hits
	})
	m.CounterFunc("agilepower_cache_misses_total", "Result-cache misses.", func() uint64 {
		return s.cache.Stats().Misses
	})
	m.CounterFunc("agilepower_cache_evictions_total", "Result-cache LRU evictions.", func() uint64 {
		return s.cache.Stats().Evictions
	})
	m.Gauge("agilepower_cache_hit_ratio", "Result-cache hits / lookups (0 before any lookup).", func() float64 {
		return s.cache.Stats().HitRate()
	})
	m.Gauge("agilepower_cache_bytes", "Result-cache resident bytes.", func() float64 {
		return float64(s.cache.Stats().Bytes)
	})
	m.Gauge("agilepower_cache_entries", "Result-cache resident entries.", func() float64 {
		return float64(s.cache.Stats().Entries)
	})
	s.im.runWall = m.Histogram("agilepower_run_wall_seconds",
		"Wall-clock seconds per executed simulation (cache hits excluded).", nil)
	s.im.waitReq = m.Histogram("agilepower_wait_request_seconds",
		"Handler seconds for POST /v1/runs?wait=1, hits and misses together.", nil)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.metrics.WritePrometheus(w)
}

// canonicalRunRequest returns the request's canonical bytes for
// content addressing: the decoded struct re-marshalled (deterministic
// field order), with the tenant cleared — results are a pure function
// of the scenario, so tenants submitting identical runs share cache
// entries — and a format tag so run-request keys can never collide
// with scenario-file keys.
func canonicalRunRequest(req RunRequest) ([]byte, error) {
	req.Tenant = ""
	data, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	return append([]byte("run:"), data...), nil
}

// worldFingerprint hashes the world-defining request fields — the
// cell knobs Prototype.Fork lets vary (name, policy, manager tuning,
// churn, tenant) are cleared — keying the prototype cache so repeated
// fleet shapes skip world construction. Seed stays in: the fleet
// builders consume it, so different seeds are different worlds.
func worldFingerprint(req RunRequest) (string, error) {
	req.Name = ""
	req.Policy = ""
	req.PeriodMinutes = 0
	req.TargetUtil = 0
	req.SpareHosts = 0
	req.PredictiveWake = false
	req.Churn = nil
	req.Tenant = ""
	data, err := json.Marshal(req)
	if err != nil {
		return "", err
	}
	return rescache.Key(agilepower.CodeVersion, append([]byte("world:"), data...)), nil
}

// protoFor returns the cached world entry for a fingerprint, creating
// it if needed. The pool is bounded — it holds entire fleets and must
// not grow with every novel shape — so a full pool evicts its least
// recently used entry, and a hot shape keeps its world however many
// one-off shapes pass through.
func (s *Server) protoFor(worldKey string) *protoEntry {
	s.protoMu.Lock()
	defer s.protoMu.Unlock()
	s.protoUses++
	if e, ok := s.protos[worldKey]; ok {
		e.lastUse = s.protoUses
		return e
	}
	if len(s.protos) >= protoCacheMax {
		// Use counts are unique, so the minimum is one entry whatever
		// order the map iterates in.
		oldest, oldestUse := "", s.protoUses
		for k, e := range s.protos {
			if e.lastUse < oldestUse {
				oldest, oldestUse = k, e.lastUse
			}
		}
		delete(s.protos, oldest)
	}
	e := &protoEntry{lastUse: s.protoUses}
	s.protos[worldKey] = e
	return e
}

// startSession builds the run's session, for a job or a live session
// alike: a fork of the shared world prototype when the payload carries
// a world fingerprint, a Start of its own world otherwise (scenario
// files). Forked and started runs are byte-identical (the determinism
// gate pins it); forking just skips host construction and initial
// placement for repeated fleet shapes.
func (s *Server) startSession(p *runPayload) (*agilepower.Session, error) {
	if p.worldKey == "" {
		return p.sc.Start()
	}
	e := s.protoFor(p.worldKey)
	e.once.Do(func() {
		// The pooled world is built from the world fields alone: the
		// cell knobs of whichever run arrives first (churn here) must
		// not decide whether the world builds for every later one.
		base := p.sc
		base.Churn = nil
		e.sc = base
		e.proto, e.err = base.Prototype()
	})
	if e.err != nil {
		return nil, e.err
	}
	// Overlay the cell knobs on the entry's base scenario so the world
	// fields keep pointer identity with the prototype (Fork requires
	// the same VMs slice and profile pointer, not merely equal specs).
	cell := e.sc
	cell.Name = p.sc.Name
	cell.Manager = p.sc.Manager
	cell.Churn = p.sc.Churn
	return e.proto.Fork(cell)
}

// runJob is the queue's Runner: execute the payload's scenario in
// chunks of simulated time (checking for cancellation between
// chunks), publish throttled progress to subscribers, encode the
// canonical result, and populate the result cache.
func (s *Server) runJob(ctx context.Context, j *jobs.Job) ([]byte, error) {
	p, ok := j.Payload().(*runPayload)
	if !ok {
		return nil, fmt.Errorf("api: job %s has no run payload", j.ID())
	}
	started := time.Now()
	se, err := s.startSession(p)
	if err != nil {
		return nil, err
	}
	// Progress: observers run on this goroutine (inside RunUntil), so
	// lastEmit needs no lock. Emit at most one event per ProgressEvery
	// of simulated time; the terminal result is delivered via Done and
	// cannot be missed.
	lastEmit := -s.cfg.ProgressEvery
	se.OnProgress(func(pr agilepower.Progress) {
		if pr.At-lastEmit < s.cfg.ProgressEvery {
			return
		}
		lastEmit = pr.At
		j.Publish(ProgressEvent{
			AtHours:        pr.At.Hours(),
			PowerW:         pr.PowerW,
			DemandCores:    pr.DemandCores,
			DeliveredCores: pr.DeliveredCores,
			ActiveHosts:    pr.ActiveHosts,
			StrandedVMs:    pr.StrandedVMs,
			PendingVMs:     pr.PendingVMs,
		})
	})
	horizon := p.sc.Horizon
	if horizon <= 0 {
		horizon = 24 * time.Hour
	}
	for now := time.Duration(0); now < horizon; {
		if ctx.Err() != nil {
			se.Result() // retire the session's workers before abandoning it
			return nil, ctx.Err()
		}
		now += s.cfg.RunChunk
		if now > horizon {
			now = horizon
		}
		if err := se.RunUntil(now); err != nil {
			return nil, err
		}
	}
	body, err := json.Marshal(summarize(p.sc.Name, len(p.sc.VMs), se.Result()))
	if err != nil {
		return nil, err
	}
	s.cache.Put(p.key, body)
	s.im.runWall.Observe(time.Since(started).Seconds())
	return body, nil
}

// submitError maps queue submission errors to HTTP status codes.
func submitError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, jobs.ErrDraining):
		writeError(w, http.StatusServiceUnavailable, "server draining")
	case errors.Is(err, jobs.ErrQueueFull), errors.Is(err, jobs.ErrTenantFull):
		writeError(w, http.StatusTooManyRequests, "%v", err)
	default:
		writeError(w, http.StatusInternalServerError, "%v", err)
	}
}

func jobURLs(j *jobs.Job) SubmitResponse {
	base := "/v1/jobs/" + j.ID()
	return SubmitResponse{
		Job:       j.Snapshot(),
		StatusURL: base,
		ResultURL: base + "/result",
		StreamURL: base + "/stream",
	}
}

// writeAccepted emits the 202 acknowledgement for an async
// submission.
func writeAccepted(w http.ResponseWriter, j *jobs.Job) {
	resp := jobURLs(j)
	w.Header().Set("Location", resp.StatusURL)
	writeJSON(w, http.StatusAccepted, resp)
}

// writeResult emits a terminal run result with its cache disposition.
func writeResult(w http.ResponseWriter, body []byte, hit bool, jobID string) {
	if hit {
		w.Header().Set("X-Cache", "hit")
	} else {
		w.Header().Set("X-Cache", "miss")
	}
	if jobID != "" {
		w.Header().Set("X-Job-Id", jobID)
	}
	writeRaw(w, http.StatusOK, body)
}

// submitCommon runs the shared async-submission tail: cache lookup,
// enqueue (or cache-hit fast path), and the wait=1 blocking mode.
func (s *Server) submitCommon(w http.ResponseWriter, r *http.Request, tenant string, p *runPayload) {
	began := time.Now()
	wait := r.URL.Query().Get("wait") == "1" || r.URL.Query().Get("wait") == "true"
	if body, ok := s.cache.Get(p.key); ok {
		// Cache hit: no simulation, no queue wait — the job is born
		// terminal for bookkeeping and the bytes are served as stored
		// (identical to the cold response that populated them).
		j, err := s.queue.SubmitCompleted(tenant, nil, body)
		if err != nil {
			submitError(w, err)
			return
		}
		if wait {
			writeResult(w, body, true, j.ID())
			s.im.waitReq.Observe(time.Since(began).Seconds())
			return
		}
		writeAccepted(w, j)
		return
	}
	j, err := s.queue.Submit(tenant, p)
	if err != nil {
		submitError(w, err)
		return
	}
	if !wait {
		writeAccepted(w, j)
		return
	}
	select {
	case <-r.Context().Done():
		// The client went away; the job keeps running (its result still
		// populates the cache for the retry).
		return
	case <-j.Done():
	}
	body, errMsg := j.Result()
	switch j.State() {
	case jobs.Done:
		writeResult(w, body, j.Cached(), j.ID())
		s.im.waitReq.Observe(time.Since(began).Seconds())
	case jobs.Cancelled:
		writeError(w, http.StatusConflict, "job %s cancelled", j.ID())
	default:
		writeError(w, http.StatusUnprocessableEntity, "run failed: %s", errMsg)
	}
}

// prepareRun is the one admission step of every run-request route
// (POST /v1/runs and POST /api/sessions): strict decode, the admission
// budget, scenario validation, and the request's cache key and world
// fingerprint. On failure it has already written the 400 (or 413).
func (s *Server) prepareRun(w http.ResponseWriter, r *http.Request) (p *runPayload, tenant string, ok bool) {
	var req RunRequest
	if !decodeBody(w, r, &req) {
		return nil, "", false
	}
	req.RetiredEvalWorkers = 0
	sc, err := s.buildScenario(req)
	if err == nil {
		err = sc.Validate()
	}
	var canonical []byte
	if err == nil {
		canonical, err = canonicalRunRequest(req)
	}
	var worldKey string
	if err == nil {
		worldKey, err = worldFingerprint(req)
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return nil, "", false
	}
	return &runPayload{key: rescache.Key(agilepower.CodeVersion, canonical), worldKey: worldKey, sc: sc}, req.Tenant, true
}

// handleSubmitRun is POST /v1/runs: the async (202 + job ID) form of
// run submission, with ?wait=1 to block for the terminal result.
func (s *Server) handleSubmitRun(w http.ResponseWriter, r *http.Request) {
	if p, tenant, ok := s.prepareRun(w, r); ok {
		s.submitCommon(w, r, tenant, p)
	}
}

// handleSubmitScenario is POST /v1/scenarios: submit a full scenario
// file (fleets, events, assertions, chaos — the format cmd/scenario
// and `agilepm -config` load) as an async job. The tenant comes from
// the X-Tenant header or ?tenant= (the file format has no tenant
// field). Scenario-file jobs always run cold — their worlds vary too
// much to pool — but their results are cached like any other.
func (s *Server) handleSubmitScenario(w http.ResponseWriter, r *http.Request) {
	// Decode the file form first (strictly, mirroring ParseScenario) so
	// the canonical bytes and admission counts come from the decoded
	// struct, not the client's formatting.
	var f agilepower.ScenarioFile
	if !decodeBody(w, r, &f) {
		return
	}
	if hosts := f.TotalHosts(); hosts <= 0 || hosts > s.cfg.MaxHosts {
		writeError(w, http.StatusBadRequest, "hosts must be in [1, %d]", s.cfg.MaxHosts)
		return
	}
	if vms := f.TotalVMs(); vms <= 0 || vms > s.cfg.MaxVMs {
		writeError(w, http.StatusBadRequest, "vms must be in [1, %d]", s.cfg.MaxVMs)
		return
	}
	sc, err := f.Build()
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if sc.Horizon < 0 || sc.Horizon > s.cfg.MaxHorizon {
		writeError(w, http.StatusBadRequest, "horizon must be in (0, %v]", s.cfg.MaxHorizon)
		return
	}
	if err := sc.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	canonical, err := f.Canonical()
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	tenant := r.Header.Get("X-Tenant")
	if tenant == "" {
		tenant = r.URL.Query().Get("tenant")
	}
	key := rescache.Key(agilepower.CodeVersion, append([]byte("scenario:"), canonical...))
	s.submitCommon(w, r, tenant, &runPayload{key: key, sc: sc})
}

func (s *Server) lookupJob(w http.ResponseWriter, r *http.Request) (*jobs.Job, bool) {
	j, ok := s.queue.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "job %q not found", r.PathValue("id"))
		return nil, false
	}
	return j, true
}

func (s *Server) handleListJobs(w http.ResponseWriter, r *http.Request) {
	all := s.queue.Jobs(r.URL.Query().Get("tenant"))
	out := make([]jobs.Status, 0, len(all))
	for _, j := range all {
		out = append(out, j.Snapshot())
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleGetJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookupJob(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, j.Snapshot())
}

func (s *Server) handleCancelJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	switch err := s.queue.Cancel(id); {
	case errors.Is(err, jobs.ErrNotFound):
		writeError(w, http.StatusNotFound, "job %q not found", id)
	case errors.Is(err, jobs.ErrTerminal):
		writeError(w, http.StatusConflict, "job %q already terminal", id)
	case err != nil:
		writeError(w, http.StatusInternalServerError, "%v", err)
	default:
		j, _ := s.queue.Get(id)
		if j != nil {
			// A running job unwinds asynchronously; report its state as
			// of now.
			writeJSON(w, http.StatusOK, j.Snapshot())
			return
		}
		w.WriteHeader(http.StatusNoContent)
	}
}

func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookupJob(w, r)
	if !ok {
		return
	}
	body, errMsg := j.Result()
	switch j.State() {
	case jobs.Done:
		writeResult(w, body, j.Cached(), j.ID())
	case jobs.Failed:
		writeError(w, http.StatusUnprocessableEntity, "run failed: %s", errMsg)
	case jobs.Cancelled:
		writeError(w, http.StatusConflict, "job %s cancelled", j.ID())
	default:
		writeError(w, http.StatusConflict, "job %s not finished (state %s)", j.ID(), j.State())
	}
}

// sseEvent writes one Server-Sent Event. data must be newline-free
// (json.Marshal output is).
func sseEvent(w io.Writer, event string, data []byte) error {
	_, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data)
	return err
}

// handleJobStream is GET /v1/jobs/{id}/stream: a Server-Sent Events
// feed of the job — an initial "status" event, throttled "progress"
// events while it runs (lossy by design: a slow client misses
// samples, never the outcome), and a terminal "result" / "failed" /
// "cancelled" event, after which the stream closes.
func (s *Server) handleJobStream(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookupJob(w, r)
	if !ok {
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	ch, cancelSub := j.Subscribe()
	defer cancelSub()

	status, _ := json.Marshal(j.Snapshot())
	if sseEvent(w, "status", status) != nil {
		return
	}
	fl.Flush()

	terminal := func() {
		body, errMsg := j.Result()
		switch j.State() {
		case jobs.Done:
			_ = sseEvent(w, "result", body)
		case jobs.Cancelled:
			_ = sseEvent(w, "cancelled", []byte(`{"state":"cancelled"}`))
		default:
			msg, _ := json.Marshal(map[string]string{"state": "failed", "error": errMsg})
			_ = sseEvent(w, "failed", msg)
		}
		fl.Flush()
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case <-j.Done():
			// Flush progress already buffered before the terminal event.
			for {
				select {
				case ev := <-ch:
					data, _ := json.Marshal(ev)
					if sseEvent(w, "progress", data) != nil {
						return
					}
				default:
					terminal()
					return
				}
			}
		case ev := <-ch:
			data, _ := json.Marshal(ev)
			if sseEvent(w, "progress", data) != nil {
				return
			}
			fl.Flush()
		}
	}
}
