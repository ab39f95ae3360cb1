// Package api exposes the simulator and manager over HTTP/JSON: the
// multi-tenant simulation service. Scenario runs are submitted to a
// bounded async job queue (202 + job ID, per-tenant fair scheduling,
// queue-depth backpressure; ?wait=1 blocks for the result), executed
// by a worker pool that forks shared world prototypes, and served from
// a content-addressed result cache whenever the same (scenario, seed,
// code version) was run before — determinism makes a cache hit
// byte-identical to a fresh run. Progress streams over SSE, and
// operational state exports in Prometheus text format on /metrics.
// Live sessions (/api/sessions) are admitted by the same strict
// decoder and prepare step, fork the same world pool, and finalize to
// the same result bytes; /api also serves the policy and profile
// catalogues and the paper's experiments.
package api

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"time"

	"agilepower"
	"agilepower/internal/apimetrics"
	"agilepower/internal/experiments"
	"agilepower/internal/jobs"
	"agilepower/internal/rescache"
)

// Config tunes the service. The zero value gets production defaults;
// every field is also a daemon flag (see cmd/agilepmd).
type Config struct {
	// Workers is the job-executor pool size (<= 0 means GOMAXPROCS).
	Workers int
	// QueueDepth bounds queued jobs across all tenants (<= 0 means
	// 4096); submissions past it are rejected with 429.
	QueueDepth int
	// TenantQueueDepth bounds one tenant's queued jobs (<= 0 means
	// QueueDepth).
	TenantQueueDepth int
	// CacheBytes is the result cache's byte budget (<= 0 means 256
	// MiB). The cache is content-addressed by (scenario, seed, code
	// version); a hit skips the simulator entirely.
	CacheBytes int64
	// MaxHosts, MaxVMs, and MaxHorizon are the admission budget: a
	// request above any of them is rejected with 400. The defaults
	// admit delta-mode hyperscale runs (128k hosts / 1M VMs / 30 days);
	// operators shrink them on small boxes.
	MaxHosts   int
	MaxVMs     int
	MaxHorizon time.Duration
	// RunChunk is how much simulated time a worker advances between
	// cancellation checks (<= 0 means 1h). Smaller is snappier
	// cancellation; results are identical for any value.
	RunChunk time.Duration
	// ProgressEvery throttles streamed progress events to at most one
	// per this much simulated time (<= 0 means 15m).
	ProgressEvery time.Duration
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4096
	}
	if c.TenantQueueDepth <= 0 {
		c.TenantQueueDepth = c.QueueDepth
	}
	if c.CacheBytes <= 0 {
		c.CacheBytes = 256 << 20
	}
	if c.MaxHosts <= 0 {
		c.MaxHosts = 131072
	}
	if c.MaxVMs <= 0 {
		c.MaxVMs = 1 << 20
	}
	if c.MaxHorizon <= 0 {
		c.MaxHorizon = 30 * 24 * time.Hour
	}
	if c.RunChunk <= 0 {
		c.RunChunk = time.Hour
	}
	if c.ProgressEvery <= 0 {
		c.ProgressEvery = 15 * time.Minute
	}
	return c
}

// RunRequest describes a scenario to execute.
type RunRequest struct {
	Name         string  `json:"name,omitempty"`
	Hosts        int     `json:"hosts"`
	HostCores    float64 `json:"hostCores,omitempty"`
	HostMemoryGB float64 `json:"hostMemoryGB,omitempty"`

	// Fleet selects a workload builder: diurnal, spiky, batch, mixed,
	// flat.
	Fleet string `json:"fleet"`
	// VMs is the fleet size.
	VMs int `json:"vms"`
	// FlatDemand is the per-VM demand in cores for the flat fleet
	// (default 1).
	FlatDemand float64 `json:"flatDemand,omitempty"`

	// Policy: static, nopm-drm, dpm-s5, dpm-s3 (default dpm-s3).
	Policy string `json:"policy,omitempty"`
	// HorizonHours is the simulated duration (default 24).
	HorizonHours float64 `json:"horizonHours,omitempty"`
	// PeriodMinutes is the control period (default 5).
	PeriodMinutes float64 `json:"periodMinutes,omitempty"`
	// TargetUtil is the packing headroom (default 0.70).
	TargetUtil float64 `json:"targetUtil,omitempty"`
	// SpareHosts keeps extra hosts awake (default 0).
	SpareHosts int `json:"spareHosts,omitempty"`
	// PredictiveWake enables the time-of-day demand predictor.
	PredictiveWake bool   `json:"predictiveWake,omitempty"`
	Seed           uint64 `json:"seed,omitempty"`
	// Profile optionally overrides the server power calibration (the
	// JSON format cmd/calibrate emits).
	Profile json.RawMessage `json:"profile,omitempty"`

	// Churn optionally adds dynamic arrivals.
	Churn *ChurnRequest `json:"churn,omitempty"`

	// Shards, Delta, and TelemetryCap are the simulator's
	// wall-clock/memory knobs (see agilepower.Scenario): sharded
	// evaluation, event-driven delta evaluation, and the telemetry
	// sample cap. Shards and Delta are invisible in results —
	// byte-identical for every setting — yet all three are part of the
	// request hash (conservative: different knobs, different key).
	Shards       int  `json:"shards,omitempty"`
	Delta        bool `json:"delta,omitempty"`
	TelemetryCap int  `json:"telemetryCap,omitempty"`
	// RetiredEvalWorkers holds the retired "evalWorkers" key: the shard
	// worker count is always min(Shards, GOMAXPROCS). The key still
	// decodes under the strict decoder, so old clients keep working,
	// and is zeroed right after decode, so it never reaches a key.
	RetiredEvalWorkers int `json:"evalWorkers,omitempty"`

	// Tenant scopes queue fairness and per-tenant backpressure on the
	// async endpoints ("" is the anonymous tenant).
	Tenant string `json:"tenant,omitempty"`
}

// ChurnRequest mirrors agilepower.ChurnSpec over JSON.
type ChurnRequest struct {
	ArrivalsPerHour   float64 `json:"arrivalsPerHour"`
	MeanLifetimeHours float64 `json:"meanLifetimeHours,omitempty"`
	DemandCores       float64 `json:"demandCores,omitempty"`
}

// Server is the HTTP control plane. The zero value is not usable; use
// NewServer.
type Server struct {
	cfg Config

	sessions *sessionStore

	queue   *jobs.Queue
	cache   *rescache.Cache
	metrics *apimetrics.Registry
	im      instruments

	// protos caches built worlds keyed by world fingerprint, so
	// repeated fleet shapes fork a shared Prototype instead of
	// rebuilding hosts and placement per job.
	protoMu   sync.Mutex
	protos    map[string]*protoEntry
	protoUses uint64 // protoFor lookups, the LRU clock
}

// NewServer returns a control plane with started job workers. Call
// Close (or Drain) on shutdown.
func NewServer(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		sessions: newSessionStore(),
		cache:    rescache.New(cfg.CacheBytes),
		metrics:  apimetrics.NewRegistry(),
		protos:   make(map[string]*protoEntry),
	}
	s.queue = jobs.New(jobs.Config{
		Workers:            cfg.Workers,
		MaxQueued:          cfg.QueueDepth,
		MaxQueuedPerTenant: cfg.TenantQueueDepth,
	}, s.runJob)
	s.registerMetrics()
	s.queue.Start()
	return s
}

// Queue exposes the job queue (for shutdown draining and tests).
func (s *Server) Queue() *jobs.Queue { return s.queue }

// Drain stops accepting jobs, cancels queued ones, and waits for
// running jobs until ctx expires (then force-cancels them).
func (s *Server) Drain(ctx context.Context) error { return s.queue.Drain(ctx) }

// Close force-drains immediately.
func (s *Server) Close() error {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_ = s.queue.Drain(ctx)
	return nil
}

// Handler returns the HTTP routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /api/policies", s.handlePolicies)
	mux.HandleFunc("GET /api/profile", s.handleProfile)
	mux.HandleFunc("GET /api/experiments", s.handleListExperiments)
	mux.HandleFunc("POST /api/experiments/{id}", s.handleRunExperiment)
	// v1: the async multi-tenant service.
	mux.HandleFunc("POST /v1/runs", s.handleSubmitRun)
	mux.HandleFunc("POST /v1/scenarios", s.handleSubmitScenario)
	mux.HandleFunc("GET /v1/jobs", s.handleListJobs)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleGetJob)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancelJob)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleJobResult)
	mux.HandleFunc("GET /v1/jobs/{id}/stream", s.handleJobStream)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.registerSessionRoutes(mux)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeRaw emits an already-encoded JSON body verbatim, so canonical
// result bytes reach the client unchanged.
func writeRaw(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

type apiError struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, apiError{Error: fmt.Sprintf(format, args...)})
}

// maxBodyBytes caps every request body the service decodes.
const maxBodyBytes = 4 << 20

// decodeBody decodes r's body into v: the one decoder of every route
// that reads a body. It is strict — an unknown field is a 400, so a
// misspelled knob cannot silently run with its default — and capped at
// maxBodyBytes (413 past it). On failure it has already written the
// error response.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	var tooBig *http.MaxBytesError
	switch {
	case errors.As(err, &tooBig):
		writeError(w, http.StatusRequestEntityTooLarge, "decoding request: body exceeds %d bytes", tooBig.Limit)
	case err != nil:
		writeError(w, http.StatusBadRequest, "decoding request: %v", err)
	}
	return err == nil
}

func (s *Server) handlePolicies(w http.ResponseWriter, r *http.Request) {
	type policyInfo struct {
		Name        string `json:"name"`
		LoadBalance bool   `json:"loadBalance"`
		Consolidate bool   `json:"consolidate"`
		PowerManage bool   `json:"powerManage"`
		SleepState  string `json:"sleepState,omitempty"`
	}
	var out []policyInfo
	for _, p := range agilepower.Policies() {
		info := policyInfo{
			Name:        p.Name,
			LoadBalance: p.LoadBalance,
			Consolidate: p.Consolidate,
			PowerManage: p.PowerManage,
		}
		if p.PowerManage {
			info.SleepState = p.SleepState.String()
		}
		out = append(out, info)
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleProfile(w http.ResponseWriter, r *http.Request) {
	p := agilepower.DefaultProfile()
	type stateInfo struct {
		PowerW     float64 `json:"powerW"`
		EntrySecs  float64 `json:"entrySecs"`
		ExitSecs   float64 `json:"exitSecs"`
		BreakEvenS float64 `json:"breakEvenSecs"`
	}
	out := map[string]any{
		"name":       p.Name,
		"peakPowerW": float64(p.PeakPower),
		"idlePowerW": float64(p.IdlePower),
		"deepIdleW":  float64(p.DeepIdlePower),
	}
	states := map[string]stateInfo{}
	for st, spec := range p.Sleep {
		be, _ := p.BreakEven(st)
		states[st.String()] = stateInfo{
			PowerW:     float64(spec.Power),
			EntrySecs:  spec.EntryLatency.Seconds(),
			ExitSecs:   spec.ExitLatency.Seconds(),
			BreakEvenS: be.Seconds(),
		}
	}
	out["sleepStates"] = states
	writeJSON(w, http.StatusOK, out)
}

// buildScenario converts a request into a runnable scenario, enforcing
// the server's admission budget. The caller validates the result.
func (s *Server) buildScenario(req RunRequest) (agilepower.Scenario, error) {
	if req.Hosts <= 0 || req.Hosts > s.cfg.MaxHosts {
		return agilepower.Scenario{}, fmt.Errorf("hosts must be in [1, %d]", s.cfg.MaxHosts)
	}
	if req.VMs <= 0 || req.VMs > s.cfg.MaxVMs {
		return agilepower.Scenario{}, fmt.Errorf("vms must be in [1, %d]", s.cfg.MaxVMs)
	}
	if req.Shards < 0 || req.TelemetryCap < 0 {
		return agilepower.Scenario{}, fmt.Errorf("shards and telemetryCap must be non-negative")
	}
	seed := req.Seed
	if seed == 0 {
		seed = 1
	}
	var fleet []agilepower.VMSpec
	switch req.Fleet {
	case "diurnal":
		fleet = agilepower.DiurnalFleet(req.VMs, seed)
	case "spiky":
		fleet = agilepower.SpikyFleet(req.VMs, 4, seed)
	case "batch":
		fleet = agilepower.BatchFleet(req.VMs, seed)
	case "mixed", "":
		fleet = agilepower.MixedFleet(req.VMs, seed)
	case "flat":
		d := req.FlatDemand
		if d <= 0 {
			d = 1
		}
		fleet = agilepower.ConstantFleet(req.VMs, d)
	default:
		return agilepower.Scenario{}, fmt.Errorf("unknown fleet %q", req.Fleet)
	}
	var policy agilepower.Policy
	found := false
	name := req.Policy
	if name == "" {
		name = "dpm-s3"
	}
	for _, p := range agilepower.Policies() {
		if p.Name == name {
			policy = p
			found = true
		}
	}
	if !found {
		return agilepower.Scenario{}, fmt.Errorf("unknown policy %q", name)
	}
	horizon := time.Duration(req.HorizonHours * float64(time.Hour))
	if horizon == 0 {
		horizon = 24 * time.Hour
	}
	if horizon < 0 || horizon > s.cfg.MaxHorizon {
		return agilepower.Scenario{}, fmt.Errorf("horizon must be in (0, %v]", s.cfg.MaxHorizon)
	}
	var profile *agilepower.Profile
	if len(req.Profile) > 0 {
		profile = &agilepower.Profile{}
		if err := json.Unmarshal(req.Profile, profile); err != nil {
			return agilepower.Scenario{}, fmt.Errorf("profile: %w", err)
		}
	}
	sc := agilepower.Scenario{
		Name:         req.Name,
		Hosts:        req.Hosts,
		HostCores:    req.HostCores,
		HostMemoryGB: req.HostMemoryGB,
		Profile:      profile,
		VMs:          fleet,
		Horizon:      horizon,
		Seed:         seed,
		Shards:       req.Shards,
		Delta:        req.Delta,
		TelemetryCap: req.TelemetryCap,
		Manager: agilepower.ManagerConfig{
			Policy:         policy,
			Period:         time.Duration(req.PeriodMinutes * float64(time.Minute)),
			TargetUtil:     req.TargetUtil,
			SpareHosts:     req.SpareHosts,
			PredictiveWake: req.PredictiveWake,
		},
	}
	if req.Churn != nil {
		sc.Churn = &agilepower.ChurnSpec{
			ArrivalsPerHour: req.Churn.ArrivalsPerHour,
			MeanLifetime:    time.Duration(req.Churn.MeanLifetimeHours * float64(time.Hour)),
			DemandCores:     req.Churn.DemandCores,
		}
	}
	return sc, nil
}

func (s *Server) handleListExperiments(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, experiments.IDs())
}

func (s *Server) handleRunExperiment(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	opts := experiments.Options{Quick: r.URL.Query().Get("full") == ""}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if err := experiments.Run(id, w, opts); err != nil {
		// Headers may already be out; report in-band.
		fmt.Fprintf(w, "\nerror: %v\n", err)
	}
}
