// Command agilepmd serves the simulator over HTTP: the multi-tenant
// simulation service — an async job queue with per-tenant fairness
// (?wait=1 blocks for the result), a content-addressed result cache,
// SSE progress streaming, and a Prometheus /metrics endpoint — plus
// live sessions (/api/sessions) that step one run interactively and
// the policy, profile and experiment catalogues under /api.
//
//	agilepmd -addr :8080
//	curl -s localhost:8080/api/profile
//	curl -s -X POST localhost:8080/v1/runs -d '{"hosts":16,"vms":80,"fleet":"mixed","policy":"dpm-s3"}'
//	curl -s localhost:8080/v1/jobs/j1
//	curl -s -X POST 'localhost:8080/v1/runs?wait=1' -d '{"hosts":16,"vms":80,"fleet":"mixed"}'
//	curl -s localhost:8080/metrics
//
// SIGINT/SIGTERM drain gracefully: new submissions are rejected with
// 503, queued jobs are cancelled, and running jobs get up to -grace
// to finish before their contexts are cancelled. With -state, the
// terminal job ledger is persisted on exit for post-mortems.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"agilepower/internal/api"
	"agilepower/internal/jobs"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	grace := flag.Duration("grace", 10*time.Second, "shutdown grace period for running jobs and in-flight requests")
	workers := flag.Int("workers", 0, "job executor pool size (0 = GOMAXPROCS)")
	queueDepth := flag.Int("queue-depth", 0, "max queued jobs across all tenants (0 = 4096)")
	tenantDepth := flag.Int("tenant-queue-depth", 0, "max queued jobs per tenant (0 = queue-depth)")
	cacheMB := flag.Int64("cache-mb", 0, "result cache budget in MiB (0 = 256)")
	maxHosts := flag.Int("max-hosts", 0, "per-request host budget (0 = 131072)")
	maxVMs := flag.Int("max-vms", 0, "per-request VM budget (0 = 1048576)")
	state := flag.String("state", "", "file to persist terminal job states to on shutdown")
	flag.Parse()

	server := api.NewServer(api.Config{
		Workers:          *workers,
		QueueDepth:       *queueDepth,
		TenantQueueDepth: *tenantDepth,
		CacheBytes:       *cacheMB << 20,
		MaxHosts:         *maxHosts,
		MaxVMs:           *maxVMs,
	})
	srv := &http.Server{
		Addr:              *addr,
		Handler:           logRequests(server.Handler()),
		ReadHeaderTimeout: 10 * time.Second,
		// Experiment regeneration and wait=1 submissions can take a
		// while; these bound a stuck client, not a long simulation.
		WriteTimeout: 5 * time.Minute,
		IdleTimeout:  2 * time.Minute,
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		log.Printf("agilepmd listening on %s", *addr)
		errc <- srv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		// The listener failed before any signal arrived.
		log.Fatal(err)
	case <-ctx.Done():
	}
	stop() // restore default signal handling: a second ^C kills immediately
	log.Printf("agilepmd shutting down (grace %v)", *grace)

	shutdownCtx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	// Drain the job queue first: submissions start failing with 503,
	// queued jobs are cancelled, and running jobs get the grace period
	// to finish — which also settles any wait=1 handlers blocked on
	// them, so the HTTP shutdown below finds quiet connections.
	if err := server.Drain(shutdownCtx); err != nil {
		log.Printf("agilepmd drain: %v", err)
	}
	if err := srv.Shutdown(shutdownCtx); err != nil {
		log.Printf("agilepmd forced shutdown: %v", err)
		srv.Close()
	}
	if *state != "" {
		if err := persistState(*state, server.Queue()); err != nil {
			log.Printf("agilepmd state: %v", err)
		} else {
			log.Printf("agilepmd state written to %s", *state)
		}
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
	log.Print("agilepmd stopped")
}

// persistState writes every known job's terminal snapshot (after a
// drain all jobs are terminal) plus the lifetime counters, so an
// operator can audit what a stopped daemon had done and cancelled.
func persistState(path string, q *jobs.Queue) error {
	all := q.Jobs("")
	snap := struct {
		StoppedAt string        `json:"stoppedAt"`
		Counters  jobs.Counters `json:"counters"`
		Jobs      []jobs.Status `json:"jobs"`
	}{
		StoppedAt: time.Now().UTC().Format(time.RFC3339),
		Counters:  q.Counters(),
		Jobs:      make([]jobs.Status, 0, len(all)),
	}
	for _, j := range all {
		snap.Jobs = append(snap.Jobs, j.Snapshot())
	}
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func logRequests(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		next.ServeHTTP(w, r)
		log.Printf("%s %s (%v)", r.Method, r.URL.Path, time.Since(start).Round(time.Millisecond))
	})
}
