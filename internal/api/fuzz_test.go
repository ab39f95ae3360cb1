package api

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// prepare runs the prepare step on body and fails the test if it is
// not admitted.
func prepare(t *testing.T, s *Server, body string) *runPayload {
	t.Helper()
	rec := httptest.NewRecorder()
	p, _, ok := s.prepareRun(rec, httptest.NewRequest(http.MethodPost, "/v1/runs", strings.NewReader(body)))
	if !ok {
		t.Fatalf("prepare %s: %d %s", body, rec.Code, rec.Body)
	}
	return p
}

// FuzzPrepareRunRequest feeds arbitrary bodies through the shared
// decode-and-admit step. It must never panic; a rejection is a 400 or
// 413; and every admitted request stays inside the admission budget,
// passes Validate, and carries a cache key and world fingerprint. The
// budget is small so fuzzed fleets stay cheap to build.
func FuzzPrepareRunRequest(f *testing.F) {
	for _, tc := range invalidTuning {
		f.Add(tc.body)
	}
	for _, body := range []string{
		`{`,
		`{"hosts":0,"vms":4,"fleet":"flat"}`,
		`{"hosts":4,"vms":4,"fleet":"quantum"}`,
		`{"hosts":4,"vms":4,"fleet":"flat","policy":"yolo"}`,
		`{"hosts":4,"vms":4,"fleet":"flat","horizonHours":100000}`,
		`{"hosts":4,"vms":4,"fleet":"flat","shard":4}`,
		`{"hosts":4,"vms":8,"fleet":"mixed","horizonHours":3,"seed":21,"shards":4,"evalWorkers":2}`,
		`{"hosts":8,"vms":32,"fleet":"diurnal","policy":"dpm-s5","periodMinutes":4,"targetUtil":0.55,"tenant":"a"}`,
		`{"hosts":4,"vms":4,"fleet":"spiky","churn":{"arrivalsPerHour":2,"meanLifetimeHours":1},"delta":true,"telemetryCap":16}`,
		`{"hosts":4,"vms":4,"profile":{"peakPower":1}}`,
	} {
		f.Add(body)
	}
	s := &Server{cfg: Config{MaxHosts: 64, MaxVMs: 256, MaxHorizon: 48 * time.Hour}.withDefaults()}
	f.Fuzz(func(t *testing.T, body string) {
		rec := httptest.NewRecorder()
		p, _, ok := s.prepareRun(rec, httptest.NewRequest(http.MethodPost, "/v1/runs", strings.NewReader(body)))
		if !ok {
			if rec.Code != http.StatusBadRequest && rec.Code != http.StatusRequestEntityTooLarge {
				t.Fatalf("rejection status %d for %q", rec.Code, body)
			}
			return
		}
		sc := p.sc
		if sc.Hosts < 1 || sc.Hosts > s.cfg.MaxHosts || len(sc.VMs) < 1 || len(sc.VMs) > s.cfg.MaxVMs ||
			sc.Horizon <= 0 || sc.Horizon > s.cfg.MaxHorizon {
			t.Fatalf("admitted outside the budget: hosts %d vms %d horizon %v (%q)", sc.Hosts, len(sc.VMs), sc.Horizon, body)
		}
		if err := sc.Validate(); err != nil {
			t.Fatalf("admitted an invalid scenario: %v (%q)", err, body)
		}
		if p.key == "" || p.worldKey == "" {
			t.Fatalf("admitted without keys (%q)", body)
		}
	})
}
