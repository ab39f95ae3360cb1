package api

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
)

// TestRequestBodiesCapped posts a 5 MiB JSON body to every route that
// decodes one; each must stop reading at maxBodyBytes and answer 413.
func TestRequestBodiesCapped(t *testing.T) {
	_, ts := newService(t, Config{})
	// One well-formed object whose string value runs past the cap, so
	// the decoder has to read beyond it whatever the route's schema.
	huge := `{"name":"` + strings.Repeat("a", 5<<20) + `"}`
	for _, route := range []string{
		"/v1/runs",
		"/v1/scenarios",
		"/api/sessions",
		"/api/sessions/1/advance",
		"/api/sessions/1/maintenance",
		"/api/sessions/1/vms",
	} {
		t.Run(strings.TrimPrefix(route, "/"), func(t *testing.T) {
			resp := postURL(t, ts.URL+route, huge)
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusRequestEntityTooLarge {
				t.Errorf("POST %s: status %d, want 413 (%s)", route, resp.StatusCode, body)
			}
		})
	}
}

// TestProtoPoolEvictsLeastRecentlyUsed fills the world pool, keeps one
// shape hot, and overflows it: the hot shape must survive and the
// least recently used one must go.
func TestProtoPoolEvictsLeastRecentlyUsed(t *testing.T) {
	s, _ := newService(t, Config{})
	shape := func(i int) string { return fmt.Sprintf("shape-%d", i) }
	hot := s.protoFor(shape(0))
	for i := 1; i < protoCacheMax; i++ {
		s.protoFor(shape(i))
		s.protoFor(shape(0))
	}
	s.protoFor(shape(protoCacheMax))
	s.protoMu.Lock()
	defer s.protoMu.Unlock()
	if len(s.protos) != protoCacheMax {
		t.Fatalf("pool holds %d worlds, want %d", len(s.protos), protoCacheMax)
	}
	if s.protos[shape(0)] != hot {
		t.Fatal("hot shape 0 was evicted")
	}
	if _, ok := s.protos[shape(1)]; ok {
		t.Fatal("least recently used shape 1 is still pooled")
	}
}

// TestPooledWorldIgnoresFirstJobsChurn: the pooled world is built from
// world fields only, so a first run with invalid churn fails alone and
// a later run for the same fleet shape still runs — with the same bytes
// as on a server whose pool never saw the bad run. Admission rejects
// invalid churn with 400, so the bad run is handed to the pool directly.
func TestPooledWorldIgnoresFirstJobsChurn(t *testing.T) {
	const run = `{"hosts":4,"vms":12,"fleet":"diurnal","horizonHours":2,"seed":3,"churn":{"arrivalsPerHour":%d}}`
	s, ts := newService(t, Config{})
	if st, _, body := postWait(t, ts.URL, fmt.Sprintf(run, -1)); st != http.StatusBadRequest {
		t.Fatalf("invalid churn: status %d, want 400 (%s)", st, body)
	}
	bad := prepare(t, s, fmt.Sprintf(run, 2))
	bad.sc.Churn.ArrivalsPerHour = -1
	if _, err := s.startSession(bad); err == nil {
		t.Fatal("a run with invalid churn started")
	}
	st, _, got := postWait(t, ts.URL, fmt.Sprintf(run, 2))
	if st != http.StatusOK {
		t.Fatalf("valid churn after invalid: status %d (%s)", st, got)
	}
	_, fresh := newService(t, Config{})
	if _, _, want := postWait(t, fresh.URL, fmt.Sprintf(run, 2)); string(want) != string(got) {
		t.Fatalf("result bytes differ from a fresh server:\nfresh %s\ngot   %s", want, got)
	}
}
