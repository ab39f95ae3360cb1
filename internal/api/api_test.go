package api

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	s := NewServer(Config{})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		_ = s.Close()
	})
	return ts
}

func decode[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var out T
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return out
}

func TestHealthz(t *testing.T) {
	ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}

func TestPoliciesEndpoint(t *testing.T) {
	ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/api/policies")
	if err != nil {
		t.Fatal(err)
	}
	policies := decode[[]map[string]any](t, resp)
	if len(policies) != 4 {
		t.Fatalf("policies = %d, want 4", len(policies))
	}
	names := map[string]bool{}
	for _, p := range policies {
		names[p["name"].(string)] = true
	}
	if !names["dpm-s3"] || !names["static"] {
		t.Fatalf("policy names = %v", names)
	}
}

func TestProfileEndpoint(t *testing.T) {
	ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/api/profile")
	if err != nil {
		t.Fatal(err)
	}
	profile := decode[map[string]any](t, resp)
	if profile["peakPowerW"].(float64) != 250 {
		t.Fatalf("peak = %v", profile["peakPowerW"])
	}
	states := profile["sleepStates"].(map[string]any)
	s3 := states["S3"].(map[string]any)
	if s3["exitSecs"].(float64) != 15 {
		t.Fatalf("S3 exit = %v", s3["exitSecs"])
	}
	if s3["breakEvenSecs"].(float64) < 30 || s3["breakEvenSecs"].(float64) > 60 {
		t.Fatalf("S3 break-even = %v", s3["breakEvenSecs"])
	}
}

// postRun submits a run with wait=1 and returns the response.
func postRun(t *testing.T, ts *httptest.Server, body string) (*http.Response, error) {
	t.Helper()
	return http.Post(ts.URL+"/v1/runs?wait=1", "application/json", strings.NewReader(body))
}

func TestCreateAndFetchRun(t *testing.T) {
	ts := newTestServer(t)
	resp, err := postRun(t, ts, `{"hosts":4,"vms":8,"fleet":"flat","flatDemand":0.5,"horizonHours":2}`)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	jobID := resp.Header.Get("X-Job-Id")
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var run RunResult
	if err := json.Unmarshal(raw, &run); err != nil {
		t.Fatal(err)
	}
	if run.Policy != "dpm-s3" || run.Hosts != 4 || run.VMs != 8 {
		t.Fatalf("run = %+v", run)
	}
	if run.EnergyKWh <= 0 || run.Satisfaction <= 0 {
		t.Fatalf("metrics missing: %+v", run)
	}
	if run.OracleKWh <= 0 || run.OracleKWh >= run.EnergyKWh {
		t.Fatalf("oracle bound = %v vs energy %v", run.OracleKWh, run.EnergyKWh)
	}

	// Fetch it back through its job: the same bytes.
	resp2, err := http.Get(ts.URL + "/v1/jobs/" + jobID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp2.StatusCode != http.StatusOK || string(got) != string(raw) {
		t.Fatalf("fetched %d %s, created %s", resp2.StatusCode, got, raw)
	}
}

// invalidTuning are run requests whose manager tuning or churn is out
// of range: admission rejects them with 400 before any worker runs.
var invalidTuning = []struct{ name, body string }{
	{"target util above 1", `{"hosts":4,"vms":4,"fleet":"flat","targetUtil":1.5}`},
	{"negative spare hosts", `{"hosts":4,"vms":4,"fleet":"flat","spareHosts":-1}`},
	{"negative arrival rate", `{"hosts":4,"vms":4,"fleet":"flat","churn":{"arrivalsPerHour":-3}}`},
}

func TestCreateRunValidation(t *testing.T) {
	s, ts := newService(t, Config{})
	cases := []struct {
		name string
		body string
	}{
		{"bad json", `{`},
		{"zero hosts", `{"hosts":0,"vms":4,"fleet":"flat"}`},
		{"too many hosts", `{"hosts":9999999,"vms":4,"fleet":"flat"}`},
		{"zero vms", `{"hosts":4,"vms":0,"fleet":"flat"}`},
		{"bad fleet", `{"hosts":4,"vms":4,"fleet":"quantum"}`},
		{"bad policy", `{"hosts":4,"vms":4,"fleet":"flat","policy":"yolo"}`},
		{"horizon too long", `{"hosts":4,"vms":4,"fleet":"flat","horizonHours":100000}`},
	}
	cases = append(cases, invalidTuning...)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := postRun(t, ts, tc.body)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400", resp.StatusCode)
			}
		})
	}
	// The live-session route shares the prepare step, and a scenario
	// file with the same bad tuning is rejected by the same Validate.
	for _, tc := range invalidTuning {
		resp := postURL(t, ts.URL+"/api/sessions", tc.body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("session %s: status = %d, want 400", tc.name, resp.StatusCode)
		}
	}
	resp := postURL(t, ts.URL+"/v1/scenarios",
		`{"hosts":4,"fleets":[{"kind":"flat","count":4}],"manager":{"targetUtil":1.5}}`)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("scenario file with target util 1.5: status = %d, want 400", resp.StatusCode)
	}
	if c := s.queue.Counters(); c.Submitted != 0 || c.Failed != 0 {
		t.Fatalf("rejected requests reached the queue: %+v", c)
	}
}

func TestChurnOverAPI(t *testing.T) {
	ts := newTestServer(t)
	resp, err := postRun(t, ts, `{"hosts":4,"vms":4,"fleet":"flat","horizonHours":6,
		"churn":{"arrivalsPerHour":4,"meanLifetimeHours":1}}`)
	if err != nil {
		t.Fatal(err)
	}
	run := decode[RunResult](t, resp)
	if run.ChurnArrived == 0 || run.ChurnPlaced == 0 {
		t.Fatalf("churn not reported: %+v", run)
	}
}

func TestExperimentsEndpoints(t *testing.T) {
	ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/api/experiments")
	if err != nil {
		t.Fatal(err)
	}
	ids := decode[[]string](t, resp)
	if len(ids) < 10 {
		t.Fatalf("experiment ids = %v", ids)
	}
	resp2, err := http.Post(ts.URL+"/api/experiments/t1", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	raw, err := io.ReadAll(resp2.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), "power-state characterization") {
		t.Fatalf("experiment output: %q", string(raw))
	}
}

func TestMethodRouting(t *testing.T) {
	ts := newTestServer(t)
	// GET on a POST-only route is rejected by the mux.
	resp, err := http.Get(ts.URL + "/api/experiments/t1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("status = %d, want 405", resp.StatusCode)
	}
	// The synchronous run route is gone: a blocking run is
	// POST /v1/runs?wait=1.
	resp2, err := http.Post(ts.URL+"/api/runs", "application/json", strings.NewReader(`{"hosts":2,"vms":2}`))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Fatalf("POST /api/runs status = %d, want 404", resp2.StatusCode)
	}
}
