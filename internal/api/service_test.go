package api

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"agilepower/internal/jobs"
)

// newService builds a server with explicit config plus its test
// listener, returning both (tests reach into the server for counters).
func newService(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := NewServer(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		_ = s.Close()
	})
	return s, ts
}

func postURL(t *testing.T, url, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// postWait submits a run with wait=1 and returns (status, X-Cache,
// body bytes).
func postWait(t *testing.T, base, body string) (int, string, []byte) {
	t.Helper()
	resp := postURL(t, base+"/v1/runs?wait=1", body)
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get("X-Cache"), raw
}

func waitJobState(t *testing.T, base, id, want string) jobs.Status {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(base + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st jobs.Status
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if st.State == want {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s state = %s, want %s", id, st.State, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

const smallRun = `{"hosts":4,"vms":8,"fleet":"flat","flatDemand":0.5,"horizonHours":1,"seed":7}`

func TestAsyncRunLifecycle(t *testing.T) {
	_, ts := newService(t, Config{})

	resp := postURL(t, ts.URL+"/v1/runs", smallRun)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status = %d, want 202", resp.StatusCode)
	}
	var sub SubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if sub.Job.ID == "" || sub.Job.State != "queued" && sub.Job.State != "running" && sub.Job.State != "done" {
		t.Fatalf("submit ack = %+v", sub)
	}
	if loc := resp.Header.Get("Location"); loc != "/v1/jobs/"+sub.Job.ID {
		t.Fatalf("Location = %q", loc)
	}

	waitJobState(t, ts.URL, sub.Job.ID, "done")

	res, err := http.Get(ts.URL + sub.ResultURL)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("result status = %d", res.StatusCode)
	}
	if xc := res.Header.Get("X-Cache"); xc != "miss" {
		t.Fatalf("X-Cache = %q, want miss", xc)
	}
	var out RunResult
	if err := json.NewDecoder(res.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Policy != "dpm-s3" || out.EnergyKWh <= 0 || out.Satisfaction <= 0 {
		t.Fatalf("result = %+v", out)
	}

	// The job list knows it.
	listResp, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	list := decode[[]jobs.Status](t, listResp)
	if len(list) != 1 || list[0].ID != sub.Job.ID {
		t.Fatalf("jobs list = %+v", list)
	}
}

// TestCacheByteIdentityAcrossPolicies is the acceptance gate for the
// result cache: for every policy, a repeated identical request is
// served from the cache (X-Cache: hit) without executing the
// simulator, and its bytes are identical both to the cold response
// that populated the entry and to a cold run on a completely separate
// server — the byte-identity guarantee that makes content addressing
// sound.
func TestCacheByteIdentityAcrossPolicies(t *testing.T) {
	s, ts := newService(t, Config{})
	_, ts2 := newService(t, Config{}) // fresh server: independent cold runs

	for _, policy := range []string{"static", "nopm-drm", "dpm-s5", "dpm-s3"} {
		body := fmt.Sprintf(`{"hosts":8,"vms":32,"fleet":"mixed","horizonHours":4,"seed":11,"policy":%q}`, policy)
		execBefore := s.im.runWall.Count()

		st, xc, cold := postWait(t, ts.URL, body)
		if st != http.StatusOK || xc != "miss" {
			t.Fatalf("%s cold: status %d X-Cache %q", policy, st, xc)
		}
		if got := s.im.runWall.Count(); got != execBefore+1 {
			t.Fatalf("%s cold: executions = %d, want %d", policy, got, execBefore+1)
		}

		st, xc, hot := postWait(t, ts.URL, body)
		if st != http.StatusOK || xc != "hit" {
			t.Fatalf("%s hot: status %d X-Cache %q", policy, st, xc)
		}
		if !bytes.Equal(cold, hot) {
			t.Fatalf("%s: cached bytes differ from cold bytes:\ncold %s\nhot  %s", policy, cold, hot)
		}
		if got := s.im.runWall.Count(); got != execBefore+1 {
			t.Fatalf("%s hot: cache hit executed the simulator (executions %d)", policy, got)
		}

		st, xc, other := postWait(t, ts2.URL, body)
		if st != http.StatusOK || xc != "miss" {
			t.Fatalf("%s other server: status %d X-Cache %q", policy, st, xc)
		}
		if !bytes.Equal(cold, other) {
			t.Fatalf("%s: cold bytes differ across servers:\nA %s\nB %s", policy, cold, other)
		}
	}
	if hits := s.queue.Counters().CacheHits; hits != 4 {
		t.Fatalf("cache-hit completions = %d, want 4", hits)
	}
}

// TestPrototypeReuseAcrossPolicies: jobs sharing a world shape fork
// one cached prototype — and the forked results must byte-match a
// cold server that never pools worlds.
func TestPrototypeReuseAcrossPolicies(t *testing.T) {
	s, ts := newService(t, Config{})
	for _, policy := range []string{"static", "dpm-s3", "dpm-s5"} {
		body := fmt.Sprintf(`{"hosts":6,"vms":24,"fleet":"diurnal","horizonHours":3,"seed":5,"policy":%q}`, policy)
		if st, _, _ := postWait(t, ts.URL, body); st != http.StatusOK {
			t.Fatalf("%s: status %d", policy, st)
		}
	}
	s.protoMu.Lock()
	worlds := len(s.protos)
	s.protoMu.Unlock()
	if worlds != 1 {
		t.Fatalf("cached worlds = %d, want 1 (policies share a fleet shape)", worlds)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts := newService(t, Config{})
	// One cold run and one hit so the counters are nonzero.
	if st, _, _ := postWait(t, ts.URL, smallRun); st != http.StatusOK {
		t.Fatalf("cold status %d", st)
	}
	if st, xc, _ := postWait(t, ts.URL, smallRun); st != http.StatusOK || xc != "hit" {
		t.Fatalf("hot status %d X-Cache %q", st, xc)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type = %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	for _, want := range []string{
		"# TYPE agilepower_jobs_queued gauge",
		"agilepower_jobs_queued 0",
		"# TYPE agilepower_jobs_completed_total counter",
		"agilepower_jobs_completed_total 2",
		"agilepower_cache_hits_total 1",
		"agilepower_cache_misses_total 1",
		"agilepower_cache_hit_ratio 0.5",
		"# TYPE agilepower_run_wall_seconds histogram",
		"agilepower_run_wall_seconds_count 1",
		"agilepower_wait_request_seconds_count 2",
		"# TYPE agilepower_runs_per_second gauge",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics output missing %q:\n%s", want, text)
		}
	}
}

func TestProgressPublished(t *testing.T) {
	_, ts := newService(t, Config{ProgressEvery: 10 * time.Minute})
	resp := postURL(t, ts.URL+"/v1/runs", `{"hosts":4,"vms":8,"fleet":"flat","horizonHours":2,"seed":9}`)
	var sub SubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	st := waitJobState(t, ts.URL, sub.Job.ID, "done")
	// 2h at one event per 10 simulated minutes ⇒ at least 10 published.
	if st.Progress < 10 {
		t.Fatalf("progress events = %d, want >= 10", st.Progress)
	}
	if st.WallSeconds <= 0 {
		t.Fatalf("wallSeconds = %v", st.WallSeconds)
	}
}

// TestJobStreamSSE reads the Server-Sent Events feed of a finished
// job: a status event followed by the terminal result event carrying
// the exact result bytes.
func TestJobStreamSSE(t *testing.T) {
	_, ts := newService(t, Config{})
	resp := postURL(t, ts.URL+"/v1/runs", smallRun)
	var sub SubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	waitJobState(t, ts.URL, sub.Job.ID, "done")

	stream, err := http.Get(ts.URL + sub.StreamURL)
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	if ct := stream.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type = %q", ct)
	}
	var events []string
	var resultData string
	sc := bufio.NewScanner(stream.Body)
	current := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			current = strings.TrimPrefix(line, "event: ")
			events = append(events, current)
		case strings.HasPrefix(line, "data: ") && current == "result":
			resultData = strings.TrimPrefix(line, "data: ")
		}
	}
	if len(events) < 2 || events[0] != "status" || events[len(events)-1] != "result" {
		t.Fatalf("event sequence = %v", events)
	}
	var out RunResult
	if err := json.Unmarshal([]byte(resultData), &out); err != nil {
		t.Fatalf("result event not JSON: %v (%q)", err, resultData)
	}
	if out.EnergyKWh <= 0 {
		t.Fatalf("streamed result = %+v", out)
	}
}

// TestSubmitScenarioFile drives POST /v1/scenarios with a full
// scenario file — fleets, a timed event script, and assertions — and
// checks the result is cached like any run.
func TestSubmitScenarioFile(t *testing.T) {
	_, ts := newService(t, Config{})
	file := `{
		"name": "svc-drill",
		"hosts": 8,
		"fleets": [{"kind": "diurnal", "count": 24}],
		"horizonHours": 4,
		"policy": "dpm-s3",
		"seed": 13,
		"events": [{"at": "1h", "action": "maintenance", "target": "host-1"},
		           {"at": "2h", "action": "maintenance-end", "target": "host-1"}],
		"assert": [{"kind": "no-stranded-vm", "over": "10m"}]
	}`
	post := func() (int, string, []byte) {
		resp := postURL(t, ts.URL+"/v1/scenarios?wait=1&tenant=ops", file)
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, resp.Header.Get("X-Cache"), raw
	}
	st, xc, cold := post()
	if st != http.StatusOK || xc != "miss" {
		t.Fatalf("cold: status %d X-Cache %q body %s", st, xc, cold)
	}
	var out RunResult
	if err := json.Unmarshal(cold, &out); err != nil {
		t.Fatal(err)
	}
	if out.Name != "svc-drill" || out.EnergyKWh <= 0 || out.AssertionFailures != 0 {
		t.Fatalf("scenario result = %+v", out)
	}
	st, xc, hot := post()
	if st != http.StatusOK || xc != "hit" || !bytes.Equal(cold, hot) {
		t.Fatalf("hot: status %d X-Cache %q identical=%v", st, xc, bytes.Equal(cold, hot))
	}

	// Unknown keys are rejected, mirroring ParseScenario.
	resp := postURL(t, ts.URL+"/v1/scenarios", `{"hosts":4,"fleets":[{"kind":"flat","count":4}],"telemtryCap":5}`)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("typo'd scenario status = %d, want 400", resp.StatusCode)
	}
}

// TestBackpressureAndCancel pins the HTTP mapping of queue
// backpressure (429) and both cancellation paths (queued and
// running).
func TestBackpressureAndCancel(t *testing.T) {
	_, ts := newService(t, Config{Workers: 1, QueueDepth: 1, TenantQueueDepth: 1, RunChunk: 30 * time.Minute})

	// A long run to occupy the single worker.
	long := `{"hosts":32,"vms":128,"fleet":"diurnal","horizonHours":700,"seed":3}`
	resp := postURL(t, ts.URL+"/v1/runs", long)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("blocker submit status = %d", resp.StatusCode)
	}
	var blocker SubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&blocker); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	waitJobState(t, ts.URL, blocker.Job.ID, "running")

	// Second job queues (the worker is busy)…
	resp = postURL(t, ts.URL+"/v1/runs", smallRun)
	var queued SubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&queued); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second submit status = %d", resp.StatusCode)
	}

	// …and the third exceeds QueueDepth: backpressure, not buffering.
	resp = postURL(t, ts.URL+"/v1/runs", `{"hosts":4,"vms":8,"fleet":"flat","horizonHours":1,"seed":99}`)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third submit status = %d, want 429", resp.StatusCode)
	}

	// Cancel the queued job: immediate.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+queued.Job.ID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	waitJobState(t, ts.URL, queued.Job.ID, "cancelled")

	// Cancel the running job: its context unwinds between chunks.
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+blocker.Job.ID, nil)
	dresp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	waitJobState(t, ts.URL, blocker.Job.ID, "cancelled")

	// Cancelling a terminal job conflicts.
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+blocker.Job.ID, nil)
	dresp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusConflict {
		t.Fatalf("double cancel status = %d, want 409", dresp.StatusCode)
	}
}

func TestDrainRejectsSubmissions(t *testing.T) {
	s, ts := newService(t, Config{})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	resp := postURL(t, ts.URL+"/v1/runs", smallRun)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain status = %d, want 503", resp.StatusCode)
	}
}

// TestConcurrentSessions is the in-process load test: many client
// goroutines, several tenants, a hot/cold request mix — zero failed
// jobs and byte-identical hot responses, verified under `make race`.
func TestConcurrentSessions(t *testing.T) {
	s, ts := newService(t, Config{})

	const clients = 24
	const perClient = 4
	var wg sync.WaitGroup
	errs := make(chan error, clients*perClient)
	var mu sync.Mutex
	byBody := map[string][]byte{} // first-seen bytes per request body

	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				// Three hot shapes shared across clients plus one cold
				// per-client seed.
				seed := (c*perClient+i)%3 + 1
				if i == perClient-1 {
					seed = 1000 + c
				}
				body := fmt.Sprintf(
					`{"hosts":4,"vms":8,"fleet":"flat","flatDemand":0.5,"horizonHours":1,"seed":%d,"tenant":"t%d"}`,
					seed, c%4)
				resp, err := http.Post(ts.URL+"/v1/runs?wait=1", "application/json", strings.NewReader(body))
				if err != nil {
					errs <- err
					continue
				}
				raw, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					errs <- err
					continue
				}
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("status %d: %s", resp.StatusCode, raw)
					continue
				}
				mu.Lock()
				if prev, ok := byBody[body]; ok && !bytes.Equal(prev, raw) {
					errs <- fmt.Errorf("nondeterministic bytes for %s", body)
				} else if !ok {
					byBody[body] = raw
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	ctrs := s.queue.Counters()
	if ctrs.Failed != 0 || ctrs.Rejected != 0 {
		t.Fatalf("counters = %+v, want zero failed/rejected", ctrs)
	}
	if ctrs.CacheHits == 0 {
		t.Fatalf("no cache hits across %d hot requests", clients*perClient)
	}
}

func TestShardsDeltaKnobsByteIdentical(t *testing.T) {
	_, ts := newService(t, Config{})
	base := `{"hosts":8,"vms":32,"fleet":"mixed","horizonHours":3,"seed":21%s}`
	st, _, plain := postWait(t, ts.URL, fmt.Sprintf(base, ``))
	if st != http.StatusOK {
		t.Fatalf("plain status %d", st)
	}
	for _, knobs := range []string{
		`,"shards":4`,
		`,"delta":true`,
		`,"shards":2,"delta":true,"telemetryCap":64`,
	} {
		st, xc, got := postWait(t, ts.URL, fmt.Sprintf(base, knobs))
		if st != http.StatusOK {
			t.Fatalf("%s status %d", knobs, st)
		}
		// Different knobs hash to different cache keys (conservative),
		// so these are cold executions…
		if xc != "miss" {
			t.Fatalf("%s X-Cache = %q", knobs, xc)
		}
		// …whose summary must match the serial run byte-for-byte, except
		// when the telemetry cap folds the recorded series (peak power is
		// computed from the stored samples).
		if strings.Contains(knobs, "telemetryCap") {
			continue
		}
		if !bytes.Equal(plain, got) {
			t.Fatalf("%s: result bytes differ from serial run:\nserial %s\nknobs  %s", knobs, plain, got)
		}
	}
	// The retired evalWorkers field still decodes under the strict
	// decoder and is ignored: the request keys like its shards-only
	// twin above and hits its entry.
	st, xc, got := postWait(t, ts.URL, fmt.Sprintf(base, `,"shards":4,"evalWorkers":2`))
	if st != http.StatusOK || xc != "hit" {
		t.Fatalf("retired evalWorkers: status %d, X-Cache %q, want 200 hit", st, xc)
	}
	if !bytes.Equal(plain, got) {
		t.Fatalf("retired evalWorkers: result bytes differ from serial run:\nserial %s\ngot    %s", plain, got)
	}
	// A misspelled knob is rejected, not silently run with its default.
	if st, _, body := postWait(t, ts.URL, fmt.Sprintf(base, `,"shard":4`)); st != http.StatusBadRequest {
		t.Fatalf("unknown field shard: status %d, want 400 (%s)", st, body)
	}
}
