package api

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func postJSON(t *testing.T, ts *httptest.Server, path, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func doDelete(t *testing.T, ts *httptest.Server, path string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, ts.URL+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestSessionLifecycleOverHTTP(t *testing.T) {
	ts := newTestServer(t)

	// Create.
	resp := postJSON(t, ts, "/api/sessions", `{"hosts":4,"vms":8,"fleet":"flat","flatDemand":0.5}`)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create status = %d", resp.StatusCode)
	}
	st := decode[SessionStatus](t, resp)
	if st.ID != 1 || st.NowHours != 0 {
		t.Fatalf("status = %+v", st)
	}

	// Advance to 2h.
	resp = postJSON(t, ts, "/api/sessions/1/advance", `{"toHours":2}`)
	st = decode[SessionStatus](t, resp)
	if st.NowHours != 2 {
		t.Fatalf("nowHours = %v", st.NowHours)
	}
	if st.ActiveHosts < 1 || st.PowerW <= 0 {
		t.Fatalf("status = %+v", st)
	}

	// Advance by 1h more.
	resp = postJSON(t, ts, "/api/sessions/1/advance", `{"byHours":1}`)
	st = decode[SessionStatus](t, resp)
	if st.NowHours != 3 {
		t.Fatalf("nowHours = %v", st.NowHours)
	}

	// Backwards rejected.
	resp = postJSON(t, ts, "/api/sessions/1/advance", `{"toHours":1}`)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("backwards advance status = %d", resp.StatusCode)
	}
	resp.Body.Close()

	// Add a VM.
	resp = postJSON(t, ts, "/api/sessions/1/vms", `{"name":"late","demandCores":1}`)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("add vm status = %d", resp.StatusCode)
	}
	vmResp := decode[map[string]int](t, resp)
	if vmResp["vmId"] == 0 {
		t.Fatalf("vm id = %v", vmResp)
	}

	// Maintenance round trip.
	resp = postJSON(t, ts, "/api/sessions/1/maintenance", `{"host":1}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("maintenance status = %d", resp.StatusCode)
	}
	resp.Body.Close()
	resp = postJSON(t, ts, "/api/sessions/1/advance", `{"byHours":1}`)
	resp.Body.Close()
	resp = postJSON(t, ts, "/api/sessions/1/maintenance", `{"host":1,"exit":true}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("maintenance exit status = %d", resp.StatusCode)
	}
	resp.Body.Close()

	// Events timeline.
	resp, err := http.Get(ts.URL + "/api/sessions/1/events")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(raw), "vm-placed") {
		t.Fatalf("events missing placements:\n%s", raw)
	}

	// List shows it.
	resp, err = http.Get(ts.URL + "/api/sessions")
	if err != nil {
		t.Fatal(err)
	}
	list := decode[[]SessionStatus](t, resp)
	if len(list) != 1 {
		t.Fatalf("sessions = %d", len(list))
	}

	// Finalize: the canonical run result, removed from the live set.
	resp = doDelete(t, ts, "/api/sessions/1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("finalize status = %d", resp.StatusCode)
	}
	run := decode[RunResult](t, resp)
	if run.EnergyKWh <= 0 || run.HorizonH != 4 || run.VMs != 8 {
		t.Fatalf("final run = %+v", run)
	}
	resp, err = http.Get(ts.URL + "/api/sessions/1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("finalized session still live: %d", resp.StatusCode)
	}

	// A session advanced straight to its horizon finalizes to exactly
	// the bytes /v1/runs?wait=1 answers for the same body.
	const body = `{"name":"twin","hosts":6,"vms":24,"fleet":"mixed","horizonHours":3,"seed":4,"policy":"dpm-s5","churn":{"arrivalsPerHour":2}}`
	resp = postJSON(t, ts, "/api/sessions", body)
	st = decode[SessionStatus](t, resp)
	resp = postJSON(t, ts, "/api/sessions/"+strconv.Itoa(st.ID)+"/advance", `{"toHours":3}`)
	resp.Body.Close()
	resp = doDelete(t, ts, "/api/sessions/"+strconv.Itoa(st.ID))
	fromSession, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	code, _, fromRun := postWait(t, ts.URL, body)
	if code != http.StatusOK || string(fromSession) != string(fromRun) {
		t.Fatalf("session finalize and /v1/runs?wait=1 differ (run status %d):\nsession %s\nrun     %s", code, fromSession, fromRun)
	}
}

func TestSessionErrors(t *testing.T) {
	ts := newTestServer(t)
	for _, tc := range []struct {
		method, path, body string
		want               int
	}{
		{"POST", "/api/sessions", `{`, http.StatusBadRequest},
		{"POST", "/api/sessions", `{"hosts":0,"vms":2,"fleet":"flat"}`, http.StatusBadRequest},
		{"GET", "/api/sessions/9", "", http.StatusNotFound},
		{"POST", "/api/sessions/9/advance", `{"toHours":1}`, http.StatusNotFound},
	} {
		var resp *http.Response
		var err error
		if tc.method == "POST" {
			resp = postJSON(t, ts, tc.path, tc.body)
		} else {
			resp, err = http.Get(ts.URL + tc.path)
			if err != nil {
				t.Fatal(err)
			}
		}
		if resp.StatusCode != tc.want {
			t.Fatalf("%s %s → %d, want %d", tc.method, tc.path, resp.StatusCode, tc.want)
		}
		resp.Body.Close()
	}
	// Bad advance payloads on a real session.
	resp := postJSON(t, ts, "/api/sessions", `{"hosts":2,"vms":2,"fleet":"flat"}`)
	resp.Body.Close()
	for _, body := range []string{`{}`, `{"toHours":-1}`, `{"toHours":1e9}`} {
		resp := postJSON(t, ts, "/api/sessions/1/advance", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("advance %q → %d", body, resp.StatusCode)
		}
		resp.Body.Close()
	}
}

// TestSessionConcurrentUse reads one session (list, status, events)
// from several goroutines while another advances and then finalizes it
// (run it under -race): every read sees a consistent session or, once
// it is finalized, a 404. Each goroutine has its own transport so the
// client's connection pool adds no ordering between them.
func TestSessionConcurrentUse(t *testing.T) {
	ts := newTestServer(t)
	resp := postJSON(t, ts, "/api/sessions", `{"hosts":16,"vms":64,"fleet":"diurnal","horizonHours":24}`)
	resp.Body.Close()
	call := func(c *http.Client, method, path, body string) int {
		req, err := http.NewRequest(method, ts.URL+path, strings.NewReader(body))
		if err != nil {
			t.Error(err)
			return 0
		}
		resp, err := c.Do(req)
		if err != nil {
			t.Error(err)
			return 0
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr := &http.Transport{}
			defer tr.CloseIdleConnections()
			c := &http.Client{Transport: tr}
			for {
				for _, path := range []string{"/api/sessions", "/api/sessions/1/events", "/api/sessions/1"} {
					switch code := call(c, http.MethodGet, path, ""); {
					case code == http.StatusNotFound && path == "/api/sessions/1":
						return // finalized
					case code != http.StatusOK && code != http.StatusNotFound:
						t.Errorf("GET %s: status %d", path, code)
						return
					}
				}
			}
		}()
	}
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	c := &http.Client{Transport: tr}
	for i := 0; i < 8; i++ {
		if code := call(c, http.MethodPost, "/api/sessions/1/advance", `{"byHours":2}`); code != http.StatusOK {
			t.Fatalf("advance %d: status %d", i, code)
		}
	}
	if code := call(c, http.MethodDelete, "/api/sessions/1", ""); code != http.StatusOK {
		t.Fatalf("finalize: status %d", code)
	}
	wg.Wait()
	for _, tc := range []struct{ method, path, body string }{
		{http.MethodGet, "/api/sessions/1", ""},
		{http.MethodGet, "/api/sessions/1/events", ""},
		{http.MethodPost, "/api/sessions/1/advance", `{"byHours":1}`},
		{http.MethodPost, "/api/sessions/1/vms", `{}`},
		{http.MethodPost, "/api/sessions/1/maintenance", `{"host":1}`},
		{http.MethodDelete, "/api/sessions/1", ""},
	} {
		if code := call(c, tc.method, tc.path, tc.body); code != http.StatusNotFound {
			t.Fatalf("%s %s after finalize: %d, want 404", tc.method, tc.path, code)
		}
	}
}

// TestSessionCap fills the live-session store: the next create answers
// 429, and finalizing one session frees a slot.
func TestSessionCap(t *testing.T) {
	ts := newTestServer(t)
	const body = `{"hosts":2,"vms":2,"fleet":"flat","horizonHours":1}`
	for i := 0; i < sessionMax; i++ {
		resp := postJSON(t, ts, "/api/sessions", body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("session %d: status %d", i+1, resp.StatusCode)
		}
	}
	resp := postJSON(t, ts, "/api/sessions", body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("session past the cap: status %d, want 429", resp.StatusCode)
	}
	resp = doDelete(t, ts, "/api/sessions/7")
	resp.Body.Close()
	resp = postJSON(t, ts, "/api/sessions", body)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create after finalize: status %d, want 201", resp.StatusCode)
	}
	if st := decode[SessionStatus](t, resp); st.ID != sessionMax+1 {
		t.Fatalf("new session id = %d, want %d", st.ID, sessionMax+1)
	}
}
