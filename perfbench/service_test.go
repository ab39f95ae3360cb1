package main

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// With one connection and a server slower than the schedule, later
// requests wait for the connection; their latency is timed from the
// due time, so it includes that wait, while the generator's own
// lateness stays small.
func TestDriveTimesFromDueTime(t *testing.T) {
	const delay = 30 * time.Millisecond
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(delay)
		w.Header().Set("X-Cache", "hit")
		w.Write([]byte("{}"))
	}))
	defer srv.Close()
	reqs := make([]*svcReq, 4)
	for i := range reqs {
		reqs[i] = &svcReq{class: classHit, due: time.Duration(i) * time.Millisecond, body: []byte("{}")}
	}
	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}}
	defer client.CloseIdleConnections()
	samples := drive(client, srv.URL, reqs, 1, time.Now())
	for i, s := range samples {
		if s.err != nil || s.status != http.StatusOK {
			t.Fatalf("request %d: %v %d", i, s.err, s.status)
		}
		// Request i finishes after i+1 server delays from the start,
		// and was due i ms after the start.
		if floor := time.Duration(i+1)*delay - time.Duration(i)*time.Millisecond; s.latency() < floor {
			t.Errorf("request %d: latency %v, want at least %v (queued behind earlier requests)", i, s.latency(), floor)
		}
		if s.done.Sub(s.sent) > s.latency() {
			t.Errorf("request %d: service time exceeds latency from due", i)
		}
	}
	for i, l := range lateness(samples) {
		if l < 0 || l > 50 {
			t.Errorf("request %d: generator %g ms late", i, l)
		}
	}
}

// A refused request (429) is a failed operation.
func TestRejectedRequestCountsAsError(t *testing.T) {
	warm := [][]byte{[]byte(`{"policy":"dpm-s3"}`)}
	samples := []svcSample{
		{req: &svcReq{class: classHit}, status: http.StatusOK, body: warm[0]},
		{req: &svcReq{class: classHit}, status: http.StatusTooManyRequests, body: []byte(`{"error":"queue full"}`)},
		{req: &svcReq{class: classHit}, status: http.StatusOK, body: []byte(`{"policy":"other"}`)},
		{req: &svcReq{class: classFork, policy: "static"}, status: http.StatusOK,
			body: []byte(`{"policy":"static","hosts":8,"vms":32,"energyKWh":1.5,"satisfaction":0.99}`)},
	}
	o := newOutcome(nil)
	checkPhase(samples, warm, newChecker("service-mix", 1, refs{}), o)
	if o.attempted != 4 || o.failed != 2 || o.errorRate() != 0.5 {
		t.Fatalf("attempted %d failed %d rate %g: want the 429 and the altered hit body to fail",
			o.attempted, o.failed, o.errorRate())
	}
}

// A fork body that passes the plausibility check but differs from its
// recorded reference, as another fleet's result would, is a failed
// operation.
func TestForkBodyCheckedAgainstReference(t *testing.T) {
	good := []byte(`{"policy":"static","hosts":8,"vms":32,"energyKWh":1.5,"satisfaction":0.99}`)
	other := []byte(`{"policy":"static","hosts":8,"vms":32,"energyKWh":1.6,"satisfaction":0.99}`)
	chk := newChecker("service-mix", 1, refs{"service-mix/1/s10-fork1": digestBytes(good)})
	fork := &svcReq{class: classFork, policy: "static", cell: "s10-fork1"}
	o := newOutcome(nil)
	checkPhase([]svcSample{{req: fork, status: http.StatusOK, body: good}}, nil, chk, o)
	checkPhase([]svcSample{{req: fork, status: http.StatusOK, body: other}}, nil, chk, o)
	if o.attempted != 2 || o.failed != 1 {
		t.Fatalf("attempted %d failed %d: want only the other fleet's body to fail", o.attempted, o.failed)
	}
}

// However long the run, the unseen fleets of one daemon lifetime stay
// under the prototype pool's bound, and every fork and cold request has
// its own reference key.
func TestPlanColdsFitThePool(t *testing.T) {
	for _, seconds := range []float64{1, 10, 60} {
		p := newPlan(1, seconds)
		cells := map[string]bool{}
		colds := 0
		for _, r := range append(append(append([]*svcReq(nil), p.warm...), p.light...), p.heavy...) {
			if r.class == classCold {
				colds++
			}
			if r.class == classHit {
				continue
			}
			if r.cell == "" || cells[r.cell] {
				t.Fatalf("%gs: %s request with cell %q", seconds, r.class, r.cell)
			}
			cells[r.cell] = true
		}
		if colds > maxColds || svcShapes+colds >= 64 {
			t.Errorf("%gs: %d cold requests, cap %d", seconds, colds, maxColds)
		}
	}
}

// The schedule is a function of the seed alone.
func TestPlanIsSeeded(t *testing.T) {
	a, b, c := newPlan(3, 10), newPlan(3, 10), newPlan(4, 10)
	if len(a.heavy) != heavyRPS*7 || len(a.light) != lightRPS*3 {
		t.Fatalf("plan sizes %d/%d", len(a.light), len(a.heavy))
	}
	same, differs := true, false
	for i := range a.heavy {
		same = same && string(a.heavy[i].body) == string(b.heavy[i].body)
		differs = differs || string(a.heavy[i].body) != string(c.heavy[i].body)
	}
	if !same || !differs {
		t.Fatalf("same seed same plan: %t; other seed other plan: %t", same, differs)
	}
}
