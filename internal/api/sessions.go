package api

import (
	"net/http"
	"sort"
	"sync"
	"time"

	"agilepower"
)

// Live sessions: a scenario is started once and then driven by
// explicit advance/maintenance calls, so external tooling can
// interleave operator actions with simulated time — the HTTP face of
// the library's Session API.
//
//	POST   /api/sessions                     {scenario…}            → {id,…}
//	GET    /api/sessions                                            → list
//	GET    /api/sessions/{id}                                       → status
//	POST   /api/sessions/{id}/advance        {"toHours": 6}         → status
//	POST   /api/sessions/{id}/maintenance    {"host": 2, "exit": false}
//	POST   /api/sessions/{id}/vms            {"name":…,"vcpus":…}   → {vmId}
//	DELETE /api/sessions/{id}                finalize               → RunResponse
//	GET    /api/sessions/{id}/events                                → text timeline

type liveSession struct {
	id      int
	name    string
	session *agilepower.Session
}

// SessionStatus is the live view of one session.
type SessionStatus struct {
	ID          int     `json:"id"`
	Name        string  `json:"name"`
	NowHours    float64 `json:"nowHours"`
	ActiveHosts int     `json:"activeHosts"`
	PowerW      float64 `json:"powerW"`
	DemandCores float64 `json:"demandCores"`
}

type sessionStore struct {
	mu     sync.Mutex
	nextID int
	live   map[int]*liveSession
}

func newSessionStore() *sessionStore {
	return &sessionStore{nextID: 1, live: make(map[int]*liveSession)}
}

func (s *Server) registerSessionRoutes(mux *http.ServeMux) {
	mux.HandleFunc("POST /api/sessions", s.handleCreateSession)
	mux.HandleFunc("GET /api/sessions", s.handleListSessions)
	mux.HandleFunc("GET /api/sessions/{id}", s.handleSessionStatus)
	mux.HandleFunc("POST /api/sessions/{id}/advance", s.handleSessionAdvance)
	mux.HandleFunc("POST /api/sessions/{id}/maintenance", s.handleSessionMaintenance)
	mux.HandleFunc("POST /api/sessions/{id}/vms", s.handleSessionAddVM)
	mux.HandleFunc("DELETE /api/sessions/{id}", s.handleSessionFinalize)
	mux.HandleFunc("GET /api/sessions/{id}/events", s.handleSessionEvents)
}

func (ls *liveSession) status() SessionStatus {
	return SessionStatus{
		ID:          ls.id,
		Name:        ls.name,
		NowHours:    ls.session.Now().Hours(),
		ActiveHosts: ls.session.ActiveHosts(),
		PowerW:      ls.session.PowerW(),
		DemandCores: ls.session.DemandCores(),
	}
}

func (s *Server) handleCreateSession(w http.ResponseWriter, r *http.Request) {
	var req RunRequest
	if !decodeBody(w, r, &req) {
		return
	}
	sc, err := s.buildScenario(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	session, err := sc.Start()
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	s.sessions.mu.Lock()
	ls := &liveSession{id: s.sessions.nextID, name: sc.Name, session: session}
	s.sessions.nextID++
	s.sessions.live[ls.id] = ls
	s.sessions.mu.Unlock()
	writeJSON(w, http.StatusCreated, ls.status())
}

func (s *Server) lookupSession(r *http.Request) (*liveSession, bool) {
	id, err := atoiPath(r)
	if err != nil {
		return nil, false
	}
	s.sessions.mu.Lock()
	defer s.sessions.mu.Unlock()
	ls, ok := s.sessions.live[id]
	return ls, ok
}

func (s *Server) handleListSessions(w http.ResponseWriter, r *http.Request) {
	s.sessions.mu.Lock()
	out := make([]SessionStatus, 0, len(s.sessions.live))
	for _, ls := range s.sessions.live {
		out = append(out, ls.status())
	}
	s.sessions.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleSessionStatus(w http.ResponseWriter, r *http.Request) {
	ls, ok := s.lookupSession(r)
	if !ok {
		writeError(w, http.StatusNotFound, "session not found")
		return
	}
	writeJSON(w, http.StatusOK, ls.status())
}

func (s *Server) handleSessionAdvance(w http.ResponseWriter, r *http.Request) {
	ls, ok := s.lookupSession(r)
	if !ok {
		writeError(w, http.StatusNotFound, "session not found")
		return
	}
	var req struct {
		ToHours float64 `json:"toHours"`
		ByHours float64 `json:"byHours"`
	}
	if !decodeBody(w, r, &req) {
		return
	}
	var err error
	switch {
	case req.ToHours > 0:
		// Compare in float hours: huge values would overflow the
		// Duration conversion before any Duration-based check.
		if req.ToHours > s.cfg.MaxHorizon.Hours() {
			writeError(w, http.StatusBadRequest, "target beyond %v", s.cfg.MaxHorizon)
			return
		}
		err = ls.session.RunUntil(time.Duration(req.ToHours * float64(time.Hour)))
	case req.ByHours > 0:
		if req.ByHours+ls.session.Now().Hours() > s.cfg.MaxHorizon.Hours() {
			writeError(w, http.StatusBadRequest, "target beyond %v", s.cfg.MaxHorizon)
			return
		}
		err = ls.session.Step(time.Duration(req.ByHours * float64(time.Hour)))
	default:
		writeError(w, http.StatusBadRequest, "need toHours or byHours > 0")
		return
	}
	if err != nil {
		writeError(w, http.StatusConflict, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, ls.status())
}

func (s *Server) handleSessionMaintenance(w http.ResponseWriter, r *http.Request) {
	ls, ok := s.lookupSession(r)
	if !ok {
		writeError(w, http.StatusNotFound, "session not found")
		return
	}
	var req struct {
		Host int  `json:"host"`
		Exit bool `json:"exit"`
	}
	if !decodeBody(w, r, &req) {
		return
	}
	var err error
	if req.Exit {
		err = ls.session.ExitMaintenance(req.Host)
	} else {
		err = ls.session.EnterMaintenance(req.Host)
	}
	if err != nil {
		writeError(w, http.StatusConflict, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"host":    req.Host,
		"drained": ls.session.MaintenanceReady(req.Host),
	})
}

func (s *Server) handleSessionAddVM(w http.ResponseWriter, r *http.Request) {
	ls, ok := s.lookupSession(r)
	if !ok {
		writeError(w, http.StatusNotFound, "session not found")
		return
	}
	var req struct {
		Name        string  `json:"name"`
		VCPUs       float64 `json:"vcpus"`
		MemoryGB    float64 `json:"memoryGB"`
		DemandCores float64 `json:"demandCores"`
	}
	if !decodeBody(w, r, &req) {
		return
	}
	if req.VCPUs <= 0 {
		req.VCPUs = 4
	}
	if req.MemoryGB <= 0 {
		req.MemoryGB = 8
	}
	if req.DemandCores <= 0 {
		req.DemandCores = 1
	}
	id, err := ls.session.AddVM(agilepower.VMSpec{
		Name:     req.Name,
		VCPUs:    req.VCPUs,
		MemoryGB: req.MemoryGB,
		Trace:    agilepower.ConstantTrace(req.DemandCores),
	})
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]int{"vmId": id})
}

func (s *Server) handleSessionFinalize(w http.ResponseWriter, r *http.Request) {
	ls, ok := s.lookupSession(r)
	if !ok {
		writeError(w, http.StatusNotFound, "session not found")
		return
	}
	s.sessions.mu.Lock()
	delete(s.sessions.live, ls.id)
	s.sessions.mu.Unlock()

	res := ls.session.Result()
	resp := RunResponse{
		Name:              ls.name,
		Policy:            res.Policy,
		Hosts:             res.Hosts,
		HorizonH:          res.Horizon.Hours(),
		EnergyKWh:         res.EnergyKWh(),
		MeanPowerW:        res.MeanPowerW,
		Satisfaction:      res.Satisfaction,
		ViolationFraction: res.ViolationFraction,
		Migrations:        res.Migrations.Completed,
		Sleeps:            res.Sleeps,
		Wakes:             res.Wakes,
	}
	// The finalized session is archived as a regular run so its series
	// and events stay fetchable.
	s.mu.Lock()
	resp.ID = s.nextID
	s.nextID++
	s.runs[resp.ID] = &storedRun{resp: resp, result: res}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleSessionEvents(w http.ResponseWriter, r *http.Request) {
	ls, ok := s.lookupSession(r)
	if !ok {
		writeError(w, http.StatusNotFound, "session not found")
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if err := ls.session.Events().Write(w); err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
	}
}
