package api

import (
	"encoding/json"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"agilepower"
)

// Live sessions: a scenario is started once and then driven by
// explicit advance/maintenance calls, so external tooling can
// interleave operator actions with simulated time — the HTTP face of
// the library's Session API. A session is admitted by the same prepare
// step as POST /v1/runs, forks the same world pool, and finalizes to
// the same canonical RunResult bytes: a session advanced straight to
// its horizon and finalized answers exactly what /v1/runs?wait=1 of
// the same body does.
//
//	POST   /api/sessions                     {run request…}         → status
//	GET    /api/sessions                                            → list
//	GET    /api/sessions/{id}                                       → status
//	POST   /api/sessions/{id}/advance        {"toHours": 6}         → status
//	POST   /api/sessions/{id}/maintenance    {"host": 2, "exit": false}
//	POST   /api/sessions/{id}/vms            {"name":…,"vcpus":…}   → {vmId}
//	DELETE /api/sessions/{id}                finalize               → RunResult
//	GET    /api/sessions/{id}/events                                → text timeline

// sessionMax bounds live sessions. Like a pooled world (protoCacheMax)
// each holds a full host fleet and VM traces, and only finalize frees
// one, so creation past the cap answers 429 instead of growing the
// store with every request.
const sessionMax = 64

// liveSession is one started scenario. mu serializes every use of
// session — a simulation is single-threaded — and session is nil once
// the session is finalized (or failed to start), so a handler that
// gets mu after that answers 404.
type liveSession struct {
	id   int
	name string
	vms  int // initial fleet size, for the final RunResult

	mu      sync.Mutex
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

// add registers ls under a fresh ID, or reports false when sessionMax
// sessions are already live.
func (st *sessionStore) add(ls *liveSession) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	if len(st.live) >= sessionMax {
		return false
	}
	ls.id = st.nextID
	st.nextID++
	st.live[ls.id] = ls
	return true
}

func (st *sessionStore) remove(id int) {
	st.mu.Lock()
	delete(st.live, id)
	st.mu.Unlock()
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

// status reads the session's live view; the caller holds ls.mu.
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
	p, _, ok := s.prepareRun(w, r)
	if !ok {
		return
	}
	// Register before building, with mu held: the slot is reserved
	// against the cap, and calls on the new ID wait for the world.
	ls := &liveSession{name: p.sc.Name, vms: len(p.sc.VMs)}
	ls.mu.Lock()
	defer ls.mu.Unlock()
	if !s.sessions.add(ls) {
		writeError(w, http.StatusTooManyRequests, "%d sessions live; finalize one first", sessionMax)
		return
	}
	session, err := s.startSession(p)
	if err != nil {
		s.sessions.remove(ls.id)
		writeError(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	ls.session = session
	writeJSON(w, http.StatusCreated, ls.status())
}

// lockSession returns the path's live session with its mu held, or
// answers 404 when there is none (a malformed ID parses as 0, which
// no session has).
func (s *Server) lockSession(w http.ResponseWriter, r *http.Request) (*liveSession, bool) {
	id, _ := strconv.Atoi(r.PathValue("id"))
	s.sessions.mu.Lock()
	ls := s.sessions.live[id]
	s.sessions.mu.Unlock()
	if ls != nil {
		ls.mu.Lock()
		if ls.session != nil {
			return ls, true
		}
		ls.mu.Unlock()
	}
	writeError(w, http.StatusNotFound, "session not found")
	return nil, false
}

func (s *Server) handleListSessions(w http.ResponseWriter, r *http.Request) {
	s.sessions.mu.Lock()
	all := make([]*liveSession, 0, len(s.sessions.live))
	for _, ls := range s.sessions.live {
		all = append(all, ls)
	}
	s.sessions.mu.Unlock()
	sort.Slice(all, func(i, j int) bool { return all[i].id < all[j].id })
	out := make([]SessionStatus, 0, len(all))
	for _, ls := range all {
		ls.mu.Lock()
		if ls.session != nil {
			out = append(out, ls.status())
		}
		ls.mu.Unlock()
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleSessionStatus(w http.ResponseWriter, r *http.Request) {
	ls, ok := s.lockSession(w, r)
	if !ok {
		return
	}
	defer ls.mu.Unlock()
	writeJSON(w, http.StatusOK, ls.status())
}

func (s *Server) handleSessionAdvance(w http.ResponseWriter, r *http.Request) {
	var req struct {
		ToHours float64 `json:"toHours"`
		ByHours float64 `json:"byHours"`
	}
	if !decodeBody(w, r, &req) {
		return
	}
	ls, ok := s.lockSession(w, r)
	if !ok {
		return
	}
	defer ls.mu.Unlock()
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
	var req struct {
		Host int  `json:"host"`
		Exit bool `json:"exit"`
	}
	if !decodeBody(w, r, &req) {
		return
	}
	ls, ok := s.lockSession(w, r)
	if !ok {
		return
	}
	defer ls.mu.Unlock()
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
	ls, ok := s.lockSession(w, r)
	if !ok {
		return
	}
	defer ls.mu.Unlock()
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

// handleSessionFinalize ends the session, frees its slot, and answers
// its canonical RunResult.
func (s *Server) handleSessionFinalize(w http.ResponseWriter, r *http.Request) {
	ls, ok := s.lockSession(w, r)
	if !ok {
		return
	}
	defer ls.mu.Unlock()
	res := ls.session.Result()
	ls.session = nil
	s.sessions.remove(ls.id)
	body, err := json.Marshal(summarize(ls.name, ls.vms, res))
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeRaw(w, http.StatusOK, body)
}

func (s *Server) handleSessionEvents(w http.ResponseWriter, r *http.Request) {
	ls, ok := s.lockSession(w, r)
	if !ok {
		return
	}
	defer ls.mu.Unlock()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if err := ls.session.Events().Write(w); err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
	}
}
