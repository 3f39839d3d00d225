// The /problems surface: source-problem ingestion through the problem
// frontends. POST /problems/{family} accepts a frontend's JSON instance
// format (a suppress cross-tab table, a depinf relation), compiles it to
// policy source texts, and stores the texts through the same path as
// PUT /policies/{name} — so sharding, replication, memoized solves,
// flight records, and SLO gates all apply to compiled problems exactly as
// to hand-written policies, and the catalog's parse is the only
// constraint set built for the problem. The response carries the stored
// PolicyInfo, whose counts describe that set, plus the family and the
// instance name; the policy is then served by the normal /policies
// routes.
package main

import (
	"bytes"
	"net/http"
	"strings"
	"sync"

	"minup/internal/frontend"
	// The families register themselves with frontend on import.
	_ "minup/internal/frontend/depinf"
	_ "minup/internal/frontend/suppress"
)

// problemFamilyEntry is one row of GET /problems.
type problemFamilyEntry struct {
	Family   string `json:"family"`
	Describe string `json:"describe"`
}

// problemListResponse is the JSON answer of GET /problems.
type problemListResponse struct {
	Count    int                  `json:"count"`
	Families []problemFamilyEntry `json:"families"`
}

func (s *server) handleProblemList(w http.ResponseWriter, _ *http.Request) {
	families := frontend.Families()
	entries := make([]problemFamilyEntry, 0, len(families))
	for _, name := range families {
		fe, ok := frontend.Lookup(name)
		if !ok {
			continue
		}
		entries = append(entries, problemFamilyEntry{Family: name, Describe: fe.Describe()})
	}
	writeJSON(w, problemListResponse{Count: len(entries), Families: entries})
}

// bodyPool keeps request-body buffers between requests: readBody takes
// one and releaseBody gives it back once the body is decoded. So whatever
// a handler keeps of a body must be a copy; every body reader makes one
// (decodePolicy, and both frontends' Parse).
var bodyPool = sync.Pool{New: func() any { return new([]byte) }}

// maxPooledBody is the largest buffer bodyPool keeps. A buffer that grew
// past it for an outsized body is dropped rather than kept, so one such
// body does not stay allocated.
const maxPooledBody = 256 << 10

// readBody reads r's body, capped at maxPolicyBody, into a buffer from
// bodyPool, grown first to the body's Content-Length when that is within
// the cap. The caller gives the buffer back with releaseBody, also after
// an error.
func readBody(w http.ResponseWriter, r *http.Request) (*[]byte, error) {
	bp := bodyPool.Get().(*[]byte)
	buf := bytes.NewBuffer((*bp)[:0])
	if n := r.ContentLength; n > 0 && n <= maxPolicyBody {
		// MinRead more, so that ReadFrom meets EOF without growing the
		// buffer.
		buf.Grow(int(n) + bytes.MinRead)
	}
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxPolicyBody))
	*bp = buf.Bytes()
	return bp, err
}

// releaseBody gives a buffer readBody returned back to bodyPool, unless it
// grew past maxPooledBody. Nothing may read the body after it.
func releaseBody(bp *[]byte) {
	if cap(*bp) <= maxPooledBody {
		bodyPool.Put(bp)
	}
}

func (s *server) handleProblemCreate(w http.ResponseWriter, r *http.Request) {
	family := r.PathValue("family")
	fe, ok := frontend.Lookup(family)
	if !ok {
		http.Error(w, "unknown problem family "+family+" (have "+strings.Join(frontend.Families(), ", ")+")",
			http.StatusNotFound)
		return
	}
	if !s.clusterWriteGate(w, r) {
		return
	}
	ifVersion, err := preconditionFrom(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	body, err := readBody(w, r)
	if err != nil {
		releaseBody(body)
		bodyError(w, "reading body: ", err)
		return
	}
	inst, err := fe.Parse(*body)
	releaseBody(body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	c, err := fe.Compile(inst)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	name := inst.InstanceName()
	if q := r.URL.Query().Get("name"); q != "" {
		name = q
	}
	if s.putPolicy(w, r, name, c.LatticeText, c.ConstraintText, ifVersion,
		infoTail{problem: true, family: family, instance: inst.InstanceName()}) {
		s.problemsCreated[family].Inc()
	}
}
