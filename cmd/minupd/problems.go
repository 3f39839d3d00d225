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

// readBody reads r's body, capped at maxPolicyBody. A body whose
// Content-Length is within the cap is read into a buffer of that size; any
// other body, chunked or too long, into one that grows as it reads.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	var size int64
	if n := r.ContentLength; n > 0 && n <= maxPolicyBody {
		size = n
	}
	// MinRead more, so that ReadFrom meets EOF without growing the buffer.
	buf := bytes.NewBuffer(make([]byte, 0, size+bytes.MinRead))
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxPolicyBody))
	return buf.Bytes(), err
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
		bodyError(w, "reading body: ", err)
		return
	}
	inst, err := fe.Parse(body)
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
