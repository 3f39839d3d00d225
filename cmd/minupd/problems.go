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

	"minup"
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

// problemResponse reports a stored compiled problem: the catalog row it
// became plus the family and instance it came from.
type problemResponse struct {
	minup.PolicyInfo
	Family   string `json:"family"`
	Instance string `json:"instance"`
}

func (s *server) handleProblemList(w http.ResponseWriter, _ *http.Request) {
	families := minup.ProblemFamilies()
	entries := make([]problemFamilyEntry, 0, len(families))
	for _, name := range families {
		fe, ok := minup.LookupProblemFrontend(name)
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
	fe, ok := minup.LookupProblemFrontend(family)
	if !ok {
		http.Error(w, "unknown problem family "+family+" (have "+strings.Join(minup.ProblemFamilies(), ", ")+")",
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
	s.putPolicy(w, r, name, c.LatticeText, c.ConstraintText, ifVersion, func(info minup.PolicyInfo) any {
		s.problemsCreated[family].Inc()
		return problemResponse{PolicyInfo: info, Family: family, Instance: inst.InstanceName()}
	})
}
