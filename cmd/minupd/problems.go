// The /problems surface: source-problem ingestion through the problem
// frontends. POST /problems/{family} accepts a frontend's JSON instance
// format (a suppress cross-tab table, a depinf relation), compiles it to
// policy source texts, and stores it through the ordinary catalog Put —
// so sharding, replication, memoized solves, flight records, and SLO
// gates all apply to compiled problems exactly as to hand-written
// policies. The response carries the stored PolicyInfo plus the compiled
// shape, and the policy is then served by the normal /policies routes.
package main

import (
	"context"
	"io"
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
// became plus the compiled constraint shape.
type problemResponse struct {
	minup.PolicyInfo
	Family      string `json:"family"`
	Instance    string `json:"instance"`
	Attrs       int    `json:"attrs"`
	Constraints int    `json:"constraints"`
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
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxPolicyBody))
	if err != nil {
		http.Error(w, "reading body: "+err.Error(), http.StatusBadRequest)
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
	opts := mutateOptionsFrom(r)
	ctx := r.Context()
	if opts.Wait {
		// ?wait=1 solves inline, so it passes the same admission gate and
		// solve budget as policy solves and mutations.
		release, ok := s.admit(w, r)
		if !ok {
			return
		}
		defer release()
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.solveBudget(r.URL.Query()))
		defer cancel()
	}
	if ri := infoFrom(r.Context()); ri != nil {
		ri.policy = name
	}
	var seq uint64
	if s.cfg.cluster.node != nil {
		opts.SeqOut = &seq
	}
	info, err := s.cat.Put(ctx, name, c.LatticeText, c.ConstraintText, ifVersion, opts)
	if err != nil {
		s.policyError(w, r, err)
		return
	}
	if ri := infoFrom(r.Context()); ri != nil {
		ri.shard = info.Shard
	}
	if !s.clusterBarrier(r.Context(), w, r, info.Shard, seq) {
		return
	}
	s.reg.Counter("problems." + family + ".created").Inc()
	w.Header().Set("ETag", etag(info.Version))
	status := http.StatusOK
	if info.Version == 1 {
		status = http.StatusCreated
	}
	writeJSONStatus(w, status, problemResponse{
		PolicyInfo:  info,
		Family:      family,
		Instance:    inst.InstanceName(),
		Attrs:       c.Set.NumAttrs(),
		Constraints: len(c.Set.Constraints()),
	})
}
