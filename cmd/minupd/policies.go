// The /policies surface: these routes manage a durable sharded catalog of
// named, versioned policies — created and replaced with PUT, refined with
// constraint appends, and served from a per-version memoized solve cache.
//
// Mutations answer as soon as the record is durable and the new version is
// visible, and queue the policy on its shard; the shard's background worker
// compiles the current version once and solves it cold. Add ?wait=1 to a
// PUT or append to run that same refresh inline instead: the response then
// reflects a warm cache. Without it, an append answers
// "refresh_pending": true. Mutation answers describe the version without
// its source texts; GET /policies/{name} is the one route that returns
// them.
//
// Optimistic concurrency is plain HTTP: every response carrying policy
// state sets an ETag holding the version; writers send If-Match with the
// version they read (412 on a lost race) or If-None-Match: * to insist on
// creating (409 if the name exists). Unconditional writes are allowed.
package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"minup/internal/catalog"
	"minup/internal/core"
	"minup/internal/jsoncodec"
	"minup/internal/obs"
)

// maxPolicyBody bounds PUT/POST request bodies; policy source texts are
// human-scale.
const maxPolicyBody = 4 << 20

// policyRequest is the JSON body of PUT /policies/{name} (both fields
// required) and POST /policies/{name}/constraints (constraints only).
type policyRequest struct {
	Lattice     string `json:"lattice"`
	Constraints string `json:"constraints"`
}

// policyIndexEntry is one row of GET /policies: the policy's identity and
// cache state plus its version rendered as the ETag a conditional writer
// would send back.
type policyIndexEntry struct {
	catalog.PolicyInfo
	ETag string `json:"etag"`
}

// policyListResponse is the JSON answer of GET /policies.
type policyListResponse struct {
	Count    int                `json:"count"`
	Policies []policyIndexEntry `json:"policies"`
}

// policyAppendResponse reports an accepted constraint append: the new
// version, plus refresh_pending when its compile and solve were left to a
// shard worker (an append without ?wait=1).
type policyAppendResponse struct {
	catalog.PolicyInfo
	RefreshPending bool `json:"refresh_pending,omitempty"`
}

// traceResponse is the JSON answer of GET /policies/{name}/trace: one fully
// instrumented solve and its reconstructed span tree.
type traceResponse struct {
	TraceID string       `json:"trace_id"`
	Spans   obs.SpanNode `json:"spans"`
}

// etag formats a policy version as a strong entity tag.
func etag(version uint64) string { return `"` + strconv.FormatUint(version, 10) + `"` }

// mutateOptionsFrom reads the ?wait=1 query knob: wait forces the solver
// refresh to run inline on this request instead of a shard worker.
func mutateOptionsFrom(r *http.Request) catalog.MutateOptions {
	switch r.URL.Query().Get("wait") {
	case "1", "true":
		return catalog.MutateOptions{Wait: true}
	}
	return catalog.MutateOptions{}
}

// preconditionFrom maps the request's conditional headers to a catalog
// version precondition: If-None-Match: * means create-only, If-Match "N"
// means the policy must still be at version N, If-Match: * or no header
// means unconditional.
func preconditionFrom(r *http.Request) (int64, error) {
	if inm := strings.TrimSpace(r.Header.Get("If-None-Match")); inm != "" {
		if inm != "*" {
			return 0, fmt.Errorf("If-None-Match only supports *, got %q", inm)
		}
		return catalog.MustNotExist, nil
	}
	im := strings.TrimSpace(r.Header.Get("If-Match"))
	if im == "" || im == "*" {
		return catalog.Unconditional, nil
	}
	v, err := strconv.ParseUint(strings.Trim(im, `"`), 10, 63)
	if err != nil || v == 0 {
		return 0, fmt.Errorf("malformed If-Match %q: want a version ETag like %q", im, etag(3))
	}
	return int64(v), nil
}

// policyFields names policyRequest's fields as its body spells them.
var policyFields = []string{"lattice", "constraints"}

// decodePolicyBody reads a bounded JSON body into dst, answering the
// failure itself (bodyError).
func decodePolicyBody(w http.ResponseWriter, r *http.Request, dst *policyRequest) bool {
	body, err := readBody(w, r)
	if err == nil {
		err = decodePolicy(body, dst)
	}
	if err != nil {
		bodyError(w, "decoding body: ", err)
		return false
	}
	return true
}

// decodePolicy reads a policy body into dst. The body is one JSON object
// and nothing after it but white space; a field given twice or spelled in
// another letter case is refused. Each text is a copy that owns exactly
// its bytes, so the policy that keeps it does not keep the body.
func decodePolicy(body []byte, dst *policyRequest) error {
	d := jsoncodec.NewCopyingDecoder(body)
	if !d.Null() {
		err := d.Object(policyFields, func(i int) error {
			if i == 0 {
				return d.OptStr(&dst.Lattice)
			}
			return d.OptStr(&dst.Constraints)
		})
		if err != nil {
			return err
		}
	}
	return d.Finish("JSON value")
}

// bodyError answers a request body that could not be read or decoded: 413
// when it ran past maxPolicyBody, else 400. The text is what, then err.
func bodyError(w http.ResponseWriter, what string, err error) {
	status := http.StatusBadRequest
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		status = http.StatusRequestEntityTooLarge
	}
	http.Error(w, what+err.Error(), status)
}

// policyError maps a catalog error to its status: 404 unknown name, 409
// create-only conflict, 412 lost version race, 422 unsolvable, 500 storage
// or solver failure, 503 catalog closed (shutdown), 504 budget expiry, and
// 400 for everything else (bad names, unparseable source text).
func (s *server) policyError(w http.ResponseWriter, r *http.Request, err error) {
	if ri := infoFrom(r.Context()); ri != nil {
		ri.errText = err.Error()
	}
	switch {
	case errors.Is(err, catalog.ErrNotFound):
		http.Error(w, err.Error(), http.StatusNotFound)
	case errors.Is(err, catalog.ErrExists):
		http.Error(w, err.Error(), http.StatusConflict)
	case errors.Is(err, catalog.ErrVersionMismatch):
		http.Error(w, err.Error(), http.StatusPreconditionFailed)
	case errors.Is(err, core.ErrUnsolvable):
		http.Error(w, err.Error(), http.StatusUnprocessableEntity)
	case errors.Is(err, catalog.ErrStorage):
		http.Error(w, err.Error(), http.StatusInternalServerError)
	case errors.Is(err, catalog.ErrClosed):
		// The catalog only closes during shutdown; tell the client to go
		// elsewhere rather than blaming the request.
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	case errors.Is(err, core.ErrInternal):
		http.Error(w, "internal solver error", http.StatusInternalServerError)
	case errors.Is(err, core.ErrCanceled), errors.Is(err, context.DeadlineExceeded):
		if r.Context().Err() != nil {
			http.Error(w, err.Error(), http.StatusRequestTimeout)
			return
		}
		http.Error(w, err.Error(), http.StatusGatewayTimeout)
	default:
		http.Error(w, err.Error(), http.StatusBadRequest)
	}
}

func (s *server) handlePolicyList(w http.ResponseWriter, _ *http.Request) {
	infos := s.cat.List()
	entries := make([]policyIndexEntry, len(infos))
	for i, info := range infos {
		entries[i] = policyIndexEntry{PolicyInfo: info, ETag: etag(info.Version)}
	}
	writeJSON(w, policyListResponse{Count: len(entries), Policies: entries})
}

func (s *server) handlePolicyGet(w http.ResponseWriter, r *http.Request) {
	info, err := s.cat.Get(r.PathValue("name"))
	if err != nil {
		s.policyError(w, r, err)
		return
	}
	w.Header().Set("ETag", etag(info.Version))
	writeJSON(w, info)
}

func (s *server) handlePolicyPut(w http.ResponseWriter, r *http.Request) {
	if !s.clusterWriteGate(w, r) {
		return
	}
	ifVersion, err := preconditionFrom(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	var req policyRequest
	if !decodePolicyBody(w, r, &req) {
		return
	}
	if req.Lattice == "" || req.Constraints == "" {
		http.Error(w, `body must carry both "lattice" and "constraints" text`, http.StatusBadRequest)
		return
	}
	s.putPolicy(w, r, r.PathValue("name"), req.Lattice, req.Constraints, ifVersion,
		func(info catalog.PolicyInfo) any { return info })
}

// putPolicy stores a policy's source texts under name once the request
// that carries them has passed its own checks; PUT /policies/{name} and
// POST /problems/{family} share it. With ?wait=1 the version is compiled
// and solved inline, so the put passes the same admission gate and solve
// budget as solves and appends. It answers every failure itself, and on
// success writes body(info) under the version's ETag: 201 for a new
// policy, 200 for a replaced one.
func (s *server) putPolicy(w http.ResponseWriter, r *http.Request, name, latticeText, constraintText string,
	ifVersion int64, body func(catalog.PolicyInfo) any) {
	opts := mutateOptionsFrom(r)
	ctx := r.Context()
	if opts.Wait {
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
	info, err := s.cat.Put(ctx, name, latticeText, constraintText, ifVersion, opts)
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
	w.Header().Set("ETag", etag(info.Version))
	status := http.StatusOK
	if info.Version == 1 {
		status = http.StatusCreated
	}
	writeBody(w, status, encodeJSON(body(info)))
}

func (s *server) handlePolicyDelete(w http.ResponseWriter, r *http.Request) {
	if !s.clusterWriteGate(w, r) {
		return
	}
	ifVersion, err := preconditionFrom(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	var opts catalog.MutateOptions
	var seq uint64
	if s.cfg.cluster.node != nil {
		opts.SeqOut = &seq
	}
	name := r.PathValue("name")
	if err := s.cat.Delete(r.Context(), name, ifVersion, opts); err != nil {
		s.policyError(w, r, err)
		return
	}
	if !s.clusterBarrier(r.Context(), w, r, s.cat.ShardOf(name), seq) {
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handlePolicyAppend runs POST /policies/{name}/constraints. Appends do
// solver work — at least the solvability check, and with ?wait=1 the
// version's compile and solve — so they pass the same admission gate and
// solve budget as solves.
func (s *server) handlePolicyAppend(w http.ResponseWriter, r *http.Request) {
	if !s.clusterWriteGate(w, r) {
		return
	}
	ifVersion, err := preconditionFrom(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	var req policyRequest
	if !decodePolicyBody(w, r, &req) {
		return
	}
	if req.Constraints == "" {
		http.Error(w, `body must carry "constraints" text`, http.StatusBadRequest)
		return
	}
	release, ok := s.admit(w, r)
	if !ok {
		return
	}
	defer release()
	ctx, cancel := context.WithTimeout(r.Context(), s.solveBudget(r.URL.Query()))
	defer cancel()
	if ri := infoFrom(r.Context()); ri != nil {
		ri.policy = r.PathValue("name")
	}
	opts := mutateOptionsFrom(r)
	var seq uint64
	if s.cfg.cluster.node != nil {
		opts.SeqOut = &seq
	}
	info, err := s.cat.Append(ctx, r.PathValue("name"), req.Constraints, ifVersion, opts)
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
	w.Header().Set("ETag", etag(info.Version))
	writeJSON(w, policyAppendResponse{PolicyInfo: info, RefreshPending: !opts.Wait})
}

// handlePolicySolve serves GET/POST /policies/{name}/solve. A warm version
// is the memoized answer, whatever the load: it costs no solve. Only a cold
// version — the first read of a version no refresh has warmed yet — runs
// Algorithm 3.1, and that solve carries the request's guards: under soft
// overload the Qian baseline answers in its place, a missed deadline falls
// back to the baseline on a fresh budget, and its solver events go to the
// flight's event log. ?trace=1 runs the request under a root span whose
// trace ID the response reports; a cold solve hangs under it the span tree
// rendered from that log.
func (s *server) handlePolicySolve(w http.ResponseWriter, r *http.Request) {
	release, ok := s.admit(w, r)
	if !ok {
		return
	}
	defer release()
	name := r.PathValue("name")
	query := r.URL.Query()
	budget := s.solveBudget(query)
	ctx, cancel := context.WithTimeout(r.Context(), budget)
	defer cancel()
	// Soft overload: the queue behind us is filling. A cold version gets
	// the secure baseline at once instead of burning a full solve budget.
	opt := catalog.SolveOptions{Baseline: s.gate.overloaded()}
	reason := "overload"
	ri := infoFrom(r.Context())
	if ri != nil {
		ri.policy = name
		if ri.flight != nil {
			// The flight's log takes its pooled buffer on the first event,
			// so a memo hit, which runs no solver, never takes one.
			opt.Events = ri.flight.Events()
		}
	}
	var root *obs.Span
	var traceID string
	if query.Get("trace") == "1" {
		tr := obs.NewTracer()
		root = tr.Start("request")
		traceID = tr.TraceID()
		ctx = obs.ContextWithSpan(ctx, root)
		if ri != nil {
			ri.traceID = traceID
			if ri.flight != nil {
				ri.flight.SetSpan(root)
			}
		}
	}
	res, err := s.cat.Serve(ctx, name, opt)
	if err != nil && !opt.Baseline && r.Context().Err() == nil &&
		(errors.Is(err, core.ErrCanceled) || errors.Is(err, context.DeadlineExceeded)) {
		// The cold solve missed its deadline: answer with the baseline on a
		// fresh budget, still abandoned if the client disconnects.
		reason = "deadline"
		opt = catalog.SolveOptions{Baseline: true}
		bctx, bcancel := context.WithTimeout(r.Context(), budget)
		defer bcancel()
		res, err = s.cat.Serve(bctx, name, opt)
	}
	if root != nil {
		root.End()
	}
	if err != nil {
		if opt.Baseline && r.Context().Err() == nil &&
			!errors.Is(err, catalog.ErrNotFound) && !errors.Is(err, core.ErrInternal) {
			// No minimal answer and no baseline either (Qian does not
			// support upper bounds): shed honestly.
			if ri != nil {
				ri.errText = err.Error()
			}
			w.Header().Set("Retry-After", "1")
			http.Error(w, "degraded solve failed: "+err.Error(), http.StatusServiceUnavailable)
			return
		}
		s.policyError(w, r, err)
		return
	}
	out := solveAnswer{
		name:     res.Info.Name,
		version:  res.Info.Version,
		cacheHit: res.CacheHit,
		stats:    newSolveStats(res.Stats),
		traceID:  traceID,
	}
	if res.Baseline {
		s.reg.Counter("solve.degraded").Inc()
		s.reg.Counter("solve.degraded." + reason).Inc()
		out.degraded, out.degradeReason, out.upgradedAttrs = true, reason, res.UpgradedAttrs
	}
	if ri != nil {
		ri.shard = res.Info.Shard
		ri.cacheHit = res.CacheHit
		ri.stats = flightStatsOf(res.Stats)
		ri.degraded, ri.degradeReason = out.degraded, out.degradeReason
	}
	w.Header().Set("ETag", etag(res.Info.Version))
	encode := func() []byte { return solveBody(out, res.Pairs()) }
	if traceID != "" {
		// The trace ID belongs to this request, so its body must never be
		// the version's stored one.
		writeBody(w, http.StatusOK, encode())
		return
	}
	// A hit's body depends on its version alone: the first hit writes it,
	// and every later hit of the version writes the same bytes.
	writeBody(w, http.StatusOK, res.EncodeOnce(encode))
}

// handlePolicyTrace serves GET /policies/{name}/trace: one fully
// instrumented solve of the current version's compiled snapshot, behind the
// same gate and budget as a solve, rendered as a span tree
// (?format=json|chrome|flame). The memoized answer is left untouched.
func (s *server) handlePolicyTrace(w http.ResponseWriter, r *http.Request) {
	release, ok := s.admit(w, r)
	if !ok {
		return
	}
	defer release()
	ri := infoFrom(r.Context())
	if ri != nil {
		ri.policy = r.PathValue("name")
	}
	info, compiled, err := s.cat.Compiled(r.PathValue("name"))
	if err != nil {
		s.policyError(w, r, err)
		return
	}
	tr := obs.NewTracer()
	root := tr.Start("request")
	if ri != nil {
		ri.shard = info.Shard
		ri.traceID = tr.TraceID()
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.solveBudget(r.URL.Query()))
	defer cancel()
	_, err = core.SolveContext(obs.ContextWithSpan(ctx, root), compiled, core.Options{Metrics: s.reg, Fault: s.cfg.fault})
	root.End()
	if err != nil {
		s.policyError(w, r, err)
		return
	}
	w.Header().Set("ETag", etag(info.Version))
	switch r.URL.Query().Get("format") {
	case "chrome":
		w.Header().Set("Content-Type", "application/json")
		obs.WriteChromeTrace(w, root)
	case "flame":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		obs.WriteFlameSummary(w, root)
	default:
		writeJSON(w, traceResponse{TraceID: tr.TraceID(), Spans: root.Node(root.StartTime())})
	}
}

// newSolveStats maps the solver's stats block to its JSON shape.
func newSolveStats(st core.Stats) solveStats {
	return solveStats{
		Tries:          st.Tries,
		FailedTries:    st.FailedTries,
		Collapses:      st.Collapses,
		AttrsProcessed: st.AttrsProcessed,
		MinlevelCalls:  st.MinlevelCalls,
		TrySteps:       st.TrySteps,
		DescentSteps:   st.DescentSteps,
		PoolHit:        st.PoolHit,
		DurationUS:     st.Duration.Microseconds(),
	}
}
