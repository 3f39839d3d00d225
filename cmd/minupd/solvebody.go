package main

import (
	"strconv"

	"minup/internal/jsoncodec"
)

// solveAnswer is what the body of GET/POST /policies/{name}/solve says
// besides the assignment. The fields after stats are omitted from a plain
// memo answer.
type solveAnswer struct {
	name     string
	version  uint64
	cacheHit bool
	stats    solveStats
	traceID  string

	// degraded marks an answer produced by the Qian baseline instead of
	// the minimal solver: still satisfying every constraint, but
	// over-classified. degradeReason is "deadline" or "overload", and
	// upgradedAttrs the number of attributes classified above lattice
	// bottom.
	degraded      bool
	degradeReason string
	upgradedAttrs int
}

type solveStats struct {
	Tries          int   `json:"tries"`
	FailedTries    int   `json:"failed_tries"`
	Collapses      int   `json:"collapses"`
	AttrsProcessed int   `json:"attrs_processed"`
	MinlevelCalls  int   `json:"minlevel_calls"`
	TrySteps       int   `json:"try_steps"`
	DescentSteps   int   `json:"descent_steps"`
	PoolHit        bool  `json:"pool_hit"`
	DurationUS     int64 `json:"duration_us"`
}

// levelPairs is an answer's assignment, its attribute names and levels in
// name order, as minup.PolicySolveResult.Pairs lists it.
type levelPairs interface {
	Len() int
	At(i int) (name, level string)
}

// solveBody writes the JSON body of a solve answer whose assignment is
// pairs. The bytes are those encoding/json writes for the same answer as
// an object with the assignment as a map (the reference in the tests):
// two-space indent, fields in the order name, version, cache_hit,
// assignment, stats, then trace_id, degraded, degrade_reason and
// upgraded_attrs when set, strings escaped as encoding/json escapes them,
// and a trailing newline. It measures the body before writing it, so the
// slice it returns is allocated once at the body's length: a memo keeps it
// for the version's lifetime.
func solveBody(a solveAnswer, pairs levelPairs) []byte {
	var buf [512]byte
	head := appendSolveHead(buf[:0], a)
	tail := appendSolveTail(head[len(head):], a)
	n := pairs.Len()
	size := len(head) + len(tail)
	for i := range n {
		name, level := pairs.At(i)
		size += len(",\n    ") + jsoncodec.StringLen(name) + len(": ") + jsoncodec.StringLen(level)
	}
	if n > 0 {
		size += len("\n  ") - len(",")
	}
	b := make([]byte, 0, size)
	b = append(b, head...)
	for i := range n {
		if i > 0 {
			b = append(b, ',')
		}
		name, level := pairs.At(i)
		b = append(b, "\n    "...)
		b = jsoncodec.AppendString(b, name)
		b = append(b, ": "...)
		b = jsoncodec.AppendString(b, level)
	}
	if n > 0 {
		b = append(b, "\n  "...)
	}
	return append(b, tail...)
}

// appendSolveHead writes the body up to the assignment's opening brace.
func appendSolveHead(b []byte, a solveAnswer) []byte {
	b = append(b, "{\n  \"name\": "...)
	b = jsoncodec.AppendString(b, a.name)
	b = append(b, ",\n  \"version\": "...)
	b = strconv.AppendUint(b, a.version, 10)
	b = append(b, ",\n  \"cache_hit\": "...)
	b = strconv.AppendBool(b, a.cacheHit)
	return append(b, ",\n  \"assignment\": {"...)
}

// appendSolveTail writes the body from the assignment's closing brace on.
func appendSolveTail(b []byte, a solveAnswer) []byte {
	st := a.stats
	b = append(b, "},\n  \"stats\": {\n    \"tries\": "...)
	b = strconv.AppendInt(b, int64(st.Tries), 10)
	b = append(b, ",\n    \"failed_tries\": "...)
	b = strconv.AppendInt(b, int64(st.FailedTries), 10)
	b = append(b, ",\n    \"collapses\": "...)
	b = strconv.AppendInt(b, int64(st.Collapses), 10)
	b = append(b, ",\n    \"attrs_processed\": "...)
	b = strconv.AppendInt(b, int64(st.AttrsProcessed), 10)
	b = append(b, ",\n    \"minlevel_calls\": "...)
	b = strconv.AppendInt(b, int64(st.MinlevelCalls), 10)
	b = append(b, ",\n    \"try_steps\": "...)
	b = strconv.AppendInt(b, int64(st.TrySteps), 10)
	b = append(b, ",\n    \"descent_steps\": "...)
	b = strconv.AppendInt(b, int64(st.DescentSteps), 10)
	b = append(b, ",\n    \"pool_hit\": "...)
	b = strconv.AppendBool(b, st.PoolHit)
	b = append(b, ",\n    \"duration_us\": "...)
	b = strconv.AppendInt(b, st.DurationUS, 10)
	b = append(b, "\n  }"...)
	if a.traceID != "" {
		b = append(b, ",\n  \"trace_id\": "...)
		b = jsoncodec.AppendString(b, a.traceID)
	}
	if a.degraded {
		b = append(b, ",\n  \"degraded\": true"...)
	}
	if a.degradeReason != "" {
		b = append(b, ",\n  \"degrade_reason\": "...)
		b = jsoncodec.AppendString(b, a.degradeReason)
	}
	if a.upgradedAttrs != 0 {
		b = append(b, ",\n  \"upgraded_attrs\": "...)
		b = strconv.AppendInt(b, int64(a.upgradedAttrs), 10)
	}
	return append(b, "\n}\n"...)
}
