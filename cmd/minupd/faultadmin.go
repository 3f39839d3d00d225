package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"

	"minup/internal/fault"
)

// faultAdminHandler serves /debug/fault on the loopback debug listener
// (enabled by -fault-admin): GET reports the injector's armed state, rules,
// and per-point hit counts as JSON; POST rearms it from a plain-text fault
// spec in the request body, with an empty body disarming. Rearming is safe
// under live traffic — unarmed fault points cost one atomic load — which is
// what lets cmd/minload's chaos stages switch faults on and off around a
// stage without restarting the server.
func faultAdminHandler(inj *fault.Injector) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.Method {
		case http.MethodGet:
			// fall through to the snapshot below
		case http.MethodPost:
			body, err := io.ReadAll(io.LimitReader(r.Body, 1<<16))
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			spec := strings.TrimSpace(string(body))
			if err := inj.Rearm(spec); err != nil {
				http.Error(w, fmt.Sprintf("bad fault spec: %v", err), http.StatusBadRequest)
				return
			}
		default:
			w.Header().Set("Allow", "GET, POST")
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(inj.Snapshot())
	})
}
