package server

import (
	"encoding/json"
	"net/http"
	"net/http/pprof"
	"strings"

	"pimds/internal/buildinfo"
	"pimds/internal/obs"
)

// OpsHandler is the server's live introspection surface, mounted by
// cmd/pimserve on the -ops-addr listener:
//
//	/metrics          Prometheus text exposition of the registry
//	/metrics.json     the JSON snapshot (same document as pimsim -metrics)
//	/metrics/history  windowed per-interval deltas (see Config.WindowTick)
//	/healthz          rule-driven health verdict; 503 when not ready
//	/buildinfo        version, git revision and toolchain of this binary
//	/slow             slow-request log as JSON (see Config.SlowThreshold)
//	/trace            finished spans as Chrome trace-event JSON
//	/debug/pprof/     the standard Go profiler endpoints
//
// Every endpoint sets an explicit Content-Type and reads a consistent
// snapshot; scraping during a graceful drain is safe and race-free
// (/healthz flips to "draining" with 503 for the drain's duration).
func (s *Server) OpsHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		if err := s.cfg.Reg.WritePrometheus(w, ShardPromNamer); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if err := s.cfg.Reg.WriteJSON(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/metrics/history", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if err := s.win.WriteJSON(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		h := s.Health()
		if !h.Ready {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(h)
	})
	mux.HandleFunc("/buildinfo", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if err := buildinfo.WriteJSON(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/slow", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(struct {
			ThresholdNS int64        `json:"threshold_ns"`
			Spans       []SpanRecord `json:"spans"`
		}{s.tr.slowThreshold, s.SlowRequests()})
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		s.WriteChromeTrace(w)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// ShardPromNamer maps the registry's slash-separated names onto
// Prometheus families, folding the per-shard series
// server/shard/NNN/<metric> into one server_shard_<metric> family with
// a shard label so dashboards aggregate across shards naturally.
func ShardPromNamer(name string) (string, []obs.PromLabel, bool) {
	if rest, ok := strings.CutPrefix(name, "server/shard/"); ok {
		shard, metric, found := strings.Cut(rest, "/")
		if found {
			fam, _, _ := obs.PromSanitize("server/shard/" + metric)
			label := strings.TrimLeft(shard, "0")
			if label == "" {
				label = "0"
			}
			return fam, []obs.PromLabel{{Name: "shard", Value: label}}, true
		}
	}
	return obs.PromSanitize(name)
}
