package monitor

import (
	"encoding/json"
	"net"
	"net/http"
	"time"
)

// httpServer exposes the monitor over HTTP:
//
//	/metrics       Prometheus text exposition of a live snapshot:
//	               cluster, profiler and serving series
//	/metrics.json  full Status document (what cmd/tcctop polls)
//	/health        terse liveness/degradation summary
//	/alerts        active alerts plus resolved history
//	/dump          flight-recorder dump of the retained windows
//	/profile       profiler latency budget (JSON)
//
// Handlers never touch the simulation engine; they read atomically
// maintained counters and mutex-guarded copies, so a scrape cannot
// pause or perturb virtual time.
type httpServer struct {
	ln  net.Listener
	srv *http.Server
}

func newHTTPServer(m *Monitor, addr string) (*httpServer, error) {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = WritePrometheus(w, m.src.Metrics())
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, m.Status())
	})
	mux.HandleFunc("/health", func(w http.ResponseWriter, r *http.Request) {
		last, samples := m.LastSample()
		alerts := m.watchdog.Active()
		status := "ok"
		code := http.StatusOK
		if len(alerts) > 0 {
			status = "degraded"
			code = http.StatusServiceUnavailable
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(code)
		_ = json.NewEncoder(w).Encode(map[string]any{
			"status":        status,
			"virtual_ps":    int64(last),
			"samples":       samples,
			"alerts_active": len(alerts),
		})
	})
	mux.HandleFunc("/alerts", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, map[string]any{
			"active":  m.watchdog.Active(),
			"history": m.watchdog.History(),
		})
	})
	mux.HandleFunc("/dump", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = m.recorder.WriteDump(w, "http request")
	})
	mux.HandleFunc("/profile", func(w http.ResponseWriter, r *http.Request) {
		p := m.profiler
		if p == nil {
			http.Error(w, "profiling disabled (build the cluster with WithProfile)", http.StatusNotFound)
			return
		}
		writeJSON(w, p.Summary())
	})

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &httpServer{
		ln: ln,
		srv: &http.Server{
			Handler:           mux,
			ReadHeaderTimeout: 5 * time.Second,
		},
	}
	go func() { _ = s.srv.Serve(ln) }()
	return s, nil
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

func (s *httpServer) addr() string { return s.ln.Addr().String() }

func (s *httpServer) close() error { return s.srv.Close() }
