package telemetry

import (
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// Server is the pfsd admin endpoint: /metrics (Prometheus text),
// /healthz (liveness probe), /statusz (human-readable statistics,
// ?slow=1 appends the slow-op log) and /debug/pprof. It runs on
// plain goroutines — everything it reads must be plain-mutex or
// atomic state, never kernel-mutex state.
type Server struct {
	reg     *Registry
	tracer  *Tracer
	health  func() error
	detail  func() string
	statusz func() string

	ln   net.Listener
	http *http.Server
}

// NewServer builds an admin server over reg. health returns nil when
// the served file system is live (non-nil bodies become a 503);
// statusz renders the human-readable statistics page. tracer may be
// nil (the slow-op view reports tracing disabled). Any callback may
// be nil.
func NewServer(reg *Registry, tracer *Tracer, health func() error, statusz func() string) *Server {
	return &Server{reg: reg, tracer: tracer, health: health, statusz: statusz}
}

// SetHealthDetail appends fn's text to the /healthz body after the
// liveness verdict — per-member health, repair state. Call before
// Start.
func (s *Server) SetHealthDetail(fn func() string) { s.detail = fn }

// Start listens on addr (host:port; :0 picks a free port) and serves
// in the background. It returns the bound address.
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("telemetry: listen %s: %w", addr, err)
	}
	mux := http.NewServeMux()
	if s.reg != nil {
		mux.Handle("/metrics", s.reg.Handler())
	}
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		if s.health != nil {
			if err := s.health(); err != nil {
				http.Error(w, "unhealthy: "+err.Error(), http.StatusServiceUnavailable)
				return
			}
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
		if s.detail != nil {
			fmt.Fprint(w, s.detail())
		}
	})
	mux.HandleFunc("/statusz", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if s.statusz != nil {
			fmt.Fprint(w, s.statusz())
		}
		if req.URL.Query().Get("slow") != "" {
			fmt.Fprint(w, s.tracer.RenderSlow())
		}
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s.ln = ln
	s.http = &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go func() { _ = s.http.Serve(ln) }()
	return ln.Addr().String(), nil
}

// Close stops the listener and open connections. Safe before Start
// and safe to call twice.
func (s *Server) Close() error {
	if s.http == nil {
		return nil
	}
	return s.http.Close()
}
