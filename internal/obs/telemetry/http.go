package telemetry

import (
	"net"
	"net/http"
)

// openMetricsContentType is the scrape content type for the text
// exposition format.
const openMetricsContentType = "application/openmetrics-text; version=1.0.0; charset=utf-8"

// Handler serves the registry's current snapshot at /metrics in the
// OpenMetrics text format. Scraping is race-free against a running
// machine because Snapshot reads only atomics.
func (r *Registry) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", openMetricsContentType)
		w.Write(r.Snapshot().OpenMetrics())
	})
	return mux
}

// Server is a running /metrics endpoint. Close shuts it down and waits
// for the serve goroutine, so a clean shutdown leaks nothing — the
// property the verify.sh HTTP smoke asserts.
type Server struct {
	lis  net.Listener
	srv  *http.Server
	done chan struct{}
}

// Serve starts an HTTP server for the registry on addr (e.g. ":9464"
// or "127.0.0.1:0"). It returns once the listener is bound; query Addr
// for the binding, and Close the server to shut down without leaking
// its goroutine.
func (r *Registry) Serve(addr string) (*Server, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{lis: lis, srv: &http.Server{Handler: r.Handler()}, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		s.srv.Serve(lis)
	}()
	return s, nil
}

// Addr is the bound listen address (useful with ":0").
func (s *Server) Addr() string { return s.lis.Addr().String() }

// Close stops the server and waits for its goroutine to exit.
func (s *Server) Close() error {
	err := s.srv.Close()
	<-s.done
	return err
}
