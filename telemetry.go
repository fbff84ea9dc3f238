package ctdf

import (
	"encoding/json"
	"net/http"

	"ctdf/internal/obs/telemetry"
)

// Telemetry is an engine metrics registry: attach one to RunConfig and
// the run records sampled phase wall time, the lane → shard
// token-traffic matrix, matching-store depth, checkpoint timing
// (machine engine), and firing/delivery/mailbox/watchdog metrics
// (channel engine). A registry accumulates across runs, so repeated
// executions against one Telemetry build a live series — that is what
// `ctdf top` and the -metrics endpoint scrape. Nil disables everything
// at near-zero cost (see BenchmarkObsDisabled). See
// OBSERVABILITY.md for the metric catalog.
type Telemetry struct {
	reg *telemetry.Registry
}

// NewTelemetry returns an empty registry.
func NewTelemetry() *Telemetry { return &Telemetry{reg: telemetry.NewRegistry()} }

// registry unwraps for engine plumbing; nil-safe.
func (t *Telemetry) registry() *telemetry.Registry {
	if t == nil {
		return nil
	}
	return t.reg
}

// Snapshot captures the current state of every instrument. It is safe
// to call while a run is in flight (instruments are atomics), though a
// mid-run snapshot naturally sees a cycle in progress.
func (t *Telemetry) Snapshot() *TelemetrySnapshot {
	return &TelemetrySnapshot{snap: t.reg.Snapshot()}
}

// Handler serves the registry at /metrics in OpenMetrics text format.
func (t *Telemetry) Handler() http.Handler { return telemetry.Handler(t.reg) }

// Serve starts a /metrics HTTP endpoint on addr (":0" picks a port;
// query Addr for the binding). Close the returned server to shut down
// without leaking its goroutine.
func (t *Telemetry) Serve(addr string) (*TelemetryServer, error) {
	s, err := telemetry.Serve(t.reg, addr)
	if err != nil {
		return nil, err
	}
	return &TelemetryServer{srv: s}, nil
}

// TelemetrySnapshot is a point-in-time copy of a Telemetry registry.
type TelemetrySnapshot struct {
	snap *telemetry.Snapshot
}

// OpenMetrics renders the snapshot in the OpenMetrics text exposition
// format (the /metrics wire format), terminated by "# EOF".
func (s *TelemetrySnapshot) OpenMetrics() []byte { return s.snap.OpenMetrics() }

// PhaseTable renders the human-readable phase breakdown, counters, and
// lane → shard traffic matrix.
func (s *TelemetrySnapshot) PhaseTable() string { return s.snap.PhaseTable() }

// JSON renders the snapshot as indented JSON (durations in
// nanoseconds).
func (s *TelemetrySnapshot) JSON() ([]byte, error) {
	return json.MarshalIndent(s.snap, "", "  ")
}

// MachineBreakdown extracts the machine profiler's aggregate numbers —
// per-phase nanoseconds, counters, and the traffic matrix — for
// in-module tooling (the bench harness); the type lives in the internal
// telemetry package.
func (s *TelemetrySnapshot) MachineBreakdown() *telemetry.MachineBreakdown {
	return s.snap.MachineBreakdown()
}

// Stable drops the wall-clock-dependent families, leaving only values
// that are byte-reproducible for a fixed worker count.
func (s *TelemetrySnapshot) Stable() *TelemetrySnapshot {
	return &TelemetrySnapshot{snap: s.snap.Stable()}
}

// Invariant additionally drops worker-topology-shaped families, leaving
// only values byte-identical at every worker count.
func (s *TelemetrySnapshot) Invariant() *TelemetrySnapshot {
	return &TelemetrySnapshot{snap: s.snap.Invariant()}
}

// TelemetryServer is a running /metrics endpoint.
type TelemetryServer struct {
	srv *telemetry.Server
}

// Addr is the bound listen address.
func (s *TelemetryServer) Addr() string { return s.srv.Addr() }

// Close stops the server and waits for its goroutine to exit.
func (s *TelemetryServer) Close() error { return s.srv.Close() }
