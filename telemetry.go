package ctdf

import (
	"ctdf/internal/obs/telemetry"
)

// Telemetry is an engine metrics registry: attach one to RunConfig and
// the run records sampled phase wall time, the lane → shard
// token-traffic matrix, matching-store depth, checkpoint timing
// (machine engine), and firing/delivery/mailbox/watchdog metrics
// (channel engine). A registry accumulates across runs, so repeated
// executions against one Telemetry build a live series — that is what
// `ctdf top` and the -metrics endpoint scrape (Handler, Serve). Nil
// disables everything at near-zero cost (see BenchmarkObsDisabled). See
// OBSERVABILITY.md for the metric catalog.
type Telemetry = telemetry.Registry

// TelemetrySnapshot is a point-in-time copy of a Telemetry registry: it
// renders as OpenMetrics text and as a phase table, and encoding/json
// encodes it with durations in nanoseconds; Stable and Invariant project
// it onto the families that are byte-reproducible.
type TelemetrySnapshot = telemetry.Snapshot

// TelemetryServer is a running /metrics endpoint.
type TelemetryServer = telemetry.Server

// NewTelemetry returns an empty registry.
func NewTelemetry() *Telemetry { return telemetry.NewRegistry() }
