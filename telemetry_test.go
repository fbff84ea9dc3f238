package ctdf

import (
	"encoding/json"
	"io"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"ctdf/internal/workloads"
)

func telemetryRun(t *testing.T, reg *Telemetry, cfg RunConfig) {
	t.Helper()
	p, err := Compile(workloads.MustByName("fib-iterative").Source)
	if err != nil {
		t.Fatal(err)
	}
	d, err := p.Translate(Options{Schema: Schema2Opt})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Telemetry = reg
	if _, err := d.Run(cfg); err != nil {
		t.Fatal(err)
	}
}

// TestTelemetryPublicAPI covers the wrapper surface: a run populates
// the registry, the snapshot renders all three ways, and the
// projections drop families as documented.
func TestTelemetryPublicAPI(t *testing.T) {
	reg := NewTelemetry()
	telemetryRun(t, reg, RunConfig{MemLatency: 4, Workers: 2})
	snap := reg.Snapshot()
	om := string(snap.OpenMetrics())
	for _, want := range []string{
		"ctdf_machine_cycles_total", "ctdf_machine_phase_seconds", "ctdf_machine_inbox_tokens",
		"# EOF",
	} {
		if !strings.Contains(om, want) {
			t.Errorf("OpenMetrics missing %q", want)
		}
	}
	if table := snap.PhaseTable(); !strings.Contains(table, "phase breakdown") {
		t.Errorf("phase table malformed:\n%s", table)
	}
	js, err := json.Marshal(snap)
	if err != nil || len(js) == 0 {
		t.Fatalf("JSON: %v", err)
	}
	inv := string(snap.Invariant().OpenMetrics())
	if strings.Contains(inv, "phase_seconds") || strings.Contains(inv, "shard_traffic") {
		t.Errorf("invariant projection leaked varying/sharded families:\n%s", inv)
	}
	if !strings.Contains(inv, "ctdf_machine_cycles_total") {
		t.Errorf("invariant projection dropped an invariant family:\n%s", inv)
	}
}

// TestTelemetryChannelEngine checks the channel engine feeds the
// registry too: firings and deliveries are invariant counters.
func TestTelemetryChannelEngine(t *testing.T) {
	reg := NewTelemetry()
	telemetryRun(t, reg, RunConfig{Engine: EngineChannels, Deadline: 30 * time.Second})
	om := string(reg.Snapshot().OpenMetrics())
	for _, want := range []string{"ctdf_chanexec_firings_total", "ctdf_chanexec_tokens_delivered_total", "ctdf_chanexec_mailbox_depth"} {
		if !strings.Contains(om, want) {
			t.Errorf("OpenMetrics missing %q\n%s", want, om)
		}
	}
}

// TestMetricsHTTPSmoke is the verify.sh /metrics gate: start an
// endpoint, run an instrumented workload, scrape it over real HTTP,
// assert the required families arrive in OpenMetrics framing, then
// shut down and check the serve goroutine is gone.
func TestMetricsHTTPSmoke(t *testing.T) {
	before := runtime.NumGoroutine()
	reg := NewTelemetry()
	srv, err := reg.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	telemetryRun(t, reg, RunConfig{MemLatency: 4, Workers: 2})

	resp, err := http.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "openmetrics-text") {
		t.Errorf("content type = %q, want openmetrics-text", ct)
	}
	text := string(body)
	for _, want := range []string{
		"# TYPE ctdf_machine_cycles counter",
		"ctdf_machine_cycles_total",
		"ctdf_machine_firings_total",
		"ctdf_machine_tokens_delivered_total",
		"ctdf_machine_phase_seconds",
		"# EOF",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
	if !strings.HasSuffix(text, "# EOF\n") {
		t.Error("scrape not terminated by # EOF")
	}

	if err := srv.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	// The serve goroutine must be gone; idle HTTP keep-alive workers can
	// take a moment to unwind, so poll briefly before declaring a leak.
	for i := 0; i < 50; i++ {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines leaked after Close: before=%d after=%d", before, runtime.NumGoroutine())
}
