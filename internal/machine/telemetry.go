package machine

import (
	"strconv"
	"time"

	"ctdf/internal/obs/telemetry"
)

// machineTel is the machine's telemetry probe (Config.Telemetry). A nil
// probe disables everything at the cost of one nil check per phase —
// never per firing on the hot path — so the disabled engine stays
// within the BenchmarkObsDisabled overhead budget.
//
// Determinism contract (see the telemetry package doc): everything is
// written from the one cycle body, in an order the simulated execution
// fixes, so series creation order — and therefore the rendered
// exposition — is byte-deterministic for a fixed worker count, while
// the invariant families (cycles, firings, tokens, matches, match-store
// depth/peak, checkpoint count) come out byte-identical at every worker
// count because the simulated execution does.
type machineTel struct {
	w int

	// Invariant counters, sampled once per cycle at the boundary. Like
	// the occupancy histograms and the traffic matrix below they go
	// through telemetry.Local fronts that flush folds into the registry
	// every telSampleEvery cycles and at the end of the run: no atomics
	// per cycle, exact final values.
	cycles, firings    *telemetry.Local
	delivered, matches *telemetry.Local
	matchDepth         *telemetry.Local
	matchPeak          *telemetry.Series
	checkpoints        *telemetry.Series
	ckSec              *telemetry.Series
	locals             []*telemetry.Local

	// Sampled phase wall time (seqCycle): the seeded-random shuffle, the
	// firing loop, the boundary delivery; the emission buffer's occupancy
	// and each shard's inbox occupancy.
	selSec, fireSec, delivSec *telemetry.Series
	outbox                    *telemetry.Local
	inbox                     []*telemetry.Local

	// traffic[lane][dst] counts the tokens each source lane — "seq" (the
	// cycle's emissions) and "mem" (latency releases) — delivers to each
	// owning shard. Series are created lazily — only cells that carry
	// tokens appear — in deterministic order.
	trafficFam *telemetry.Family
	traffic    [2][]*telemetry.Local

	// Cycle-boundary scratch for delta sampling, the tokens delivered to
	// each shard so far this cycle, and routed's per-destination counting
	// scratch.
	prevDelivered int64
	prevMatches   int
	inboxN        []int64
	perDst        []int
}

// local opens a flush-managed front for a series.
func (t *machineTel) local(s *telemetry.Series) *telemetry.Local {
	l := s.Local()
	t.locals = append(t.locals, l)
	return l
}

// newMachineTel opens the run's series: those some cycle of this run can
// write, so the shuffle's only in seeded-random mode and the capture
// time's only when checkpointing (a nil series ignores its updates).
func newMachineTel(reg *telemetry.Registry, w int, cfg *Config) *machineTel {
	t := &machineTel{w: w, inboxN: make([]int64, w), perDst: make([]int, w)}
	t.cycles = t.local(reg.Family(telemetry.SpecMachineCycles).Series())
	t.firings = t.local(reg.Family(telemetry.SpecMachineFirings).Series())
	t.delivered = t.local(reg.Family(telemetry.SpecMachineTokens).Series())
	t.matches = t.local(reg.Family(telemetry.SpecMachineMatches).Series())
	t.matchDepth = t.local(reg.Family(telemetry.SpecMachineMatchDepth).Series())
	t.matchPeak = reg.Family(telemetry.SpecMachineMatchPeak).Series()
	t.checkpoints = reg.Family(telemetry.SpecMachineCheckpoints).Series()
	if cfg.CheckpointEvery > 0 {
		t.ckSec = reg.Family(telemetry.SpecMachineCheckpointSeconds).Series()
	}
	phase := reg.Family(telemetry.SpecMachinePhaseSeconds)
	if cfg.RandomSeed != 0 {
		t.selSec = phase.Series("select", "seq")
	}
	t.fireSec = phase.Series("fire", "0")
	t.delivSec = phase.Series("deliver", "0")
	t.trafficFam = reg.Family(telemetry.SpecMachineTraffic)
	for lane := range t.traffic {
		t.traffic[lane] = make([]*telemetry.Local, w)
	}
	t.outbox = t.local(reg.Family(telemetry.SpecMachineOutbox).Series("0"))
	ib := reg.Family(telemetry.SpecMachineInbox)
	for i := 0; i < w; i++ {
		t.inbox = append(t.inbox, t.local(ib.Series(strconv.Itoa(i))))
	}
	return t
}

// The traffic matrix's source lanes: the cycle's emissions, and released
// split-phase completions.
const (
	laneSeq = iota
	laneMem
)

// trafficAdd counts n > 0 tokens on the lane→dst cell, creating the
// series on first use.
func (t *machineTel) trafficAdd(lane, dst, n int) {
	if n == 0 {
		return
	}
	if t.traffic[lane][dst] == nil {
		t.traffic[lane][dst] = t.local(t.trafficFam.Series([...]string{laneSeq: "seq", laneMem: "mem"}[lane], strconv.Itoa(dst)))
	}
	t.traffic[lane][dst].Add(int64(n))
}

// routed counts the tokens a boundary delivers on the lane → owner cells
// of the traffic matrix (created in ascending destination order) and
// toward the owners' inbox occupancy.
func (t *machineTel) routed(m *sim, lane int, ts []tok) {
	if t.w == 1 {
		t.trafficAdd(lane, 0, len(ts))
		t.inboxN[0] += int64(len(ts))
		return
	}
	for i := range ts {
		t.perDst[m.owners[ts[i].node]]++
	}
	for d, n := range t.perDst {
		t.trafficAdd(lane, d, n)
		t.inboxN[d] += int64(n)
		t.perDst[d] = 0
	}
}

// occupancy records a cycle boundary's occupancy: the emission buffer is
// the one outbox, a shard's inbox what was delivered to it.
func (t *machineTel) occupancy(emitN int) {
	t.outbox.Observe(int64(emitN), telemetry.DepthBuckets)
	for d, n := range t.inboxN {
		t.inbox[d].Observe(n, telemetry.DepthBuckets)
		t.inboxN[d] = 0
	}
}

// sampleDepth records the matching-store population, once per cycle-loop
// iteration — which is what makes the histogram invariant across worker
// counts.
func (t *machineTel) sampleDepth(m *sim) {
	if t == nil {
		return
	}
	t.matchDepth.Observe(int64(m.matchLive), telemetry.DepthBuckets)
}

// cycleCounts notes the cycle's deterministic deltas for the invariant
// counters at the end of the loop body (after delivery).
func (t *machineTel) cycleCounts(m *sim, issue int) {
	t.cycles.Add(1)
	t.firings.Add(int64(issue))
	t.delivered.Add(m.delivered - t.prevDelivered)
	t.prevDelivered = m.delivered
	t.matches.Add(int64(m.stats.Matches - t.prevMatches))
	t.prevMatches = m.stats.Matches
	if m.cycle%telSampleEvery == 0 {
		t.flush(m)
	}
}

// flush folds the Local fronts into the registry: every telSampleEvery
// cycles, so a live scrape trails the run by a few cycles at most, and
// when the run ends or aborts, so the final values are exact.
func (t *machineTel) flush(m *sim) {
	if t == nil {
		return
	}
	for _, l := range t.locals {
		l.Flush()
	}
	t.matchPeak.SetMax(int64(m.stats.PeakMatchStore))
}

// telSampleEvery is the cycle body's phase-timing stride: it reads
// the wall clock on one cycle in telSampleEvery and records each phase
// duration with that weight, so the seconds histograms keep estimating
// per-cycle phase time and their sums total phase time while the clock
// reads — the bulk of the probe's cost on short cycles — drop 16-fold.
const telSampleEvery = 16

// sampled reports whether the cycle body times this cycle: one per
// window of telSampleEvery, at an offset that steps through every
// residue from window to window so a loop whose period divides the
// window cannot keep presenting the same cycle of its body.
func (t *machineTel) sampled(cycle int) bool {
	return t != nil && cycle&(telSampleEvery-1) == (cycle/telSampleEvery*5)&(telSampleEvery-1)
}

// observeSampled records a sampled cycle's phase duration.
func observeSampled(s *telemetry.Series, d time.Duration) {
	s.ObserveN(d.Nanoseconds(), telSampleEvery, telemetry.TimeBuckets)
}

// observeSeconds records a duration into a seconds histogram.
func observeSeconds(s *telemetry.Series, d time.Duration) {
	s.Observe(d.Nanoseconds(), telemetry.TimeBuckets)
}
