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
// Determinism contract (see the telemetry package doc): the parallel
// phases write only plain per-shard scratch (telFireNs, telDelivNs,
// telPureFired on shardState); the sequential cycle merge folds that
// scratch into the registry's atomic instruments iterating shards in
// order 0..W-1, so series creation order — and therefore the rendered
// exposition — is byte-deterministic for a fixed worker count, while
// the invariant families (cycles, firings, tokens, matches, match-store
// depth/peak, checkpoint count) come out byte-identical at every worker
// count because the simulated execution does.
type machineTel struct {
	w int

	// Invariant counters, sampled once per cycle at the boundary. Like
	// the occupancy histograms and the traffic matrix below they are
	// written by sequential code only, through telemetry.Local fronts
	// that flush folds into the registry every telSampleEvery cycles and
	// at the end of the run: no atomics per cycle, exact final values.
	cycles, firings    *telemetry.Local
	delivered, matches *telemetry.Local
	matchDepth         *telemetry.Local
	matchPeak          *telemetry.Series
	checkpoints        *telemetry.Series
	ckSec              *telemetry.Series
	locals             []*telemetry.Local

	// Phase wall time: select/retire run on the coordinator ("seq"),
	// fire/deliver per shard (a sequential-body cycle samples both into
	// shard 0's, the coordinator's); barrier waits are the coordinator's
	// time parked at a pooled cycle's two phase barriers.
	selSec, retSec    *telemetry.Series
	fireSec, delivSec []*telemetry.Series
	barFire, barDeliv *telemetry.Series
	fireFirings       *telemetry.Series
	retireFirings     *telemetry.Series
	outbox, inbox     []*telemetry.Local

	// traffic[src][dst] is the cross-shard token matrix, rows 0..w-1
	// for shard sources plus the "seq" (sequential step) and "mem"
	// (latency release) lanes. Series are created lazily — only lanes
	// that actually carry tokens appear — in deterministic order, since
	// all creation happens in sequential merge code.
	trafficFam *telemetry.Family
	traffic    [][]*telemetry.Local

	// Cycle-boundary scratch for delta sampling, the tokens the
	// sequential body delivered to each shard so far this cycle, and
	// routed's per-destination counting scratch.
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

func newMachineTel(reg *telemetry.Registry, w int) *machineTel {
	t := &machineTel{w: w, inboxN: make([]int64, w), perDst: make([]int, w)}
	t.cycles = t.local(reg.Family(telemetry.SpecMachineCycles).Series())
	t.firings = t.local(reg.Family(telemetry.SpecMachineFirings).Series())
	t.delivered = t.local(reg.Family(telemetry.SpecMachineTokens).Series())
	t.matches = t.local(reg.Family(telemetry.SpecMachineMatches).Series())
	t.matchDepth = t.local(reg.Family(telemetry.SpecMachineMatchDepth).Series())
	t.matchPeak = reg.Family(telemetry.SpecMachineMatchPeak).Series()
	t.checkpoints = reg.Family(telemetry.SpecMachineCheckpoints).Series()
	t.ckSec = reg.Family(telemetry.SpecMachineCheckpointSeconds).Series()
	phase := reg.Family(telemetry.SpecMachinePhaseSeconds)
	t.selSec = phase.Series("select", "seq")
	t.retSec = phase.Series("retire", "seq")
	for i := 0; i < w; i++ {
		t.fireSec = append(t.fireSec, phase.Series("fire", strconv.Itoa(i)))
		t.delivSec = append(t.delivSec, phase.Series("deliver", strconv.Itoa(i)))
	}
	bar := reg.Family(telemetry.SpecMachineBarrierSeconds)
	t.barFire = bar.Series("fire")
	t.barDeliv = bar.Series("deliver")
	t.trafficFam = reg.Family(telemetry.SpecMachineTraffic)
	t.traffic = make([][]*telemetry.Local, w+2)
	for i := range t.traffic {
		t.traffic[i] = make([]*telemetry.Local, w)
	}
	ob := reg.Family(telemetry.SpecMachineOutbox)
	ib := reg.Family(telemetry.SpecMachineInbox)
	for i := 0; i < w; i++ {
		t.outbox = append(t.outbox, t.local(ob.Series(strconv.Itoa(i))))
		t.inbox = append(t.inbox, t.local(ib.Series(strconv.Itoa(i))))
	}
	pf := reg.Family(telemetry.SpecMachinePhaseFirings)
	t.fireFirings = pf.Series("fire")
	t.retireFirings = pf.Series("retire")
	return t
}

// The traffic matrix's source lanes past the shard rows 0..w-1: what
// sequential code emitted, and released split-phase completions.
const (
	laneSeq = iota
	laneMem
)

func (t *machineTel) srcName(row int) string {
	if row >= t.w {
		return [...]string{laneSeq: "seq", laneMem: "mem"}[row-t.w]
	}
	return strconv.Itoa(row)
}

// trafficAdd counts n > 0 tokens on the src→dst lane, creating the series
// on first use. Called only from sequential code.
func (t *machineTel) trafficAdd(src, dst, n int) {
	if n == 0 {
		return
	}
	if t.traffic[src][dst] == nil {
		t.traffic[src][dst] = t.local(t.trafficFam.Series(t.srcName(src), strconv.Itoa(dst)))
	}
	t.traffic[src][dst].Add(int64(n))
}

// routed counts tokens the sequential body delivers on the lane → owner
// cells of the traffic matrix (created in ascending destination order,
// like the pooled merge's) and toward the owners' inbox occupancy.
func (t *machineTel) routed(m *sim, lane int, ts []tok) {
	if t.w == 1 {
		t.trafficAdd(t.w+lane, 0, len(ts))
		t.inboxN[0] += int64(len(ts))
		return
	}
	for i := range ts {
		t.perDst[m.p.ops[ts[i].node].shard]++
	}
	for d, n := range t.perDst {
		t.trafficAdd(t.w+lane, d, n)
		t.inboxN[d] += int64(n)
		t.perDst[d] = 0
	}
}

// occupancy records a sequential-body cycle's occupancy: the emission
// buffer is shard 0's outbox, a shard's inbox what was delivered to it.
func (t *machineTel) occupancy(emitN int) {
	t.outbox[0].Observe(int64(emitN), telemetry.DepthBuckets)
	for d, n := range t.inboxN {
		t.inbox[d].Observe(n, telemetry.DepthBuckets)
		t.inboxN[d] = 0
	}
}

// sampleDepth records the matching-store population, once per cycle-loop
// iteration on either body — which is what makes the
// histogram invariant across worker counts.
func (t *machineTel) sampleDepth(m *sim) {
	if t == nil {
		return
	}
	t.matchDepth.Observe(int64(m.matchLive), telemetry.DepthBuckets)
}

// cycleCounts notes the cycle's deterministic deltas for the invariant
// counters at the end of the loop body (after delivery/merge).
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

// telSampleEvery is the sequential body's phase-timing stride: it reads
// the wall clock on one cycle in telSampleEvery and records each phase
// duration with that weight, so the seconds histograms keep estimating
// per-cycle phase time and their sums total phase time while the clock
// reads — the bulk of the probe's cost on short cycles — drop 16-fold.
const telSampleEvery = 16

// sampled reports whether the sequential body times this cycle: one per
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

// mergeSharded runs inside mergeCycle, before the per-cycle scratch is
// reset: it folds the parallel phases' plain per-shard scratch into the
// registry in shard order, counts the cycle's outbox traffic into the
// src→dst matrix, and records occupancy. The seq/mem inbox lanes are
// written by the coordinator, so they count under their own source
// rows.
func (t *machineTel) mergeSharded(m *sim) {
	if t == nil {
		return
	}
	for _, sh := range m.shs {
		t.fireSec[sh.id].Observe(sh.telFireNs, telemetry.TimeBuckets)
		sh.telFireNs = 0
		t.delivSec[sh.id].Observe(sh.telDelivNs, telemetry.TimeBuckets)
		sh.telDelivNs = 0
		t.fireFirings.Add(sh.telPureFired)
		sh.telPureFired = 0
		t.inbox[sh.id].Observe(sh.delivered, telemetry.DepthBuckets)
		staged := int64(0)
		for d, ob := range sh.outbox {
			staged += int64(len(ob))
			t.trafficAdd(sh.id, d, len(ob))
		}
		t.outbox[sh.id].Observe(staged, telemetry.DepthBuckets)
	}
	for d, b := range m.seqBox {
		t.trafficAdd(t.w+laneSeq, d, len(b))
	}
	for d, b := range m.relBox {
		t.trafficAdd(t.w+laneMem, d, len(b))
	}
}
