package telemetry

import "strconv"

// Bucket layouts shared by the engine families. Durations are stored
// in nanoseconds; TimeBuckets spans 1µs..10s in decades, which is the
// range a phase or checkpoint capture can plausibly occupy. DepthBuckets is a power-of-two ladder for token counts and
// queue depths.
var (
	TimeBuckets  = []int64{1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10}
	DepthBuckets = []int64{0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096}
)

// Machine engine families. Per-shard series use the shard id as the
// label value. The one cycle body times its select phase under shard
// "seq" and its fire and deliver phases under shard "0", and its emission
// buffer is outbox "0". The traffic matrix's sources are two lanes: "seq"
// for the tokens a cycle's firings emit and "mem" for memory-latency
// releases, both delivered at the cycle boundary.
var (
	SpecMachineCycles = Spec{
		Name: "ctdf_machine_cycles", Kind: KindCounter,
		Help: "machine cycles executed, including post-halt drain cycles",
	}
	SpecMachineFirings = Spec{
		Name: "ctdf_machine_firings", Kind: KindCounter,
		Help: "operator firings executed",
	}
	SpecMachineTokens = Spec{
		Name: "ctdf_machine_tokens_delivered", Kind: KindCounter,
		Help: "tokens delivered to operator inputs",
	}
	SpecMachineMatches = Spec{
		Name: "ctdf_machine_matches", Kind: KindCounter,
		Help: "tokens that parked in the matching store awaiting a partner",
	}
	SpecMachineMatchDepth = Spec{
		Name: "ctdf_machine_match_store_depth", Kind: KindHistogram, Buckets: DepthBuckets,
		Help: "matching-store population sampled once per cycle",
	}
	SpecMachineMatchPeak = Spec{
		Name: "ctdf_machine_match_store_peak", Kind: KindGauge,
		Help: "high-water matching-store population",
	}
	SpecMachineCheckpoints = Spec{
		Name: "ctdf_machine_checkpoints", Kind: KindCounter,
		Help: "checkpoints captured at cycle boundaries",
	}
	SpecMachineCheckpointSeconds = Spec{
		Name: "ctdf_machine_checkpoint_seconds", Kind: KindHistogram,
		Unit: "seconds", Buckets: TimeBuckets, Varying: true,
		Help: "wall time capturing one checkpoint (snapshot plus sink)",
	}
	SpecMachinePhaseSeconds = Spec{
		Name: "ctdf_machine_phase_seconds", Kind: KindHistogram,
		Unit: "seconds", Buckets: TimeBuckets,
		Labels: []string{"phase", "shard"}, Varying: true, Sharded: true,
		Help: "per-cycle wall time in each phase of the cycle body (select/fire/deliver)",
	}
	SpecMachineTraffic = Spec{
		Name: "ctdf_machine_shard_traffic_tokens", Kind: KindCounter,
		Labels: []string{"src", "dst"}, Sharded: true,
		Help: "tokens delivered from each source lane to the dst shard that owns their destination (src seq = the cycle's emissions, src mem = latency releases)",
	}
	SpecMachineOutbox = Spec{
		Name: "ctdf_machine_outbox_tokens", Kind: KindHistogram, Buckets: DepthBuckets,
		Labels: []string{"shard"}, Sharded: true,
		Help: "tokens in the emission buffer at each cycle boundary",
	}
	SpecMachineInbox = Spec{
		Name: "ctdf_machine_inbox_tokens", Kind: KindHistogram, Buckets: DepthBuckets,
		Labels: []string{"shard"}, Sharded: true,
		Help: "tokens delivered to a shard's nodes at each cycle boundary",
	}
)

// Channel-engine (chanexec) families.
var (
	SpecChanFirings = Spec{
		Name: "ctdf_chanexec_firings", Kind: KindCounter,
		Help: "operator firings executed by the channel engine",
	}
	SpecChanTokens = Spec{
		Name: "ctdf_chanexec_tokens_delivered", Kind: KindCounter,
		Help: "messages delivered to operator mailboxes",
	}
	SpecChanMailboxDepth = Spec{
		Name: "ctdf_chanexec_mailbox_depth", Kind: KindHistogram,
		Buckets: DepthBuckets, Varying: true,
		Help: "mailbox depth observed at each delivery",
	}
	SpecChanWatchdogExtensions = Spec{
		Name: "ctdf_chanexec_watchdog_extensions", Kind: KindCounter, Varying: true,
		Help: "watchdog expiries re-armed because deliveries were still flowing",
	}
	SpecChanWatchdogHeadroom = Spec{
		Name: "ctdf_chanexec_watchdog_idle_headroom_seconds", Kind: KindHistogram,
		Unit: "seconds", Buckets: TimeBuckets, Varying: true,
		Help: "slack between the watchdog window and observed idle time at each expiry",
	}
)

// Catalog lists every engine family, machine first then chanexec, in
// registration order. OBSERVABILITY.md's metric catalog is held to
// this list by a doc-sync test.
func Catalog() []Spec {
	return []Spec{
		SpecMachineCycles, SpecMachineFirings, SpecMachineTokens,
		SpecMachineMatches, SpecMachineMatchDepth, SpecMachineMatchPeak,
		SpecMachineCheckpoints, SpecMachineCheckpointSeconds,
		SpecMachinePhaseSeconds,
		SpecMachineTraffic, SpecMachineOutbox, SpecMachineInbox,
		SpecChanFirings, SpecChanTokens, SpecChanMailboxDepth,
		SpecChanWatchdogExtensions, SpecChanWatchdogHeadroom,
	}
}

// TrafficCell is one src→dst entry of the lane → shard traffic matrix.
type TrafficCell struct {
	Src, Dst string
	Tokens   int64
}

// MachineBreakdown is the machine engine's profile extracted from a
// snapshot: phase busy time and the traffic matrix — the inputs to the
// human phase table, the benchmark's phase shares, and experiment E19.
type MachineBreakdown struct {
	Workers              int     // shard count observed in the inbox series
	SelectNs             int64   // seeded-random shuffle
	FireNs, DeliverNs    []int64 // busy time by the series' shard label (one entry: "0")
	Cycles, Firings      int64
	Tokens, Matches      int64
	Traffic              []TrafficCell
	SeqTokens, MemTokens int64 // emission and latency-release lanes

	// Always zero: the series these summed are gone with the host-parallel
	// cycle body. benchmark/traced.go is their only reader; they go when
	// ROADMAP item 1(a) edits it.
	RetireNs, BarrierFireNs, BarrierDeliverNs int64
	RemoteTokens, ShardTokens                 int64
}

// MachineBreakdown extracts the machine profile from the snapshot.
func (s *Snapshot) MachineBreakdown() *MachineBreakdown {
	b := &MachineBreakdown{
		Cycles:  s.Family(SpecMachineCycles.Name).Get(),
		Firings: s.Family(SpecMachineFirings.Name).Get(),
		Tokens:  s.Family(SpecMachineTokens.Name).Get(),
		Matches: s.Family(SpecMachineMatches.Name).Get(),
	}
	if f := s.Family(SpecMachinePhaseSeconds.Name); f != nil {
		for _, ser := range f.Series {
			phase, shard := ser.Labels[0], ser.Labels[1]
			switch phase {
			case "select":
				b.SelectNs += ser.Sum
			case "fire", "deliver":
				id, err := strconv.Atoi(shard)
				if err != nil {
					continue
				}
				for id >= len(b.FireNs) {
					b.FireNs = append(b.FireNs, 0)
					b.DeliverNs = append(b.DeliverNs, 0)
				}
				if phase == "fire" {
					b.FireNs[id] += ser.Sum
				} else {
					b.DeliverNs[id] += ser.Sum
				}
			}
		}
	}
	if f := s.Family(SpecMachineInbox.Name); f != nil {
		b.Workers = len(f.Series)
	}
	if f := s.Family(SpecMachineTraffic.Name); f != nil {
		for _, ser := range f.Series {
			src, dst := ser.Labels[0], ser.Labels[1]
			b.Traffic = append(b.Traffic, TrafficCell{Src: src, Dst: dst, Tokens: ser.Value})
			switch src {
			case "seq":
				b.SeqTokens += ser.Value
			case "mem":
				b.MemTokens += ser.Value
			}
		}
	}
	return b
}
