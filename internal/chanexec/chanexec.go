// Package chanexec executes dataflow graphs with one goroutine per
// operator and token delivery over per-node mailboxes — the natural Go
// realization of the dataflow firing rule ("operators that test conditions
// at their inputs and outputs to determine when to execute", §2.2). It
// validates the cycle-driven machine simulator: both engines must compute
// identical final states, because dataflow graphs are determinate. What an
// operator computes is internal/interp's, for both engines — the kernel,
// and the I-structure and activation units this engine calls under its
// locks — so their values and error texts agree by construction.
//
// Tokens are never dropped: an execution is complete when the global
// in-flight token count reaches zero; if that happens before the end node
// has collected all access tokens, the graph deadlocked (a translation
// bug) and the engine reports it.
//
// The engine has no global clock, so its observability surface is the
// clockless subset of the machine simulator's: Config.Counters (an
// *obs.NodeCounters) records per-node firing counts, each slot written
// only by the owning node's goroutine. Dataflow determinacy makes those
// counts comparable across engines at per-instruction granularity —
// TestCrossEngineFiringCountsAgree asserts they match the machine
// simulator's exactly on the whole workload suite (see OBSERVABILITY.md).
package chanexec

import (
	"cmp"
	"sync"
	"sync/atomic"
	"time"

	"ctdf/internal/dfg"
	"ctdf/internal/fault"
	"ctdf/internal/interp"
	"ctdf/internal/machcheck"
	"ctdf/internal/obs"
	"ctdf/internal/obs/telemetry"
	"ctdf/internal/token"
)

// Config configures an execution.
type Config struct {
	// Binding selects which aliased names share storage this run.
	Binding interp.Binding
	// MaxOps bounds total firings (default ten million).
	MaxOps int64
	// Deadline bounds wall-clock *idle* time (0 = none). The engine has no
	// clock, so the deadline doubles as its deadlock oracle — but it is
	// progress-aware: the watchdog only aborts a run that has delivered no
	// token for a full Deadline window. A live run that is merely slow (a
	// loaded host, a descheduled worker) keeps extending the watchdog and
	// can never be killed by it; a deadlocked, wedged, or starved run goes
	// silent and is aborted with a Deadlock machine check carrying
	// per-mailbox queue depths, every worker goroutine torn down before
	// Run returns.
	Deadline time.Duration
	// Inject threads a deterministic fault-injection plan through the
	// run (nil = no injection; see internal/fault and ROBUSTNESS.md).
	Inject *fault.Injector
	// Counters, when non-nil, receives per-node firing counts. Each
	// node's slot is written only by that node's worker goroutine, so
	// plain increments are race-free; read it only after Run returns.
	Counters *obs.NodeCounters
	// Telemetry, when non-nil, receives engine-level metrics: firings,
	// deliveries, mailbox depth at each delivery, and the watchdog's
	// extension count and idle headroom (see internal/obs/telemetry).
	// This engine is concurrent, so everything but the firing and
	// delivery totals is scheduling-dependent (marked Varying in the
	// catalog). Nil disables it at one branch per delivery.
	Telemetry *telemetry.Registry
}

// chanTel is the channel engine's telemetry probe; nil when disabled.
// Unlike the machine probe it writes atomics directly — this engine has
// no sequential merge point, and its instruments are either monotone
// counters or Varying histograms where interleaving order is immaterial.
type chanTel struct {
	firings   *telemetry.Series
	delivered *telemetry.Series
	boxDepth  *telemetry.Series
	wdExt     *telemetry.Series
	headroom  *telemetry.Series
	// base anchors the delivery timestamps: lastDeliver holds
	// nanoseconds-since-base of the newest push, read by the watchdog
	// to compute how much of its idle window a slow run had left.
	base        time.Time
	lastDeliver atomic.Int64
}

func newChanTel(reg *telemetry.Registry) *chanTel {
	return &chanTel{
		firings:   reg.Family(telemetry.SpecChanFirings).Series(),
		delivered: reg.Family(telemetry.SpecChanTokens).Series(),
		boxDepth:  reg.Family(telemetry.SpecChanMailboxDepth).Series(),
		wdExt:     reg.Family(telemetry.SpecChanWatchdogExtensions).Series(),
		headroom:  reg.Family(telemetry.SpecChanWatchdogHeadroom).Series(),
		base:      time.Now(),
	}
}

// delivery records one mailbox push and the depth it left behind.
func (t *chanTel) delivery(depth int) {
	if t == nil {
		return
	}
	t.delivered.Add(1)
	t.boxDepth.Observe(int64(depth), telemetry.DepthBuckets)
	t.lastDeliver.Store(time.Since(t.base).Nanoseconds())
}

// extended records a watchdog expiry that found progress and re-armed:
// headroom is how much of the idle window was still unspent when the
// timer fired (0 when the last delivery predates the whole window).
func (t *chanTel) extended(d time.Duration) {
	if t == nil {
		return
	}
	idle := time.Since(t.base).Nanoseconds() - t.lastDeliver.Load()
	head := d.Nanoseconds() - idle
	if head < 0 {
		head = 0
	}
	t.wdExt.Add(1)
	t.headroom.Observe(head, telemetry.TimeBuckets)
}

// Outcome is the result of an execution.
type Outcome struct {
	Store     *interp.Store
	EndValues []int64
	// Ops is the number of operator firings.
	Ops int64
}

type msg struct {
	port int
	val  int64
	tg   token.Tag
	// clock is the producing firing's Lamport logical timestamp (0 for
	// the start node's initial tokens). A firing's own timestamp is the
	// max over its operand clocks + 1, giving the engine a causal order
	// despite having no global cycle counter; on the machine engine the
	// same quantity is the journal's causal depth, so the two engines'
	// orders are directly comparable (dataflow determinacy).
	clock int64
}

// mailbox is an unbounded FIFO: sends never block, so cyclic graphs cannot
// deadlock on channel capacity. A wedged mailbox (fault injection) accepts
// tokens but never yields them, simulating a stuck operator; close() still
// releases the owning worker, so teardown is guaranteed.
type mailbox struct {
	mu     sync.Mutex
	cond   *sync.Cond
	q      []msg
	closed bool
	wedged bool
}

func newMailbox() *mailbox {
	b := &mailbox{}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// push enqueues m and returns the queue depth it left behind (telemetry
// observes it; other callers ignore it).
func (b *mailbox) push(m msg) int {
	b.mu.Lock()
	b.q = append(b.q, m)
	depth := len(b.q)
	b.mu.Unlock()
	b.cond.Signal()
	return depth
}

func (b *mailbox) pop() (msg, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for (len(b.q) == 0 || b.wedged) && !b.closed {
		b.cond.Wait()
	}
	if len(b.q) == 0 || b.wedged {
		return msg{}, false
	}
	m := b.q[0]
	b.q = b.q[1:]
	return m, true
}

// wedge freezes the mailbox: queued and future tokens are never yielded.
func (b *mailbox) wedge() {
	b.mu.Lock()
	b.wedged = true
	b.mu.Unlock()
}

// depth returns the number of queued tokens and whether the box is wedged.
func (b *mailbox) depth() (int, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.q), b.wedged
}

func (b *mailbox) close() {
	b.mu.Lock()
	b.closed = true
	b.mu.Unlock()
	b.cond.Broadcast()
}

// Run lifecycle states (engine.state).
const (
	stateRunning int32 = iota
	stateCompleted
	stateFailed
)

// Watchdog instrumentation, read by tests: watchdogFired counts deadline
// callbacks that found a fully idle run and failed it; watchdogExtended
// counts callbacks that observed delivery progress since the previous
// expiry and re-armed instead of aborting; watchdogLate counts callbacks
// that fired after the run had already completed or failed and were
// discarded. watchdogTestDelay, when non-nil, runs inside the callback
// before it inspects the run — tests use it to force the callback to lose
// the race deterministically.
var (
	watchdogFired     atomic.Int64
	watchdogExtended  atomic.Int64
	watchdogLate      atomic.Int64
	watchdogTestDelay func()
)

// deliverTestDelay, when non-nil, runs at the top of every send — tests
// use it to pace token delivery slower than a short watchdog deadline,
// making "live run outlasts its deadline" a deterministic scenario rather
// than a loaded-host accident.
var deliverTestDelay func()

// seedTestDelay, when non-nil, runs between the start node's seed sends —
// tests use it to hold the seeding loop open so every already-sent token
// drains before the next send, forcing the widest possible quiescence
// window mid-seeding.
var seedTestDelay func()

type engine struct {
	g        *dfg.Graph
	tab      *dfg.OpTable // g's operator table, read in place by every firing goroutine
	store    *interp.Store
	boxes    []*mailbox
	counters *obs.NodeCounters
	tel      *chanTel

	inflight atomic.Int64
	ops      atomic.Int64
	leftover atomic.Int64
	// delivered counts every token ever pushed to a mailbox; it only grows.
	// The watchdog reads it at each expiry: movement since the previous
	// expiry is proof of life, and only a full deadline window with no
	// movement is treated as a deadlock.
	delivered atomic.Int64
	maxOps    int64
	inj       *fault.Injector

	done chan struct{}
	// state is the run lifecycle: stateRunning until the single transition
	// to stateCompleted (quiescent success, in retire) or stateFailed (in
	// fail) — whichever CASes first wins and closes done. The losing side
	// is a no-op, which is what makes a deadline watchdog firing
	// concurrently with normal completion harmless.
	state  atomic.Int32
	failed atomic.Bool
	errMu  sync.Mutex
	err    error

	endMu   sync.Mutex
	endVals []int64
	endDone bool

	// The stateful units (internal/interp), each behind its own lock.
	procMu    sync.Mutex
	procs     interp.Activations[token.Tag]
	istructMu sync.Mutex
	istructs  interp.IStructs[deferredRead]
}

type deferredRead struct {
	node int
	tg   token.Tag
	// clock is the deferred read firing's own Lamport timestamp; the
	// satisfying write joins it with its own (max) before emitting the
	// result, keeping both causal edges.
	clock int64
}

// Run executes the dataflow graph to completion.
func Run(g *dfg.Graph, cfg Config) (*Outcome, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Binding.Validate(g.Prog); err != nil {
		return nil, err
	}
	maxOps := cfg.MaxOps
	if maxOps == 0 {
		maxOps = 10_000_000
	}
	e := &engine{
		g:        g,
		tab:      g.OpTable(),
		store:    interp.NewStoreWithBinding(g.Prog, cfg.Binding),
		boxes:    make([]*mailbox, len(g.Nodes)),
		counters: cfg.Counters,
		maxOps:   maxOps,
		inj:      cfg.Inject,
		done:     make(chan struct{}),
		procs:    interp.NewActivations[token.Tag](g, "channels"),
	}
	e.istructs = interp.NewIStructs[deferredRead](g, e.store, "channels")
	if cfg.Telemetry != nil {
		e.tel = newChanTel(cfg.Telemetry)
	}
	e.endVals = make([]int64, g.Nodes[g.EndID].NIns)
	for i := range e.boxes {
		e.boxes[i] = newMailbox()
	}

	var wg sync.WaitGroup
	for _, n := range g.Nodes {
		if n.Kind == dfg.Start {
			continue
		}
		wg.Add(1)
		go func(n *dfg.Node) {
			defer wg.Done()
			e.worker(n)
		}(n)
	}

	// The quiescence watchdog: the engine has no clock, so a wall-clock
	// bound is its deadlock oracle. The bound is on idle time, not total
	// runtime: at each expiry the callback compares the monotone delivered
	// counter against what it saw last time, and re-arms if the run moved.
	// Only a full deadline window with zero deliveries aborts the run —
	// so a deadlocked or wedged graph (which goes permanently silent) is
	// still converted into a typed Deadlock error, while a live run can
	// never be killed mid-progress no matter how loaded the host is. This
	// closed the historical watchdog-races-live-run flake family (see
	// ROBUSTNESS.md, "Known flakes").
	var watchdog *wdog
	if cfg.Deadline > 0 {
		watchdog = e.startWatchdog(cfg.Deadline)
	}

	// The start node emits one dummy token per arc at the root context.
	// The seeding loop itself holds a virtual in-flight token: workers are
	// already running, and without it a prefix of the seeds can be fully
	// absorbed (matched partially and retired) before the next send raises
	// the count again, driving inflight to zero mid-seeding and tripping a
	// spurious quiescent-before-end deadlock on a clean run.
	e.inflight.Add(1)
	for _, t := range e.tab.Out(g.StartID, 0) {
		e.send(int(t.Node), msg{port: int(t.Port), val: 0, tg: token.Root})
		if seedTestDelay != nil {
			seedTestDelay()
		}
	}
	e.retire()
	<-e.done
	if watchdog != nil {
		watchdog.stop()
	}
	for _, b := range e.boxes {
		b.close()
	}
	wg.Wait()

	// From here every worker has exited: engine state is quiescent and
	// safe to read. Aborted runs still return the partial outcome so the
	// store and op count stay inspectable.
	partial := &Outcome{Store: e.store, EndValues: e.endVals, Ops: e.ops.Load()}
	e.errMu.Lock()
	err := e.err
	e.errMu.Unlock()
	if err != nil {
		return partial, err
	}
	if err := cmp.Or(e.procs.Leak(), e.istructs.Pending()); err != nil {
		return partial, err
	}
	// Strict conservation: no partially matched activation may survive the
	// run (its partner token can never arrive).
	if n := e.leftover.Load(); n != 0 {
		return partial, machcheck.Newf(machcheck.TokenLeak, "channels",
			"%d partially matched activations left after end fired (token leak)", n)
	}
	return partial, nil
}

// watchdogError renders the stuck state at deadline expiry: the global
// in-flight count plus every non-empty mailbox's queue depth.
func (e *engine) watchdogError(d time.Duration) error {
	ce := machcheck.Newf(machcheck.Deadlock, "channels",
		"no token delivered for a full %v idle window: %d tokens in flight", d, e.inflight.Load())
	var stuck []machcheck.Stuck
	for i, b := range e.boxes {
		if b == nil {
			continue
		}
		depth, wedged := b.depth()
		if depth == 0 && !wedged {
			continue
		}
		label := e.g.Label(e.g.Nodes[i])
		if wedged {
			label += " (wedged)"
		}
		stuck = append(stuck, machcheck.Stuck{Node: i, Label: label, Have: depth})
	}
	return ce.WithStuck(stuck)
}

// wdog is the progress-aware quiescence watchdog: a self-re-arming timer
// that aborts the run only after a full deadline window with zero token
// deliveries. stopped is set by Run once the run is over, turning any
// still-in-flight callback into a counted no-op.
type wdog struct {
	mu       sync.Mutex
	timer    *time.Timer
	stopped  bool
	lastSeen int64
}

func (e *engine) startWatchdog(d time.Duration) *wdog {
	// lastSeen starts at -1 so the first expiry always re-arms (delivered
	// is never negative): an abort therefore requires one complete window
	// during which the callback's snapshot did not move.
	w := &wdog{lastSeen: -1}
	expire := func() {
		if watchdogTestDelay != nil {
			watchdogTestDelay()
		}
		w.mu.Lock()
		if w.stopped {
			w.mu.Unlock()
			watchdogLate.Add(1)
			return
		}
		now := e.delivered.Load()
		if now != w.lastSeen {
			// Tokens moved since the last expiry: the run is slow, not
			// stuck. Grant it another full idle window.
			w.lastSeen = now
			w.timer.Reset(d)
			w.mu.Unlock()
			watchdogExtended.Add(1)
			e.tel.extended(d)
			return
		}
		w.mu.Unlock()
		if !e.failCounted(e.watchdogError(d), &watchdogFired) {
			watchdogLate.Add(1)
		}
	}
	// Assign the timer under the lock: with a tiny deadline the callback
	// can run before AfterFunc returns, and it must block until w.timer is
	// set before it may Reset it.
	w.mu.Lock()
	w.timer = time.AfterFunc(d, expire)
	w.mu.Unlock()
	return w
}

// stop retires the watchdog at the end of the run. A callback already past
// the stopped check may still lose the fail CAS to normal completion;
// either way it is a no-op, counted under watchdogLate.
func (w *wdog) stop() {
	w.mu.Lock()
	w.stopped = true
	t := w.timer
	w.mu.Unlock()
	t.Stop()
}

// fail moves the run to the failed state and records err, reporting
// whether this call won the transition. A fail that loses the race to
// normal completion (or to an earlier fail) changes nothing and returns
// false — late watchdog fires rely on this.
func (e *engine) fail(err error) bool { return e.failCounted(err, nil) }

// failCounted is fail that, when it wins, adds one to won before the run
// ends, so that whoever sees Run return also sees the count.
func (e *engine) failCounted(err error, won *atomic.Int64) bool {
	if !e.state.CompareAndSwap(stateRunning, stateFailed) {
		return false
	}
	if won != nil {
		won.Add(1)
	}
	e.failed.Store(true)
	e.errMu.Lock()
	e.err = err
	e.errMu.Unlock()
	close(e.done)
	return true
}

// send delivers a token; the in-flight count rises before delivery so the
// quiescence check cannot fire spuriously, and the delivered count rises
// with every push so the watchdog sees the run is alive.
func (e *engine) send(node int, m msg) {
	if deliverTestDelay != nil {
		deliverTestDelay()
	}
	if e.inj != nil {
		switch e.inj.Deliver(e.tab.Ops[node].Flags&dfg.OpMatchSite != 0) {
		case fault.ActDrop:
			// The token vanishes: in-flight never counts it, so the run
			// quiesces with the destination starved.
			return
		case fault.ActDup:
			e.inflight.Add(1)
			e.delivered.Add(1)
			e.tel.delivery(e.boxes[node].push(m))
		case fault.ActCorruptTag:
			m.tg = m.tg.Push()
		case fault.ActWedge:
			e.boxes[node].wedge()
		}
	}
	e.inflight.Add(1)
	e.delivered.Add(1)
	e.tel.delivery(e.boxes[node].push(m))
}

// retire marks one delivered token fully processed; when the last token
// retires the execution is quiescent. Quiescence before end is a
// deadlock, named by the I-structure reads it strands when there are any.
func (e *engine) retire() {
	if e.inflight.Add(-1) == 0 {
		e.endMu.Lock()
		finished := e.endDone
		e.endMu.Unlock()
		if !finished {
			e.istructMu.Lock()
			err := e.istructs.Pending()
			e.istructMu.Unlock()
			if err == nil {
				err = machcheck.Newf(machcheck.Deadlock, "channels",
					"quiescent before end fired (deadlocked tokens)")
			}
			e.fail(err)
			return
		}
		if e.state.CompareAndSwap(stateRunning, stateCompleted) {
			close(e.done)
		}
	}
}

type matchState struct {
	have uint64
	vals []int64
	tg   token.Tag
	n    int
	// clock accumulates the max Lamport timestamp over arrived operands.
	clock int64
}

func (e *engine) worker(n *dfg.Node) {
	box := e.boxes[n.ID]
	match := map[string]*matchState{}
	defer func() { e.leftover.Add(int64(len(match))) }()
	perToken := e.tab.Ops[n.ID].Flags&dfg.OpSolo != 0
	// fused backs a Fused operator's step results from one firing to the
	// next (only this goroutine fires n).
	var fused []int64
	for {
		m, ok := box.pop()
		if !ok {
			return
		}
		if perToken {
			e.fire(n, []int64{m.val}, m.port, m.tg, m.clock, &fused)
			e.retire()
			continue
		}
		st := match[m.tg.Key()]
		if st == nil {
			st = &matchState{vals: make([]int64, n.NIns), tg: m.tg}
			match[m.tg.Key()] = st
		}
		if m.clock > st.clock {
			st.clock = m.clock
		}
		bit := uint64(1) << uint(m.port)
		if st.have&bit != 0 {
			e.fail(machcheck.Newf(machcheck.TagViolation, "channels",
				"duplicate token at %s port %d tag %q", e.g.Label(n), m.port, m.tg.Key()))
			e.retire()
			continue
		}
		st.have |= bit
		st.vals[m.port] = m.val
		st.n++
		if st.n == int(n.NIns) {
			delete(match, m.tg.Key())
			e.fire(n, st.vals, 0, st.tg, st.clock, &fused)
		}
		e.retire()
	}
}

// emit broadcasts val on every arc leaving (node, port), stamping each
// token with the producing firing's Lamport clock.
func (e *engine) emit(node, port int, val int64, tg token.Tag, clock int64) {
	for _, t := range e.tab.Out(int32(node), port) {
		e.send(int(t.Node), msg{port: int(t.Port), val: val, tg: tg, clock: clock})
	}
}

// opFault fails the run with a kernel or store error, reported as this
// engine's operator fault at the node.
func (e *engine) opFault(n *dfg.Node, err error) {
	e.fail(machcheck.Newf(machcheck.OperatorFault, "channels", "%s: %v", e.g.Label(n), err))
}

// fire executes one activation. clock is the max Lamport timestamp over
// the activation's operand tokens; the firing's own timestamp is
// clock + 1 and is stamped onto every token it emits. What a state-free
// operator computes is the kernel's (interp.Step); the cases here are the
// operators with engine state behind them. fused is the firing
// goroutine's scratch for a Fused operator's step results.
func (e *engine) fire(n *dfg.Node, vals []int64, port int, tg token.Tag, clock int64, fused *[]int64) {
	if e.failed.Load() {
		return
	}
	if e.ops.Add(1) > e.maxOps {
		e.fail(machcheck.Newf(machcheck.CyclesExceeded, "channels",
			"exceeded %d firings (runaway loop?)", e.maxOps))
		return
	}
	fc := clock + 1
	e.counters.Inc(int(n.ID))
	e.counters.ObserveClock(int(n.ID), fc)
	if e.tel != nil {
		e.tel.firings.Add(1)
	}
	switch n.Kind {
	case dfg.End:
		if !tg.IsRoot() {
			e.fail(machcheck.Newf(machcheck.TagViolation, "channels",
				"token reached end with non-root tag %q (unbalanced loop context)", tg.Key()))
			return
		}
		e.endMu.Lock()
		fired := e.endDone
		if !fired {
			copy(e.endVals, vals)
			e.endDone = true
		}
		e.endMu.Unlock()
		if fired {
			e.fail(machcheck.Newf(machcheck.TagViolation, "channels",
				"end fired twice (duplicate result token)"))
			return
		}

	case dfg.Fused:
		// One activation evaluates the whole step program (no Misfire
		// inside: fused steps are interior value computations, mirroring
		// the machine engine).
		fi := &e.g.Fusions[e.tab.Ops[n.ID].Aux]
		res, err := interp.EvalFused(fi.Steps, vals, *fused)
		if err != nil {
			e.opFault(n, err)
			return
		}
		*fused = res
		for p, s := range fi.Outs {
			e.emit(int(n.ID), p, res[s], tg, fc)
		}

	case dfg.Apply:
		e.procMu.Lock()
		nt, info, err := e.procs.Open(int(n.ID), tg, tg)
		e.procMu.Unlock()
		if err != nil {
			e.fail(err)
			return
		}
		for j := range info.Params {
			e.emit(int(n.ID), len(info.InTokens)+j, 0, nt, fc)
		}

	case dfg.ProcReturn:
		e.procMu.Lock()
		info, caller, err := e.procs.Close(int(n.ID), tg)
		e.procMu.Unlock()
		if err != nil {
			e.fail(err)
			return
		}
		for p := range info.InTokens {
			e.emit(int(info.Apply), p, 0, caller, fc)
		}

	case dfg.Load, dfg.Store, dfg.LoadIdx, dfg.StoreIdx:
		name := e.g.Name(n.Var)
		if e.procs.Linked() { // else the registry never changes
			e.procMu.Lock()
			name = e.procs.Resolve(e.g.Name(n.Var), tg)
			e.procMu.Unlock()
		}
		v, err := e.store.Access(n.Kind, name, vals)
		if err != nil {
			e.opFault(n, err)
			return
		}
		e.emit(int(n.ID), 0, v, tg, fc)
		if n.OutPorts() == 2 {
			e.emit(int(n.ID), 1, 0, tg, fc)
		}

	case dfg.ILoad:
		e.istructMu.Lock()
		v, full, err := e.istructs.Read(e.g.Name(n.Var), vals[0], deferredRead{node: int(n.ID), tg: tg, clock: fc})
		e.istructMu.Unlock()
		if err != nil {
			e.fail(err)
		} else if full { // else the write emits the result
			e.emit(int(n.ID), 0, v, tg, fc)
		}

	case dfg.IStore:
		e.istructMu.Lock()
		waiters, err := e.istructs.Write(e.g.Name(n.Var), vals[0], vals[1])
		e.istructMu.Unlock()
		if err != nil {
			e.fail(err)
			return
		}
		for _, w := range waiters {
			// The result token is causally after both the store firing and
			// the deferred read firing: join their clocks.
			e.emit(w.node, 0, vals[1], w.tg, max(fc, w.clock))
		}

	default:
		v, out, err := interp.Step(n.Kind, n.Op, n.Val, vals)
		if err != nil {
			e.opFault(n, err)
			return
		}
		switch n.Kind {
		case dfg.BinOp:
			if e.inj != nil && fault.PredicateOp(n.Op) {
				if fv, hit := e.inj.Misfire(v); hit {
					v = fv
				}
			}
		case dfg.LoopEntry:
			if port == 0 {
				tg = tg.Push()
			} else if tg, err = tg.Bump(); err != nil {
				e.fail(machcheck.Newf(machcheck.TagViolation, "channels", "%s: %v", e.g.Label(n), err))
				return
			}
		case dfg.LoopExit:
			if tg, err = tg.Pop(); err != nil {
				e.fail(machcheck.Newf(machcheck.TagViolation, "channels", "%s: %v", e.g.Label(n), err))
				return
			}
		}
		e.emit(int(n.ID), out, v, tg, fc)
	}
}
