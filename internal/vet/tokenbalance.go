package vet

import (
	"ctdf/internal/dfg"
	"ctdf/internal/machcheck"
)

// passTokenBalance proves the Schema 2 invariant of §3 — every variable
// has exactly one access token on every path — by abstract interpretation
// over the static graph:
//
//   - a node (or input port) unreachable from start can never fire: the
//     tokens its consumers wait for never arrive (static starvation, the
//     graph-level shadow of machcheck's Deadlock);
//   - an output port with no consumer discards every token it emits: the
//     count drops below 1 and end can never collect it (static leak, the
//     shadow of machcheck's TokenLeak);
//   - a producing node with no path to any sink pools tokens forever even
//     when every individual port is wired (a closed consuming cycle);
//   - with translation metadata, the end node must collect exactly one
//     port per token of the universe — the "one token per variable,
//     returned at end" contract.
//
// Sinks are the operators allowed to retire tokens: end, proc-return
// (retired into the calling Apply's frame), and istore (write-once cells
// absorb their index/value, §6.3).
func passTokenBalance(u *Unit) ([]Diagnostic, string) {
	g := u.G
	var ds []Diagnostic

	// Forward reachability from start over all arcs.
	fwd := make([]bool, len(g.Nodes))
	for _, n := range u.searched().post[:u.fromStart] {
		fwd[n] = true
	}

	// Backward reachability to a token-retiring sink.
	bwd := make([]bool, len(g.Nodes))
	var stack []int32
	for _, n := range g.Nodes {
		if n.Kind == dfg.End || n.Kind == dfg.ProcReturn || n.Kind == dfg.IStore {
			bwd[n.ID] = true
			stack = append(stack, n.ID)
		}
	}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, ai := range u.adj.InTo(n) {
			if from := g.Arcs[ai].From; !bwd[from] {
				bwd[from] = true
				stack = append(stack, from)
			}
		}
	}

	for _, n := range g.Nodes {
		// End fires when every port has delivered, so an end with no port
		// is never triggered and the run never finishes: an empty
		// program's end collects start's own token.
		if n.Kind == dfg.End && n.NIns == 0 {
			ds = append(ds, errorOf(machcheck.Deadlock, int(n.ID), "", "end has no input port, so no arc feeds it: it never fires and the run cannot finish"))
		}
		// Start has no input port and fires without waiting on any token;
		// reachability does not apply.
		if n.Kind != dfg.Start && n.NIns > 0 && !fwd[n.ID] {
			ds = append(ds, errorOf(machcheck.Deadlock, int(n.ID), g.Name(n.Tok), "unreachable from start: the node can never fire and its consumers starve"))
			// Its ports would all be reported too; one finding is enough.
			continue
		}
		for p := 0; p < int(n.NIns); p++ {
			if len(u.In(n.ID, p)) == 0 {
				ds = append(ds, errorOf(machcheck.Deadlock, int(n.ID), g.Name(n.Tok), "input port %d never receives a token: the node can never fire", p))
			}
		}
		for p := 0; p < n.OutPorts(); p++ {
			if len(u.Out(n.ID, p)) == 0 && !unconsumedOK(u, n, p) {
				ds = append(ds, errorOf(machcheck.TokenLeak, int(n.ID), g.Name(n.Tok), "output port %d has no consumer: its token count drops below 1 and end can never collect it", p))
			}
		}
		if n.OutPorts() > 0 && fwd[n.ID] && !bwd[n.ID] && !valueKind(n) && !valueTokenLine(u, n) {
			ds = append(ds, errorOf(machcheck.TokenLeak, int(n.ID), g.Name(n.Tok), "no path to end (or any token-retiring sink): tokens pool here forever"))
		}
	}

	// End arity against the token universe: the translation contract wires
	// end port i to token universe[i], and an empty universe's end port 0
	// to start.
	if u.Res != nil && u.Res.Universe != nil && g.EndID >= 0 && int(g.EndID) < len(g.Nodes) {
		if got, want := int(g.Nodes[g.EndID].NIns), max(1, len(u.Res.Universe)); got != want {
			ds = append(ds, errorOf(machcheck.TokenLeak, int(g.EndID), "", "end collects %d ports but the token universe has %d tokens", got, want))
		}
	}
	return ds, ""
}

// unconsumedOK lists the output ports legitimately left unconsumed:
//
//   - a pure value producer (const, binop, unop) — an unconsumed value is
//     dead code, not a leak: the optimized schemas may compute a fork's
//     predicate and then place no switch at that fork;
//   - any port of a routing operator on a §6.1 value-token line — a value
//     is droppable when dead (the diamond's old value of m is discarded on
//     both arms because each arm redefines m), unlike an access token,
//     whose count must stay exactly 1.
func unconsumedOK(u *Unit, n *dfg.Node, port int) bool {
	// A load's value out (port 0) is dead code when the assigned variable
	// is redefined before any use; its access out (port 1) stays checked.
	if (n.Kind == dfg.Load || n.Kind == dfg.LoadIdx || n.Kind == dfg.ILoad) && port == 0 {
		return true
	}
	return valueKind(n) || valueTokenLine(u, n)
}

// valueKind reports whether every output of n is a pure value (never an
// access-token line). ILoad qualifies: I-structure reads are tokenless
// (§6.3), their single output is the deferred value. Fused qualifies:
// the optimizer only fuses pure value-operator trees.
func valueKind(n *dfg.Node) bool {
	switch n.Kind {
	case dfg.Const, dfg.BinOp, dfg.UnOp, dfg.ILoad, dfg.Fused:
		return true
	}
	return false
}

// valueTokenLine reports whether n is a routing operator on a value-token
// line (§6.1 memory elimination), where token-count conservation does not
// apply.
func valueTokenLine(u *Unit, n *dfg.Node) bool {
	if u.Res == nil || n.Tok == dfg.NoName {
		return false
	}
	return u.Res.ValueTokens[u.G.Name(n.Tok)] != ""
}
