// Package opt is the post-translation graph optimizer: a pass pipeline
// that rewrites dataflow program graphs produced by internal/translate
// without changing what they compute. The paper's §4 derives switch
// placement statically, before graph construction; this package is the
// complementary direction — Figure 9's observation ("the switch and
// merge operators for y are unnecessary") generalized into graph-level
// rewrites that run on any schema's output:
//
//   - sink-switches: a switch whose both arms feed one merge, and that
//     the independently recomputed §4 minimal placement marks
//     unnecessary, is an identity together with that merge; the pair is
//     removed and the token line runs straight through (Figure 9).
//   - collapse-merges: a merge whose only consumer is another merge of
//     the same token forwards every token into it; the chain flattens
//     into the downstream merge (merge is associative), so nested joins
//     cost one merge traversal instead of two.
//   - fuse-operators: maximal single-consumer trees of pure value
//     operators (const, binop, unop) collapse into one Fused
//     super-operator that evaluates the whole tree in a single firing —
//     interior tokens stop moving through the machine entirely and the
//     tree's critical path drops to one cycle.
//   - eliminate-dead: pure value nodes whose outputs nobody consumes
//     (typically predicate chains orphaned by sink-switches) are
//     deleted, provided no producer's access-token port is left
//     unconsumed.
//
// Every structural claim the pipeline makes about switch and merge
// removals is recorded in a translate.OptCertificate; internal/vet
// validates the claims against its own recomputed placement rather than
// trusting them, so the optimized graph still passes the full
// translation-validation suite. Determinacy is preserved pass by pass:
// sinking removes an identity pair (the merge's outgoing guard is
// exactly the guard the switch's data input carried), flattening
// preserves the token multiset a merge forwards, fusion only touches
// single-consumer pure values (no other node observes the interior
// tokens), and dead elimination deletes tokens that were provably
// discarded anyway.
//
// The passes do not rewrite dfg.Graph values, which are append-only: one
// run lowers its input once into a dfg.Editor, whose per-port adjacency
// is current after every edit, every pass edits that in place, and a
// dfg.Graph is built from it once, after the last round — or not at all
// when nothing was rewritten, in which case the input graph itself is
// handed back.
package opt

import (
	"fmt"

	"ctdf/internal/translate"
)

// maxRounds bounds the pipeline fixpoint; each round must remove at
// least one node to continue, so the true bound is the node count.
const maxRounds = 1024

// Run optimizes res.Graph in place: the rewritten graph replaces
// res.Graph, and the certificate recording what was removed is stored in
// res.Opt and returned. Graphs without translation metadata (loaded from
// text) still get the metadata-free passes (fusion, merge collapsing,
// dead elimination); switch sinking needs the CFG to recompute the
// minimal placement and sinks nothing without it.
func Run(res *translate.Result) (*translate.OptCertificate, error) {
	if res == nil || res.Graph == nil {
		return nil, fmt.Errorf("opt: no graph to optimize")
	}
	if len(res.Graph.Calls) > 0 {
		return nil, fmt.Errorf("opt: linked procedure graphs are not optimizable (call linkage pins node ids)")
	}
	return newWork(res.Graph).run(res)
}

// run iterates the pipeline over w, the working form of res.Graph, to its
// fixpoint and stores the outcome in res.
func (w *work) run(res *translate.Result) (*translate.OptCertificate, error) {
	cert := &translate.OptCertificate{
		RemovedSwitches: map[translate.StmtTok]int{},
		RemovedMerges:   map[translate.StmtTok]int{},
	}
	counts := [4]int{}
	for round := 0; ; round++ {
		if round >= maxRounds {
			return nil, fmt.Errorf("opt: pipeline did not reach a fixpoint after %d rounds", maxRounds)
		}
		before := counts
		counts[0] += w.sinkSwitches(res, cert)
		counts[1] += w.collapseMerges(cert)
		counts[2] += w.fuseOperators()
		counts[3] += w.eliminateDead(res)
		if counts == before {
			break
		}
	}
	g := res.Graph
	if counts != [4]int{} {
		var err error
		if g, err = w.Graph(); err != nil {
			return nil, fmt.Errorf("opt: internal error: %w", err)
		}
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("opt: optimized graph is invalid: %w", err)
	}
	cert.Passes = []translate.PassCount{
		{Name: "sink-switches", Rewrites: counts[0]},
		{Name: "collapse-merges", Rewrites: counts[1]},
		{Name: "fuse-operators", Rewrites: counts[2]},
		{Name: "eliminate-dead", Rewrites: counts[3]},
	}
	res.Graph = g
	res.Opt = cert
	return cert, nil
}
