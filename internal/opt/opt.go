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
// The pipeline keeps no record of what it removed. internal/vet judges
// each absence from the graph and the CFG alone: a switch may be missing
// where its own recomputed minimal placement has none (Theorem 1), and a
// merge where the source vectors under the remaining switches need none
// or where a collapsed chain carries its arms on. So the optimized graph
// still passes the full translation-validation suite. A run sets res.Opt
// (translate.OptCertificate) to say that it ran and how often each pass
// rewrote. Determinacy is preserved pass by pass:
// sinking removes an identity pair (the merge's outgoing guard is
// exactly the guard the switch's data input carried), flattening
// preserves the token multiset a merge forwards, fusion only touches
// single-consumer pure values (no other node observes the interior
// tokens), and dead elimination deletes tokens that were provably
// discarded anyway.
//
// The passes do not rewrite dfg.Graph values, which are append-only: they
// edit a dfg.Editor in place, whose per-port adjacency is current after
// every edit, and a dfg.Graph is built from it once, after the last round.
// A compile runs them on the editor the translator emitted into (Edit),
// so the graph is built, indexed and validated once. Run lowers a
// graph already built into an editor of its own, and builds nothing when
// nothing was rewritten: the input graph itself is handed back.
package opt

import (
	"fmt"

	"ctdf/internal/dfg"
	"ctdf/internal/translate"
)

// maxRounds bounds the pipeline fixpoint; each round must remove at
// least one node to continue, so the true bound is the node count.
const maxRounds = 1024

// Edit runs the pipeline on e, the editor the translation res describes
// was emitted into (translate.TranslateEdited), and records its rewrite
// counts in res.Opt.
func Edit(e *dfg.Editor, res *translate.Result) (err error) {
	res.Opt, err = newWork(e).run(res)
	return err
}

// Run optimizes res.Graph in place: the rewritten graph replaces
// res.Graph, and the run's rewrite counts are stored in res.Opt and
// returned. Graphs without translation metadata (loaded from
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
	w := newWork(dfg.NewEditor(res.Graph))
	cert, err := w.run(res)
	if err != nil {
		return nil, err
	}
	g := res.Graph
	if cert.Rewrites() > 0 {
		if g, err = w.Graph(); err != nil {
			return nil, fmt.Errorf("opt: internal error: %w", err)
		}
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("opt: optimized graph is invalid: %w", err)
	}
	res.Graph, res.Opt = g, cert
	return cert, nil
}

// run iterates the pipeline over w to its fixpoint and reports this
// run's rewrites. res supplies the translation metadata; its Graph is not
// read.
func (w *work) run(res *translate.Result) (*translate.OptCertificate, error) {
	counts := [4]int{}
	for round := 0; ; round++ {
		if round >= maxRounds {
			return nil, fmt.Errorf("opt: pipeline did not reach a fixpoint after %d rounds", maxRounds)
		}
		before := counts
		counts[0] += w.sinkSwitches(res)
		counts[1] += w.collapseMerges()
		counts[2] += w.fuseOperators()
		counts[3] += w.eliminateDead(res)
		if counts == before {
			break
		}
	}
	return &translate.OptCertificate{Passes: []translate.PassCount{
		{Name: "sink-switches", Rewrites: counts[0]},
		{Name: "collapse-merges", Rewrites: counts[1]},
		{Name: "fuse-operators", Rewrites: counts[2]},
		{Name: "eliminate-dead", Rewrites: counts[3]},
	}}, nil
}
