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
//     removed and the token line runs straight through (Figure 9). On a
//     graph without a CFG the pattern alone decides.
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
// EliminateRedundantSwitches runs the first and the last of these alone,
// with the CFG withheld: that is the iterative switch elimination §4
// opens with.
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

// pass is one rewrite of the pipeline; it returns how often it rewrote.
type pass struct {
	name    string
	rewrite func(w *work, res *translate.Result) int
}

// pipeline is the full optimizer, in pipeline order.
var pipeline = []pass{
	{"sink-switches", (*work).sinkSwitches},
	{"collapse-merges", func(w *work, _ *translate.Result) int { return w.collapseMerges() }},
	{"fuse-operators", func(w *work, _ *translate.Result) int { return w.fuseOperators() }},
	{"eliminate-dead", (*work).eliminateDead},
}

// figure9 is the iterative switch elimination §4 opens with: sinking
// identity pairs and deleting what they orphan.
var figure9 = []pass{pipeline[0], pipeline[3]}

// Edit runs the pipeline on e, the editor the translation res describes
// was emitted into (translate.TranslateEdited), and records its rewrite
// counts in res.Opt.
func Edit(e *dfg.Editor, res *translate.Result) (err error) {
	res.Opt, err = newWork(e).run(res, pipeline)
	return err
}

// Run optimizes res.Graph in place: the rewritten graph replaces
// res.Graph, and the run's rewrite counts are stored in res.Opt and
// returned. Graphs without a CFG (loaded from text, linked) get every
// pass; switch sinking then removes every switch/merge identity pair,
// since there is no placement to consult.
func Run(res *translate.Result) (*translate.OptCertificate, error) {
	if res == nil || res.Graph == nil {
		return nil, fmt.Errorf("opt: no graph to optimize")
	}
	return rewrite(res, res, pipeline)
}

// EliminateRedundantSwitches is the iterative optimization §4 opens with
// (Figure 9): it removes every switch whose two outputs are immediately
// merged together again, deletes the pure values that only those
// switches consumed, and repeats until nothing changes, since removing
// an inner pair can make an enclosing one redundant. It runs the
// sink-switches and eliminate-dead passes on res.Graph with the CFG
// withheld, so the identity pattern alone decides, which is the rule as
// §4 states it. On acyclic control flow this reaches the switch
// placement of the direct §4.2 construction; letting tokens bypass loops
// is out of its reach.
//
// Like Run it edits res in place: the rewritten graph replaces res.Graph
// and the run's certificate (sink-switches counts the switches removed)
// replaces res.Opt. It takes any validated graph: translated, optimized,
// linked or loaded from text.
func EliminateRedundantSwitches(res *translate.Result) (*translate.OptCertificate, error) {
	return rewrite(res, &translate.Result{ValueTokens: res.ValueTokens}, figure9)
}

// rewrite runs passes over res.Graph to their fixpoint, reading the
// translation metadata from meta, and stores the result in res.
func rewrite(res, meta *translate.Result, passes []pass) (*translate.OptCertificate, error) {
	w := newWork(dfg.NewEditor(res.Graph))
	cert, err := w.run(meta, passes)
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

// run iterates passes over w to their fixpoint and reports this run's
// rewrites. res supplies the translation metadata; its Graph is not read.
func (w *work) run(res *translate.Result, passes []pass) (*translate.OptCertificate, error) {
	cert := &translate.OptCertificate{Passes: make([]translate.PassCount, len(passes))}
	for i, p := range passes {
		cert.Passes[i].Name = p.name
	}
	for round := 0; ; round++ {
		if round >= maxRounds {
			return nil, fmt.Errorf("opt: pipeline did not reach a fixpoint after %d rounds", maxRounds)
		}
		changed := false
		for i, p := range passes {
			n := p.rewrite(w, res)
			cert.Passes[i].Rewrites += n
			changed = changed || n > 0
		}
		if !changed {
			return cert, nil
		}
	}
}
