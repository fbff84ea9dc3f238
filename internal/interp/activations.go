package interp

import (
	"maps"

	"ctdf/internal/dfg"
	"ctdf/internal/machcheck"
	"ctdf/internal/token"
)

// Activations is the procedure-activation registry of a linked graph
// (§2.2: "each invocation of a procedure ... gets an activation
// context"). An Apply firing opens an activation on the callee's shared
// once-compiled body — a fresh call frame on the tag, the callee's
// formals bound to resolved storage — and the callee's ProcReturn closes
// it. The registry decides every outcome and error; C is the engine's
// own record of the caller's context. Not safe for concurrent use.
type Activations[C any] struct {
	engine string
	g      *dfg.Graph
	// calls is each in-range Apply node's linkage, nil when g has no call
	// records: then no activation opens and the registry never changes.
	calls map[int]*dfg.CallInfo
	live  map[int]*activation[C]
	next  int
}

type activation[C any] struct {
	info   *dfg.CallInfo
	caller C
	// resolved maps each formal to the storage it denotes during this
	// activation, resolved through the caller's own activation.
	resolved map[string]string
}

// NewActivations builds g's registry, used in place; engine labels it.
func NewActivations[C any](g *dfg.Graph, engine string) Activations[C] {
	a := Activations[C]{engine: engine, g: g}
	if len(g.Calls) > 0 {
		a.calls, a.live = map[int]*dfg.CallInfo{}, map[int]*activation[C]{}
	}
	for i := range g.Calls {
		if ap := int(g.Calls[i].Apply); ap >= 0 && ap < len(g.Nodes) && g.Nodes[ap].Kind == dfg.Apply {
			a.calls[ap] = &g.Calls[i]
		}
	}
	return a
}

// Linked reports whether the graph has call records.
func (a *Activations[C]) Linked() bool { return a.calls != nil }

// Call returns an Apply node's linkage, or nil.
func (a *Activations[C]) Call(apply int) *dfg.CallInfo { return a.calls[apply] }

// Open opens the activation of a firing of apply under tg from the
// caller's context, returning the tag the callee's entry tokens carry and
// the call's linkage.
func (a *Activations[C]) Open(apply int, caller C, tg token.Tag) (token.Tag, *dfg.CallInfo, error) {
	info := a.calls[apply]
	if info == nil {
		return token.Tag{}, nil, machcheck.Newf(machcheck.OperatorFault, a.engine,
			"apply d%d has no call linkage", apply)
	}
	rec := &activation[C]{info: info, caller: caller, resolved: map[string]string{}}
	for formal, actual := range info.Bindings {
		rec.resolved[formal] = a.Resolve(actual, tg)
	}
	id := a.next
	a.next++
	a.live[id] = rec
	return tg.PushCall(id), info, nil
}

// Resolve maps a variable name to the storage it denotes under tg:
// formals resolve through the innermost activation's binding; globals are
// themselves.
func (a *Activations[C]) Resolve(name string, tg token.Tag) string {
	if a.calls == nil {
		return name
	}
	if rec := a.live[tg.Activation()]; rec != nil {
		if r, ok := rec.resolved[name]; ok {
			return r
		}
	}
	return name
}

// Close ends the activation a firing of the ProcReturn node under tg
// returns from, returning the call's linkage and the caller's context.
func (a *Activations[C]) Close(node int, tg token.Tag) (*dfg.CallInfo, C, error) {
	var caller C
	_, id, err := tg.PopCall()
	if err != nil {
		return nil, caller, machcheck.Newf(machcheck.TagViolation, a.engine, "%s: %v", a.g.Label(a.g.Nodes[node]), err)
	}
	rec := a.live[id]
	if rec == nil {
		return nil, caller, machcheck.Newf(machcheck.TagViolation, a.engine,
			"return for unknown activation %d", id)
	}
	delete(a.live, id)
	return rec.info, rec.caller, nil
}

// Leak reports the activations still open once the run is over.
func (a *Activations[C]) Leak() error {
	if len(a.live) == 0 {
		return nil
	}
	return machcheck.Newf(machcheck.TokenLeak, a.engine,
		"%d procedure activations never returned", len(a.live))
}

// Save visits the open activations by ascending id, each with a copy of
// its bindings, and returns the id the next one takes.
func (a *Activations[C]) Save(visit func(id int, info *dfg.CallInfo, caller C, resolved map[string]string)) (next int) {
	for _, id := range sortedKeys(a.live) {
		rec := a.live[id]
		visit(id, rec.info, rec.caller, maps.Clone(rec.resolved))
	}
	return a.next
}

// Restore sets the id the next activation of a linked graph takes.
func (a *Activations[C]) Restore(next int) { a.next = next }

// Reopen restores a saved activation of a linked graph.
func (a *Activations[C]) Reopen(id int, info *dfg.CallInfo, caller C, resolved map[string]string) {
	a.live[id] = &activation[C]{info: info, caller: caller, resolved: maps.Clone(resolved)}
}
