package machine

import (
	"ctdf/internal/dfg"
	"ctdf/internal/machcheck"
	"ctdf/internal/token"
)

// Procedure linkage (separate compilation): every firing of an Apply node
// allocates an activation — a fresh tag frame plus a binding of the
// callee's formals to resolved storage names — and sends the callee's
// tokens into its shared body. The callee's ProcReturn pops the frame and
// signals the calling Apply's return ports. This realizes §2.2's "each
// invocation of a procedure ... gets an activation context" on the shared
// once-compiled body, so concurrent activations of one procedure overlap
// freely (their tags differ).

// activation is one dynamic procedure call in flight.
type activation struct {
	info *dfg.CallInfo
	// callerTgID is the calling tag's interned id, kept so the return
	// emits in the caller's context without re-interning.
	callerTgID int32
	// resolved maps each formal to the storage name it denotes during this
	// activation (fully resolved through the caller's own activation).
	resolved map[string]string
}

// procLinkage is the per-run activation registry (the static linkage of
// each Apply node lives in the flat program, see prog.call).
type procLinkage struct {
	live   map[int]*activation
	nextID int
}

func newProcLinkage(g *dfg.Graph) *procLinkage {
	if len(g.Calls) == 0 {
		return nil
	}
	return &procLinkage{live: map[int]*activation{}}
}

// resolveName maps a variable name to the storage it denotes under the
// given tag: formals resolve through the innermost activation's binding;
// globals are themselves.
func (m *sim) resolveName(name string, tg token.Tag) string {
	if m.procs == nil {
		return name
	}
	act := tg.Activation()
	if act < 0 {
		return name
	}
	rec := m.procs.live[act]
	if rec == nil {
		return name
	}
	if r, ok := rec.resolved[name]; ok {
		return r
	}
	return name
}

// fireApply allocates an activation and sends the callee's entry tokens.
func (m *sim) fireApply(f *firing) error {
	info := m.p.call(int(f.node))
	if info == nil {
		return machcheck.Newf(machcheck.OperatorFault, "machine",
			"apply d%d has no call linkage", f.node)
	}
	id := m.procs.nextID
	m.procs.nextID++
	tg := m.tags.tag(f.tgID)
	rec := &activation{info: info, callerTgID: f.tgID, resolved: map[string]string{}}
	for formal, actual := range info.Bindings {
		rec.resolved[formal] = m.resolveName(actual, tg)
	}
	m.procs.live[id] = rec
	ntID := m.tags.intern(tg.PushCall(id))
	for j := range info.Params {
		m.emitAll(f.node, len(info.InTokens)+j, 0, ntID)
	}
	return nil
}

// fireProcReturn closes the activation and signals the calling Apply's
// return ports in the caller's context.
func (m *sim) fireProcReturn(f *firing) error {
	_, id, err := m.tags.tag(f.tgID).PopCall()
	if err != nil {
		return machcheck.Newf(machcheck.TagViolation, "machine",
			"%s: %v", m.g.Nodes[f.node], err)
	}
	rec := m.procs.live[id]
	if rec == nil {
		return machcheck.Newf(machcheck.TagViolation, "machine",
			"return for unknown activation %d", id)
	}
	delete(m.procs.live, id)
	for p := 0; p < len(rec.info.InTokens); p++ {
		m.emitAll(int32(rec.info.Apply), p, 0, rec.callerTgID)
	}
	return nil
}
