package interp

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"ctdf/internal/dfg"
	"ctdf/internal/machcheck"
)

// IStructs is I-structure memory (§6.3): each cell is written at most
// once, and a read of an empty cell waits inside the memory until the
// write arrives. Cell contents live in the engine's Store, so final-state
// snapshots see them; the unit holds the presence bits and each cell's
// deferred readers in arrival order, every reader the engine's own record
// W of where its result is due. The unit decides every outcome and error,
// the engine emits the results. Not safe for concurrent use.
type IStructs[W any] struct {
	engine   string
	store    *Store
	full     map[string][]bool
	deferred map[string]map[int64][]W
}

// NewIStructs prepares presence bits for every array g reads or writes
// through I-structure operators, whose cells are store's; the unit is
// used in place, and engine labels its machine checks.
func NewIStructs[W any](g *dfg.Graph, store *Store, engine string) IStructs[W] {
	u := IStructs[W]{engine: engine, store: store, full: map[string][]bool{}, deferred: map[string]map[int64][]W{}}
	for _, n := range g.Nodes {
		if a := g.Name(n.Var); (n.Kind == dfg.ILoad || n.Kind == dfg.IStore) && u.full[a] == nil {
			u.full[a] = make([]bool, g.Prog.ArraySize(a))
			u.deferred[a] = map[int64][]W{}
		}
	}
	return u
}

func (u *IStructs[W]) checkIndex(name string, idx int64) error {
	if idx < 0 || idx >= int64(len(u.full[name])) {
		return machcheck.Newf(machcheck.OperatorFault, u.engine,
			"I-structure index %d out of range for %s[%d]", idx, name, len(u.full[name]))
	}
	return nil
}

// Read returns name[idx] when the cell is full; when it is not, w waits
// on the cell for the write.
func (u *IStructs[W]) Read(name string, idx int64, w W) (v int64, full bool, err error) {
	if err := u.checkIndex(name, idx); err != nil {
		return 0, false, err
	}
	if !u.full[name][idx] {
		u.deferred[name][idx] = append(u.deferred[name][idx], w)
		return 0, false, nil
	}
	v, err = u.store.GetIdx(name, idx)
	return v, true, machcheck.Wrap(u.engine, err)
}

// Write fills name[idx] with v and returns the readers it releases, in
// arrival order, each due v; a second write to the cell is a write-once
// violation.
func (u *IStructs[W]) Write(name string, idx, v int64) ([]W, error) {
	if err := u.checkIndex(name, idx); err != nil {
		return nil, err
	}
	if u.full[name][idx] {
		return nil, machcheck.Newf(machcheck.OperatorFault, u.engine,
			"I-structure write-once violation: %s[%d] written twice", name, idx)
	}
	u.full[name][idx] = true
	ws := u.deferred[name][idx]
	delete(u.deferred[name], idx)
	return ws, machcheck.Wrap(u.engine, u.store.SetIdx(name, idx, v))
}

// Pending reports the deferred reads no write has satisfied: at
// quiescence, the deadlock of a never-written cell.
func (u *IStructs[W]) Pending() error {
	var stuck []string
	for name, cells := range u.deferred {
		for idx, ws := range cells {
			if len(ws) > 0 {
				stuck = append(stuck, fmt.Sprintf("%s[%d] (%d readers)", name, idx, len(ws)))
			}
		}
	}
	if len(stuck) == 0 {
		return nil
	}
	sort.Strings(stuck)
	return machcheck.Newf(machcheck.Deadlock, u.engine,
		"I-structure reads of never-written cells: %v", stuck)
}

// Save returns a copy of the presence bits and visits the deferred
// readers by array name, cell index, then arrival: a checkpoint's order.
func (u *IStructs[W]) Save(visit func(name string, idx int64, w W)) map[string][]bool {
	full := make(map[string][]bool, len(u.full))
	for _, name := range sortedKeys(u.full) {
		full[name] = append([]bool(nil), u.full[name]...)
		for _, idx := range sortedKeys(u.deferred[name]) {
			for _, w := range u.deferred[name][idx] {
				visit(name, idx, w)
			}
		}
	}
	return full
}

// SetFull restores name's presence bits, reporting false when name is not
// an I-structure of the graph with that many cells.
func (u *IStructs[W]) SetFull(name string, bits []bool) bool {
	have, ok := u.full[name]
	if ok = ok && len(bits) == len(have); ok {
		copy(have, bits)
	}
	return ok
}

// Defer restores a deferred reader of name[idx] behind those already
// waiting, reporting false when name is not an I-structure of the graph.
func (u *IStructs[W]) Defer(name string, idx int64, w W) bool {
	cells, ok := u.deferred[name]
	if ok {
		cells[idx] = append(cells[idx], w)
	}
	return ok
}

// sortedKeys returns m's keys in ascending order.
func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
