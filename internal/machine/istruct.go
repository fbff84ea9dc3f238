package machine

import (
	"fmt"
	"sort"

	"ctdf/internal/dfg"
	"ctdf/internal/machcheck"
)

// istructUnit implements I-structure memory (§6.3): each cell is written
// at most once; a read of an empty cell is deferred inside the memory and
// satisfied the moment the write arrives. Cell contents live in the
// ordinary store (so final-state snapshots see them); the unit tracks
// presence bits and deferred readers.
type istructUnit struct {
	full     map[string][]bool
	deferred map[string]map[int64][]istructWaiter
}

type istructWaiter struct {
	node int
	// tgID is the deferred read's interned tag id, carried so the
	// satisfying write can emit the result in the reader's context.
	tgID int32
	// dep is the deferred read's own firing id in the collector's record
	// (-1 when the record is not kept).
	dep int32
}

// newIStructUnit prepares presence bits for every array read or written
// through I-structure operators in g.
func newIStructUnit(g *dfg.Graph) *istructUnit {
	u := &istructUnit{full: map[string][]bool{}, deferred: map[string]map[int64][]istructWaiter{}}
	for _, n := range g.Nodes {
		if n.Kind == dfg.ILoad || n.Kind == dfg.IStore {
			if _, ok := u.full[n.Var]; !ok {
				u.full[n.Var] = make([]bool, g.Prog.ArraySize(n.Var))
				u.deferred[n.Var] = map[int64][]istructWaiter{}
			}
		}
	}
	return u
}

func (u *istructUnit) checkIndex(name string, idx int64) error {
	if idx < 0 || idx >= int64(len(u.full[name])) {
		return machcheck.Newf(machcheck.OperatorFault, "machine",
			"I-structure index %d out of range for %s[%d]", idx, name, len(u.full[name]))
	}
	return nil
}

// write fills a cell, returning the deferred readers to satisfy; a second
// write to the same cell is a write-once violation.
func (u *istructUnit) write(name string, idx int64) ([]istructWaiter, error) {
	if err := u.checkIndex(name, idx); err != nil {
		return nil, err
	}
	if u.full[name][idx] {
		return nil, machcheck.Newf(machcheck.OperatorFault, "machine",
			"I-structure write-once violation: %s[%d] written twice", name, idx)
	}
	u.full[name][idx] = true
	ws := u.deferred[name][idx]
	delete(u.deferred[name], idx)
	return ws, nil
}

// read reports whether the cell is full; if not, the reader is deferred.
func (u *istructUnit) read(name string, idx int64, w istructWaiter) (bool, error) {
	if err := u.checkIndex(name, idx); err != nil {
		return false, err
	}
	if u.full[name][idx] {
		return true, nil
	}
	u.deferred[name][idx] = append(u.deferred[name][idx], w)
	return false, nil
}

// pendingError describes deferred reads that were never satisfied.
func (u *istructUnit) pendingError() error {
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
	return machcheck.Newf(machcheck.Deadlock, "machine",
		"I-structure reads of never-written cells: %v", stuck)
}
