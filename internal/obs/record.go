package obs

// Record is the one record of an observed machine run: the firing DAG,
// every firing with all of its operands' producer firings, plus the
// matching-store parks, the injected faults and the abort. The critical
// path (Report), the causal journal (internal/obs/journal), the NDJSON
// event stream (WriteEvents) and the execution trace (WriteTrace) are its
// readers. Rows are pointer-free and fixed width, producer ids live
// in one CSR arena, and tags are interned ids into Tags, each rendered
// once.
type Record struct {
	// Fires lists the firings in engine issue order; a firing's id is its
	// index.
	Fires  []Firing
	Parks  []Park
	Faults []Fault
	// AbortCheck/AbortCycle record the machine check that ended the run
	// ("" for clean completion).
	AbortCheck string
	AbortCycle int
	// Tags renders the rows' interned tag ids: Tags[id] is the canonical
	// tag key ("" for the root tag).
	Tags []string
	// deps is the producer arena: firing i's producers are
	// deps[Fires[i].deps:Fires[i+1].deps], in operand arrival order.
	deps []int32
}

// Firing is one firing, a node of the firing DAG (32 bytes).
type Firing struct {
	Node, Cycle, Cost, Port, Tag int32
	deps                         int32
	// Finish is the length in cycles of the longest dependence chain
	// ending with this firing's completion: Cost plus the largest Finish
	// among its producers.
	Finish int64
}

// Park is one matching-store park: a token that had to wait for its
// partner operands (§2.2 frame-memory pressure). Dep is the parked
// token's producer firing (-1 for initial tokens).
type Park struct {
	Node, Cycle, Port, Tag, Dep int32
}

// Fault is one injected fault observed during the run. fires and parks
// count the rows recorded before it, its place in the event stream.
type Fault struct {
	Node         int    `json:"node"`
	Cycle        int    `json:"cycle"`
	Class        string `json:"class"`
	fires, parks int
}

// AddFire appends a firing and returns its id. deps holds the producer
// firings of every operand the firing consumed, in arrival order; each
// must be an earlier firing. The record copies them.
func (r *Record) AddFire(node, cycle, cost, port, tag int32, deps []int32) int32 {
	var longest int64
	for _, d := range deps {
		if f := r.Fires[d].Finish; f > longest {
			longest = f
		}
	}
	r.Fires = append(r.Fires, Firing{Node: node, Cycle: cycle, Cost: cost, Port: port, Tag: tag,
		deps: int32(len(r.deps)), Finish: longest + int64(cost)})
	r.deps = append(r.deps, deps...)
	return int32(len(r.Fires) - 1)
}

// Deps returns firing id's producer firings in arrival order. The slice
// aliases the record and must not be modified.
func (r *Record) Deps(id int32) []int32 {
	end := int32(len(r.deps))
	if int(id)+1 < len(r.Fires) {
		end = r.Fires[id+1].deps
	}
	return r.deps[r.Fires[id].deps:end:end]
}

// pred returns the producer the critical path follows back from firing
// id: its first producer of maximal Finish, or noDep when it has none.
func (r *Record) pred(id int32) int32 {
	best := noDep
	for _, d := range r.Deps(id) {
		if best < 0 || r.Fires[d].Finish > r.Fires[best].Finish {
			best = d
		}
	}
	return best
}
