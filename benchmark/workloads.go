package main

import (
	"fmt"
	"math/rand"
	"regexp"
	"runtime"
	"strconv"
	"time"

	"ctdf"
	"ctdf/internal/workloads"
)

// corpus is the base of the generator seeds that fix every program's
// control structure. The benchmark's -seed does not pick the structure:
// compile and vet cost vary two- to threefold between random programs of
// one nominal size, so a seed-drawn structure would bury a 10% regression
// under the draw. The seed instead varies what leaves the work unchanged —
// which scalar plays which role, the constants the lanes fold, and the
// order of the programs in a pass — so every seed measures the same work
// on different text with a different final store.
const corpus = 1990

// program is one op's input and what set-up learned about it.
type program struct {
	name string
	src  string
	opt  ctdf.Options
	run  ctdf.RunConfig

	oracle string // final store according to Program.Interpret
	ref    counts // exact counts of the sequential machine, fixed at set-up
	// tokensMoved is machine.tokens_moved on the first traced pass, which
	// every later one must repeat.
	tokensMoved int64
}

// counts are the quantities that must repeat exactly on every pass, and
// between the sequential and the sharded machine.
type counts struct {
	dfgNodes, cycles, firings int
}

// workload is a named set of programs; a pass runs each of them once.
type workload struct {
	name, why string
	programs  []*program
	// sweep is the workload's generator at three sizes, for the traced
	// run's *_scaling_exp metrics.
	sweep []*program
}

var (
	scalarRE = regexp.MustCompile(`\bv\d+\b`)
	laneRE   = regexp.MustCompile(`\* 3 \+ (i\d+) \+ 1`)
)

// permuteScalars renames the generators' v0…vk among themselves. The
// result is the same program up to isomorphism, so its graph size and its
// simulated cycles and firings do not depend on the permutation.
func permuteScalars(src string, r *rand.Rand) string {
	k := 0
	for _, m := range scalarRE.FindAllString(src, -1) {
		if i, _ := strconv.Atoi(m[1:]); i >= k {
			k = i + 1
		}
	}
	perm := r.Perm(k)
	return scalarRE.ReplaceAllStringFunc(src, func(m string) string {
		i, _ := strconv.Atoi(m[1:])
		return fmt.Sprintf("v%d", perm[i])
	})
}

// varyLanes redraws the multiplier and the addend each lane of
// workloads.Wide folds with; the loop structure, and so the firing and
// cycle counts, stay as they are.
func varyLanes(src string, r *rand.Rand) string {
	return laneRE.ReplaceAllStringFunc(src, func(m string) string {
		lane := laneRE.FindStringSubmatch(m)[1]
		return fmt.Sprintf("* %d + %s + %d", 2+r.Intn(8), lane, 1+r.Intn(9))
	})
}

// sizes holds every program size the workloads use, so that -smoke can
// swap in sizes that run in milliseconds without touching their shape.
type sizes struct {
	structured     []int // statements per workloads.Random program
	depth          int
	unstructured   int // patterns per workloads.RandomUnstructured program
	aliased        int // statements per workloads.RandomAliased program
	wideIters      int
	narrowIters    int
	sweepRandom    [3]int
	sweepUnstruct  [3]int
	sweepWideLanes [3]int
}

var (
	fullSizes = sizes{
		structured: []int{40, 56}, depth: 3, unstructured: 48, aliased: 32,
		wideIters: 4000, narrowIters: 8000,
		sweepRandom: [3]int{16, 64, 128}, sweepUnstruct: [3]int{12, 48, 96}, sweepWideLanes: [3]int{16, 64, 128},
	}
	smokeSizes = sizes{
		structured: []int{5, 7}, depth: 2, unstructured: 4, aliased: 5,
		wideIters: 12, narrowIters: 12,
		sweepRandom: [3]int{2, 4, 8}, sweepUnstruct: [3]int{2, 4, 8}, sweepWideLanes: [3]int{2, 4, 8},
	}
)

// shardWorkers is the worker count of run-sharded.
func shardWorkers() int {
	if n := runtime.NumCPU(); n < 4 {
		return n
	}
	return 4
}

// buildWorkloads generates the four workloads' programs from seed.
func buildWorkloads(seed int64, sz sizes) []*workload {
	r := rand.New(rand.NewSource(seed))
	structuredOpt := ctdf.Options{Schema: ctdf.Schema2Opt, Optimize: 1}
	gotoOpt := ctdf.Options{Schema: ctdf.Schema2Opt}
	aliasOpt := ctdf.Options{Schema: ctdf.Schema3Opt, Cover: ctdf.CoverClass}

	structured := &workload{
		name: "compile-structured",
		why:  "structured programs under Schema2Opt + Optimize: front end, translation, optimizer and verifier are >95% of the pass, execution <5%",
	}
	for i, n := range sz.structured {
		w := workloads.Random(corpus+int64(i), n, sz.depth)
		structured.programs = append(structured.programs, &program{name: w.Name, src: permuteScalars(w.Source, r), opt: structuredOpt})
	}
	for _, n := range sz.sweepRandom {
		w := workloads.Random(corpus, n, sz.depth)
		structured.sweep = append(structured.sweep, &program{name: w.Name, src: w.Source, opt: structuredOpt})
	}

	irregular := &workload{
		name: "compile-irregular",
		why:  "goto programs (multi-exit loops, unstructured merges) and aliased programs under Schema3Opt covers, unoptimized: the same compile layers on other paths",
	}
	for i := int64(0); i < 2; i++ {
		u := workloads.RandomUnstructured(corpus+i, sz.unstructured)
		a := workloads.RandomAliased(corpus+i, sz.aliased, sz.depth)
		irregular.programs = append(irregular.programs,
			&program{name: u.Name, src: permuteScalars(u.Source, r), opt: gotoOpt},
			&program{name: a.Name, src: permuteScalars(a.Source, r), opt: aliasOpt})
	}
	for _, n := range sz.sweepUnstruct {
		w := workloads.RandomUnstructured(corpus, n)
		irregular.sweep = append(irregular.sweep, &program{name: w.Name, src: w.Source, opt: gotoOpt})
	}

	wideOpt := ctdf.Options{Schema: ctdf.Schema2Opt, EliminateMemory: true}
	wide := workloads.Wide(64, sz.wideIters)
	narrow := workloads.Wide(8, sz.narrowIters)
	wideSrc, narrowSrc := varyLanes(wide.Source, r), varyLanes(narrow.Source, r)
	runSet := func(workers int) (ps, sweep []*program) {
		ps = []*program{
			{name: wide.Name, src: wideSrc, opt: wideOpt, run: ctdf.RunConfig{Workers: workers}},
			{name: narrow.Name + "-lat4", src: narrowSrc, opt: gotoOpt, run: ctdf.RunConfig{MemLatency: 4, Workers: workers}},
		}
		for _, lanes := range sz.sweepWideLanes {
			w := workloads.Wide(lanes, 4)
			sweep = append(sweep, &program{name: w.Name, src: w.Source, opt: wideOpt})
		}
		return ps, sweep
	}
	sequential := &workload{
		name: "run-sequential",
		why:  "a wide pure loop nest and a narrow split-phase-memory one on the sequential machine: machine.Run is >85% of the pass, compile <10%",
	}
	sequential.programs, sequential.sweep = runSet(0)
	sharded := &workload{
		name: "run-sharded",
		why:  "the run-sequential programs on the sharded BSP machine with min(nproc,4) workers: same engine layer through shard.go",
	}
	sharded.programs, sharded.sweep = runSet(shardWorkers())

	ws := []*workload{structured, irregular, sequential, sharded}
	for _, w := range ws {
		r.Shuffle(len(w.programs), func(i, j int) { w.programs[i], w.programs[j] = w.programs[j], w.programs[i] })
	}
	return ws
}

// setUp takes each program of w to its oracle store and its reference
// counts and runs one untimed warm-up pass, and returns how long that
// took. The oracle is the sequential interpreter, never the engine under
// test; the reference counts come from the sequential machine, so the
// sharded workload is held to the sequential one's cycles and firings.
func (w *workload) setUp() (time.Duration, error) {
	start := time.Now()
	for _, p := range w.programs {
		cp, err := ctdf.Compile(p.src)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", p.name, err)
		}
		want, err := cp.Interpret(nil)
		if err != nil {
			return 0, fmt.Errorf("%s: oracle: %w", p.name, err)
		}
		p.oracle = want.Snapshot
		d, err := cp.Translate(p.opt)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", p.name, err)
		}
		seq := p.run
		seq.Workers = 0
		res, err := d.Run(seq)
		if err != nil {
			return 0, fmt.Errorf("%s: reference run: %w", p.name, err)
		}
		p.ref = counts{dfgNodes: d.Stats().Nodes, cycles: res.Cycles, firings: res.Ops}
	}
	if s := w.pass(); s.failed > 0 {
		return 0, fmt.Errorf("%s: %d of %d ops failed in the warm-up pass", w.name, s.failed, len(w.programs))
	}
	return time.Since(start), nil
}
