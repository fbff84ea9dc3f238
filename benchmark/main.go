// Command benchmark is the repository's ruler: it takes generated
// programs from source text to a checked final store and reports how long
// every step took, end to end through the public ctdf API (untraced) and
// layer by layer through each internal package's exported functions
// (traced). BENCHMARK.json at the repository root fixes the names it
// prints; README.md in this directory explains them.
//
//	go run ./benchmark -seed 1                          # all workloads, both phases
//	go run ./benchmark -workload run-sharded -trace 1   # one workload, one phase
//	go run ./benchmark -compare a.json b.json           # hold b against a
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// metric is one named row of a workload's results. Value is the gated
// statistic — the lower quartile over passes, except where noted — and
// the embedded summary carries the rest of the distribution.
type metric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	// Raw is Value before host scaling (see host.go); 0 for a row that is
	// not time-based.
	Raw float64 `json:"raw,omitempty"`
	summary
}

func sampled(name, unit string, samples []float64) metric {
	s := summarize(samples)
	return metric{Name: name, Unit: unit, Value: s.P25, summary: s}
}

// workloadResult is one workload's part of the results file.
type workloadResult struct {
	Name         string   `json:"name"`
	Why          string   `json:"why"`
	Programs     []string `json:"programs"`
	Passes       int      `json:"passes"`
	TracedPasses int      `json:"traced_passes"`
	Attempted    int      `json:"ops_attempted"`
	Failed       int      `json:"ops_failed"`
	FailedShare  float64  `json:"failed_share"`
	EndToEnd     []metric `json:"end_to_end,omitempty"`
	PerLayer     []metric `json:"per_layer,omitempty"`
}

// results is the results file.
type results struct {
	// Claim is null: this benchmark measures, later changes claim.
	Claim      *string `json:"claim"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds_per_workload_and_phase"`
	Smoke      bool    `json:"smoke,omitempty"`
	NProc      int     `json:"nproc"`
	GoMaxProcs int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	// The calibration kernel (host.go) is timed before every pass; a high
	// jitter ratio (p90/p25) means the host, not the code, moved during the
	// run. The host factors are what the time-based rows of each phase were
	// scaled by.
	CalibP25S          float64          `json:"calib_p25_s"`
	CalibP90S          float64          `json:"calib_p90_s"`
	HostJitterRatio    float64          `json:"host_jitter_ratio"`
	HostFactorUntraced float64          `json:"host_factor_untraced,omitempty"`
	HostFactorTraced   float64          `json:"host_factor_traced,omitempty"`
	WallS              float64          `json:"wall_s"`
	Workloads          []workloadResult `json:"workloads"`
}

// bench is one invocation's state.
type bench struct {
	ws      []*workload
	budget  time.Duration // measuring time per workload and phase
	atLeast int           // rounds per phase, however short the budget
	host    *host
	rec     *recorder
}

// rounds interleaves passes round-robin — pass 1 of every workload, pass
// 2 of every workload, … — until the budget is spent, so each workload
// samples the whole run's host conditions instead of its own window. The
// garbage of one pass is collected before the next one's clock starts.
func (b *bench) rounds(budget time.Duration, pass func(i int, w *workload)) {
	start := time.Now()
	for n := 0; n < b.atLeast || time.Since(start) < budget; n++ {
		for i, w := range b.ws {
			runtime.GC()
			b.host.calibrate()
			pass(i, w)
		}
	}
}

// untraced measures the end-to-end metrics: set-up a few times over, then
// a closed loop of passes with one client and nothing attached.
func (b *bench) untraced(out []workloadResult) (hostFactor float64, err error) {
	from := len(b.host.samples)
	setUps := make([][]time.Duration, len(b.ws))
	for i, w := range b.ws {
		for rep := 0; rep < 3; rep++ {
			b.host.calibrate()
			d, err := w.setUp()
			if err != nil {
				return 0, err
			}
			setUps[i] = append(setUps[i], d)
		}
	}
	passes := make([][]passSample, len(b.ws))
	b.rounds(b.budget*time.Duration(len(b.ws)), func(i int, w *workload) {
		passes[i] = append(passes[i], w.pass())
	})
	for i, w := range b.ws {
		out[i].Passes = len(passes[i])
		for _, s := range passes[i] {
			out[i].Attempted += len(w.programs)
			out[i].Failed += s.failed
		}
	}
	hostFactor = b.host.factor(from)
	for i, w := range b.ws {
		out[i].EndToEnd = endToEnd(w, setUps[i], passes[i], hostFactor)
	}
	return hostFactor, nil
}

// traced measures the per-layer metrics: the one-shot sections first,
// then rounds of one traced pass and one untraced pass per workload, the
// second being the base of trace_overhead_ratio.
func (b *bench) traced(out []workloadResult) (hostFactor float64, err error) {
	start, from := time.Now(), len(b.host.samples)
	samples := make([]map[string][]float64, len(b.ws))
	for i, w := range b.ws {
		samples[i] = map[string][]float64{}
		if _, err := w.setUp(); err != nil {
			return 0, err
		}
		for _, section := range []func(*workload) (map[string]float64, error){sweepExponents, observerCosts, channelEngine} {
			once, err := section(w)
			if err != nil {
				return 0, fmt.Errorf("%s: %w", w.name, err)
			}
			for name, v := range once {
				samples[i][name] = []float64{v}
			}
		}
	}
	b.rec = newRecorder()
	b.rounds(b.budget*time.Duration(len(b.ws))-time.Since(start), func(i int, w *workload) {
		c, failed := b.rec.tracedPass(w)
		for name, v := range c {
			samples[i][name] = append(samples[i][name], v)
		}
		runtime.GC()
		s := w.pass()
		samples[i]["untraced_core_s"] = append(samples[i]["untraced_core_s"], (s.compile + s.vet + s.run).Seconds())
		out[i].TracedPasses++
		out[i].Attempted += 2 * len(w.programs)
		out[i].Failed += failed + s.failed
	})
	hostFactor = b.host.factor(from)
	for i := range b.ws {
		s := samples[i]
		s["trace_overhead_ratio"] = []float64{ratio(summarize(s["traced_core_s"]).P25, summarize(s["untraced_core_s"]).P25)}
		out[i].Failed += int(s["chanexec.failed"][0])
		for _, m := range perLayer {
			out[i].PerLayer = append(out[i].PerLayer, scaled(m.name, m.unit, s[m.name], hostFactor))
		}
	}
	return hostFactor, nil
}

// measure builds the workloads from seed and runs the phases asked for:
// both for all workloads, or the one that trace selects for a single one.
func measure(seed int64, seconds float64, only string, trace int, smoke bool) (*results, []span, error) {
	start := time.Now()
	h, err := newHost()
	if err != nil {
		return nil, nil, err
	}
	b := &bench{budget: time.Duration(seconds * float64(time.Second)), atLeast: 3, host: h}
	sz := fullSizes
	if smoke {
		sz, b.budget, b.atLeast = smokeSizes, 0, 2
	}
	for _, w := range buildWorkloads(seed, sz) {
		if only == "all" || w.name == only {
			b.ws = append(b.ws, w)
		}
	}
	if len(b.ws) == 0 {
		return nil, nil, fmt.Errorf("unknown workload %q", only)
	}
	res := &results{
		Seed: seed, Seconds: seconds, Smoke: smoke,
		NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Workloads: make([]workloadResult, len(b.ws)),
	}
	for i, w := range b.ws {
		res.Workloads[i].Name, res.Workloads[i].Why = w.name, w.why
		for _, p := range w.programs {
			res.Workloads[i].Programs = append(res.Workloads[i].Programs, p.name)
		}
	}
	if only == "all" || trace == 0 {
		if res.HostFactorUntraced, err = b.untraced(res.Workloads); err != nil {
			return nil, nil, err
		}
	}
	var spans []span
	if only == "all" || trace == 1 {
		if res.HostFactorTraced, err = b.traced(res.Workloads); err != nil {
			return nil, nil, err
		}
		spans = b.rec.spans
	}
	for i := range res.Workloads {
		w := &res.Workloads[i]
		w.FailedShare = ratio(float64(w.Failed), float64(w.Attempted))
	}
	res.CalibP25S, res.CalibP90S = summarize(b.host.samples).P25, quantile(sorted(b.host.samples), 0.9)
	res.HostJitterRatio = ratio(res.CalibP90S, res.CalibP25S)
	res.WallS = time.Since(start).Seconds()
	return res, spans, nil
}

func main() {
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Float64("seconds", 20, "measuring time per workload and phase")
	only := flag.String("workload", "all", "workload to run; a single one also prints the driver's result line")
	trace := flag.Int("trace", 0, "with a single workload: 0 measures end to end, 1 layer by layer")
	prefix := flag.String("out", "", "path prefix of the results and span files")
	smoke := flag.Bool("smoke", false, "two rounds of tiny programs: checks the plumbing, measures nothing")
	compare := flag.Bool("compare", false, "hold the second results file against the first under BENCHMARK.json's bounds")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two results files"))
		}
		os.Exit(compareFiles(os.Stdout, "BENCHMARK.json", flag.Arg(0), flag.Arg(1)))
	}

	res, spans, err := measure(*seed, *seconds, *only, *trace, *smoke)
	if err != nil {
		fatal(err)
	}
	for _, w := range res.Workloads {
		for _, m := range append(append([]metric(nil), w.EndToEnd...), w.PerLayer...) {
			fmt.Printf("%s %s %.6g %s\n", w.Name, m.Name, m.Value, m.Unit)
		}
		fmt.Printf("%s failed_share %.6g ratio\n", w.Name, w.FailedShare)
	}
	fmt.Printf("# nproc=%d gomaxprocs=%d %s seed=%d host_jitter_ratio=%.3f wall=%.1fs\n",
		res.NProc, res.GoMaxProcs, res.GoVersion, res.Seed, res.HostJitterRatio, res.WallS)

	single := *only != "all"
	if *prefix == "" {
		*prefix = "benchmark/results/latest"
		if single {
			*prefix = fmt.Sprintf(".bench_build/results/%s-seed%d-trace%d", *only, *seed, *trace)
		}
	}
	if err := writeJSON(*prefix+".json", res); err != nil {
		fatal(err)
	}
	if spans != nil {
		if err := writeJSON(*prefix+".spans.json", spans); err != nil {
			fatal(err)
		}
	}
	if single {
		printDriverLine(res.Workloads[0], *trace)
	}
}

// printDriverLine prints the one-line JSON object the benchmark driver
// reads: the end-to-end metrics of an untraced run or the per-layer
// metrics of a traced one.
func printDriverLine(w workloadResult, trace int) {
	rows := w.EndToEnd
	if trace == 1 {
		rows = w.PerLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{w.Failed == 0, w.Attempted, w.Failed, map[string]value{}}
	for _, m := range rows {
		line.Metrics[m.Name] = value{m.Value, m.Unit}
	}
	out, err := json.Marshal(line)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}
