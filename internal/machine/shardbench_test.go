package machine

import (
	"fmt"
	"math"
	"testing"

	"ctdf/internal/translate"
	"ctdf/internal/workloads"
)

// BenchmarkShardedWide is the sweep poolGrain is read from, and the only
// profiling harness of the pooled body: wide independent lanes of pure
// firings with memory eliminated (see SCALING.md), about 200,000 loop
// iterations whatever the width, at one worker, at two workers with every
// cycle on the sequential body, and at two workers with every cycle on
// the pooled one. poolGrain is the smallest firings/cycle at which the
// pooled cell beats the sequential-body cell, or above the sweep when
// none does.
func BenchmarkShardedWide(b *testing.B) {
	cells := []struct {
		name    string
		workers int
		grain   int
	}{
		{"w1", 1, math.MaxInt},
		{"w2-seq", 2, math.MaxInt},
		{"w2-pooled", 2, 1},
	}
	for _, lanes := range []int{64, 256, 1024, 4096} {
		// One group per width, so that a -bench filter on it skips the
		// other widths' graphs: translating the 4,096-lane program takes
		// seconds and gigabytes.
		b.Run(fmt.Sprintf("lanes=%d", lanes), func(b *testing.B) {
			g := benchGraph(b, workloads.Wide(lanes, 200_000/lanes),
				translate.Options{Schema: translate.Schema2Opt, EliminateMemory: true}, false)
			for _, c := range cells {
				b.Run(c.name, func(b *testing.B) {
					setPoolGrain(b, c.grain)
					b.ReportAllocs()
					var stats Stats
					for i := 0; i < b.N; i++ {
						out, err := Run(g, Config{Workers: c.workers})
						if err != nil {
							b.Fatal(err)
						}
						stats = out.Stats
					}
					b.ReportMetric(float64(stats.Ops)*float64(b.N)/b.Elapsed().Seconds(), "fires/s")
					b.ReportMetric(float64(stats.Ops)/float64(stats.Cycles), "firings/cycle")
				})
			}
		})
	}
}
