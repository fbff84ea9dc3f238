package machine

import (
	"fmt"
	"testing"

	"ctdf/internal/cfg"
	"ctdf/internal/translate"
	"ctdf/internal/workloads"
)

// BenchmarkShardedWide measures the sharded engine against the
// sequential one on the worker-scaling workload shape (see SCALING.md):
// wide independent lanes, pure firings, sustained issue width. w1 is the
// sequential engine.
func BenchmarkShardedWide(b *testing.B) {
	w := workloads.Wide(64, 60)
	g := cfg.MustBuild(w.Parse())
	res, err := translate.Translate(g, translate.Options{
		Schema: translate.Schema2Opt, EliminateMemory: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("w%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Run(res.Graph, Config{Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
