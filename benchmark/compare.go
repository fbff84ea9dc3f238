package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// manifest is the part of BENCHMARK.json the comparison needs: each
// end-to-end metric's regression bound, a share of the parent's value.
type manifest struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// compareFiles holds every end-to-end metric of every workload row of
// results file b against file a under the manifest's bounds, prints one
// verdict per row, and returns the exit code: 1 when any row regressed or
// any op failed in either file, 2 when the files cannot be compared.
func compareFiles(out io.Writer, manifestPath, aPath, bPath string) int {
	var man manifest
	var a, b results
	for _, f := range []struct {
		path string
		into any
	}{{manifestPath, &man}, {aPath, &a}, {bPath, &b}} {
		if err := readJSON(f.path, f.into); err != nil {
			fmt.Fprintln(out, "benchmark:", err)
			return 2
		}
	}
	code := 0
	for _, wa := range a.Workloads {
		wb, ok := findWorkload(b, wa.Name)
		if !ok {
			fmt.Fprintf(out, "benchmark: %s has no workload %s\n", bPath, wa.Name)
			return 2
		}
		for _, w := range []workloadResult{wa, wb} {
			if w.FailedShare > 0 {
				fmt.Fprintf(out, "%-20s %-16s %d of %d ops failed\n", w.Name, "failed_share", w.Failed, w.Attempted)
				code = 1
			}
		}
		for _, m := range man.EndToEnd {
			ma, okA := findMetric(wa.EndToEnd, m.Name)
			mb, okB := findMetric(wb.EndToEnd, m.Name)
			if !okA || !okB {
				fmt.Fprintf(out, "benchmark: workload %s lacks metric %s\n", wa.Name, m.Name)
				return 2
			}
			v := judge(ma, mb, m.Bound)
			if v == verdictRegressed {
				code = 1
			}
			fmt.Fprintf(out, "%-20s %-16s %12.6g -> %12.6g %-5s %+7.2f%% (bound %g%%) %s\n",
				wa.Name, m.Name, ma.Value, mb.Value, ma.Unit, 100*ratio(mb.Value-ma.Value, ma.Value), 100*m.Bound, v)
		}
	}
	return code
}

func findWorkload(r results, name string) (workloadResult, bool) {
	for _, w := range r.Workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadResult{}, false
}

func findMetric(rows []metric, name string) (metric, bool) {
	for _, m := range rows {
		if m.Name == name {
			return m, true
		}
	}
	return metric{}, false
}
