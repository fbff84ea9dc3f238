package journal

import (
	"bytes"
	"compress/gzip"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// FuzzJournalRead feeds arbitrary bytes to the journal loader, through
// the file path that sniffs gzip (obs.OpenStream). Read must return an
// error or a journal, and every reader of an accepted journal — the
// linearization check, depths, state reconstruction, causal queries and
// both exporters — must run without panicking. Replay stays out: a
// file-chosen MemLatency / MaxCycles bounds its cost, not the reader's.
// Seeds are the golden running-example journal, plain and gzipped.
func FuzzJournalRead(f *testing.F) {
	var plain, gz bytes.Buffer
	if err := goldenJournal(f).Write(&plain); err != nil {
		f.Fatal(err)
	}
	zw := gzip.NewWriter(&gz)
	zw.Write(plain.Bytes())
	if err := zw.Close(); err != nil {
		f.Fatal(err)
	}
	f.Add(plain.Bytes())
	f.Add(gz.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "run.journal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		j, err := ReadFile(path)
		if err != nil {
			return
		}
		j.CheckLinearization()
		j.Depths()
		j.NodeMaxDepths()
		j.Summary()
		for _, c := range []int{0, j.Cycles / 2, j.Cycles} {
			if st, err := j.StateAt(c); err == nil {
				st.Text(j)
			}
		}
		for _, spec := range []string{"#0", "d0", "d1@root", "end", "store"} {
			ids, err := ResolveAnchor(j, spec)
			if err != nil {
				continue
			}
			for _, query := range []func(*Journal, []int32) (*Cone, error){Explain, Impact} {
				if c, err := query(j, ids); err == nil {
					c.Text(0)
					c.Summary()
				}
			}
		}
		j.WriteChromeTrace(io.Discard)
		j.WritePprof(io.Discard)
	})
}
