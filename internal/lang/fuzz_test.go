package lang

import (
	"fmt"
	"reflect"
	"testing"
)

// parseSeeds seed FuzzParse and the differential front-end test.
var parseSeeds = []string{
	"var x, y\nl: y := x + 1\nx := x + 1\nif x < 5 then goto l else goto end\n",
	"var a\narray b[4]\nalias a ~ a\n",
	"proc f(x) { x := 1 }\n",
	"var a\nwhile a < 3 { a := a + 1 }\n",
	"var a\nif a { } else { }\n",
	"x :=",
	"goto goto goto",
	"var\n",
	"array a[999999999999999999999]\n",
	"var x\nx := ((((((1))))))\n",
	"var x\nx := 1 / 0 % -0\n",
	"if 1 then goto end else goto end\n",
	"\x00\x01\x02",
	"var π\n",
}

// diffParse parses src with Parse and with the reference front end
// (refParse) and describes how the results differ: "" when both give the
// same program, positions included, or the same error string.
func diffParse(src string) string {
	got, gotErr := Parse(src)
	want, wantErr := refParse(src)
	switch {
	case gotErr != nil || wantErr != nil:
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			return fmt.Sprintf("error %v, reference error %v", gotErr, wantErr)
		}
	case !reflect.DeepEqual(got, want):
		return fmt.Sprintf("program differs from the reference, positions included:\n%s\nreference:\n%s", got.Format(), want.Format())
	}
	return ""
}

// FuzzParse checks the front end never panics, that it agrees with the
// reference front end, and that anything it accepts survives a
// Format→Parse round trip.
func FuzzParse(f *testing.F) {
	for _, s := range parseSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if d := diffParse(src); d != "" {
			t.Fatalf("%q: %s", src, d)
		}
		p, err := Parse(src)
		if err != nil {
			return
		}
		formatted := p.Format()
		p2, err := Parse(formatted)
		if err != nil {
			t.Fatalf("accepted program does not reparse after Format: %v\noriginal: %q\nformatted: %q", err, src, formatted)
		}
		if p2.Format() != formatted {
			t.Fatalf("Format not a fixed point for %q", src)
		}
	})
}
