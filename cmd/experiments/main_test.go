package main

import (
	"bytes"
	"os"
	"regexp"
	"strings"
	"testing"
)

// goldenSections are the sections of "-exp all -scale small" that hold
// no timing: result sets, dataset characteristics, query and refinement
// counts, the workflow's reach and the query texts. They depend only on
// the generated data and on what synthesis and refinement decide, so any
// change to either shows up here byte for byte.
var goldenSections = regexp.MustCompile(`^== (Table 2|Table 3|Figure 7b|Figure 8b|Figure 8c|Figure 9b|Figure 10):`)

// deterministic keeps the golden sections of an experiments run, each
// from its header line to the next section's.
func deterministic(out string) string {
	var b strings.Builder
	keep := false
	for _, line := range strings.SplitAfter(out, "\n") {
		if strings.HasPrefix(line, "== ") {
			keep = goldenSections.MatchString(line)
		}
		if keep {
			b.WriteString(line)
		}
	}
	return b.String()
}

// TestSmallScaleGolden reproduces the paper's deterministic figures at
// small scale and compares them with testdata/small.golden, so a change
// to synthesis, refinement or the executor that alters what they decide
// cannot pass unnoticed. Timing sections (Figures 6, 7a, 8a, 9a and the
// per-step table) are left out.
func TestSmallScaleGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("builds three datasets")
	}
	var out bytes.Buffer
	if err := run(&out, "all", "small", 7, 3, "", nil, 0); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/small.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := deterministic(out.String()); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("golden line %d:\n got %q\nwant %q", i+1, g, w)
			}
		}
	}
}
