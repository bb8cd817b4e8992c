package report

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// reportPath is the checked-in report at the repository root.
const reportPath = "../../REPORT.md"

// TestGenerateMatchesReport regenerates the full report and compares it
// byte for byte with the checked-in REPORT.md: every figure it prints is
// deterministic, so any drift is a behavior change in some experiment
// that must be reviewed and committed together with the regenerated file.
func TestGenerateMatchesReport(t *testing.T) {
	want, err := os.ReadFile(filepath.FromSlash(reportPath))
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := Generate(&got); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gotLines := strings.Split(got.String(), "\n")
	wantLines := strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("Generate differs from REPORT.md at line %d:\n got: %q\nwant: %q\n"+
				"if the change is intended, regenerate with: go run ./cmd/mltcp-figures -report REPORT.md",
				i+1, g, w)
		}
	}
}
