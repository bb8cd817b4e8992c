package obs

import (
	"strings"
	"testing"
)

// validatePromText fails the test on the first exposition syntax error.
func validatePromText(t *testing.T, text string) {
	t.Helper()
	if err := ValidatePromText(text); err != nil {
		t.Errorf("%v in:\n%s", err, text)
	}
}

// TestValidatePromTextRejects pins that the checker the exposition tests
// rely on catches each class of malformed output.
func TestValidatePromTextRejects(t *testing.T) {
	for _, text := range []string{
		"# TYPE x gauge\nx 1",                        // no trailing newline
		"# TYPE x gauge\nx 1\n# TYPE x gauge\nx 2\n", // family opened twice
		"# TYPE x gauge\ny 1\n",                      // sample outside its family
		"# TYPE x gauge\nx one\n",                    // bad value
		"# TYPE x gauge\nx{l=unquoted} 1\n",          // bad label
		"# TYPE x meter\nx 1\n",                      // unknown type
	} {
		if ValidatePromText(text) == nil {
			t.Errorf("accepted %q", text)
		}
	}
	if err := ValidatePromText(""); err != nil {
		t.Errorf("empty exposition rejected: %v", err)
	}
}

func TestPromWriterHistogram(t *testing.T) {
	p := &PromWriter{}
	p.Family("x_hist", "histogram", "test histogram")
	p.Histogram("x_hist", []Label{{"flow", "1"}}, []float64{0.1, 1}, []int64{3, 4}, 9, 12.5)
	text := p.String()
	validatePromText(t, text)
	for _, want := range []string{
		`x_hist_bucket{flow="1",le="0.1"} 3`,
		`x_hist_bucket{flow="1",le="1"} 7`, // cumulative
		`x_hist_bucket{flow="1",le="+Inf"} 9`,
		`x_hist_sum{flow="1"} 12.5`,
		`x_hist_count{flow="1"} 9`,
	} {
		if !strings.Contains(text, want+"\n") {
			t.Errorf("histogram missing %q in:\n%s", want, text)
		}
	}
}

func TestEscapeLabel(t *testing.T) {
	p := &PromWriter{}
	p.Family("x", "gauge", "a\nmultiline\\help")
	p.Value("x", []Label{{"l", "quo\"te\\back\nnl"}}, 1)
	text := p.String()
	validatePromText(t, text)
	if !strings.Contains(text, `x{l="quo\"te\\back\nnl"} 1`) {
		t.Errorf("label not escaped: %s", text)
	}
}

func TestSanitizePromName(t *testing.T) {
	cases := map[string]string{
		"telemetry.limiter_drops": "telemetry_limiter_drops",
		"9lives":                  "_lives",
		"ok_name:x9":              "ok_name:x9",
		"":                        "_",
		"a-b c":                   "a_b_c",
	}
	for in, want := range cases {
		if got := SanitizePromName(in); got != want {
			t.Errorf("SanitizePromName(%q) = %q, want %q", in, got, want)
		}
	}
}
