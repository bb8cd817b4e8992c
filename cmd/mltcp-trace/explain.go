package main

import (
	"encoding/json"
	"io"

	"mltcp/internal/diagnose"
	"mltcp/internal/telemetry"
)

// maxAttributedIters caps the per-iteration attribution table in the
// -explain text report.
const maxAttributedIters = 8

// explain renders the diagnose layer's view of the trace: the interleave
// verdict with its timeline and locked bands, followed by per-iteration
// bottleneck attribution. With asJSON, only the interleave report is
// emitted, as one JSON document.
func explain(w io.Writer, tr *telemetry.Trace, asJSON bool) error {
	rep, err := diagnose.Explain(tr)
	if err != nil {
		return err
	}
	if asJSON {
		b, err := json.Marshal(rep)
		if err != nil {
			return err
		}
		_, err = w.Write(append(b, '\n'))
		return err
	}
	if err := rep.WriteText(w, 0); err != nil {
		return err
	}
	if rep.Predicted {
		return nil
	}
	if _, err := io.WriteString(w, "\nbottleneck attribution:\n"); err != nil {
		return err
	}
	at, err := diagnose.Attribute(tr)
	if err != nil {
		return err
	}
	return at.WriteText(w, maxAttributedIters)
}
