// Command mltcp-diff structurally compares two JSONL telemetry traces.
// Instead of a byte diff, it aligns the traces by (kind, flow, link)
// stream, pinpoints the first-divergence event with both sides' decoded
// fields and a bounded context window, and classifies what diverged
// (seed drift, schema change, timing, share allocation, ...).
//
// Exit codes:
//
//	0 — identical: manifests, events, and metrics all equal
//	1 — equivalent: identical behaviour, manifests differ only in the
//	    build revision (two builds of the same tree)
//	2 — divergent: behaviour differs; the report pinpoints where
//	3 — error: unreadable or undecodable input
//
// Examples:
//
//	mltcpsim -jobs gpt2,gpt2 -seed 1 -trace a.jsonl
//	mltcpsim -jobs gpt2,gpt2 -seed 1 -trace b.jsonl
//	mltcp-diff a.jsonl b.jsonl            # exits 0
//	mltcp-diff -context 5 -json a.jsonl c.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"mltcp/internal/diagnose"
	"mltcp/internal/telemetry"
)

var (
	contextFlag = flag.Int("context", diagnose.DefaultContext,
		"events of context shown on each side of the divergence")
	jsonFlag = flag.Bool("json", false,
		"emit the report as stable machine-readable JSON instead of text")
)

// Exit codes; see the command doc.
const (
	exitIdentical  = 0
	exitEquivalent = 1
	exitDivergent  = 2
	exitError      = 3
)

func main() {
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: mltcp-diff [flags] a.jsonl b.jsonl")
		flag.PrintDefaults()
		os.Exit(exitError)
	}
	code, err := run(os.Stdout, flag.Arg(0), flag.Arg(1), *contextFlag, *jsonFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(exitError)
	}
	os.Exit(code)
}

// run compares the two trace files and writes the report, returning the
// process exit code.
func run(w io.Writer, pathA, pathB string, contextN int, asJSON bool) (int, error) {
	a, err := telemetry.ReadTrace(pathA)
	if err != nil {
		return exitError, err
	}
	b, err := telemetry.ReadTrace(pathB)
	if err != nil {
		return exitError, err
	}
	d := diagnose.Compare(a, b, diagnose.Options{Context: contextN})
	if asJSON {
		b, err := json.Marshal(d)
		if err != nil {
			return exitError, err
		}
		if _, err := w.Write(append(b, '\n')); err != nil {
			return exitError, err
		}
	} else if err := d.WriteText(w, pathA, pathB); err != nil {
		return exitError, err
	}
	switch {
	case d.Identical():
		return exitIdentical, nil
	case d.Equivalent():
		return exitEquivalent, nil
	}
	return exitDivergent, nil
}
