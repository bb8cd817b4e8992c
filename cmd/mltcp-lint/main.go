// Command mltcp-lint runs the repo's custom static-analysis suite
// (internal/lint): simdeterminism, simunits, telemetryemit,
// registryname, seedflow, hotcall, and concguard — the invariants
// behind the byte-identical-replay contract that generic linters
// cannot see. The suite is interprocedural: per-function facts
// (allocates, usesWallClock, rngSource, spawnsGoroutine) are computed
// bottom-up over the call graph and carried across package boundaries
// in memory.
//
//	go run ./cmd/mltcp-lint ./...
//	go run ./cmd/mltcp-lint -list
//
// Findings are suppressed line by line with a justified marker:
//
//	//lint:allow <analyzer> <reason...>
//
// Exit status: 0 clean, 1 driver error, 2 findings.
package main

import (
	"flag"
	"fmt"
	"os"

	"mltcp/internal/lint"
)

func main() {
	listFlag := flag.Bool("list", false, "describe the analyzers and exit")
	flag.Usage = func() {
		fmt.Fprintln(flag.CommandLine.Output(), "usage: mltcp-lint [-list] packages...")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *listFlag {
		for _, a := range lint.Analyzers() {
			fmt.Printf("%s\n\t%s\n\n", a.Name, a.Doc)
		}
		return
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		flag.Usage()
		os.Exit(1)
	}

	diags, err := lint.Run("", patterns, lint.Analyzers())
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "mltcp-lint: %d finding(s)\n", len(diags))
		os.Exit(2)
	}
}
