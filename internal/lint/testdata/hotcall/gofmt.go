package fixture

import "mltcp/internal/lint/helper"

// hotGofmtForm carries the marker as gofmt writes it: gofmt rewrites a
// bare //hot doc line to "// hot", and the analyzer must still see it.
//
// hot
func hotGofmtForm(v int) {
	helper.Boxy(v) // want "//hot function hotGofmtForm calls helper.Boxy, which allocates per call"
	localSink(v)   // want "value of type int passed to interface parameter in //hot function hotGofmtForm"
}

// notHotProse mentions hot paths in its doc, but no line is the bare
// marker, so it stays unmarked:
// hot paths are marked by a line of their own.
func notHotProse(v int) {
	helper.Boxy(v)
}
