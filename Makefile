# Developer entry points. Everything here is plain `go` tooling; the
# only non-standard piece is cmd/mltcp-lint, the repo's own analyzer
# suite (see docs/EXTENDING.md §7 and §12), run by `make lint` and CI.

GO ?= go

.PHONY: build test race lint loc diff bench corpus train profile clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Static analysis: the seven mltcp analyzers over the module, facts
# accumulated in memory across the dependency graph — the command CI
# runs. Exits non-zero on any unsuppressed finding.
lint:
	$(GO) run ./cmd/mltcp-lint ./...

# Go line counts over the tracked tree, the figures "net lines removed"
# is reported in: non-test code (testdata/ excluded), _test.go files,
# and the .go files under testdata/ (the lint analyzers' fixtures).
loc:
	@git ls-files '*.go' | awk ' \
		{ k = /(^|\/)testdata\// ? "testdata" : /_test\.go$$/ ? "test" : "non-test"; \
		  while ((getline line < $$0) > 0) n[k]++; close($$0) } \
		END { printf "non-test %d\ntest %d\ntestdata %d\n", n["non-test"], n["test"], n["testdata"] }'

# Structurally diff two JSONL traces (docs/EXTENDING.md §13): exits 0
# when byte-identical, 1 when only metadata (revision) differs, 2 on
# divergence — with the first divergent event decoded and contextualized.
#   make diff A=before.jsonl B=after.jsonl
diff:
	$(GO) run ./cmd/mltcp-diff $(A) $(B)

# Paired performance gate against a base revision (default: the parent
# commit): builds perfbench at BASE and at the working tree, runs 5
# alternating pairs per workload, and fails past any BENCHMARK.json
# bound. Raw result lines land in .perfgate/.
#   make bench BASE=origin/main
BASE ?= HEAD~1
bench:
	bash .github/scripts/perfgate.sh $(BASE)

# Learned-backend pipeline (docs/EXTENDING.md §11). `make corpus` fans
# the training grid over the harness; GRID=quick generates the CI-sized
# corpus in seconds, GRID=full the production corpus in minutes. `make
# train` refits the checked-in default model from that corpus and fails
# if the tracked prediction error exceeds the 10% acceptance gate.
GRID ?= full
corpus:
	$(GO) run ./cmd/mltcp-corpus -grid $(GRID) -seed 1 -out corpus-$(GRID).jsonl

train:
	$(GO) run ./cmd/mltcp-train -corpus corpus-$(GRID).jsonl -seed 1 \
		-out internal/learn/models/default.json -maxerr 0.10

# CPU + heap profiles of TestExactFigures (every golden scenario at every
# tier) under profiles/, ready for `go tool pprof profiles/cpu.pprof`.
# See docs/EXTENDING.md §10.
profile:
	mkdir -p profiles
	$(GO) test -run '^TestExactFigures$$' -count=1 -o profiles/backend.test \
		-cpuprofile profiles/cpu.pprof -memprofile profiles/heap.pprof ./internal/backend
	@echo "profiles written: go tool pprof profiles/cpu.pprof"

clean:
	rm -rf profiles .perfgate
