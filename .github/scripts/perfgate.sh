#!/usr/bin/env bash
# Paired performance gate. Builds perfbench at <base-rev> (in a temporary
# git worktree) and at the working tree, then runs 5 alternating
# base/head pairs per BENCHMARK.json workload, 10 s each, with the same
# seed within a pair. Fails when any run reports failed ops or incorrect
# output, or when an end-to-end metric's head median is worse than the
# base median by more than that metric's BENCHMARK.json bound. Every raw
# result line is kept under .perfgate/ for upload. Run it from the
# module root:
#
#   bash .github/scripts/perfgate.sh origin/main
set -euo pipefail

base=${1:?usage: perfgate.sh <base-rev>}
pairs=5
seconds=10
out=.perfgate

if [[ ! -f go.mod || ! -f BENCHMARK.json ]]; then
	echo "perfgate: run from the module root" >&2
	exit 2
fi
rm -rf "$out"
mkdir -p "$out/raw"
tree=$(mktemp -d)
trap 'git worktree remove --force "$tree/base" >/dev/null 2>&1 || true; rm -rf "$tree"' EXIT

git worktree add --detach "$tree/base" "$base" >/dev/null
(cd "$tree/base" && go build -o "$tree/base.bin" ./perfbench)
go build -o "$tree/head.bin" ./perfbench
echo "perfgate: base $(git -C "$tree/base" rev-parse --short HEAD), head $(git rev-parse --short HEAD)$(git diff --quiet HEAD || echo ' + working-tree changes')"

# run <side> <workload> <seed>: one perfbench run; its last stdout line
# (the result JSON) goes to $out/<side>.jsonl tagged with workload and seed.
run() {
	local log="$out/raw/$2-$1-seed$3.txt"
	"$tree/$1.bin" --workload "$2" --seed "$3" --seconds "$seconds" --trace 0 >"$log"
	tail -n 1 "$log" | jq -c --arg w "$2" --argjson seed "$3" '{workload: $w, seed: $seed} + .' >>"$out/$1.jsonl"
}

for w in $(jq -r '.workloads[].name' BENCHMARK.json); do
	for ((seed = 1; seed <= pairs; seed++)); do
		if ((seed % 2)); then
			run base "$w" "$seed"; run head "$w" "$seed"
		else
			run head "$w" "$seed"; run base "$w" "$seed"
		fi
	done
done

# One row per (workload, metric): medians of both sides and the verdict.
jq -n -r --slurpfile bench BENCHMARK.json \
	--slurpfile base "$out/base.jsonl" --slurpfile head "$out/head.jsonl" '
	def median: sort | if length % 2 == 1 then .[length / 2 | floor]
		else (.[length / 2 - 1] + .[length / 2]) / 2 end;
	def med($runs; $w; $m): [$runs[] | select(.workload == $w) | .metrics[$m].value]
		| if length == 0 or any(. == null) then null else median end;
	($base + $head | map(select(.failed > 0 or .correct != true))) as $bad
	| ($bad[] | "FAIL run \(.workload) seed \(.seed): correct=\(.correct) failed=\(.failed)/\(.attempted)"),
	($bench[0].workloads[].name as $w | $bench[0].end_to_end[]
	 | med($base; $w; .name) as $b | med($head; $w; .name) as $h
	 | ($b == null or $h == null or
	    if .better == "lower" then $h > $b * (1 + .bound) else $h < $b * (1 - .bound) end) as $worse
	 | "\(if $worse then "FAIL" else "ok  " end) \($w) \(.name): base \($b) head \($h) (\(.better) is better, bound \(.bound))")
' | tee "$out/verdict.txt"

if grep -q '^FAIL' "$out/verdict.txt"; then
	echo "perfgate: FAIL against $base" >&2
	exit 1
fi
echo "perfgate: pass against $base"
