#!/usr/bin/env bash
# What a CI step for the benchmark runs (workflow files are outside this
# directory, so nothing calls it yet): vet and test the benchmark module,
# smoke every workload at the quick scale with and without tracing, and
# check that a run compares clean against itself. With a baseline summary
# as $1 (e.g. the parent commit's), also gate the full-scale run against it.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build/ci"
mkdir -p "$out"

(cd "$here" && go vet ./... && go test -count=1 ./...)

bash "$here/run.sh" --quick --seconds 0.3 --seed 1 --trace 1 --out "$out/quick.json" >/dev/null
bash "$here/run.sh" --compare "$out/quick.json" "$out/quick.json"

if [ "$#" -ge 1 ]; then
	bash "$here/run.sh" --seed 1 --out "$out/head.json" >/dev/null
	bash "$here/run.sh" --compare "$1" "$out/head.json"
fi
