#!/usr/bin/env bash
# Runs the whole benchmark twice on the same commit and fails unless
# the two result sets agree: every wall-clock end-to-end metric within
# its bound from BENCHMARK.json, every count metric (and every
# per-layer metric that is a count) bit-identical.
#
#   benchmark/repeat.sh [seed] [seconds]
#
# The two result files stay in benchmark/out/repeat_{1,2}.json; each
# records commit, nproc, CPU model, seed and workload sizes.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
seed="${1:-1}"
seconds="${2:-30}"
mkdir -p "$here/out"
for run in 1 2; do
  cargo run --release --offline --quiet --manifest-path "$here/Cargo.toml" -- \
    --all --seed "$seed" --seconds "$seconds" > "$here/out/repeat_$run.json"
done
python3 - "$here/../BENCHMARK.json" "$here/out/repeat_1.json" "$here/out/repeat_2.json" <<'PY'
import json, sys
manifest, first, second = (json.load(open(p)) for p in sys.argv[1:4])
for key in ("commit", "nproc", "cpu", "seed", "sizes"):
    if first[key] != second[key]:
        sys.exit(f"the two runs are not comparable: {key} differs")
bounds = {m["name"]: m for m in manifest["end_to_end"]}
# Measured with a clock (or the allocator): compared within a bound.
# Everything else is a count and must repeat exactly.
WALL_UNITS = {"s", "1/s", "MB", "us", "ns", "ms", "MB/s"}
WALL_NAMES = {"chord.scaling_efficiency_c2", "trace.overhead_share"}
bad = []
for workload, both in first["results"].items():
    for kind in ("end_to_end", "per_layer"):
        a, b = both[kind], second["results"][workload][kind]
        for side in (a, b):
            if not side["correct"] or side["failed"]:
                bad.append(f"{workload} {kind}: correct={side['correct']} failed={side['failed']}")
        for name, m in a["metrics"].items():
            x, y = m["value"], b["metrics"][name]["value"]
            wall = m["unit"] in WALL_UNITS or name in WALL_NAMES
            if not wall:
                if x != y:
                    bad.append(f"{workload} {name}: count {x} != {y}")
            elif name in bounds:
                worse = (y - x) / x if bounds[name]["better"] == "lower" else (x - y) / x
                if abs(worse) > bounds[name]["bound"]:
                    bad.append(f"{workload} {name}: {x} vs {y} differ by {abs(worse):.1%} "
                               f"(bound {bounds[name]['bound']:.0%})")
if bad:
    sys.exit("runs disagree:\n  " + "\n  ".join(bad))
print(f"two runs of {first['commit']} agree (seed {first['seed']}, {first['nproc']} cores, {first['cpu']})")
PY
