#!/usr/bin/env bash
# agree.sh N [seconds]: the benchmark's own repeatability check. Runs two sets
# (A, B) of N timed runs per workload, alternating A and B, each run with
# another seed, and prints for every workload × end-to-end metric both
# medians, their difference, each set's quartile spread, the bound from
# BENCHMARK.json and a verdict:
#   FAIL  the spread of a set exceeds the bound (setup_s exempt), or B's median
#         is worse than A's by more than the bound — the driver would refuse it
#   WARN  spread above a third of the bound or difference above two thirds
# Exits non-zero on any FAIL. Run from the repository root.
set -euo pipefail
n="${1:?usage: agree.sh N [seconds]}"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"
seconds="${2:-$(python3 -c 'import json;print(json.load(open("BENCHMARK.json"))["run_seconds"])')}"
out="$root/.bench_build/agree"
mkdir -p "$out"
rm -f "$out"/*.jsonl
workloads="$(python3 -c 'import json;print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')"
for i in $(seq 1 "$n"); do
  for w in $workloads; do
    for set in A B; do
      seed=$i; [ "$set" = B ] && seed=$((100 + i))
      bash benchmark/run.sh --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 | tail -n 1 >>"$out/$w.$set.jsonl"
    done
  done
  echo "pass $i/$n done" >&2
done
python3 - "$out" <<'PY'
import json, statistics, sys
out = sys.argv[1]
spec = json.load(open("BENCHMARK.json"))
def spread(v):
    if len(v) < 2: return 0.0
    q = statistics.quantiles(v, n=4)
    return (q[2] - q[0]) / abs(statistics.median(v))
bad = False
print(f'{"workload":20} {"metric":19} {"median A":>14} {"median B":>14} {"B worse":>8} {"iqr A":>7} {"iqr B":>7} {"bound":>6}  verdict')
for w in spec["workloads"]:
    runs = {s: [json.loads(l) for l in open(f'{out}/{w["name"]}.{s}.jsonl')] for s in "AB"}
    for s in "AB":
        for r in runs[s]:
            if not r["correct"]:
                bad = True
                print(f'{w["name"]}: a run of set {s} reported correct=false')
    for m in spec["end_to_end"]:
        a = [r["metrics"][m["name"]]["value"] for r in runs["A"]]
        b = [r["metrics"][m["name"]]["value"] for r in runs["B"]]
        ma, mb = statistics.median(a), statistics.median(b)
        worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
        sa, sb, bound = spread(a), spread(b), m["bound"]
        verdict = "PASS"
        if worse > 2 * bound / 3 or (m["name"] != "setup_s" and max(sa, sb) > bound / 3):
            verdict = "WARN"
        if worse > bound or (m["name"] != "setup_s" and max(sa, sb) > bound):
            verdict, bad = "FAIL", True
        print(f'{w["name"]:20} {m["name"]:19} {ma:14.6g} {mb:14.6g} {worse:+8.4f} {sa:7.4f} {sb:7.4f} {bound:6.2f}  {verdict}')
sys.exit(1 if bad else 0)
PY
