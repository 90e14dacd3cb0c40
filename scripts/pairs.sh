#!/usr/bin/env bash
# pairs.sh <workload> <pairs> [parent-ref]: the parent-vs-change protocol for
# a performance claim. Runs <pairs> pairs of `benchmark/run.sh --workload
# <workload>`, one run of the parent and one of the change per pair, with a
# fresh seed per pair (SEED, SEED+1, ...). Which side runs first is a
# balanced shuffle drawn from SEED: half the pairs (one more for either side
# at an odd count) run the parent first, in an order no fixed pattern such as
# ABBA can line up with the host's drift. The change is this working tree; the parent is [parent-ref]'s
# committed files, extracted under .bench_build/pairs/ and built there by its
# own run.sh. parent-ref defaults to HEAD when tracked files have uncommitted
# changes, else HEAD~1.
#
# Prints each pair's order as it runs, then, for every end-to-end metric in
# BENCHMARK.json, each side's median and quartiles, the change's wins (ties
# count for neither side), split into parent-first and change-first pairs so
# an order effect shows as a split that disagrees with itself, whether the
# medians differ by more than the parent's quartile spread, and whether the
# change's median is worse than the parent's by more than the metric's
# relative `bound` in BENCHMARK.json. Ends with the verdict a change that
# claims no gain is judged by: `no-regression: yes` when no metric is worse
# beyond its bound, no change run has correct=false, and the change's failed
# share is no higher than the parent's. Each run's JSON line is kept in
# .bench_build/pairs/<workload>.{parent,change}.jsonl and each pair's first
# side in .bench_build/pairs/<workload>.order.
#
# Environment: SEED (first seed, default 1000), SECONDS_PER_RUN (default
# BENCHMARK.json's run_seconds), TRACE (default 0). Run from the repository
# root.
set -euo pipefail
workload="${1:?usage: pairs.sh <workload> <pairs> [parent-ref]}"
pairs="${2:?usage: pairs.sh <workload> <pairs> [parent-ref]}"
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
ref="${3:-}"
if [ -z "$ref" ]; then
  if git diff --quiet HEAD --; then ref=HEAD~1; else ref=HEAD; fi
fi
sha="$(git rev-parse --verify "$ref^{commit}")"
seed0="${SEED:-1000}"
seconds="${SECONDS_PER_RUN:-$(python3 -c 'import json;print(json.load(open("BENCHMARK.json"))["run_seconds"])')}"
trace="${TRACE:-0}"

out="$root/.bench_build/pairs"
parent="$out/$sha"
if [ ! -f "$parent/BENCHMARK.json" ]; then
  rm -rf "$parent"
  mkdir -p "$parent"
  git archive "$sha" | tar -x -C "$parent"
fi
rm -f "$out/$workload.parent.jsonl" "$out/$workload.change.jsonl" "$out/$workload.order"
echo "workload $workload: $pairs pairs, ${seconds}s runs, seeds $seed0..$((seed0 + pairs - 1)); parent $ref ($sha), change = working tree" >&2

run() { # run <side> <dir> <seed>
  (cd "$2" && bash benchmark/run.sh --workload "$workload" --seed "$3" --seconds "$seconds" --trace "$trace") |
    tail -n 1 >>"$out/$workload.$1.jsonl"
}
# The first side of every pair: a seeded shuffle of a balanced list.
read -r -a firsts <<<"$(python3 -c '
import random, sys
seed, n = int(sys.argv[1]), int(sys.argv[2])
r = random.Random(seed)
sides = ["parent", "change"]
r.shuffle(sides)
order = [sides[0]] * ((n + 1) // 2) + [sides[1]] * (n // 2)
r.shuffle(order)
print(" ".join(order))' "$seed0" "$pairs")"
for i in $(seq 0 $((pairs - 1))); do
  seed=$((seed0 + i))
  first="${firsts[$i]}"
  if [ "$first" = parent ]; then
    run parent "$parent" "$seed"
    run change "$root" "$seed"
  else
    run change "$root" "$seed"
    run parent "$parent" "$seed"
  fi
  echo "$first" >>"$out/$workload.order"
  echo "pair $((i + 1))/$pairs done (seed $seed, $first first)" >&2
done

python3 - "$out" "$workload" <<'PY'
import json, statistics, sys
out, workload = sys.argv[1], sys.argv[2]
spec = json.load(open("BENCHMARK.json"))
runs = {s: [json.loads(l) for l in open(f"{out}/{workload}.{s}.jsonl")] for s in ("parent", "change")}
firsts = open(f"{out}/{workload}.order").read().split()
print("order: " + " ".join("P" if f == "parent" else "C" for f in firsts) + "  (first side per pair)")
bad, failed = {}, {}
for s, rs in runs.items():
    bad[s] = sum(not r["correct"] for r in rs)
    failed[s] = sum(r["failed"] for r in rs) / max(1, sum(r["attempted"] for r in rs))
    print(f"{s}: {len(rs)} runs, {bad[s]} with correct=false, failed share {failed[s]:.5f}")
def quart(v):
    if len(v) < 2:
        return v[0], v[0], v[0]
    q = statistics.quantiles(v, n=4, method="inclusive")
    return q[0], statistics.median(v), q[2]
print(f'{"metric":19} {"parent median [q1, q3]":>34} {"change median [q1, q3]":>34} {"wins":>6} {"P-first":>7} {"C-first":>7}  beyond parent IQR  worse > bound')
regressed = []
for m in spec["end_to_end"]:
    name = m["name"]
    p = [r["metrics"][name]["value"] for r in runs["parent"]]
    c = [r["metrics"][name]["value"] for r in runs["change"]]
    sign = 1 if m["better"] == "higher" else -1
    won = [sign * (b - a) > 0 for a, b in zip(p, c)]
    wins = sum(won)
    split = {f: f"{sum(w for w, o in zip(won, firsts) if o == f)}/{firsts.count(f)}" for f in ("parent", "change")}
    pq, cq = quart(p), quart(c)
    beyond = abs(cq[1] - pq[1]) > pq[2] - pq[0]
    # Relative worsening of the median; from a zero parent any worsening counts.
    loss = sign * (pq[1] - cq[1])
    worse = loss > m["bound"] * abs(pq[1]) if pq[1] else loss > 0
    if worse:
        regressed.append(name)
    fmt = lambda q: f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"
    rel = f"loss {loss / abs(pq[1]):+.1%}" if pq[1] else f"loss {loss:+.3g}"
    print(f"{name:19} {fmt(pq):>34} {fmt(cq):>34} {wins:>3}/{len(p):<2} {split['parent']:>7} {split['change']:>7}  {'yes' if beyond else 'no':17}  "
          f"{'yes' if worse else 'no'} ({rel}, bound {m['bound']:.0%})")
if bad["change"]:
    regressed.append("correct=false")
if failed["change"] > failed["parent"]:
    regressed.append("failed share")
if regressed:
    print("regressed: " + ", ".join(regressed))
print(f"no-regression: {'no' if regressed else 'yes'}")
PY
