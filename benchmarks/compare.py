"""Compare two files of benchmark results, one JSON result line per run.

    python3 benchmarks/compare.py parent.jsonl change.jsonl

For each metric: each side's median and quartiles, the change's median as a
share of the parent's, and a verdict against the metric's bound in
BENCHMARK.json (per-layer metrics have no bound and get none).
"""

from __future__ import annotations

import json
import os
import statistics
import sys


def load(path: str) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip().startswith("{")]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    parent, change = (load(p) for p in argv)
    spec_path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "BENCHMARK.json")
    with open(spec_path) as fh:
        spec = {m["name"]: m for m in json.load(fh)["end_to_end"]}
    for side, runs in (("parent", parent), ("change", change)):
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        wrong = sum(not r["correct"] for r in runs)
        print(f"{side}: {len(runs)} runs, {failed}/{attempted} operations failed, {wrong} incorrect")
    names = [n for n in parent[0]["metrics"] if n in change[0]["metrics"]]
    print(f"{'metric':30s} {'parent q1/median/q3':>32s} {'change q1/median/q3':>32s} {'ratio':>7s}  verdict")
    for name in names:
        a = [r["metrics"][name]["value"] for r in parent]
        b = [r["metrics"][name]["value"] for r in change]
        qa, qb = quartiles(a), quartiles(b)
        ratio = qb[1] / qa[1] if qa[1] else float("nan")
        verdict = ""
        if name in spec:
            bound = spec[name]["bound"]
            spread = (qa[2] - qa[0]) / qa[1] if qa[1] else float("inf")
            worse = ratio - 1.0 if spec[name]["better"] == "lower" else 1.0 - ratio
            if spread > bound:
                verdict = f"unresolved (parent spread {spread:.3f} > bound {bound})"
            elif worse > bound:
                verdict = f"WORSE by {worse:.3f} > bound {bound}"
            else:
                verdict = f"within bound {bound}"
        fmt = "{:.5g}/{:.5g}/{:.5g}"
        print(f"{name:30s} {fmt.format(*qa):>32s} {fmt.format(*qb):>32s} {ratio:7.4f}  {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
