"""Compare two result files of ``run.py --out``.

    python3 benchmarks/e2e/compare.py A.json B.json

Prints one row per workload and bounded metric (the end-to-end metrics
of BENCHMARK.json and ``resume_s``): each side's median and quartiles,
the bound, and a verdict.  ``unresolved`` means a side's run-to-run
spread (q3 - q1 over its median) is wider than the bound, unless every
sample of B is better than every sample of A; ``worse`` means B's
median is worse than A's by more than the bound; ``ok`` otherwise.
Exits 1 if any row is ``worse``.
"""

from __future__ import annotations

import json
import sys

from run import RESUME_S, ROOT


def _spread(m: dict) -> float:
    return (m["q3"] - m["q1"]) / abs(m["value"]) if m["value"] else 0.0


def verdict(a: dict, b: dict, better: str, bound: float) -> str:
    lower = better == "lower"
    if max(_spread(a), _spread(b)) > bound:
        if lower:
            all_better = max(b["samples"]) < min(a["samples"])
        else:
            all_better = min(b["samples"]) > max(a["samples"])
        return "ok" if all_better else "unresolved"
    if not a["value"]:
        return "ok"
    change = (b["value"] - a["value"]) / abs(a["value"])
    return "worse" if (change if lower else -change) > bound else "ok"


def _cell(m: dict) -> str:
    return f"{m['value']:.5g} [{m['q1']:.5g}, {m['q3']:.5g}]"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: compare.py A.json B.json", file=sys.stderr)
        return 2
    with open(argv[0], encoding="utf-8") as fh:
        a = json.load(fh)
    with open(argv[1], encoding="utf-8") as fh:
        b = json.load(fh)
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bounds = {m["name"]: m for m in json.load(fh)["end_to_end"] + [RESUME_S]}
    print(f"{'workload':14s} {'metric':20s} {'A median [q1, q3]':>30s} "
          f"{'B median [q1, q3]':>30s} {'bound':>6s}  verdict")
    worse = False
    for name, res_a in a["workloads"].items():
        res_b = b["workloads"].get(name)
        if res_b is None:
            continue
        for metric, ma in res_a["metrics"].items():
            mb = res_b["metrics"].get(metric)
            spec = bounds.get(metric)
            if mb is None or spec is None:
                continue
            v = verdict(ma, mb, spec["better"], spec["bound"])
            worse |= v == "worse"
            print(f"{name:14s} {metric:20s} {_cell(ma):>30s} {_cell(mb):>30s} "
                  f"{spec['bound']:>6.3g}  {v}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
