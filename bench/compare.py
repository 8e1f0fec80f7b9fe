"""Compare two result sets written by ``run.py --save``.

    python3 bench/compare.py BASE.jsonl CHANGE.jsonl

For every workload and end-to-end metric it prints each side's median,
quartiles and run count, and a verdict that uses the bounds in
BENCHMARK.json:

- worse:      the change's median is worse than the base median by more
              than the metric's bound;
- better:     the change wins at least 9 of 10 runs paired in file order,
              and the medians differ by more than the base side's
              interquartile range;
- unresolved: the base side's own spread (IQR over median) is wider
              than the bound, and not every change run beats every base
              run;
- unchanged:  otherwise.

Only untraced runs are compared.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path) -> dict:
    """workload -> metric -> list of values, in file order."""
    out = {}
    with open(path) as fh:
        for line in fh:
            if not line.strip():
                continue
            rec = json.loads(line)
            if rec["trace"]:
                continue
            per = out.setdefault(rec["workload"], {})
            for name, entry in rec["result"]["metrics"].items():
                per.setdefault(name, []).append(entry["value"])
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def verdict(base, change, bound: float, lower_is_better: bool) -> str:
    sign = 1.0 if lower_is_better else -1.0
    b_med, c_med = statistics.median(base), statistics.median(change)
    if sign * (c_med - b_med) > bound * abs(b_med):
        return "worse"
    pairs = list(zip(base, change))
    wins = sum(1 for b, c in pairs if sign * (c - b) < 0)
    b_q1, b_q3 = quartiles(base)
    if pairs and wins >= 0.9 * len(pairs) and abs(c_med - b_med) > b_q3 - b_q1 \
            and sign * (c_med - b_med) < 0:
        return "better"
    spread = (b_q3 - b_q1) / abs(b_med) if b_med else 0.0
    all_better = all(sign * (c - b) < 0 for b in base for c in change)
    if spread > bound and not all_better:
        return "unresolved"
    return "unchanged"


def compare(base: dict, change: dict, spec: dict) -> list:
    rows = []
    for workload in sorted(set(base) | set(change)):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            b = base.get(workload, {}).get(name, [])
            c = change.get(workload, {}).get(name, [])
            if not b or not c:
                rows.append((workload, name, metric["unit"], b, c, "missing"))
                continue
            rows.append((workload, name, metric["unit"], b, c,
                         verdict(b, c, metric["bound"], metric["better"] == "lower")))
    return rows


def _side(values) -> str:
    q1, q3 = quartiles(values)
    return f"{statistics.median(values):.4g} [{q1:.4g}, {q3:.4g}] n={len(values)}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    rows = compare(load(args.base), load(args.change), spec)
    print(f"{'workload':16s} {'metric':13s} {'unit':6s} {'base median [q1, q3]':34s} "
          f"{'change median [q1, q3]':34s} {'ratio':>7s}  verdict")
    for workload, name, unit, b, c, result in rows:
        if result == "missing":
            print(f"{workload:16s} {name:13s} {unit:6s} {'(no runs on one side)':69s}  missing")
            continue
        ratio = statistics.median(c) / statistics.median(b) if statistics.median(b) else float("nan")
        print(f"{workload:16s} {name:13s} {unit:6s} {_side(b):34s} {_side(c):34s} "
              f"{ratio:7.3f}  {result}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
