"""Compare two sets of benchmark records, base against change.

    python3 bench/compare.py BASE_DIR CHANGE_DIR [--spec BENCHMARK.json]

Each directory holds the records bench/run.py writes (one JSON file per
run).  Runs are paired by workload, trace mode and seed.  For every
workload and metric the table gives both medians and quartiles over the
runs, the ratio change/base, the pairs the change won, and a verdict:

  improved    the change wins at least 9 of 10 pairs (ties count for
              neither side) and the medians differ by more than the base
              runs' interquartile distance
  regressed   the change's median is worse than the base median by more
              than the metric's bound and by more than the base runs'
              interquartile distance (metrics without a bound: the base
              wins 9 of 10 pairs and the medians differ by more than the
              base's interquartile distance)
  unresolved  the base runs spread wider than the bound (unless every
              change run is better than every base run), or the medians
              differ by more than that spread without a clear pair winner
  unchanged   otherwise
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path


def load(directory: Path) -> dict:
    """(workload, trace) -> seed -> record."""
    out: dict = {}
    for path in sorted(directory.glob("*.json")):
        rec = json.loads(path.read_text())
        out.setdefault((rec["workload"], rec["trace"]), {})[rec["seed"]] = rec
    return out


def quartiles(vals: list[float]) -> tuple[float, float, float]:
    if len(vals) < 2:
        return vals[0], vals[0], vals[0]
    q1, med, q3 = statistics.quantiles(vals, n=4)
    return q1, statistics.median(vals), q3


def verdict(base: list[float], change: list[float], lower_better: bool,
            bound: float | None) -> tuple[str, int]:
    """Verdict and number of pairs the change won; inputs are paired."""
    sign = 1.0 if lower_better else -1.0
    wins = sum(1 for b, c in zip(base, change) if sign * (c - b) < 0)
    losses = sum(1 for b, c in zip(base, change) if sign * (c - b) > 0)
    n = len(base)
    bq1, bmed, bq3 = quartiles(base)
    cmed = statistics.median(change)
    spread = bq3 - bq1
    diff = sign * (cmed - bmed)  # > 0: change is worse
    if wins >= 0.9 * n and -diff > spread:
        return "improved", wins
    if bound is None:
        if losses >= 0.9 * n and diff > spread:
            return "regressed", wins
        return ("unchanged" if abs(diff) <= spread else "unresolved"), wins
    scale = abs(bmed) or 1.0
    if diff > max(bound * scale, spread):
        return "regressed", wins
    if spread / scale > bound:
        all_better = max(sign * c for c in change) < min(sign * b for b in base)
        return ("unchanged" if all_better else "unresolved"), wins
    return "unchanged", wins


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--spec", type=Path, default=Path("BENCHMARK.json"),
                    help="benchmark description with the end-to-end bounds")
    args = ap.parse_args(argv)

    spec = json.loads(args.spec.read_text()) if args.spec.exists() else {}
    bounds = {m["name"]: m for m in spec.get("end_to_end", [])}
    higher = {m["name"] for m in spec.get("end_to_end", []) + spec.get("per_layer", [])
              if m.get("better") == "higher"}
    base, change = load(args.base), load(args.change)
    header = (f"{'workload':9s} {'metric':30s} {'base median [q1, q3]':>34s} "
              f"{'change median [q1, q3]':>34s} {'ratio':>7s} {'wins':>6s}  verdict")
    print(header)
    regressed = False
    for key in sorted(set(base) & set(change)):
        seeds = sorted(set(base[key]) & set(change[key]))
        if not seeds:
            continue
        names = list(base[key][seeds[0]]["metrics"])
        for name in names:
            pairs = [(base[key][s]["metrics"].get(name, {}).get("value"),
                      change[key][s]["metrics"].get(name, {}).get("value")) for s in seeds]
            pairs = [(b, c) for b, c in pairs if b is not None and c is not None]
            if not pairs:
                continue
            b_vals, c_vals = [p[0] for p in pairs], [p[1] for p in pairs]
            bound = bounds.get(name, {}).get("bound")
            v, wins = verdict(b_vals, c_vals, name not in higher, bound)
            regressed = regressed or v == "regressed"
            bq = quartiles(b_vals)
            cq = quartiles(c_vals)
            ratio = f"{cq[1] / bq[1]:.3f}" if bq[1] else "-"
            print(f"{key[0]:9s} {name:30s} "
                  f"{bq[1]:12.6g} [{bq[0]:9.4g}, {bq[2]:9.4g}] "
                  f"{cq[1]:12.6g} [{cq[0]:9.4g}, {cq[2]:9.4g}] "
                  f"{ratio:>7s} {wins:>3d}/{len(pairs):<2d}  {v}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
