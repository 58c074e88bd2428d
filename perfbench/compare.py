"""A/B comparison of two sets of benchmark runs (run.py --compare).

Each input holds one JSON record per line, as `run.py --out FILE`
appends them. The i-th run of a workload in BASE is paired with the
i-th run of that workload in NEW, so alternate the two sides when
collecting them. For every workload and metric this reports both
medians and quartiles, the share of pairs NEW wins, and a verdict:

  improved    NEW wins at least 0.9 of the pairs and its median beats
              BASE's by more than BASE's interquartile distance
  regressed   NEW's median is worse than BASE's by more than the
              metric's bound (end-to-end metrics); for per-layer
              metrics, which have no bound, the mirror of `improved`
  unresolved  a run-to-run spread is wider than the bound and not
              every NEW run beats every BASE run
  unchanged   none of the above
"""

import json
import statistics
from collections import defaultdict


def _load(path):
    runs = defaultdict(list)
    with open(path) as f:
        for line in f:
            if line.strip():
                rec = json.loads(line)
                runs[rec["workload"]].append(rec)
    return runs


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _cell(values):
    q1, med, q3 = _quartiles(values)
    return f"{med:.6g} [{q1:.6g}, {q3:.6g}]"


def verdict(base, new, better, bound):
    """Classify NEW against BASE; `bound` is None for per-layer metrics."""
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(base, new))
    wins = sum(1 for b, n in pairs if sign * (n - b) > 0)
    losses = sum(1 for b, n in pairs if sign * (n - b) < 0)
    bq1, bmed, bq3 = _quartiles(base)
    nq1, nmed, nq3 = _quartiles(new)
    gain = sign * (nmed - bmed)
    iqr = bq3 - bq1
    win = wins / len(pairs) if pairs else 0.0
    if bound is None:
        if losses >= 0.9 * len(pairs) and -gain > iqr:
            return "regressed", win
    elif -gain > bound * abs(bmed):
        return "regressed", win
    if win >= 0.9 and gain > iqr:
        return "improved", win
    if bound is not None:
        spread = max((bq3 - bq1) / abs(bmed) if bmed else 0.0,
                     (nq3 - nq1) / abs(nmed) if nmed else 0.0)
        all_better = min(sign * n for n in new) > max(sign * b for b in base)
        if spread > bound and not all_better:
            return "unresolved", win
    return "unchanged", win


def compare(spec, base_path, new_path):
    """Print one row per workload and metric; return 1 on a regression."""
    base, new = _load(base_path), _load(new_path)
    metrics = [(m, m.get("bound")) for m in spec["end_to_end"]]
    metrics += [(m, None) for m in spec["per_layer"]]
    print(f"{'workload':<13} {'metric':<40} {'base median [q1, q3]':>34} "
          f"{'new median [q1, q3]':>34} {'win':>5}  verdict")
    regressed = False
    for workload in sorted(set(base) & set(new)):
        for m, bound in metrics:
            b = [r["metrics"][m["name"]]["value"] for r in base[workload]
                 if m["name"] in r["metrics"]]
            n = [r["metrics"][m["name"]]["value"] for r in new[workload]
                 if m["name"] in r["metrics"]]
            if not b or not n:
                continue
            result, win = verdict(b, n, m["better"], bound)
            regressed |= result == "regressed"
            print(f"{workload:<13} {m['name']:<40} {_cell(b):>34} "
                  f"{_cell(n):>34} {win:>5.2f}  {result}")
    return 1 if regressed else 0
