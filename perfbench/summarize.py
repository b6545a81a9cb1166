#!/usr/bin/env python3
"""Summarize saved benchmark outputs.

    python3 perfbench/summarize.py OUT...

Each OUT is the standard output of one ``run.py`` run. Prints, per workload
and metric, the median, the quartiles and the spread (quartile distance as a
share of the median) as ``statistics.quantiles(values, n=4)`` gives them,
next to the metric's bound from BENCHMARK.json, and the artifact hashes per
seed in the layout of ``hashes.json``. Run from the checkout root.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path


def main(paths: list[str]) -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    values: dict[str, dict[str, list[float]]] = defaultdict(lambda: defaultdict(list))
    hashes: dict[str, dict[str, dict]] = defaultdict(dict)
    for path in paths:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
        context, result = json.loads(lines[-2]), json.loads(lines[-1])
        workload = context["workload"]
        if not result["correct"]:
            print(f"{path}: not correct: {context.get('errors')}", file=sys.stderr)
            continue
        hashes[workload][str(context["seed"])] = context["hashes"]
        for name, metric in result["metrics"].items():
            values[workload][name].append(metric["value"])
    for workload, metrics in sorted(values.items()):
        print(f"{workload}:")
        for name, vs in metrics.items():
            median = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (median, median, median)
            spread = (q3 - q1) / median if median else 0.0
            bound = bounds.get(name)
            flag = " > bound/3" if bound is not None and spread > bound / 3 else ""
            print(f"  {name:36s} n={len(vs):2d} median={median:<12.6g} q1={q1:<12.6g} q3={q3:<12.6g} "
                  f"spread={spread:.4f} bound={bound}{flag}")
    print(json.dumps(hashes, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
