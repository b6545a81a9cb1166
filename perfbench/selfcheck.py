#!/usr/bin/env python3
"""Self-check of the benchmark at toy scale, in seconds.

    python3 perfbench/selfcheck.py

Run from the checkout root. For each workload shape, shrunk by
``gen.toy``, it runs the untraced pipeline twice and the traced pipeline
once, and checks that every run is correct with no failed operation, that
every metric BENCHMARK.json names is emitted with its unit, that the
artifact hashes repeat across the two untraced runs, and that the traced
run's artifacts are byte-identical to the untraced ones. Exits 1 with a
message on the first failure.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import gen  # noqa: E402
import run  # noqa: E402

SEED = 3


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selfcheck: {message}")


def main() -> int:
    run.BATCH_S = 0.0  # one invocation per sample: this checks outputs, not timings
    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    for name, shape in gen.SHAPES.items():
        shape = gen.toy(shape)
        runs = [run.bench(name, shape, SEED, 0, trace, None) for trace in (False, False, True)]
        for (context, result), kind in zip(runs, ("end_to_end", "end_to_end", "per_layer")):
            check(result["correct"] and result["failed"] == 0, f"{name} {kind} run failed: {context['errors']}")
            expected = {m["name"]: m["unit"] for m in spec[kind]}
            emitted = {k: v["unit"] for k, v in result["metrics"].items()}
            check(emitted == expected, f"{name} {kind} metrics differ from BENCHMARK.json: {emitted} != {expected}")
        hashes = [context["hashes"] for context, _ in runs]
        check(len(hashes[0]) == 4, f"{name}: hashed {sorted(hashes[0])}")
        check(hashes[0] == hashes[1], f"{name}: artifact hashes differ between two untraced runs")
        check(hashes[0] == hashes[2], f"{name}: traced artifacts differ from untraced ones")
        print(f"selfcheck: {name} ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
