"""Run the benchmark over several seeds and report each metric's spread.

Usage, from the repository root::

    python3 perfbench/spread.py --workload provision --seeds 1-10 --seconds 10 [--trace 0]

For every metric it prints the median of the runs and the distance
between their first and third quartiles as a share of that median
(``statistics.quantiles(values, n=4)``).  With ``--bounds`` it also
marks each end-to-end spread against a third of the metric's bound in
``BENCHMARK.json``.  Exits nonzero if any run fails.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT)]

from perfbench.stats import spread  # noqa: E402


def seeds(text: str) -> "list[int]":
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args(argv)
    bounds = {
        m["name"]: m["bound"]
        for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    } if (ROOT / "BENCHMARK.json").exists() else {}
    values: "dict[str, list[float]]" = {}
    for seed in args.seeds:
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        result = json.loads(done.stdout.strip().splitlines()[-1])
        if done.returncode != 0 or not result["correct"]:
            print(done.stdout[-3000:], done.stderr[-3000:], sep="\n")
            return 1
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
        ), flush=True)
        for name, entry in result["metrics"].items():
            values.setdefault(name, []).append(entry["value"])
    for name, vals in values.items():
        median = statistics.median(vals)
        s = spread(vals) if len(vals) >= 2 else 0.0
        bound = bounds.get(name)
        mark = "" if bound is None else (
            f" bound={bound} {'ok' if s < bound / 3 else 'WIDE'}"
        )
        print(f"{name:48s} median={median:.6g} spread={s:.4f}{mark}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
