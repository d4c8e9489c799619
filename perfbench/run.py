"""The fleet-service benchmark: one command, one workload, checked outputs.

Run from the repository root::

    python3 perfbench/run.py --workload provision --seed 1 --seconds 30 --trace 0

A run is a series of repetitions.  Each sets up a fresh service with its
own seed (``rep_seed``) and pushes a fixed number of messages through it
(``workloads.MESSAGES``).  Repetitions start while fewer than
``--seconds`` have passed, and there are at least ``MIN_REPS``.
The run and every process it starts are pinned to one CPU
(``pin_one_cpu``).  ``--trace 0`` reports the end-to-end metrics
(``workloads.end_to_end``) with no wrappers installed.  ``--trace 1``
alternates untraced and traced repetitions and reports the per-layer
ledger of the traced ones, plus ``trace.overhead_x``.

Every run checks its outputs: each recovered message must equal what
was sent; nothing may fail, be shed or be lost; and the
``results_digest``, ``raw_ber_mean`` and ``captures_per_msg`` of every
repetition must be equal, and equal to those of every earlier run of
the same seed on the same sources (kept in ``.perfbench/ledger.json``).
The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is 0 only when
every check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import platform
import shutil
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
STATE_DIR = ROOT / ".perfbench"
#: Seeds 1-10 tune and prove the benchmark; this one is kept for
#: confirming a later claim on inputs it was not developed against.
HELD_OUT_SEED = 90210
#: Fewest repetitions per run, however long each takes: a median of
#: three, and a traced run has untraced repetitions on both sides.
MIN_REPS = 3


def rep_seed(seed: int, index: int) -> int:
    """The seed of repetition ``index``: each repetition serves its own
    device population, so one run averages over several routings and
    batchings instead of repeating one."""
    return seed * 1000 + index


#: A run still going after this many seconds has hung: its in-process
#: repetition is killed and the run fails.
RUN_TIMEOUT_S = 170


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=("provision", "reread", "http-journal")
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def source_fingerprint() -> str:
    """Hash of the program's and the benchmark's sources: the ledger only
    compares runs of identical code and identical workloads."""
    h = hashlib.sha256()
    for base in (ROOT / "src" / "repro", ROOT / "perfbench"):
        for path in sorted(base.rglob("*.py")):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def check_repeat(key: str, outputs: dict) -> "tuple[bool, str]":
    """Compare a repetition's outputs with earlier runs of the same key
    (same workload, sources and service config, rep seed included)."""
    ledger_path = STATE_DIR / "ledger.json"
    ledger = {}
    if ledger_path.exists():
        ledger = json.loads(ledger_path.read_text())
    previous = ledger.get(key)
    if previous is None:
        ledger[key] = outputs
        tmp = ledger_path.with_suffix(".tmp")
        tmp.write_text(json.dumps(ledger, indent=1, sort_keys=True))
        os.replace(tmp, ledger_path)
        return True, "first run of this seed on these sources"
    if previous == outputs:
        return True, "equal to earlier runs of this seed"
    return False, f"differs from earlier run: {previous} != {outputs}"


def pin_one_cpu(workloads) -> "int | None":
    """Pin this process, and so every process it starts, to one CPU.

    The service is pure Python under one GIL.  Spread over two vCPUs of a
    shared host, its thread hand-offs cost more than the second CPU gives
    (measured on 2 vCPUs: ``provision`` 241 msg/s free, 295 pinned) and
    make every timing swing with the neighbours' load: run to run, the
    per-repetition p95 varied 2-4x less pinned.  The lane count is taken
    before the pin, so the service's configuration does not change.
    """
    if not hasattr(os, "sched_setaffinity"):  # pragma: no cover - non-Linux
        return None
    os.environ[workloads.LANES_ENV] = str(workloads.lanes())
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def main(argv) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "service" / "__init__.py").is_file():
        print(
            f"perfbench: no program sources under {ROOT / 'src'}; "
            "run from a full checkout",
            file=sys.stderr,
        )
        return 2
    here = str(pathlib.Path(__file__).resolve().parent)
    sys.path[:] = [str(ROOT), str(ROOT / "src")] + [
        p for p in sys.path if p and str(pathlib.Path(p).resolve()) != here
    ]

    import numpy

    from perfbench import stats, workloads

    nproc = workloads.nproc()
    pinned = pin_one_cpu(workloads)
    STATE_DIR.mkdir(exist_ok=True)
    run_dir = STATE_DIR / f"run-{os.getpid()}"
    run_dir.mkdir()
    reps = []
    began = time.perf_counter()
    try:
        while len(reps) < MIN_REPS or time.perf_counter() - began < args.seconds:
            # Traced runs alternate untraced and traced repetitions of the
            # same rep seed, so both halves see the same inputs and the
            # same machine conditions.
            traced = bool(args.trace) and len(reps) % 2 == 1
            reps.append(
                workloads.spawn_rep(
                    args.workload,
                    rep_seed(args.seed, len(reps) // 2 if args.trace else len(reps)),
                    traced=traced,
                    label=f"{args.workload}-rep{len(reps)}",
                    run_dir=run_dir,
                    timeout=max(1.0, RUN_TIMEOUT_S - (time.perf_counter() - began)),
                )
            )
    except (workloads.BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    checks = []
    for index, rep in enumerate(reps):
        checks.append(
            (
                f"rep {index}: nothing lost, failed or shed",
                rep["lost"] + rep["failed"] + rep["shed"] == 0,
                f"lost={rep['lost']} failed={rep['failed']} shed={rep['shed']}",
            )
        )
        checks.append(
            (
                f"rep {index}: byte-exact messages",
                rep["mismatched"] == 0,
                f"mismatched={rep['mismatched']} of {rep['completed']}",
            )
        )
    outputs = [rep["outputs"] for rep in reps]
    fingerprint = source_fingerprint()
    for index, (rep, out) in enumerate(zip(reps, outputs)):
        if out is None:
            checks.append((f"rep {index}: every message answered", False, "incomplete"))
            continue
        key = "|".join(
            [args.workload, fingerprint, json.dumps(rep["config"], sort_keys=True)]
        )
        ok, detail = check_repeat(key, out)
        checks.append((f"rep {index}: outputs repeat for its seed", ok, detail))
    if args.trace:
        for index in range(1, len(reps), 2):
            checks.append(
                (
                    f"rep {index}: traced outputs equal the untraced twin's",
                    outputs[index] == outputs[index - 1],
                    f"rep seed {reps[index]['config']['seed']}",
                )
            )
    correct = all(ok for _, ok, _ in checks)

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": nproc,
        "pinned_cpu": pinned,
        "lanes": workloads.lanes(),
        "http_clients": workloads.HTTP_CLIENTS,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git_sha(),
        "source_fingerprint": fingerprint,
        "rep_seeds": [rep["config"]["seed"] for rep in reps],
        "service_config": reps[0]["config"],
    }
    print(f"# meta {json.dumps(meta, sort_keys=True)}")
    for name, ok, detail in checks:
        print(f"# check {'ok  ' if ok else 'FAIL'} {name}: {detail}")

    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] + r["shed"] + r["lost"] + r["mismatched"] for r in reps)
    error_rate = stats.error_rate(
        attempted,
        failed=sum(r["failed"] for r in reps),
        shed=sum(r["shed"] for r in reps),
        lost=sum(r["lost"] for r in reps),
        mismatched=sum(r["mismatched"] for r in reps),
    )
    print(
        f"# {len(reps)} repetitions of {reps[0]['total']} messages in "
        f"{time.perf_counter() - began:.1f} s"
    )
    print(f"error_rate {error_rate!r} ratio ({failed} of {attempted} messages)")
    for index, out in enumerate(outputs):
        if out is not None:
            print(f"results_digest {out['results_digest']} (rep {index})")
    # Latency percentiles over all repetitions, with their sample counts.
    for label in ("send", "receive", "message"):
        samples = [x for r in reps for x in r["latency_ms"][label]]
        if not samples:
            print(f"{label}_p50_ms n/a ({args.workload} sends nothing)")
            continue
        for q in (50, 95, 99):
            print(
                f"{label}_p{q}_ms {stats.percentile(samples, q)!r} ms "
                f"(n={len(samples)}, {stats.samples_beyond(len(samples), q)} beyond)"
            )
    for error in [e for r in reps for e in r["errors"]][:10]:
        print(f"# error {error}")

    metrics = {}
    if correct:
        if args.trace:
            metrics = workloads.per_layer(reps)
        else:
            metrics = workloads.end_to_end(reps, MIN_REPS)
        for name, entry in metrics.items():
            print(f"{name} {entry['value']!r} {entry['unit']}")
    results = STATE_DIR / "results"
    results.mkdir(exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(
            {
                "meta": meta,
                "checks": checks,
                "metrics": metrics,
                "reps": [
                    {k: v for k, v in r.items() if k not in ("latency_ms", "agg")}
                    for r in reps
                ],
            },
            indent=1,
        )
    )
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
