#!/usr/bin/env python3
"""Run one workload of the repository benchmark and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload data_scale --seed 1 --seconds 40 --trace 0

Workloads: ``data_scale``, ``query_scale``, ``serve_rw`` (see
``perfbench/README.md``).  The run

1. generates the workload's inputs from ``--seed`` under ``perfbench/.work``
   and checks their fingerprint against a second generation in another
   process with another ``PYTHONHASHSEED`` (and against
   ``perfbench/fingerprints.json`` when the seed is recorded there);
2. measures the workload in a fresh process.  With ``--trace 0`` it prints
   the end-to-end metrics.  With ``--trace 1`` it runs the workload twice for
   half the time each, untraced and then traced, and prints the per-layer
   metrics with the tracing overhead between the two;
3. prints, as its last line, one JSON object with the keys ``correct``,
   ``attempted``, ``failed`` and ``metrics``, and writes the full report to
   ``perfbench/.work/results``.

It exits with a non-zero code, printing no result, when the program's
sources are missing or a measured process fails.  Helper modes:
``--self-test`` runs the oracle's self-test alone, ``--record-fingerprints N``
rewrites ``fingerprints.json`` for seeds 1..N.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
FINGERPRINTS = HERE / "fingerprints.json"
MIN_REQUESTS = 100
CHILD_TIMEOUT_S = 170


def _environment() -> dict[str, str]:
    path = os.pathsep.join([str(ROOT / "src"), str(HERE)])
    return dict(os.environ, PYTHONPATH=path)


def _fingerprint_elsewhere(workload: str, seed: int) -> str:
    """The inputs' fingerprint as generated by another process and hash seed."""
    other = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    into = WORK / "inputs" / f"{workload}-{seed}-check"
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--fingerprint-into", str(into),
         "--workload", workload, "--seed", str(seed)],
        env=dict(_environment(), PYTHONHASHSEED=other), cwd=ROOT,
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=False,
    )
    shutil.rmtree(into, ignore_errors=True)
    if proc.returncode != 0:
        raise RuntimeError(f"fingerprint process failed:\n{proc.stderr}")
    return proc.stdout.strip().splitlines()[-1]


def _measure(workload: str, inputs_dir: Path, seconds: float, min_requests: int,
             trace: bool, tag: str) -> dict:
    out = WORK / "results" / f"{tag}.child.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.unlink(missing_ok=True)
    command = [sys.executable, "-m", "bench.workloads", "--workload", workload,
               "--inputs", str(inputs_dir), "--seconds", repr(seconds),
               "--min-requests", str(min_requests), "--out", str(out)]
    if trace:
        command.append("--trace")
    # A fixed hash seed gives every run of one input the same set and dict
    # layout, which removes one source of run-to-run spread.
    proc = subprocess.run(command, env=dict(_environment(), PYTHONHASHSEED="0"), cwd=ROOT,
                          stdout=sys.stderr,
                          timeout=CHILD_TIMEOUT_S, check=False)
    if proc.returncode != 0 or not out.exists():
        raise RuntimeError(f"{workload} run exited with code {proc.returncode}")
    result = json.loads(out.read_text(encoding="utf-8"))
    out.unlink()
    return result


def _table(layers: dict[str, float]) -> str:
    from bench.tracing import PER_LAYER

    return "\n".join(f"{name:<30} {layers[name]:>14.6f} {unit}" for name, unit in PER_LAYER)


def run(args: argparse.Namespace) -> int:
    from bench import inputs
    from bench.tracing import PER_LAYER

    workload, seed = args.workload, args.seed
    inputs_dir = WORK / "inputs" / f"{workload}-{seed}"
    inputs.generate(workload, seed, inputs_dir)
    fingerprint = inputs.fingerprint(inputs_dir)
    table = json.loads(FINGERPRINTS.read_text(encoding="utf-8")) if FINGERPRINTS.exists() else {}
    recorded = table.get(workload, {}).get(str(seed))
    if recorded is not None and recorded != fingerprint:
        print(f"inputs of {workload} seed {seed} hash to {fingerprint}, "
              f"recorded {recorded}", file=sys.stderr)
        return 3
    elsewhere = _fingerprint_elsewhere(workload, seed)
    if elsewhere != fingerprint:
        print(f"inputs of {workload} seed {seed} differ between processes: "
              f"{fingerprint} here, {elsewhere} with another PYTHONHASHSEED", file=sys.stderr)
        return 3

    tag = f"{workload}-seed{seed}-trace{args.trace}"
    if args.trace:
        half = args.seconds / 2
        plain = _measure(workload, inputs_dir, half, 0, False, tag + "-untraced")
        traced = _measure(workload, inputs_dir, half, 0, True, tag + "-traced")
        layers = dict(traced["layers"])
        layers["trace.overhead"] = traced["mean_latency_s"] / plain["mean_latency_s"] - 1.0
        runs = [plain, traced]
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER}
    else:
        result = _measure(workload, inputs_dir, args.seconds, MIN_REQUESTS, False, tag)
        runs = [result]
        units = {"setup_s": "s", "latency_p50_ms": "ms", "latency_p90_ms": "ms",
                 "ttfa_p50_ms": "ms", "requests_per_s": "1/s", "peak_rss_mb": "MB"}
        metrics = {name: {"value": result["metrics"][name], "unit": unit}
                   for name, unit in units.items()}
    final = {
        "correct": all(r["correct"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
    }
    report = {"workload": workload, "seed": seed, "seconds": args.seconds, "trace": args.trace,
              "inputs_fingerprint": fingerprint, "runs": runs, "result": final}
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{tag}.json").write_text(json.dumps(report, indent=1, sort_keys=True) + "\n",
                                         encoding="utf-8")
    for r in runs:
        for problem in r["problems"]:
            print(f"problem: {problem}")
        print(json.dumps({"samples": r["samples"], "checked": r["checked"],
                          "environment": r["environment"], "classes": r["classes"]},
                         sort_keys=True))
    if args.trace:
        table = _table(layers)
        (results / f"{tag}.layers.txt").write_text(table + "\n", encoding="utf-8")
        print(table)
    print(json.dumps(final, sort_keys=True))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=("data_scale", "query_scale", "serve_rw"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--record-fingerprints", type=int, metavar="N")
    parser.add_argument("--fingerprint-into", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program sources at {ROOT / 'src' / 'repro'}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from bench import inputs

    if args.self_test:
        from bench.oracle import run_self_test
        failures = run_self_test()
        print("oracle self-test:", "ok" if not failures else f"FAILED {failures}")
        return 1 if failures else 0
    if args.record_fingerprints:
        table: dict[str, dict[str, str]] = {}
        for workload in inputs.WORKLOADS:
            for seed in range(1, args.record_fingerprints + 1):
                into = WORK / "inputs" / f"{workload}-{seed}"
                inputs.generate(workload, seed, into)
                table.setdefault(workload, {})[str(seed)] = inputs.fingerprint(into)
        FINGERPRINTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n",
                                encoding="utf-8")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.fingerprint_into:
        inputs.generate(args.workload, args.seed, args.fingerprint_into)
        print(inputs.fingerprint(args.fingerprint_into))
        return 0
    try:
        return run(args)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
