"""Benchmark of the taxis-cascade simulator: time to solution next to accuracy.

    python3 perfbench/run.py --workload thm1-256 --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py            # every workload, one after another

Each repetition of a workload runs in a fresh single-process interpreter
(worker.py) with BLAS pinned to one thread, one repetition at a time, until
``--seconds`` have passed (at least three repetitions).  Every repetition is
checked for correctness; the end-to-end metrics are medians over the
repetitions.  ``--trace 1`` alternates untraced and traced repetitions and
reports the per-layer split, the tracing overhead and the self-time sum.
The last line of standard output is one JSON object.  The exit code is 0
when every correctness gate passed, 1 when one failed, and 2 when the
program cannot be found next to this directory.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
WORK = BENCH / ".work"

WORKLOADS = ("decay-40", "mms-128", "thm1-256")
MIN_REPS = 3
MIN_TRACE_REPS = 4              # two untraced, two traced
WORKER_TIMEOUT_S = 150
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}

# name -> unit, in BENCHMARK.json order
END_TO_END = {
    "setup_s": "s", "run_s": "s", "total_s": "s", "ms_per_step": "ms",
    "steps": "count", "peak_rss_mb": "MB", "err_l2_u": "l2", "err_l2_v": "l2",
    "err_l2_w": "l2", "ref_err_w": "rel",
}
SETUP_LAYERS = ("presets.config_s", "config.build_setup_s",
                "kinetics.validate_envelope_s")


def _worker(args: list[str]) -> tuple[dict, float]:
    """Run worker.py once; returns its record and the spawn time stamp."""
    env = dict(os.environ, **PINNED_ENV)
    spawned = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(WORKER), *args], env=env,
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"problems": [f"worker exceeded {WORKER_TIMEOUT_S} s"]}, spawned
    lines = proc.stdout.strip().splitlines()
    try:
        rec = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        rec = {"problems": [f"worker exited {proc.returncode} without a result: "
                            f"{proc.stderr.strip()[-2000:]}"]}
    if proc.returncode != 0:
        rec.setdefault("problems", []).append(f"worker exited {proc.returncode}")
    return rec, spawned


def _median(values):
    return statistics.median(values) if values else float("nan")


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """All repetitions of one workload; returns metrics, counts and problems."""
    for stale in WORK.glob("snap-*"):
        shutil.rmtree(stale, ignore_errors=True)
    base = ["--workload", name, "--seed", str(seed), "--work", str(WORK)]
    prep, _ = _worker(base + ["--prepare"])
    problems = list(prep.get("problems", []))
    if problems:
        return {"attempted": 1, "failed": 1, "problems": problems, "metrics": {},
                "env": prep.get("env", {})}
    if prep.get("ref_file"):
        base += ["--ref-file", prep["ref_file"]]

    reps = []
    start = time.monotonic()
    min_reps = MIN_TRACE_REPS if trace else MIN_REPS
    while len(reps) < min_reps or time.monotonic() - start < seconds:
        traced = trace and len(reps) % 2 == 1
        extra = ["--trace", "1", "--rep", str(len(reps)),
                 "--trace-file", str(WORK / f"trace-{name}-seed{seed}.csv")] if traced else []
        rec, spawned = _worker(base + extra)
        rec["traced"] = traced
        if "setup_done" in rec:
            wall = {"setup_s": rec["setup_done"] - spawned, "run_s": rec["run_s"],
                    "verify_s": rec["verify_s"]}
            wall["total_s"] = wall["setup_s"] + wall["run_s"] + wall["verify_s"]
            wall["ms_per_step"] = 1e3 * wall["run_s"] / rec["steps"]
            for key, value in wall.items():
                rec[f"wall.{key}"] = value
                rec[key] = value * rec["speed_factor"]
        reps.append(rec)

    good = [r for r in reps if not r.get("problems")]
    failed = len(reps) - len(good)
    problems = list(dict.fromkeys(p for r in reps for p in r.get("problems", [])))
    if len({r["final_digest"] for r in good}) > 1:
        problems.append("final state differs between repetitions of one seed")
    # when every repetition failed, still report what was measured
    measured = good or [r for r in reps if "setup_done" in r]
    untraced = [r for r in measured if not r["traced"]]
    traced = [r for r in measured if r["traced"]]

    metrics = {}
    if not trace:
        for key, unit in END_TO_END.items():
            metrics[key] = _summary([r[key] for r in untraced], unit)
        shown = {f"wall.{key}": _summary([r[f"wall.{key}"] for r in untraced], "s")
                 for key in ("setup_s", "run_s", "total_s")}
    else:
        shown = {}
        for key in SETUP_LAYERS:
            metrics[key] = _summary([r[key] for r in measured], "s")
        layer = [r["layers"] for r in traced]
        for key, unit in tracing.COUNT_METRICS.items():
            values = [lv[key] for lv in layer]
            if len(set(values)) > 1:
                problems.append(f"count {key} differs between repetitions: {values}")
            metrics[key] = _summary(values, unit)
        for key in tracing.SELF_TIME_LAYERS:
            metrics[f"{key}.self_s"] = _summary([lv[f"{key}.self_s"] for lv in layer], "s")
        metrics["weakform.load_trajectory_s"] = _summary(
            [lv["weakform.load_trajectory_s"] for lv in layer], "s")
        metrics["verify_s"] = _summary([r["wall.verify_s"] for r in untraced], "s")
        metrics["wall.setup_s"] = _summary([r["wall.setup_s"] for r in measured], "s")
        metrics["calibration_s"] = _summary([r["calibration_s"] for r in measured], "s")
        # calibrated times cancel host drift between the two kinds of repetition
        overhead = (_median([r["run_s"] for r in traced])
                    / _median([r["run_s"] for r in untraced]))
        unattributed = _median([1.0 - r["layers"]["trace.self_sum_s"] / r["wall.run_s"]
                                for r in traced])
        metrics["trace.run_s"] = _summary([r["wall.run_s"] for r in traced], "s")
        metrics["trace.untraced_run_s"] = _summary([r["wall.run_s"] for r in untraced], "s")
        metrics["trace.overhead"] = {"value": overhead, "unit": "ratio"}
        metrics["trace.self_sum_s"] = _summary(
            [r["layers"]["trace.self_sum_s"] for r in traced], "s")
        metrics["trace.unattributed_frac"] = {"value": unattributed, "unit": "ratio"}
        if not 0.0 <= unattributed <= max(overhead - 1.0, 0.005):
            problems.append(f"layer self times leave {unattributed:.2%} of the traced "
                            f"run unattributed, more than the overhead {overhead:.3f}")
    return {"attempted": len(reps), "failed": failed, "problems": problems,
            "metrics": metrics, "shown": shown, "env": reps[-1].get("env", {})}


def _summary(values, unit) -> dict:
    out = {"value": _median(values), "unit": unit}
    if values:
        out.update(n=len(values), min=min(values), max=max(values))
    return out


def _print_report(name: str, res: dict):
    print(f"== {name}: {res['attempted'] - res['failed']}/{res['attempted']} "
          f"repetitions passed, fail_frac {res['failed'] / res['attempted']:.3g}")
    print("env: " + json.dumps(res["env"], sort_keys=True))
    for key, m in {**res["metrics"], **res.get("shown", {})}.items():
        spread = (f"  (median of {m['n']}, range {m['min']:.6g}..{m['max']:.6g})"
                  if "n" in m else "")
        print(f"{key:36s} {m['value']:.6g} {m['unit']}{spread}")
    for p in res["problems"]:
        print(f"FAILED {name}: {p.strip()}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0,
                    help="measuring time per workload")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "taxis_cascade" / "__init__.py").is_file():
        print(f"error: no taxis_cascade sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    correct = True
    metrics = {}
    for name in names:
        res = run_workload(name, args.seed, args.seconds, bool(args.trace))
        _print_report(name, res)
        attempted += res["attempted"]
        failed += res["failed"]
        correct = correct and not res["problems"]
        prefix = "" if len(names) == 1 else f"{name}."
        for key, m in res["metrics"].items():
            metrics[prefix + key] = {"value": m["value"], "unit": m["unit"]}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
