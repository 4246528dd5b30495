"""One repetition of one workload, in a fresh process; prints one JSON line.

Started by run.py with BLAS pinned to one thread in its environment.  It
imports the program from the checkout's ``src/``, sets the run up, runs it,
checks the result and reports its timings, counts and errors.  With
``--trace 1`` it instruments the program's layer boundaries first
(tracing.py) and adds the per-layer split.  ``--prepare`` instead makes sure
the workload's fine-dt reference exists under ``--work``, outside any timing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def _env_record():
    import platform

    import numpy
    import scipy

    digest = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(p.relative_to(ROOT)).encode() + b"\0" + p.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "src_sha256": digest.hexdigest()[:16],
    }


def run_once(args) -> dict:
    """Set up, run and check one repetition; times come from perf_counter."""
    import shutil
    import tempfile

    import numpy as np

    import calibration
    import workloads
    from taxis_cascade import cli, kinetics, solver
    from taxis_cascade import grid as gridmod

    wl = workloads.WORKLOADS[args.workload]
    rec = {"problems": []}
    work = Path(args.work)
    out_dir = tempfile.mkdtemp(prefix="snap-", dir=work) if wl.snapshots else None

    t0 = time.perf_counter()
    cfg = workloads.make_config(wl, args.seed, out_dir)
    t1 = time.perf_counter()
    setup = cfg.build_setup()
    t2 = time.perf_counter()
    envelope = kinetics.validate_envelope(setup.params.kinetics)
    t3 = time.perf_counter()
    gate1 = kinetics.global_existence_gate(setup.params.kinetics)
    gate2 = kinetics.eventual_regularity_gate(setup.params.kinetics, setup.params)
    rec["setup_done"] = time.monotonic()
    rec["presets.config_s"] = t1 - t0
    rec["config.build_setup_s"] = t2 - t1
    rec["kinetics.validate_envelope_s"] = t3 - t2
    if not (envelope.holds and gate1.passed):
        rec["problems"].append("envelope or global-existence gate failed")
    if wl.snapshots and not gate2.passed:
        rec["problems"].append("eventual-regularity gate failed")
    kernel = calibration.Kernel(wl.n)
    cal_before = kernel.chunk_times()

    tracer = inst = None
    if args.trace:
        import tracing
        from taxis_cascade import config, monitors, weakform

        tracer = tracing.Tracer()
        modules = {"solver": solver, "grid": gridmod, "monitors": monitors,
                   "weakform": weakform, "config": config, "cli": cli,
                   "kinetics": kinetics}
        inst = tracing.Instrumentation(modules, tracer).install()
        tracer.run_id = args.rep
        tracer.enabled = True

    final = None
    try:
        t4 = time.perf_counter()
        if wl.preset is None:
            study = cli.mms_study([wl.n], t_end=wl.t_end, mms=workloads.mms_spec(args.seed))
            t5 = time.perf_counter()
            level = study.levels[0]
            steps = level.steps
            acc = workloads.mms_accuracy(wl, args.seed, level.errors)
            rec["final_digest"] = repr(sorted(level.errors.items()))
        else:
            result = solver.run(setup)
            t5 = time.perf_counter()
            steps = result.steps
            rec["problems"] += workloads.run_problems(wl, result)
            st = result.final_state
            final = {"u": st.u, "v": st.v, "w": st.w}
            rec["final_digest"] = hashlib.sha256(
                st.u.tobytes() + st.v.tobytes() + st.w.tobytes()).hexdigest()
        t6 = time.perf_counter()
        if wl.snapshots:
            rows, _ = cli.verify_weak(out_dir)
            failed_rows = [r for r in rows if not r[4]]
            if failed_rows:
                rec["problems"].append(f"{len(failed_rows)} verify_weak rows fail, "
                                       f"first {failed_rows[0][:2]}")
        t7 = time.perf_counter()
    finally:
        if tracer is not None:
            tracer.enabled = False
            inst.restore()
        if out_dir is not None:
            shutil.rmtree(out_dir, ignore_errors=True)

    rec["calibration_s"] = 0.5 * sum(cal_before + kernel.chunk_times())
    rec["speed_factor"] = wl.calibration_ref_s / rec["calibration_s"]
    rec["run_s"] = t5 - t4
    rec["verify_s"] = t7 - t6
    rec["steps"] = steps
    if final is not None:
        ref = dict(np.load(args.ref_file))
        acc = workloads.accuracy(final, ref, setup.grid)
    rec.update(acc)
    rec["problems"] += workloads.accuracy_problems(wl, acc, final)
    rec["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        rec["layers"] = inst.metrics(steps)
        if args.trace_file:
            tracer.write_csv(args.trace_file)
    return rec


def prepare(args) -> dict:
    """Make sure the workload's fine-dt reference exists; build it if not."""
    import numpy as np

    import workloads

    wl = workloads.WORKLOADS[args.workload]
    if wl.ref_dt is None:
        return {"problems": [], "ref_file": None}
    path = Path(args.work) / "refs" / (workloads.reference_key(wl, args.seed) + ".npz")
    rec = {"problems": [], "ref_file": str(path)}
    if not path.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = time.perf_counter()
        ref = workloads.build_reference(wl, args.seed)
        tmp = path.with_name(path.stem + ".partial.npz")
        np.savez(tmp, u=ref["u"], v=ref["v"], w=ref["w"])
        os.replace(tmp, path)
        rec.update(reference_s=time.perf_counter() - t0, reference_steps=ref["steps"])
    return rec


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--rep", type=int, default=0, help="run id recorded in spans")
    ap.add_argument("--work", required=True, help="scratch directory inside the checkout")
    ap.add_argument("--ref-file", help="fine-dt reference (.npz) to compare against")
    ap.add_argument("--trace-file", help="where to write the spans (CSV)")
    ap.add_argument("--prepare", action="store_true",
                    help="only make sure the fine-dt reference exists")
    args = ap.parse_args(argv)
    try:
        rec = prepare(args) if args.prepare else run_once(args)
        rec["env"] = _env_record()
    except Exception:  # reported to run.py, which counts the repetition as failed
        rec = {"problems": ["exception: " + traceback.format_exc()]}
    print(json.dumps(rec))
    return 0


if __name__ == "__main__":
    sys.exit(main())
