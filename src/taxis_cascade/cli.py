"""Command line entry point: run, gate, mms, sweep-epsilon, verify-weak, preset.

Exit codes: 0 success (and, for `run`, all pass/fail monitors green),
1 validation or gate failure, 2 runtime abort with partial outputs.  Every
problem line comes from `main`: an input error, a refused gate, a file
that cannot be read or written (an ``OSError``) or a grid too large to
allocate (a ``MemoryError``), raised anywhere below it, is one ``error:``
line; a run that aborted, alone or inside a study (`mms`, `sweep-epsilon`),
is one ``aborted:`` line after whatever it printed.
"""

from __future__ import annotations

import argparse
import math
import sys
import tempfile
from contextlib import nullcontext
from dataclasses import dataclass, replace
from itertools import pairwise
from pathlib import Path

import numpy as np

from taxis_cascade import grid as gridmod
from taxis_cascade import kinetics as kin
from taxis_cascade import solver, weakform
from taxis_cascade.config import Config, format_config, load_config
from taxis_cascade.errors import DomainError, StructuralError, StudyAbortError
from taxis_cascade.presets import preset, preset_names

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_ABORT = 2


def _load_cfg(args) -> Config:
    """The config a command names, with its --t-end and --dt overrides applied."""
    if getattr(args, "preset", None):
        cfg = preset(args.preset).config
    elif getattr(args, "config", None):
        cfg = load_config(args.config)
    else:
        raise StructuralError("need a config file or --preset")
    overrides = {"t_end": getattr(args, "t_end", None), "fixed_dt": getattr(args, "dt", None)}
    return replace(cfg, **{k: v for k, v in overrides.items() if v is not None})


def _require_existence(params, hint: str = "") -> None:
    """Refuse parameters outside the global-existence hypotheses, naming the
    failing margins."""
    gate = kin.global_existence_gate(params.kinetics)
    if not gate.passed:
        raise DomainError("global-existence gate failed (" + ", ".join(
            f"{check} margin={gate.margins[check]:.6g}"
            for check, ok in gate.checks.items() if not ok) + ")" + hint)


def _parse_list(text: str, kind, option: str) -> list:
    """Comma-separated numbers of one type; anything else is a StructuralError."""
    try:
        return [kind(s) for s in text.split(",")]
    except ValueError:
        raise StructuralError(
            f"{option} needs comma-separated {kind.__name__} values, got {text!r}") from None


def _print_gate(name, gate):
    verdict = "pass" if gate.passed else "FAIL"
    print(f"{name}: {verdict}")
    for check, ok in gate.checks.items():
        margin = gate.margins[check]
        flag = "" if ok else "  <-- fails"
        edge = "  (knife-edge)" if check in gate.knife_edge else ""
        print(f"  {check:24s} {'ok' if ok else 'violated':8s} margin={margin:.6g}{flag}{edge}")


def cmd_run(args) -> int:
    cfg = _load_cfg(args)
    if args.out:
        cfg = replace(cfg, out_dir=args.out)
    setup = cfg.build_setup()
    if not args.force:
        _require_existence(setup.params, "; use --force to integrate anyway")
    result = solver.run(setup)
    failures = result.report.failures()
    step_violations = sum(s.violations for s in result.step_checks.values())
    print(f"run {cfg.label}: steps={result.steps} t={result.final_state.t:.6g} "
          f"clamps={result.total_clamps} wall={result.wall_time:.1f}s")
    if result.decay is not None and result.decay.detected:
        print(f"  nutrient decay below {setup.monitor_delta:g} at t={result.decay.t_detect:.4g}")
    if result.regularity is not None:
        print(f"  eventual-regularity verdict: "
              f"{'regularized' if result.regularity.regularized else 'not regularized'}")
    if not result.completed:
        raise StudyAbortError(result.failure)
    if failures or step_violations:
        print(f"monitor failures: {len(failures)} report entries, "
              f"{step_violations} per-step violations", file=sys.stderr)
        for e in failures[:10]:
            print(f"  t={e.t:.4g} {e.check} value={e.value:.6g} bound={e.bound:.6g}",
                  file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


def cmd_gate(args) -> int:
    params = _load_cfg(args).build_params()
    ks = params.kinetics
    env = kin.validate_envelope(ks)
    print(f"envelope: {'holds' if env.holds else 'VIOLATED'} "
          f"(worst margin {env.worst_margin:.3e} at s={env.worst_point:.4g}, "
          f"{env.worst_check})")
    gate1 = kin.global_existence_gate(ks)
    gate2 = kin.eventual_regularity_gate(ks, params)
    _print_gate("global-existence gate", gate1)
    _print_gate("eventual-regularity gate", gate2)
    return EXIT_OK if (env.holds and gate1.passed) else EXIT_VALIDATION


# --- manufactured-solution convergence study ------------------------------


def mms_config(nx: int, t_end: float = 0.25, dt_coeff: float = 1.0,
               mms: "solver.MmsSpec | None" = None) -> Config:
    mms = mms or solver.shipped_mms()
    h = 1.0 / nx
    return Config(
        nx=nx, ny=nx, Lx=1.0, Ly=1.0,
        t_end=t_end, dt_max=1.0, safety=1.0, fixed_dt=dt_coeff * h * h,
        mu=0.3, epsilon=0.0,
        f_law="purepower(1.0, 1.0, 3.0)", g_law="purepower(1.0, 1.0, 3.0)",
        profile="constant", amplitude=0.0,
        cadence=t_end,
        mms_u=mms.u, mms_v=mms.v, mms_w=mms.w,
        label=f"mms-{nx}",
    )


@dataclass
class MmsLevel:
    nx: int
    h: float
    dt: float
    steps: int
    wall_time: float
    errors: dict


@dataclass
class MmsStudy:
    levels: list
    orders_l2: dict      # least-squares order per unknown, None when exact

    def table_rows(self):
        yield ("nx,h,dt,steps,err_l2_u,err_l2_v,err_l2_w,"
               "err_linf_u,err_linf_v,err_linf_w,wall_s")
        for lv in self.levels:
            e = lv.errors
            yield (f"{lv.nx},{lv.h!r},{lv.dt!r},{lv.steps},"
                   f"{e['l2_u']!r},{e['l2_v']!r},{e['l2_w']!r},"
                   f"{e['linf_u']!r},{e['linf_v']!r},{e['linf_w']!r},"
                   f"{lv.wall_time:.2f}")
        for name in ("u", "v", "w"):
            o = self.orders_l2[name]
            if o is None:
                label = "exact"
            elif isinstance(o, float) and math.isnan(o):
                label = "n/a"
            else:
                label = repr(o)
            yield f"order_l2_{name},{label}"


def _check_span(t_end: float) -> None:
    """A study compares states at t_end: over no time it has nothing to compare."""
    if not t_end > 0:
        raise DomainError(f"a study needs t_end > 0, got {t_end}")


def mms_study(levels, t_end: float = 0.25, dt_coeff: float = 1.0,
              out_root=None, mms: "solver.MmsSpec | None" = None) -> MmsStudy:
    """Integrate the manufactured problem at each level, report errors/orders."""
    if any(b <= a for a, b in zip(levels, levels[1:])):
        raise StructuralError("levels must be strictly ascending")
    _check_span(t_end)
    rows = []
    for nx in levels:
        cfg = mms_config(nx, t_end=t_end, dt_coeff=dt_coeff, mms=mms)
        out_dir = Path(out_root) / f"mms-{nx}" if out_root else None
        setup = cfg.build_setup(out_dir=out_dir)
        result = solver.run(setup)
        if not result.completed:
            raise StudyAbortError(f"mms level {nx}: {result.failure}")
        g = setup.grid
        exact = setup.params.mms.fields(g, result.final_state.t)
        errors = {}
        for name, num, ex in zip("uvw", (result.final_state.u, result.final_state.v,
                                         result.final_state.w), exact):
            errors[f"l2_{name}"] = gridmod.norm_lp(num - ex, g, 2)
            errors[f"linf_{name}"] = gridmod.norm_linf(num - ex)
        rows.append(MmsLevel(nx=nx, h=g.hx, dt=cfg.fixed_dt, steps=result.steps,
                             wall_time=result.wall_time, errors=errors))
    orders = {}
    for name in ("u", "v", "w"):
        errs = np.array([lv.errors[f"l2_{name}"] for lv in rows])
        hs = np.array([lv.h for lv in rows])
        if np.all(errs < 1e-12):
            orders[name] = None      # rounding level: reported as exact
        elif len(rows) < 2:
            orders[name] = math.nan  # a single level has no observable order
        else:
            orders[name] = float(np.polyfit(np.log(hs), np.log(errs), 1)[0])
    return MmsStudy(levels=rows, orders_l2=orders)


def cmd_mms(args) -> int:
    levels = _parse_list(args.levels, int, "--levels")
    study = mms_study(levels, t_end=args.t_end, dt_coeff=args.dt_coeff,
                      out_root=args.out)
    lines = list(study.table_rows())
    print("\n".join(lines))
    if args.out:
        Path(args.out).mkdir(parents=True, exist_ok=True)
        (Path(args.out) / "mms.csv").write_text("\n".join(lines) + "\n")
    return EXIT_OK


# --- epsilon robustness sweep ----------------------------------------------


# the snapshot spacing of every sweep member, whose trajectories the
# differences integrate in time
SWEEP_SNAPSHOT_EVERY = 0.1


@dataclass
class SweepResult:
    diffs: list  # rows (eps_hi, eps_lo, du_l2, dv_l1, dw_l2)

    def table_rows(self):
        yield "eps_hi,eps_lo,du_l2,dv_l1,dw_l2"
        for row in self.diffs:
            yield ",".join(repr(float(x)) for x in row)

    def strictly_decreasing(self) -> dict:
        """Per difference column, whether it strictly decreases down the
        rows; None with fewer than two rows, which have nothing to compare."""
        out = {}
        for j, name in ((2, "u_l2"), (3, "v_l1"), (4, "w_l2")):
            vals = [row[j] for row in self.diffs]
            out[name] = all(a > b for a, b in zip(vals, vals[1:])) if len(vals) > 1 else None
        return out


def _traj_diff(traj_a, traj_b):
    """Space-time differences between two snapshot-aligned trajectories."""
    if len(traj_a) != len(traj_b) or np.max(np.abs(
            np.asarray(traj_a.times) - np.asarray(traj_b.times))) > 1e-9:
        raise StructuralError("sweep trajectories are not time-aligned")
    g = traj_a.grid
    w = weakform.time_weights(traj_a.times)
    du2 = dv1 = dw2 = 0.0
    for i in range(len(traj_a)):
        ua, va, wa = traj_a.load(i)
        ub, vb, wb = traj_b.load(i)
        du2 += w[i] * gridmod.integrate((ua - ub) ** 2, g)
        dv1 += w[i] * gridmod.integrate(np.abs(va - vb), g)
        dw2 += w[i] * gridmod.integrate((wa - wb) ** 2, g)
    return math.sqrt(du2), dv1, math.sqrt(dw2)


def sweep_epsilon(cfg: Config, eps_list, out_root=None) -> SweepResult:
    """Identical runs per epsilon on one shared fixed time grid.

    Adaptive stepping would give each member its own step sequence and bury
    the O(eps) Cauchy differences in step noise, so dt is frozen: the
    config's ``fixed_dt`` when it sets one, else half the suggested step of
    the initial state.  Every member is set up, and so admitted, before the
    first one runs, and a config that fails the global-existence gate is
    refused, as ``run`` refuses it unforced; a row's epsilons are the listed
    ones, and each member's trajectory is read once, with at most two held
    at a time.  Members run to the config's ``t_end`` and write snapshots
    every SWEEP_SNAPSHOT_EVERY.
    """
    if len(eps_list) < 2:
        raise StructuralError(f"an epsilon sweep needs at least two epsilons, got {len(eps_list)}")
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise StructuralError("epsilon list must be strictly descending")
    _check_span(cfg.t_end)
    if cfg.fixed_dt is None:
        probe = replace(cfg, epsilon=eps_list[0]).build_setup()
        st0 = solver.State(probe.initial.u0, probe.initial.v0, probe.initial.w0)
        cfg = replace(cfg, fixed_dt=0.5 * solver.suggest_dt(
            st0, probe.params, probe.grid, probe.control))
    with (nullcontext(out_root) if out_root is not None
          else tempfile.TemporaryDirectory(prefix="taxis-sweep-")) as root:
        setups = [replace(cfg, epsilon=eps, snapshot_every=SWEEP_SNAPSHOT_EVERY,
                          label=f"{cfg.label}-eps{eps:g}",
                          out_dir=str(Path(root) / f"member{k}-eps{eps:g}")).build_setup()
                  for k, eps in enumerate(eps_list)]
        _require_existence(setups[0].params)
        for eps, setup in zip(eps_list, setups):
            result = solver.run(setup)
            if not result.completed:
                raise StudyAbortError(f"sweep member eps={eps}: {result.failure}")
        trajs = map(weakform.load_trajectory, (setup.out_dir for setup in setups))
        return SweepResult(diffs=[
            (eps_a, eps_b, *_traj_diff(ta, tb))
            for (eps_a, ta), (eps_b, tb) in pairwise(zip(eps_list, trajs))])


def cmd_sweep(args) -> int:
    cfg = _load_cfg(args)
    eps_list = _parse_list(args.eps, float, "--eps")
    sweep = sweep_epsilon(cfg, eps_list, out_root=args.out)
    lines = list(sweep.table_rows())
    print("\n".join(lines))
    mono = sweep.strictly_decreasing()
    print("strictly decreasing: " + ", ".join(
        f"{k}={'n/a' if v is None else v}" for k, v in mono.items()))
    if args.out:
        (Path(args.out) / "sweep.csv").write_text("\n".join(lines) + "\n")
    return EXIT_OK


# --- weak-form verification -------------------------------------------------


def verify_weak(traj_dir, out_csv=None):
    """Evaluate the three identities over the shipped basis plus the mass rows."""
    # the weak-form integrands run the grid kernels, as a run does
    solver._settle_heap()
    if out_csv is not None:
        # checked before the quadrature, which would otherwise run in vain
        out = Path(out_csv)
        if out.is_dir():
            raise StructuralError(f"cannot write {out}: it is a directory")
        if not out.parent.is_dir():
            raise StructuralError(f"cannot write {out}: no directory {out.parent}")
    traj = weakform.load_trajectory(traj_dir)
    if len(traj) < 2:
        # the basis lives on [0, t_end]; a zero span leaves it no support
        raise StructuralError(f"{traj_dir}: trajectory spans no time "
                              f"(one snapshot, at t={traj.t_end:g})")
    basis = weakform.default_basis(traj.t_end)
    identities, mass_rows = weakform.evaluate(traj, basis)
    rows = []
    for fn, ids in zip(basis, identities):
        rows.append((fn.name, "u_identity", ids.u, ids.budget, abs(ids.u) <= ids.budget))
        rows.append((fn.name, "w_identity", ids.w, ids.budget, abs(ids.w) <= ids.budget))
        rows.append((fn.name, "v_inequality", ids.v, ids.v_budget, ids.v >= -ids.v_budget))
    _, slack, ok = min(mass_rows, key=lambda r: r[1])
    rows.append(("-", "mass_inequality", slack, weakform.MASS_TOL, ok))
    lines = ["test_fn,identity,value,budget,pass"]
    lines += [f"{n},{ident},{v!r},{b!r},{'true' if ok else 'false'}"
              for n, ident, v, b, ok in rows]
    if out_csv is not None:
        Path(out_csv).write_text("\n".join(lines) + "\n")
    return rows, lines


def cmd_verify_weak(args) -> int:
    rows, lines = verify_weak(args.traj, args.out)
    print("\n".join(lines))
    return EXIT_OK if all(r[4] for r in rows) else EXIT_VALIDATION


def cmd_preset(args) -> int:
    if args.action == "list":
        for name in preset_names():
            p = preset(name)
            params = p.config.build_params()
            gate1 = kin.global_existence_gate(params.kinetics)
            gate2 = kin.eventual_regularity_gate(params.kinetics, params)
            print(f"{name:22s} existence={'pass' if gate1.passed else 'fail'} "
                  f"regularity={'pass' if gate2.passed else 'fail'}  {p.description}")
        return EXIT_OK
    if not args.name:
        raise StructuralError("preset show needs a name")
    print(format_config(preset(args.name).config), end="")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="taxis-cascade",
                                 description="forager-exploiter taxis cascade simulator")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_config_args(p):
        p.add_argument("config", nargs="?", help="INI config file")
        p.add_argument("--preset", help="named preset instead of a config file")

    p = sub.add_parser("run", help="integrate a configuration with monitors")
    add_config_args(p)
    p.add_argument("--force", action="store_true",
                   help="integrate even when the parameter gate fails")
    p.add_argument("--out", help="output directory override")
    p.add_argument("--t-end", type=float, dest="t_end", help="override t_end")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("gate", help="evaluate parameter gates only")
    add_config_args(p)
    p.set_defaults(func=cmd_gate)

    p = sub.add_parser("mms", help="manufactured-solution convergence study")
    p.add_argument("--levels", default="32,64,128", help="comma-separated nx values")
    p.add_argument("--t-end", type=float, dest="t_end", default=0.25)
    p.add_argument("--dt-coeff", type=float, dest="dt_coeff", default=1.0,
                   help="dt = coeff * h^2")
    p.add_argument("--out", help="directory for mms.csv and run outputs")
    p.set_defaults(func=cmd_mms)

    p = sub.add_parser("sweep-epsilon", help="regularization robustness sweep")
    add_config_args(p)
    p.add_argument("--eps", default="1e-1,1e-2,1e-3,1e-4",
                   help="strictly descending comma-separated epsilons")
    p.add_argument("--t-end", type=float, dest="t_end", default=None)
    p.add_argument("--dt", type=float, default=None,
                   help="shared fixed step (overrides [time] fixed_dt)")
    p.add_argument("--out", help="output root (default: temporary)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("verify-weak", help="evaluate solution identities on a trajectory")
    p.add_argument("--traj", required=True, help="run directory with snapshots")
    p.add_argument("--out", default="weakform.csv")
    p.set_defaults(func=cmd_verify_weak)

    p = sub.add_parser("preset", help="list or show canonical configurations")
    p.add_argument("action", choices=["list", "show"])
    p.add_argument("name", nargs="?")
    p.set_defaults(func=cmd_preset)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (StructuralError, DomainError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except StudyAbortError as exc:
        print(f"aborted: {exc}", file=sys.stderr)
        return EXIT_ABORT


if __name__ == "__main__":
    sys.exit(main())
