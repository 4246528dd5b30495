"""Acceptance suite: one test per criterion, one printed verdict line each.

Preset runs are session-scoped and shared across criteria; snapshot cadences
are densified so the weak-form quadratures see the trajectories properly.
Every tolerance is pinned here, none are calibrated at runtime.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from oracles import (MASS_LAW_TOL, comparison_ode_bound, peak_of_forced_decay,
                     v_mass_residual, windowed_forcing)
from taxis_cascade import kinetics as K
from taxis_cascade import monitors as M
from taxis_cascade import solver as S
from taxis_cascade import weakform as W
from taxis_cascade.cli import mms_config, mms_study, sweep_epsilon
from taxis_cascade.config import Config
from taxis_cascade.presets import preset


def _verdict(num, name, ok, detail=""):
    print(f"criterion {num:02d} ({name}): {'PASS' if ok else 'FAIL'}"
          + (f" -- {detail}" if detail else ""))
    assert ok, f"criterion {num} ({name}): {detail}"


def _run_preset(name, workdir, snapshot_every, **overrides):
    cfg = replace(preset(name).config, out_dir=str(workdir / name),
                  snapshot_every=snapshot_every, **overrides)
    result = S.run(cfg.build_setup())
    assert result.completed, f"{name} aborted: {result.failure}"
    # every report margin (mass, supersolution, window integrals, identity)
    # must be nonnegative up to its stated tolerance on admissible presets
    bad = result.report.failures()
    assert not bad, f"{name}: {[(e.check, e.t) for e in bad[:5]]}"
    return result


@pytest.fixture(scope="session")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


@pytest.fixture(scope="session")
def thm1_core_run(workdir):
    return _run_preset("thm1-core", workdir, snapshot_every=0.02)


@pytest.fixture(scope="session")
def allee_run(workdir):
    return _run_preset("allee", workdir, snapshot_every=0.02)


@pytest.fixture(scope="session")
def thm2_run(workdir):
    return _run_preset("thm2-decay", workdir, snapshot_every=0.025)


@pytest.fixture(scope="session")
def subquadratic_run(workdir):
    # exercised at reduced horizon; criteria 8/11 cover every runnable preset
    return _run_preset("thm1-subquadratic-g", workdir, snapshot_every=0.02,
                       t_end=4.0)


@pytest.fixture(scope="session")
def preset_runs(thm1_core_run, allee_run, thm2_run, subquadratic_run):
    return {"thm1-core": thm1_core_run, "allee": allee_run,
            "thm2-decay": thm2_run, "thm1-subquadratic-g": subquadratic_run}


@pytest.fixture(scope="session")
def mms_results():
    return mms_study([32, 64, 128], t_end=0.25, dt_coeff=1.0)


@pytest.fixture(scope="session")
def mms_weakform_pair(workdir):
    trajs = {}
    for nx, snap in ((32, 0.025), (64, 0.0125)):
        cfg = mms_config(nx, t_end=0.25, dt_coeff=1.0, snapshot_every=snap)
        cfg = replace(cfg, out_dir=str(workdir / f"wf-mms-{nx}"))
        result = S.run(cfg.build_setup())
        assert result.completed
        trajs[nx] = W.load_trajectory(cfg.out_dir)
    return trajs


def _mass_bound_ok(res):
    series = res.series
    star_u, star_v = res.consts.u_star, res.consts.v_star
    ok_u = np.all(series["mass_u"] <= star_u * (1.0 + 1e-6)
                  + 10.0 * series["dt"] * star_u)
    ok_v = np.all(series["mass_v"] <= star_v * (1.0 + 1e-6)
                  + 10.0 * series["dt"] * star_v)
    return bool(ok_u and ok_v)


def test_criterion_01_mms_convergence(mms_results):
    orders = mms_results.orders_l2
    total_wall = sum(lv.wall_time for lv in mms_results.levels)
    ok_orders = all(orders[n] is not None and orders[n] >= 1.8 for n in "uvw")
    ok_time = total_wall < 120.0
    _verdict(1, "mms convergence", ok_orders and ok_time,
             f"L2 orders u={orders['u']:.3f} v={orders['v']:.3f} "
             f"w={orders['w']:.3f}, wall {total_wall:.1f}s < 120s")


def test_criterion_02_mass_bounds(thm1_core_run, allee_run):
    ok1 = _mass_bound_ok(thm1_core_run)
    ok2 = _mass_bound_ok(allee_run)
    viol = (sum(thm1_core_run.step_checks[c].violations for c in ("mass_u", "mass_v"))
            + sum(allee_run.step_checks[c].violations for c in ("mass_u", "mass_v")))
    _verdict(2, "mass ceilings", ok1 and ok2 and viol == 0,
             f"thm1-core u*={thm1_core_run.consts.u_star:.3f} "
             f"allee u*={allee_run.consts.u_star:.3f}, 0 violations over [0,20]")


def test_criterion_03_w_supersolution(preset_runs):
    details = []
    ok = True
    for name, res in preset_runs.items():
        if res.setup.params.mu <= 0:
            continue
        s = res.series
        ok_bar = np.all(s["linf_w"] <= s["wbar"] + 1e-6 + 10.0 * s["dt"])
        ok_star = np.all(s["linf_w"] <= res.consts.w_star + 1e-8)
        ok = ok and bool(ok_bar and ok_star)
        details.append(f"{name}: max ||w|| {s['linf_w'].max():.4f} <= "
                       f"w*={res.consts.w_star:.4f}")
    _verdict(3, "nutrient supersolution", ok and details, "; ".join(details))


def _homogeneous_identity_run(dt):
    cfg = Config(nx=8, ny=8, t_end=1.0, fixed_dt=dt, mu=0.0, epsilon=0.0,
                 f_law="purepower(1.0, 1.0, 3.0)", g_law="purepower(1.0, 1.0, 3.0)",
                 profile="constant", amplitude=0.0,
                 init_u="constant(1.0)", init_v="constant(2.0)",
                 init_w="constant(0.0)", cadence=1.0, label=f"identity-{dt}")
    res = S.run(cfg.build_setup())
    assert res.completed
    _, rel = v_mass_residual(res.series["t"], res.series["int_g_v"],
                             res.series["int_abs_g_v"], res.series["mass_v"])
    return rel


def test_criterion_04_v_mass_identity():
    rel1 = _homogeneous_identity_run(1e-3)
    rel2 = _homogeneous_identity_run(5e-4)
    ratio = rel1 / rel2
    ok = rel1 <= 1e-3 and 1.7 <= ratio <= 2.3
    _verdict(4, "exploiter mass identity", ok,
             f"relative residual {rel1:.3e} at dt=1e-3, dt-halving ratio {ratio:.3f}")


def test_criterion_05_nutrient_decay(thm2_run):
    res = thm2_run
    det = res.decay
    s = res.series
    ok_detect = det is not None and det.detected and det.t_detect < 40.0
    later = s["linf_w"][s["t"] > det.t_detect] if ok_detect else np.array([1.0])
    ok_below = bool(np.all(later < 1e-2))
    tail = det.tail_w_integral + det.tail_consumption if ok_detect else math.inf
    ok_tail = tail < 1e-1
    _verdict(5, "nutrient decay", ok_detect and ok_below and ok_tail,
             f"T={det.t_detect:.3f} < 40, tail mass+consumption {tail:.4f} < 0.1")


def test_criterion_06_eventual_regularity(thm2_run):
    fp = M.pick_theta_delta(2.0)
    margins = fp.margins()
    ok_params = all(m > 0 for m in margins.values())
    reg = thm2_run.regularity
    tracked = ("weighted_functional", "linf_u", "linf_v", "seminorm_u_w24")
    ok_slopes = (reg is not None
                 and all(reg.slopes.get(k, math.inf) <= 1e-3 for k in tracked))
    detail = (f"theta={fp.theta:.6g} delta={fp.delta:.6g} quotient margin "
              f"{margins['quotient_inequality']:.4f}; tail slopes "
              + ", ".join(f"{k}={reg.slopes[k]:.2e}" for k in tracked))
    _verdict(6, "eventual regularity proxy", ok_params and ok_slopes, detail)


def test_criterion_07_epsilon_robustness(workdir):
    sweep = sweep_epsilon(preset("thm1-core").config, [1e-1, 1e-2, 1e-3, 1e-4],
                          t_end=2.0, out_root=str(workdir / "sweep"))
    mono = sweep.strictly_decreasing()
    ok = all(mono.values())
    pairs = "; ".join(f"{r[0]:g}->{r[1]:g}: u={r[2]:.2e} v={r[3]:.2e} w={r[4]:.2e}"
                      for r in sweep.diffs)
    _verdict(7, "epsilon robustness", ok, pairs)


def test_criterion_08_weakform_consistency(mms_weakform_pair, preset_runs):
    def basis_maxima(traj):
        ids = [W.identities(traj, fn) for fn in W.default_basis(traj.t_end)]
        return {k: max(abs(getattr(i, k)) for i in ids) for k in "uwv"}

    coarse = basis_maxima(mms_weakform_pair[32])
    fine = basis_maxima(mms_weakform_pair[64])
    orders = {k: math.log2(coarse[k] / fine[k]) for k in coarse}
    ok_orders = all(o >= 1.0 for o in orders.values())

    ok_presets = True
    worst_slack = math.inf
    for name, res in preset_runs.items():
        traj = W.load_trajectory(res.setup.out_dir)
        for fn in W.default_basis(traj.t_end):
            ids = W.identities(traj, fn)
            ok_presets = ok_presets and ids.v >= -ids.v_budget
        slack = min(s for _, s, _ in W.check_mass_inequality(traj))
        worst_slack = min(worst_slack, slack)
        ok_presets = ok_presets and slack >= -1e-3
    _verdict(8, "weak-form consistency", ok_orders and ok_presets,
             f"refinement orders u={orders['u']:.2f} w={orders['w']:.2f} "
             f"v={orders['v']:.2f} (>=1); worst mass slack {worst_slack:.2e} >= -1e-3")


def test_criterion_09_ode_comparison_ceilings():
    rng = np.random.default_rng(2024)
    ok = True
    for _ in range(100):
        a = float(rng.uniform(0.2, 5.0))
        C = float(rng.uniform(0.1, 3.0))
        y0 = float(rng.uniform(0.0, 3.0))
        values, edges = windowed_forcing(rng, C, t_end=6.0, piece=0.25)
        bound = comparison_ode_bound(y0, a, C)
        ok = ok and peak_of_forced_decay(y0, a, values, edges) <= bound + 1e-8
    for _ in range(20):
        alpha = float(rng.uniform(1.5, 4.0))
        Kc = float(rng.uniform(0.2, 3.0))
        L = float(rng.uniform(0.0, 2.0))
        vol = float(rng.uniform(0.3, 4.0))
        y0 = float(rng.uniform(0.0, 5.0))
        star = M.mass_ode_star(alpha, Kc, L, vol, y0)
        rate = Kc / vol ** (alpha - 1.0)
        sol = solve_ivp(lambda t, y: -rate * np.abs(y) ** alpha + L * vol,
                        (0.0, 10.0), [y0], method="Radau", rtol=1e-10,
                        atol=1e-12, dense_output=True)
        peak = float(np.max(sol.sol(np.linspace(0.0, 10.0, 2000))[0]))
        ok = ok and peak <= star + 1e-8
    _verdict(9, "comparison ode ceilings", ok,
             "100 windowed-forcing + 20 mass-ode instances dominated")


def test_criterion_10_gate_truth_table():
    def pp(alpha, beta):
        return K.KineticSpec.from_laws(K.PurePower(1.0, 1.0, alpha),
                                       K.PurePower(1.0, 1.0, beta))

    def params(spec, mu, lam):
        return S.ModelParams(mu=mu, epsilon=0.0, kinetics=spec,
                             resupply=K.ResupplySpec(profile="constant",
                                                     amplitude=0.3,
                                                     decay_lambda=lam))

    cases = [
        K.global_existence_gate(pp(4.0, 2.0)).passed is True,
        K.global_existence_gate(pp(2.5, 2.0)).passed is False,
        K.global_existence_gate(pp(3.0, 3.0)).passed is True,
        K.eventual_regularity_gate(pp(3.0, 3.0), params(pp(3.0, 3.0), 0.5, 1.0)).passed is True,
        K.eventual_regularity_gate(pp(3.0, 2.0), params(pp(3.0, 2.0), 0.5, 1.0)).passed is False,
        K.eventual_regularity_gate(pp(3.0, 3.0), params(pp(3.0, 3.0), 0.0, 1.0)).passed is False,
    ]
    _verdict(10, "parameter gate truth table", all(cases),
             "6/6 tabulated verdicts exact")


def _mass_law_defects(res, mass, growth):
    """|defect| of each step's discrete mass law, for the scheme that took
    it, and the number of SBDF2 steps.

    Neumann diffusion and the taxis flux conserve mass, so an Euler step
    keeps m1 - m0 = dt F0 and an SBDF2 step of ratio omega keeps
    c m1 - (1 + omega) m0 + omega^2 / (1 + omega) m_prev
    = dt ((1 + omega) F0 - omega F_prev), F the integral of the growth law.
    A run at a fixed dt takes Euler steps; in an adaptive one
    ``solver.sbdf2_ratio`` on the recorded steps says which step was which.
    """
    s = res.series
    m, f, dt = s[mass], s[growth], s["dt"]
    sbdf2 = res.setup.fixed_dt is None
    defects = []
    euler_steps = 0
    for i in range(1, len(m)):
        omega = S.sbdf2_ratio(dt[i], dt[i - 1]) if sbdf2 else None
        if omega is None:
            defects.append(m[i] - m[i - 1] - dt[i] * f[i - 1])
            euler_steps += 1
            continue
        c = (1.0 + 2.0 * omega) / (1.0 + omega)
        defects.append(c * m[i] - (1.0 + omega) * m[i - 1]
                       + omega**2 / (1.0 + omega) * m[i - 2]
                       - dt[i] * ((1.0 + omega) * f[i - 1] - omega * f[i - 2]))
    return np.abs(defects), len(m) - 1 - euler_steps


def test_criterion_11_positivity_and_conservation(preset_runs):
    ok = True
    details = []
    for name, res in preset_runs.items():
        tol = MASS_LAW_TOL * res.setup.grid.volume
        du, sbdf2_steps = _mass_law_defects(res, "mass_u", "int_f_u")
        dv, _ = _mass_law_defects(res, "mass_v", "int_g_v")
        ok = ok and res.total_clamps == 0
        ok = ok and bool(np.all(du <= tol) and np.all(dv <= tol))
        # an adaptive run takes SBDF2 at every step after its first (its
        # landings on events keep the step ratio in range), a fixed-dt run
        # at none; so the restated law cannot pass vacuously either
        adaptive = res.setup.fixed_dt is None
        ok = ok and sbdf2_steps == (len(du) - 1 if adaptive else 0)
        details.append(f"{name}: clamps={res.total_clamps} "
                       f"max defect {max(du.max(), dv.max()):.2e} <= {tol:.1e} "
                       f"over {len(du)} steps, {sbdf2_steps} SBDF2")
    _verdict(11, "positivity and conservation", ok, "; ".join(details))
