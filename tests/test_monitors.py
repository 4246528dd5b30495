import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from oracles import by_check, comparison_ode_bound, v_mass_residual
from taxis_cascade import grid as G
from taxis_cascade import monitors as M
from taxis_cascade import solver as S
from taxis_cascade.config import Config
from taxis_cascade.errors import DomainError


def test_mass_ode_star_formula():
    assert M.mass_ode_star(3.0, 1.0, 0.0, 1.0, 2.0) == 2.0
    assert M.mass_ode_star(3.0, 1.0, 1.0, 1.0, 2.0) == 2.0
    assert M.mass_ode_star(2.0, 1.0, 2.0, 4.0, 0.1) == pytest.approx(4.0 * math.sqrt(2.0))
    with pytest.raises(DomainError):
        M.mass_ode_star(1.0, 1.0, 1.0, 1.0, 1.0)


def test_mass_ode_star_dominates_ode_oracle():
    rng = np.random.default_rng(11)
    for _ in range(20):
        alpha = float(rng.uniform(1.5, 4.0))
        K = float(rng.uniform(0.2, 3.0))
        L = float(rng.uniform(0.0, 2.0))
        vol = float(rng.uniform(0.3, 4.0))
        y0 = float(rng.uniform(0.0, 5.0))
        star = M.mass_ode_star(alpha, K, L, vol, y0)
        rate = K / vol ** (alpha - 1.0)

        sol = solve_ivp(lambda t, y: -rate * np.abs(y) ** alpha + L * vol,
                        (0.0, 10.0), [y0], method="Radau",
                        rtol=1e-10, atol=1e-12, dense_output=True)
        ts = np.linspace(0.0, 10.0, 2000)
        assert float(np.max(sol.sol(ts)[0])) <= star + 1e-8


def test_comparison_ode_bound_values():
    assert comparison_ode_bound(1.0, 1.0, 1e-12) == pytest.approx(1.0, abs=1e-10)
    assert comparison_ode_bound(0.0, 1.0, 1.0) == pytest.approx(1.0 / (1.0 - math.exp(-1.0)))
    assert comparison_ode_bound(0.0, 1.0, 1.0) == pytest.approx(1.58198, abs=1e-5)
    with pytest.raises(DomainError):
        comparison_ode_bound(1.0, 0.0, 1.0)


def test_comparison_ode_bound_dominates_randomized_oracle():
    # exact piecewise-exponential integration of y' = -a y + h
    from oracles import peak_of_forced_decay, windowed_forcing

    rng = np.random.default_rng(12)
    for _ in range(100):
        a = float(rng.uniform(0.2, 5.0))
        C = float(rng.uniform(0.1, 3.0))
        y0 = float(rng.uniform(0.0, 3.0))
        values, edges = windowed_forcing(rng, C, t_end=6.0, piece=0.25)
        bound = comparison_ode_bound(y0, a, C)
        assert peak_of_forced_decay(y0, a, values, edges) <= bound + 1e-8


def make_grid():
    return G.Grid(8, 8)


def test_bound_constants():
    import taxis_cascade.kinetics as K
    g = make_grid()
    kin = K.KineticSpec.from_laws(K.PurePower(1.0, 1.0, 3.0), K.PurePower(1.0, 2.0, 2.0))
    r = K.ResupplySpec(profile="constant", amplitude=0.2)
    u0 = np.full(g.shape, 2.0)
    v0 = np.full(g.shape, 0.1)
    w0 = np.full(g.shape, 0.5)
    consts = M.BoundConstants.from_setup(g, kin, r, 0.1, u0, v0, w0)
    assert consts.u_star == pytest.approx(2.0)          # max(2, 1)
    assert consts.v_star == pytest.approx(math.sqrt(2.0))
    assert consts.w_star == pytest.approx(2.5)          # 0.5 + 0.2/0.1
    assert consts.window_alpha_bound == pytest.approx(1.0 + 2.0)
    consts0 = M.BoundConstants.from_setup(g, kin, r, 0.0, u0, v0, w0)
    assert math.isinf(consts0.w_star)


def test_supersolution_recursion_matches_convolution():
    # r = e^{-2t}, mu = 1, w0 = 0: closed form e^{-t} - e^{-2t}
    def run(dt):
        t_end = math.log(2.0)
        n = int(round(t_end / dt))
        dt = t_end / n
        wbar = 0.0
        for i in range(n):
            t0, t1 = i * dt, (i + 1) * dt
            wbar = M.supersolution_step(wbar, 1.0, math.exp(-2.0 * t0),
                                        math.exp(-2.0 * t1), dt)
        return wbar

    exact = 0.25
    # trapezoid defect is (dt^2/12)(e^{-t} - e^{-2t}) ~ 2.1e-8 at dt = 1e-3
    assert abs(run(1e-3) - exact) < 5e-8
    assert abs(run(2.5e-4) - exact) < 5e-9


def test_supersolution_pure_decay():
    wbar = 0.5
    n = 700
    dt = math.log(2.0) / n  # homogeneous decay is exact per step
    for _ in range(n):
        wbar = M.supersolution_step(wbar, 1.0, 0.0, 0.0, dt)
    assert wbar == pytest.approx(0.25, rel=1e-12)


def test_entry_fields_are_the_monitors_csv_columns():
    # a report entry holds exactly what monitors.csv writes, column for column
    report = M.MonitorReport()
    report.append(M.MonitorEntry.compare(0.5, "mass_u", 1.0, 2.0))
    header, row = report.csv_rows()
    column = {"check": "check_name", "passed": "pass"}
    fields = [column.get(f.name, f.name) for f in dataclasses.fields(M.MonitorEntry)]
    assert fields == header.split(",") == ["t", "check_name", "value", "bound", "margin", "pass"]
    assert row == "0.5,mass_u,1.0,2.0,1.0,true"


def test_window_integrals_against_scalar_ode():
    # homogeneous u with u' = f(u) = 1 - u^3 from u0 = 2, |Omega| = 1
    import taxis_cascade.kinetics as K
    g = make_grid()
    kin = K.KineticSpec.from_laws(K.PurePower(1.0, 1.0, 3.0), K.PurePower(1.0, 1.0, 3.0))
    consts = M.BoundConstants(u_star=2.0, v_star=1.0, w_star=math.inf,
                              window_alpha_bound=1.0 + 2.0, window_beta_bound=2.0)
    sol = solve_ivp(lambda t, y: 1.0 - y**3, (0.0, 2.0), [2.0], method="Radau",
                    rtol=1e-12, atol=1e-14, dense_output=True)
    ts = np.linspace(0.0, 2.0, 4001)
    ys = sol.sol(ts)[0]
    int_u_alpha = ys**3  # |Omega| = 1
    entries = M.check_window_integrals(2.0, list(ts), list(int_u_alpha),
                                       list(np.zeros_like(ts)), consts, dt=5e-4)
    e = entries[0]
    assert e.check == "window_u_alpha" and e.passed
    # oracle: integral of u^3 = integral of (1 - u') = 1 - (u(2) - u(1))
    oracle = 1.0 - (sol.sol(2.0)[0] - sol.sol(1.0)[0])
    assert e.value == pytest.approx(float(oracle), rel=1e-6)
    # the identically-zero second species sits far below its bound
    ev = entries[1]
    assert ev.check == "window_v_beta" and ev.passed and ev.value == 0.0


def test_window_insufficient():
    consts = M.BoundConstants(1.0, 1.0, 1.0, 1.0, 1.0)
    entries = M.check_window_integrals(0.5, [0.0, 0.5], [1.0, 1.0], [0.0, 0.0],
                                       consts, dt=0.1)
    # a record shorter than the unit window is reported, never failed
    assert [e.check for e in entries] == ["window_u_alpha", "window_v_beta"]
    assert all(e.passed and math.isnan(e.value) and math.isnan(e.bound) for e in entries)


def test_v_mass_identity_zero_law():
    # a frozen g == 0 stub: mass constant, residual zero
    ts = list(np.linspace(0.0, 2.0, 50))
    zeros = [0.0] * 50
    mass = [1.5] * 50
    signed, rel = v_mass_residual(ts, zeros, zeros, mass)
    assert signed == 0.0 and rel == 0.0
    entry = M.check_v_mass_identity(ts[-1], ts, zeros, zeros, mass, dt_scale=ts[1])
    assert entry.passed and entry.value == 0.0


def test_log_gradient_integrand_frozen_linear():
    g = G.Grid(64, 64)
    X, _ = g.cell_centers()
    v = 1.0 + X
    val = M.log_gradient_integrand(v, g)
    # oracle: 1d integral of (2+x)^-2 = 1/2 - 1/3, face quadrature misses the
    # two boundary half-cells (first-order closure)
    assert val == pytest.approx(1.0 / 6.0, abs=5e-3)
    assert M.log_gradient_integrand(np.full(g.shape, 3.3), g) == 0.0


def test_log_gradient_scale_quarter():
    g = G.Grid(16, 16)
    rng = np.random.default_rng(3)
    v = rng.random(g.shape)
    base = M.log_gradient_integrand(v, g)
    # doubling v+1 pointwise with the gradient fixed scales the integrand by 1/4
    scaled = M.log_gradient_integrand(2.0 * v + 1.0, g)  # v+1 -> 2(v+1), grad doubles
    # grad doubles AND denominator doubles: net unchanged; instead scale directly
    gx = (v[:, 1:] - v[:, :-1]) / g.hx
    mx = 1.0 + 0.5 * (v[:, 1:] + v[:, :-1])
    direct = (np.sum((gx / (2 * mx)) ** 2)) * g.cell_volume
    partial = np.sum((gx / mx) ** 2) * g.cell_volume
    assert direct == pytest.approx(partial / 4.0, rel=1e-12)
    assert scaled == pytest.approx(base, rel=1e-12)


def test_detect_w_decay_immediate():
    ts = np.linspace(0.0, 5.0, 51)
    det = M.detect_w_decay(ts, np.zeros_like(ts), np.zeros_like(ts),
                           np.zeros_like(ts), delta=0.01)
    assert det.detected and det.t_detect == 0.0


def test_detect_w_decay_threshold_above_data():
    ts = np.linspace(0.0, 5.0, 51)
    w = 0.5 * np.exp(-ts)
    det = M.detect_w_decay(ts, w, w, 0 * w, delta=0.9)
    assert det.detected and det.t_detect == 0.0


def test_detect_w_decay_exponential_oracle():
    # implicit-Euler decay of ||w||: (1+dt)^-n with dt = 0.01, delta = 0.01
    dt = 0.01
    n = 2000
    ts = np.arange(n + 1) * dt
    w = (1.0 + dt) ** (-np.arange(n + 1))
    det = M.detect_w_decay(ts, w, w, 0 * w, delta=0.01)
    expect = math.ceil(math.log(100.0) / math.log(1.0 + dt)) * dt
    assert det.detected
    assert det.t_detect == pytest.approx(expect, abs=dt / 2)
    assert det.t_detect == pytest.approx(math.log(100.0), abs=0.05)


def test_detect_w_decay_none_when_still_high():
    ts = np.linspace(0.0, 5.0, 51)
    w = np.full_like(ts, 0.5)
    det = M.detect_w_decay(ts, w, w, w, delta=0.01)
    assert not det.detected


def test_detect_w_decay_monotone_in_delta():
    rng = np.random.default_rng(5)
    ts = np.linspace(0.0, 10.0, 201)
    w = np.exp(-0.7 * ts) * (1.0 + 0.1 * rng.random(ts.size))
    t_prev = math.inf
    for delta in (0.01, 0.05, 0.2, 0.8):
        det = M.detect_w_decay(ts, w, w, 0 * w, delta=delta)
        assert det.detected
        assert det.t_detect <= t_prev
        t_prev = det.t_detect


def test_pick_theta_delta_q2_exact():
    fp = M.pick_theta_delta(2.0)
    assert fp.theta == pytest.approx(1.0 / 32.0, abs=1e-15)
    assert fp.delta == pytest.approx(1.0 / 64.0, abs=1e-15)
    m = fp.margins()
    quotient = 2.0 * 1.0 - m["quotient_inequality"]  # q(q-1) - margin
    # numerator (2q theta + 2q(q-1) delta)^2 = 0.1875^2,
    # denominator 4(theta(theta+1) - 2q theta delta) = 4*31/1024
    assert quotient == pytest.approx((0.1875) ** 2 / (124.0 / 1024.0), rel=1e-12)
    assert quotient == pytest.approx(0.2903, abs=1e-4)


def test_pick_theta_delta_invariants_over_q():
    for q in (1.01, 1.1, 2.0, 5.0, 10.0, 100.0):
        fp = M.pick_theta_delta(q)
        for name, margin in fp.margins().items():
            assert margin > 0.0, (q, name)
        assert fp.delta < 1.0 / (2.0 * q)
    with pytest.raises(DomainError):
        M.pick_theta_delta(1.0)


def test_functional_params_reject_bad():
    with pytest.raises(DomainError):
        M.FunctionalParams(q=2.0, theta=0.5, delta=0.01)  # theta too large


def test_weighted_functional_values():
    g = G.Grid(8, 8)
    fp = M.pick_theta_delta(2.0)
    zeros = np.zeros(g.shape)
    assert M.weighted_functional(zeros, zeros, fp, g) == 0.0
    val = M.weighted_functional(np.ones(g.shape), zeros, fp, g)
    assert val == pytest.approx((2.0 * fp.delta) ** (-fp.theta), rel=1e-12)
    assert val == pytest.approx(1.1144, abs=1e-4)
    # precondition: skipped when the nutrient has not decayed below delta
    w_big = np.full(g.shape, 2.0 * fp.delta)
    assert M.weighted_functional(np.ones(g.shape), w_big, fp, g) is None


def test_weighted_functional_monotone_and_dominates_plain_integral():
    g = G.Grid(8, 8)
    fp = M.pick_theta_delta(2.0)
    rng = np.random.default_rng(8)
    u = rng.random(g.shape)
    w = rng.random(g.shape) * 0.5 * fp.delta
    base = M.weighted_functional(u, w, fp, g)
    up = M.weighted_functional(u + 0.1, w, fp, g)
    assert up > base  # monotone in u
    plain = G.integrate(u**fp.q, g)
    assert base * (2.0 * fp.delta) ** fp.theta >= plain - 1e-15


def test_weighted_functional_direction_in_theta():
    # with ||w|| < delta the base 2 delta - w lies in (0, 1), so raising theta
    # always increases the value; constructed fields pin the true direction
    g = G.Grid(8, 8)
    q = 2.0
    u = np.full(g.shape, 0.7)          # u <= 1 region
    w = np.full(g.shape, 0.004)
    lo = M.FunctionalParams(q=q, theta=0.02, delta=1.0 / 64.0)
    hi = M.FunctionalParams(q=q, theta=0.05, delta=1.0 / 64.0)
    assert M.weighted_functional(u, w, hi, g) > M.weighted_functional(u, w, lo, g)


def test_eventual_regularity_report_flat_vs_growing():
    ts = np.linspace(0.0, 20.0, 81)
    flat = {"a": np.full_like(ts, 2.0), "b": 1.0 + 0.0 * ts}
    rep = M.eventual_regularity_report(ts, flat, t_detect=4.0)
    assert rep.regularized
    assert all(abs(s) < 1e-12 for s in rep.slopes.values())
    growing = {"a": 1.0 + 0.01 * ts}
    rep2 = M.eventual_regularity_report(ts, growing, t_detect=4.0)
    assert not rep2.regularized
    assert rep2.slopes["a"] == pytest.approx(0.01, rel=1e-9)


def test_default_config_passes_its_own_v_mass_monitor():
    # u = v = 1, w = 0 is an equilibrium, so the C*dt*t envelope is zero;
    # the rounding of each diffusion solve must not fail the identity
    result = S.run(Config(nx=16, ny=16, t_end=1.0).build_setup())
    assert result.completed
    assert by_check(result.report, "v_mass_identity")
    assert result.report.failures() == []


def _hand_record():
    """Nine states at t = 0, 0.25, ..., 2 with cadence hits at t = 0, 1 and 2.

    mass_u breaks its ceiling at states 4 (a hit) and 5 (between hits),
    sup w breaks w_star at state 0, and the u^alpha window ending at t = 2
    integrates to 8.8125 against a bound of 1 (tolerance 2.5 at dt = 0.25).
    """
    t = np.linspace(0.0, 2.0, 9)
    dt = np.full(9, 0.25)
    dt[0] = 0.0
    ones = np.ones(9)
    zeros = np.zeros(9)
    mass_u = ones.copy()
    mass_u[4:6] = 4.0
    int_u_alpha = np.full(9, 0.5)
    int_u_alpha[5:] = 10.0
    linf_w = np.array([0.5, 0.4, 0.3, 0.2, 0.05, 0.04, 0.03, 0.02, 0.01])
    series = {"t": t, "dt": dt, "mass_u": mass_u, "mass_v": ones, "mass_w": linf_w,
              "linf_u": ones, "linf_v": ones, "linf_w": linf_w, "wbar": np.full(9, 0.5),
              "int_u_alpha": int_u_alpha, "int_v_beta": ones, "int_g_v": zeros,
              "int_abs_g_v": zeros, "int_consumption": 0.1 * linf_w}
    cadence = {"index": np.array([0, 4, 8]),
               "log_gradient_energy": np.array([0.3, 0.2, 0.1]),
               "maxgrad_u": np.ones(3), "maxgrad_v": np.ones(3),
               "seminorm_u_w24": np.ones(3),
               "weighted_functional": np.array([math.nan, 0.7, 0.6])}
    consts = M.BoundConstants(u_star=1.0, v_star=2.0, w_star=0.45,
                              window_alpha_bound=1.0, window_beta_bound=5.0)
    return series, cadence, consts


def test_assess_judges_a_hand_built_record():
    series, cadence, consts = _hand_record()
    mu = 0.5
    report, step_checks, decay, regularity = M.assess(series, cadence, consts, mu,
                                                      delta=0.1, completed=True)
    per_hit = ["mass_u", "mass_v", "w_supersolution", "w_ceiling", "window_u_alpha",
               "window_v_beta", "v_mass_identity", "log_gradient_energy",
               "weighted_functional"]
    tail = ["w_decay_detect", "w_tail_mass", "w_tail_consumption", "eventual_regularity"]
    assert [e.check for e in report] == per_hit * 3 + tail
    rows = [report[9 * k:9 * k + 9] for k in range(3)]
    for k, i in enumerate(cadence["index"]):
        t = float(series["t"][i])
        assert all(e.t == t for e in rows[k])
        # the rows of one evaluation on the record equal the checks of the state alone
        expected = M.check_mass(t, float(series["mass_u"][i]), float(series["mass_v"][i]),
                                consts, float(series["dt"][i]))
        expected += M.check_w_supersolution(t, float(series["linf_w"][i]),
                                            float(series["wbar"][i]), consts, mu,
                                            float(series["dt"][i]))
        assert rows[k][:4] == expected
        assert rows[k][7].value == cadence["log_gradient_energy"][k]
    assert {e.check for e in rows[0] if not e.passed} == {"w_ceiling"}
    assert {e.check for e in rows[1] if not e.passed} == {"mass_u"}
    assert {e.check for e in rows[2] if not e.passed} == {"window_u_alpha"}
    assert rows[2][4].value == pytest.approx(8.8125)
    assert math.isnan(rows[0][4].value)  # the record does not yet cover [t-1, t]
    # counted over every state, the state between hits included
    assert {name: s.violations for name, s in step_checks.items()} == {
        "mass_u": 2, "mass_v": 0, "w_supersolution": 0, "w_ceiling": 1}
    assert decay.detected and decay.t_detect == 1.0
    assert regularity == M.RegularityReport(False, {})  # one hit past t_detect + 1
    # monitors.csv shows Python floats, not numpy scalar reprs
    assert not any("np." in row for row in report.csv_rows())

    partial, partial_checks, no_decay, no_regularity = M.assess(
        series, cadence, consts, mu, delta=0.1, completed=False)
    # repr, as NaN values differ from themselves
    assert [repr(e) for e in partial] == [repr(e) for e in report[:27]]
    assert partial_checks == step_checks
    assert no_decay is None and no_regularity is None
