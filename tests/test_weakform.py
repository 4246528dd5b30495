import gc
import math
import warnings
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from taxis_cascade import cli
from taxis_cascade import grid as G
from taxis_cascade import kinetics as K
from taxis_cascade import solver as S
from taxis_cascade import weakform as W
from taxis_cascade.config import Config, format_config
from taxis_cascade.errors import DomainError, StructuralError
from taxis_cascade.presets import preset

from oracles import mass_inequality_reference, weak_identities_reference


# --- test-function machinery ------------------------------------------------


def test_spatial_bump_shape_and_gradient():
    b = W.SpatialBump(0.5, 0.5, 0.3)
    assert float(b(0.5, 0.5)[0]) == pytest.approx(1.0)
    assert float(b(0.81, 0.5)[0]) == 0.0  # outside support
    assert float(b(0.8, 0.5)[0]) == 0.0   # boundary of support
    # finite-difference check of the closed-form gradient
    h = 1e-7
    for x, y in ((0.55, 0.48), (0.4, 0.62), (0.65, 0.65)):
        _, gx, gy = b(x, y)
        fdx = (float(b(x + h, y)[0]) - float(b(x - h, y)[0])) / (2 * h)
        fdy = (float(b(x, y + h)[0]) - float(b(x, y - h)[0])) / (2 * h)
        assert float(gx) == pytest.approx(fdx, abs=1e-5)
        assert float(gy) == pytest.approx(fdy, abs=1e-5)
    assert np.all(b(np.linspace(0, 1, 50), 0.5)[0] >= 0.0)


def test_spatial_factors_at_the_bump_centre_and_constant():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value, gx, gy = W.SpatialBump(0.5, 0.5, 0.3)(0.5, 0.5)
    assert (float(value), float(gx), float(gy)) == (1.0, 0.0, 0.0)
    X, Y = G.Grid(6, 4).cell_centers()
    # flat in space: scalars, which broadcast to any sample points
    assert W.SpatialConstant()(X, Y) == (1.0, 0.0, 0.0)


def test_temporal_bump_and_plateau_derivatives():
    tb = W.TemporalBump(0.2, 0.8)
    tp = W.TemporalPlateau(0.3, 0.9)
    assert float(tp(0.0)[0]) == 1.0
    assert float(tp(0.29)[0]) == 1.0
    assert float(tp(0.95)[0]) == 0.0
    h = 1e-7
    for t in (0.35, 0.5, 0.7, 0.85):
        for fac in (tb, tp):
            fd = (float(fac(t + h)[0]) - float(fac(t - h)[0])) / (2 * h)
            assert float(fac(t)[1]) == pytest.approx(fd, abs=1e-5)
    assert float(tb(0.2)[0]) == 0.0 and float(tb(0.8)[0]) == 0.0
    assert float(tp(0.3)[0]) == 1.0 and float(tp(0.9)[0]) == 0.0
    outside = np.array([0.0, 0.1, 0.3, 0.9, 1.5])
    assert np.all(tp(outside)[1] == 0.0)


def test_default_basis_is_admissible():
    basis = W.default_basis(10.0)
    assert len(basis) == 5
    xs = np.linspace(0, 1, 31)
    X, Y = np.meshgrid(xs, xs)
    for fn in basis:
        assert np.all(fn.spatial(X, Y)[0] >= 0.0)


# --- trajectories ------------------------------------------------------------


def small_run(tmp_path, nx=12, t_end=1.0, snapshot_every=0.05, mms=False, **cfg_kw):
    kw = dict(
        nx=nx, ny=nx, t_end=t_end, dt_max=0.02, safety=0.2,
        mu=0.2, epsilon=1e-3,
        f_law="purepower(1.0, 1.0, 3.0)", g_law="purepower(1.0, 1.0, 3.0)",
        profile="constant", amplitude=0.1,
        init_u="gaussian(0.4, 0.4, 0.2, 0.6, 0.3)",
        init_v="gaussian(0.6, 0.6, 0.2, 0.3, 0.8)",
        init_w="constant(0.4)",
        cadence=max(t_end, 0.5), snapshot_every=snapshot_every,
        out_dir=str(tmp_path / "run"),
    )
    if mms:
        m = S.shipped_mms()
        kw.update(mms_u=m.u, mms_v=m.v, mms_w=m.w, mu=0.3, epsilon=0.0,
                  amplitude=0.0, fixed_dt=(1.0 / nx) ** 2)
    kw.update(cfg_kw)
    cfg = Config(**kw)
    res = S.run(cfg.build_setup())
    assert res.completed, res.failure
    return W.load_trajectory(kw["out_dir"])


def test_samples_of_a_flat_factor_hold_no_field(tmp_path):
    traj = small_run(tmp_path, t_end=0.3)
    sp = W._Samples(W.default_basis(traj.t_end)[0], traj)
    assert not any(isinstance(x, np.ndarray) for x in vars(sp).values())
    # a field pairs as its own sum; a scalar is summed over every cell
    u = traj.load(1)[0]
    assert sp.cells(u) == u.sum()
    assert sp.cells(0.1) == np.full(traj.grid.shape, 0.1).sum()


def test_verify_weak_of_a_constant_resupply_caches_no_profile(tmp_path):
    cfg = replace(preset("thm1-core").config, nx=16, ny=16, t_end=0.2, cadence=0.1,
                  snapshot_every=0.01, out_dir=str(tmp_path / "thm1"))
    assert S.run(cfg.build_setup()).completed
    K._profile_on.cache_clear()
    rows, _ = cli.verify_weak(cfg.out_dir)
    assert len(rows) == 16 and all(r[4] for r in rows)
    # r is the scalar linf(t): no field of ones is built or kept
    assert K._profile_on.cache_info().currsize == 0


def test_load_trajectory_and_grid_roundtrip(tmp_path):
    traj = small_run(tmp_path, t_end=0.3)
    assert traj.times[0] == 0.0
    assert traj.times[-1] == pytest.approx(0.3)
    u, v, w = traj.load(0)
    assert u.shape == traj.grid.shape
    assert traj.params.mu == pytest.approx(0.2)


def test_loaded_snapshots_cached_per_handle_and_freed_with_it(tmp_path):
    traj = small_run(tmp_path, t_end=0.3)
    first = traj.load(1)
    assert traj.load(1) is first          # served from the handle's cache
    ref = weakref.ref(traj)
    del traj, first
    gc.collect()
    assert ref() is None


def test_residual_zero_for_disjoint_support(tmp_path):
    traj = small_run(tmp_path, t_end=0.5)
    fn = W.TestFunction("late", W.SpatialBump(0.5, 0.5, 0.2), W.TemporalBump(2.0, 3.0))
    ids = W.identities(traj, fn)
    assert (ids.u, ids.w, ids.v) == (0.0, 0.0, 0.0)


class _Ramp:
    """A time factor of no shipped type: 1 - t/T on [0, T], 0 after."""

    def __init__(self, T):
        self.support = (0.0, T)
        self.T = T

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        return np.clip(1.0 - t / self.T, 0.0, None), np.where(t < self.T, -1.0 / self.T, 0.0)


def test_custom_time_factor_states_its_own_support(tmp_path):
    traj = small_run(tmp_path, t_end=0.5)
    fn = W.TestFunction("ramp", W.SpatialConstant(), _Ramp(0.4))
    assert math.isfinite(W.residual_u(traj, fn))
    with pytest.raises(StructuralError):
        W.residual_u(traj, W.TestFunction("long", W.SpatialConstant(), _Ramp(0.8)))


def test_support_overflow_is_structural_error(tmp_path):
    traj = small_run(tmp_path, t_end=0.5)
    fn = W.TestFunction("straddle", W.SpatialConstant(), W.TemporalBump(0.3, 0.9))
    with pytest.raises(StructuralError):
        W.residual_u(traj, fn)


def test_support_between_two_snapshots_is_structural_error(tmp_path):
    traj = small_run(tmp_path, t_end=0.5)  # snapshots every 0.05
    between = W.TestFunction("between", W.SpatialConstant(), W.TemporalBump(0.06, 0.09))
    for evaluate in (W.identities, W.residual_u, W.residual_w, W.defect_v,
                     W.identity_budget, W.defect_budget):
        with pytest.raises(StructuralError, match="no snapshot strictly inside"):
            evaluate(traj, between)
    around = W.TestFunction("around", W.SpatialConstant(), W.TemporalBump(0.04, 0.06))
    assert math.isfinite(W.residual_u(traj, around))


def test_defect_v_rejects_negative_psi(tmp_path):
    traj = small_run(tmp_path, t_end=0.2)

    class NegativeSpatial(W.SpatialConstant):
        def __call__(self, x, y):
            one, zx, zy = super().__call__(x, y)
            return -one, zx, zy

    fn = W.TestFunction("neg", NegativeSpatial(), W.TemporalBump(0.05, 0.15))
    with pytest.raises(DomainError):
        W.defect_v(traj, fn)


class _LinComb:
    """a*s1 + b*s2 of two spatial factors sharing one temporal factor."""

    def __init__(self, a, s1, b, s2):
        self.a, self.s1, self.b, self.s2 = a, s1, b, s2

    def __call__(self, x, y):
        return tuple(self.a * f1 + self.b * f2
                     for f1, f2 in zip(self.s1(x, y), self.s2(x, y)))


@pytest.fixture(scope="module")
def reference_trajectories(tmp_path_factory):
    """A checked thm2-decay run (Gaussian resupply), a manufactured one (no
    resupply) and a run whose resupply is constant, the scalar r."""
    root = tmp_path_factory.mktemp("reference")
    cfg = replace(preset("thm2-decay").config, t_end=1.0, out_dir=str(root / "decay"))
    assert S.run(cfg.build_setup()).completed
    return {"thm2-decay": W.load_trajectory(cfg.out_dir),
            "mms": small_run(root, t_end=0.25, snapshot_every=0.0125, mms=True),
            "constant-r": small_run(root / "constant", t_end=0.5)}


@pytest.mark.parametrize("kind", ["thm2-decay", "mms", "constant-r"])
def test_one_walk_keeps_the_bits_of_one_walk_per_identity(reference_trajectories, kind):
    traj = reference_trajectories[kind]
    basis = W.default_basis(traj.t_end)
    signed = W.TestFunction(
        "signed", _LinComb(1.0, W.SpatialBump(0.3, 0.3, 0.25), -1.0, W.SpatialBump(0.7, 0.6, 0.25)),
        basis[1].temporal)
    for fn in basis + [signed]:
        ids = W.identities(traj, fn)
        assert ids == weak_identities_reference(traj, fn), fn.name
        assert (ids.v is None) == (fn is signed)


@pytest.mark.parametrize("kind", ["thm2-decay", "mms", "constant-r"])
def test_one_pass_for_a_basis_keeps_the_bits_of_one_pass_per_function(
        reference_trajectories, kind):
    traj = reference_trajectories[kind]
    basis = W.default_basis(traj.t_end)
    signed = W.TestFunction(
        "signed", _LinComb(1.0, W.SpatialBump(0.3, 0.3, 0.25), -1.0, W.SpatialBump(0.7, 0.6, 0.25)),
        basis[3].temporal)
    basis.insert(2, signed)
    ids, mass_rows = W.evaluate(traj, basis)
    assert len(ids) == len(basis)
    for k, fn in enumerate(basis):
        assert ids[k] == W.identities(traj, fn), fn.name
    assert ids[2].v is None
    assert mass_rows == W.check_mass_inequality(traj)


def test_a_pass_reads_each_snapshot_file_once(tmp_path, monkeypatch):
    small_run(tmp_path, t_end=0.5)  # snapshots every 0.05
    reads, read = [], G.read_field
    monkeypatch.setattr(G, "read_field", lambda path: reads.append(path) or read(path))
    traj = W.load_trajectory(tmp_path / "run")
    assert reads == []  # the listing reads the headers alone
    fn = W.TestFunction("mid", W.SpatialBump(0.5, 0.5, 0.3), W.TemporalBump(0.12, 0.28))
    W.identities(traj, fn)
    assert set(traj._loaded) == set(range(len(traj)))
    assert len(reads) == len(set(reads)) == 3 * len(traj)


def test_verify_weak_makes_one_pass_for_the_whole_basis(tmp_path, monkeypatch):
    small_run(tmp_path, t_end=0.5)
    passes, samples, loads = [], [], []
    evaluate, build, load = W.evaluate, W._Samples, W.TrajectoryHandle.load
    monkeypatch.setattr(W, "evaluate", lambda *a: passes.append(a) or evaluate(*a))
    monkeypatch.setattr(W, "_Samples", lambda *a: samples.append(a) or build(*a))
    monkeypatch.setattr(W.TrajectoryHandle, "load",
                        lambda traj, i: loads.append(i) or load(traj, i))
    rows, _ = cli.verify_weak(tmp_path / "run")
    assert len(rows) == 16 and all(r[4] for r in rows)
    assert len(passes) == 1 and len(samples) == 5
    # every snapshot once, then snapshot 0 again, from the cache, for the initial traces
    n = len(W.load_trajectory(tmp_path / "run"))
    assert loads == list(range(n)) + [0]


def test_residual_linearity(tmp_path):
    traj = small_run(tmp_path, t_end=0.6)
    temporal = W.TemporalBump(0.1, 0.5)
    s1 = W.SpatialBump(0.4, 0.4, 0.3)
    s2 = W.SpatialBump(0.6, 0.6, 0.25)
    r1 = W.residual_u(traj, W.TestFunction("b1", s1, temporal))
    r2 = W.residual_u(traj, W.TestFunction("b2", s2, temporal))
    combo = W.TestFunction("combo", _LinComb(2.0, s1, -0.5, s2), temporal)
    rc = W.residual_u(traj, combo)
    assert rc == pytest.approx(2.0 * r1 - 0.5 * r2, rel=1e-10, abs=1e-13)


def test_residual_w_closed_form_homogeneous_decay(tmp_path):
    # u = v = 0 frozen, r = 0: w(t) = w0 e^{-mu t} sampled analytically
    mu = 0.8
    g = G.Grid(8, 8)
    d = tmp_path / "analytic"
    d.mkdir()
    ts = np.linspace(0.0, 1.0, 801)
    for k, t in enumerate(ts):
        w = np.full(g.shape, 0.7 * math.exp(-mu * t))
        G.write_field(d / f"u_{k:08d}.fld", np.zeros(g.shape), g, t)
        G.write_field(d / f"v_{k:08d}.fld", np.zeros(g.shape), g, t)
        G.write_field(d / f"w_{k:08d}.fld", w, g, t)
    cfg = Config(nx=8, ny=8, mu=mu, epsilon=0.0, amplitude=0.0,
                 f_law="purepower(1.0, 0.0, 3.0)", g_law="purepower(1.0, 0.0, 3.0)")
    (d / "manifest.txt").write_text("# analytic\n" + format_config(cfg))
    traj = W.load_trajectory(d)
    fn = W.TestFunction("bump", W.SpatialBump(0.5, 0.5, 0.3), W.TemporalBump(0.1, 0.9))
    assert abs(W.residual_w(traj, fn)) < 1e-8
    fnp = W.TestFunction("plateau", W.SpatialConstant(), W.TemporalPlateau(0.2, 0.9))
    assert abs(W.residual_w(traj, fnp)) < 1e-7


def _analytic_steady_trajectory(tmp_path, n_snaps=801):
    """u = v = 1 (roots of the growth laws), w = 0: an exact steady state."""
    g = G.Grid(8, 8)
    d = tmp_path / "steady"
    d.mkdir()
    ones = np.ones(g.shape)
    for k, t in enumerate(np.linspace(0.0, 1.0, n_snaps)):
        G.write_field(d / f"u_{k:08d}.fld", ones, g, t)
        G.write_field(d / f"v_{k:08d}.fld", ones, g, t)
        G.write_field(d / f"w_{k:08d}.fld", np.zeros(g.shape), g, t)
    cfg = Config(nx=8, ny=8, mu=0.0, epsilon=0.0, amplitude=0.0,
                 f_law="purepower(1.0, 1.0, 3.0)", g_law="purepower(1.0, 1.0, 3.0)")
    (d / "manifest.txt").write_text("# steady\n" + format_config(cfg))
    return W.load_trajectory(d)


def test_residual_u_steady_state_is_pure_quadrature_defect(tmp_path):
    # all spatial terms vanish; what is left is the temporal-quadrature defect
    # of the exact identity int phi_t = -phi(0)
    traj = _analytic_steady_trajectory(tmp_path)
    fn = W.TestFunction("plateau", W.SpatialConstant(), W.TemporalPlateau(0.2, 0.9))
    assert abs(W.residual_u(traj, fn)) < 1e-6


def test_residual_w_regularization_defect_shrinks_with_epsilon(tmp_path):
    # the identity uses the unregularized consumption, so an eps > 0 run
    # leaves a defect that shrinks as eps does
    mags = {}
    for eps in (0.4, 0.2):
        traj = small_run(tmp_path / f"eps{eps}", nx=10, t_end=0.5,
                         snapshot_every=0.005, epsilon=eps, dt_max=0.005)
        fn = W.TestFunction("plateau", W.SpatialConstant(), W.TemporalPlateau(0.1, 0.45))
        mags[eps] = abs(W.residual_w(traj, fn))
    assert mags[0.2] < mags[0.4]


def test_mass_inequality_slack_halves_with_dt(tmp_path):
    def slack_at_end(dt):
        traj = small_run(tmp_path / f"dt{dt}", nx=8, t_end=1.0,
                         snapshot_every=2 * dt, fixed_dt=dt, mu=0.0,
                         amplitude=0.0, epsilon=0.0,
                         init_u="constant(1.0)", init_v="constant(2.0)",
                         init_w="constant(0.0)")
        return abs(W.check_mass_inequality(traj)[-1][1])

    s1 = slack_at_end(2e-3)
    s2 = slack_at_end(1e-3)
    assert 1.6 < s1 / s2 < 2.4


def test_mass_inequality_on_run(tmp_path):
    traj = small_run(tmp_path, t_end=1.0, snapshot_every=0.02)
    rows = W.check_mass_inequality(traj)
    assert rows[0][1] == pytest.approx(0.0, abs=1e-12)  # slack 0 at t = 0
    assert all(ok for _, _, ok in rows)
    assert min(s for _, s, ok in rows) >= -1e-3


def test_mass_inequality_rows_are_the_per_prefix_trapezoids(tmp_path):
    # the running trapezoid gives every prefix's integral in one pass
    traj = small_run(tmp_path, t_end=1.0, snapshot_every=0.02)
    rows = W.check_mass_inequality(traj)
    want = mass_inequality_reference(traj)
    assert [(t, ok) for t, _, ok in rows] == [(t, ok) for t, _, ok in want]
    assert [s for _, s, _ in rows] == pytest.approx([s for _, s, _ in want], rel=0.0, abs=1e-12)


def manufactured_run(tmp_path):
    """The 16^2 manufactured run to t = 0.25 with snapshots every 0.05, in
    tmp_path / "mms-16"."""
    cfg = replace(cli.mms_config(16, t_end=0.25), snapshot_every=0.05)
    assert S.run(cfg.build_setup(out_dir=tmp_path / "mms-16")).completed


def test_mass_inequality_on_manufactured_run(tmp_path):
    manufactured_run(tmp_path)
    traj = W.load_trajectory(tmp_path / "mms-16")
    assert all(ok for _, _, ok in W.check_mass_inequality(traj))
    # the manufactured v source carries the identity: without it the slack fails
    traj.params = replace(traj.params, mms=None)
    assert W.check_mass_inequality(traj)[-1][1] < -0.3


def test_manufactured_sources_built_once_per_snapshot(tmp_path, monkeypatch):
    manufactured_run(tmp_path)
    run_dir = tmp_path / "mms-16"
    calls = []
    build = S.MmsSpec.sources

    def counting(mms, params, g, t):
        calls.append(t)
        return build(mms, params, g, t)

    monkeypatch.setattr(S.MmsSpec, "sources", counting)
    rows, _ = cli.verify_weak(run_dir)
    assert all(r[4] for r in rows)
    assert calls == W.load_trajectory(run_dir).times


def test_mms_residuals_shrink_at_first_order(tmp_path):
    vals = {}
    for nx in (12, 24):
        traj = small_run(tmp_path / f"l{nx}", nx=nx, t_end=0.25,
                         snapshot_every=0.0125, mms=True)
        vals[nx] = max(max(abs(ids.u), abs(ids.w), abs(ids.v))
                       for ids in (W.identities(traj, fn)
                                   for fn in W.default_basis(traj.t_end)))
    order = math.log2(vals[12] / vals[24])
    assert order >= 1.0


@pytest.mark.parametrize("budget", ["defect_budget", "identity_budget"])
def test_budget_shrinks_with_resolution(tmp_path, budget):
    budgets = {}
    for nx in (12, 24):
        traj = small_run(tmp_path / f"b{nx}", nx=nx, t_end=0.25,
                         snapshot_every=0.025, mms=True)
        fn = W.default_basis(traj.t_end)[1]
        budgets[nx] = getattr(W, budget)(traj, fn)
    assert budgets[24] < budgets[12]


def test_snapshot_with_a_malformed_step_index_is_not_loaded(tmp_path):
    # the run's sweep keeps a u_5.fld triple, so the loader must skip it too
    traj = small_run(tmp_path, t_end=0.5, snapshot_every=0.25)
    assert len(traj) == 3
    for name, phi in zip("uvw", traj.load(2)):
        G.write_field(tmp_path / "run" / f"{name}_5.fld", phi, traj.grid, 9.0)
    again = W.load_trajectory(tmp_path / "run")
    assert again.times == traj.times


def test_rerun_into_one_directory_replaces_the_snapshots(tmp_path):
    small_run(tmp_path, nx=16, t_end=0.5, snapshot_every=0.1)
    stray = tmp_path / "run" / "u_notes.fld"
    stray.write_text("kept")
    first = {p.name for p in (tmp_path / "run").glob("*.fld")}
    traj = small_run(tmp_path, nx=16, t_end=0.2, snapshot_every=0.1)
    assert traj.times == pytest.approx([0.0, 0.1, 0.2])
    assert traj.t_end == 0.2
    names = {p.name for p in (tmp_path / "run").glob("*.fld")}
    assert len(names) == 3 * len(traj) + 1 and stray.read_text() == "kept"
    assert names != first
