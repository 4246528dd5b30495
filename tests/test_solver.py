import math
import os
import platform
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import FrozenInstanceError, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import sympy as sp
from hypothesis import example, given, settings
from hypothesis import strategies as hs
from scipy import fft as sfft
from scipy.integrate import solve_ivp

from oracles import (MASS_LAW_TOL, by_check, dense_step, log_gradient_reference,
                     mms_sources_reference, sbdf2_step_reference, sbdf2_w_system,
                     step_reference, taxis_mms)
from taxis_cascade import cli
from taxis_cascade import grid as G
from taxis_cascade import kinetics as K
from taxis_cascade import monitors as M
from taxis_cascade import presets
from taxis_cascade import solver as S
from taxis_cascade.errors import BlowUpError, DomainError, PositivityError

try:
    import resource
except ImportError:  # not on every platform
    resource = None


def pp_spec(alpha=3.0, beta=3.0):
    return K.KineticSpec.from_laws(K.PurePower(1.0, 1.0, alpha),
                                   K.PurePower(1.0, 1.0, beta))


def make_params(mu=0.0, epsilon=0.0, amplitude=0.0, decay_lambda=0.0, spec=None):
    return S.ModelParams(
        mu=mu, epsilon=epsilon,
        resupply=K.ResupplySpec(profile="constant", amplitude=amplitude,
                                decay_lambda=decay_lambda),
        kinetics=spec or pp_spec())


def hand_setup(g, params, initial):
    """A setup built without a Config, which states every field."""
    return S.RunSetup(grid=g, params=params, initial=initial,
                      control=S.StepControl(dt_max=0.02, safety=0.2), t_end=1.0,
                      monitor_cadence=0.25, monitor_delta=1e-2, monitor_q=2.0,
                      snapshot_every=0.0, out_dir=None, config_text="", label="run",
                      fixed_dt=None)


def test_params_validation():
    with pytest.raises(DomainError):
        make_params(mu=-0.1)
    with pytest.raises(DomainError):
        make_params(epsilon=1.0)


def test_step_homogeneous_equilibrium_u_and_ode_v():
    g = G.Grid(8, 8)
    st = S.State(np.ones(g.shape), np.full(g.shape, 2.0), np.zeros(g.shape))
    dt = 0.01
    new, stats = S.step(st, make_params(), dt, g)
    assert np.max(np.abs(new.u - 1.0)) < 1e-12       # f(1) = 0, no taxis
    v_expect = 2.0 + dt * (1.0 - 8.0)                # explicit growth update
    assert np.max(np.abs(new.v - v_expect)) < 1e-12
    assert np.all(new.w == 0.0)
    assert stats.clamps == 0


def test_step_w_implicit_decay():
    g = G.Grid(8, 8)
    mu = 0.7
    # laws with f(0) = g(0) = 0 keep the populations at zero
    spec = K.KineticSpec.from_laws(K.PurePower(1.0, 0.0, 3.0),
                                   K.PurePower(1.0, 0.0, 3.0))
    st = S.State(np.zeros(g.shape), np.zeros(g.shape), np.full(g.shape, 0.5))
    new, _ = S.step(st, make_params(mu=mu, spec=spec), 0.02, g)
    assert np.max(np.abs(new.u)) == 0.0
    assert np.max(np.abs(new.w - 0.5 / (1.0 + 0.02 * mu))) < 1e-12


def test_step_matches_dense_oracle():
    g = G.Grid(8, 8, 1.2, 0.9)
    rng = np.random.default_rng(17)
    for eps, mu, amp in ((0.0, 0.0, 0.0), (0.2, 0.6, 0.3)):
        params = make_params(mu=mu, epsilon=eps, amplitude=amp)
        st = S.State(rng.random(g.shape) + 0.1, rng.random(g.shape) + 0.1,
                     rng.random(g.shape), t=0.3)
        dt = 2e-3
        new, _ = S.step(st, params, dt, g)
        u1, v1, w1 = dense_step(st, params, dt, g)
        assert np.max(np.abs(new.u - u1)) < 1e-10
        assert np.max(np.abs(new.v - v1)) < 1e-10
        assert np.max(np.abs(new.w - w1)) < 1e-10


def test_step_matches_dense_oracle_with_sources():
    g = G.Grid(8, 8)
    mms = S.shipped_mms()
    params = replace(make_params(mu=0.3), mms=mms)
    st = S.State(*mms.fields(g, 0.0))
    dt = 1e-3
    new, _ = S.step(st, params, dt, g)
    u1, v1, w1 = dense_step(st, params, dt, g)
    assert np.max(np.abs(new.u - u1)) < 1e-10
    assert np.max(np.abs(new.w - w1)) < 1e-10
    # one manufactured step: local defect is dt*(O(dt) + O(h^2) truncation)
    ue, ve, we = mms.fields(g, dt)
    budget = dt * (5.0 * dt + 50.0 * g.hx**2)
    assert np.max(np.abs(new.u - ue)) < budget


def test_discrete_mass_law():
    # taxis and diffusion are conservative: mass moves only through growth
    g = G.Grid(12, 10)
    rng = np.random.default_rng(23)
    params = make_params(mu=0.2, epsilon=1e-3, amplitude=0.1)
    st = S.State(rng.random(g.shape) + 0.2, rng.random(g.shape) + 0.2,
                 rng.random(g.shape) * 0.5)
    dt = 1e-3
    new, _ = S.step(st, params, dt, g)
    ks = params.kinetics
    defect_u = abs(G.integrate(new.u, g) - G.integrate(st.u, g)
                   - dt * G.integrate(ks.law_f(st.u), g))
    defect_v = abs(G.integrate(new.v, g) - G.integrate(st.v, g)
                   - dt * G.integrate(ks.law_g(st.v), g))
    tol = MASS_LAW_TOL * g.volume
    assert defect_u <= tol
    assert defect_v <= tol


# --- the linear solves -------------------------------------------------------

# non-square grids and domains, dt/h^2 from 1e-3 to 1e3 (the presets reach ~300)
grids = hs.builds(G.Grid, hs.integers(4, 32), hs.integers(4, 32),
                  hs.floats(0.5, 3.0), hs.floats(0.5, 3.0))
log_dt_over_h2 = hs.floats(-3.0, 3.0)
seeds = hs.integers(0, 2**32 - 1)


# the solve against the stencil: the residual over
# eps * ((1 + 8 dt / h_min^2) |x| + |b|) peaked at 1.33 over 2000 examples
# of this strategy (1.19 and 1.23 over two more 2000), with the Laplacian
# that scales each axis once by 1/h^2; the examples below read 0.72 on 15^2
# and, on the cosine-transform path (a side above DENSE_DCT_MAX), 1.16 and
# 0.13 on 81x40 and 1.10 and 0.29 on 96^2
DIFFUSION_ROUNDING = 4.0


@settings(max_examples=80, deadline=None, derandomize=True)
@given(g=grids, log_ratio=log_dt_over_h2, seed=seeds)
@example(g=G.Grid(15, 15, 3.0, 3.0), log_ratio=3.0, seed=0)
@example(g=G.Grid(81, 40), log_ratio=-3.0, seed=0)
@example(g=G.Grid(81, 40), log_ratio=3.0, seed=0)
@example(g=G.Grid(96, 96, 3.0, 3.0), log_ratio=-3.0, seed=0)
@example(g=G.Grid(96, 96, 3.0, 3.0), log_ratio=3.0, seed=0)
def test_diffusion_solve_inverts_and_conserves(g, log_ratio, seed):
    dt = 10.0**log_ratio * g.h_min**2
    b = np.random.default_rng(seed).random(g.shape)
    x = S._SpectralHelmholtz(g, dt).solve(b.copy())
    residual = x - dt * G.laplacian(x, g) - b
    scale = (1.0 + 8.0 * dt / g.h_min**2) * np.linalg.norm(x) + np.linalg.norm(b)
    assert np.linalg.norm(residual) <= DIFFUSION_ROUNDING * np.finfo(float).eps * scale
    assert abs(float(np.sum(x)) - float(np.sum(b))) <= 1e-13 * float(np.sum(b))


# the Euler w update against the stencil: the residual's distance from the
# splitting term, over eps * ((max diag + 8 dt / h_min^2) |x| + |b|), peaked
# at 1.47 over 2000 examples of this strategy (1.70 and 1.86 over two more
# 2000), with the Laplacian that scales each axis once by 1/h^2
W_UPDATE_ROUNDING = 8.0


@settings(max_examples=80, deadline=None, derandomize=True)
@given(g=grids, log_ratio=log_dt_over_h2, seed=seeds,
       epsilon=hs.floats(0.0, 0.99), mu=hs.floats(0.0, 5.0),
       log_sigma=hs.floats(-2.0, 3.0))
def test_euler_w_update_is_nonnegative_and_misses_the_stencil_by_its_splitting(
        g, log_ratio, seed, epsilon, mu, log_sigma):
    # the nutrient diagonal of step(), with a population sum varying over up
    # to five decades, and a right-hand side reaching down to about 1e-12;
    # the residual is the stencil's, not the update's own algebra
    rng = np.random.default_rng(seed)
    dt = 10.0**log_ratio * g.h_min**2
    sigma = 10.0**log_sigma * rng.random(g.shape) ** 4
    w_old = rng.random(g.shape)
    diag = 1.0 + dt * (mu + sigma / (1.0 + epsilon * sigma * w_old))
    b = rng.random(g.shape) ** 4
    c = float(np.mean(diag))
    x = S._pcg(S._SpectralHelmholtz(g, dt), diag, b.copy())  # b is used up
    assert np.all(x >= 0.0)
    residual = diag * x - dt * G.laplacian(x, g) - b
    splitting = (diag - c) * (x - b / diag)
    scale = (float(diag.max()) + 8.0 * dt / g.h_min**2) * np.linalg.norm(x) + np.linalg.norm(b)
    assert np.linalg.norm(residual - splitting) <= (
        W_UPDATE_ROUNDING * np.finfo(float).eps * scale)


def test_run_setup_refuses_a_growth_envelope_that_does_not_hold():
    # admission belongs to the setup, so one built by hand is held to it too:
    # f(s) = 1 - s^3 breaks the declared upper envelope -5 s^3 + 1
    g = G.Grid(8, 8)
    ones = np.ones(g.shape)
    spec = replace(pp_spec(), K_f=5.0)
    with pytest.raises(DomainError, match=r"growth envelope violated \(f:upper"):
        hand_setup(g, make_params(spec=spec), K.InitialData(ones, ones, 0.0 * ones))


def test_an_admitted_setup_is_frozen_and_a_replaced_one_is_admitted_anew():
    # a field set after admission would skip the checks; replace runs them
    g = G.Grid(8, 8)
    ones = np.ones(g.shape)
    setup = hand_setup(g, make_params(), K.InitialData(ones, ones, ones))
    with pytest.raises(FrozenInstanceError):
        setup.t_end = -1.0
    with pytest.raises(DomainError, match="t_end must be finite and nonnegative"):
        replace(setup, t_end=-1.0)
    assert replace(setup, t_end=2.0).t_end == 2.0 and setup.t_end == 1.0


def test_manufactured_w_solve_takes_no_iteration():
    # no step iterates, the manufactured ones included
    setup = cli.mms_config(32).build_setup()
    st = S.State(*setup.params.mms.fields(setup.grid, 0.0))
    for _ in range(5):
        st, stats = S.step(st, setup.params, setup.fixed_dt, setup.grid,
                           setup.control)
        assert stats.cg_iterations == (0, 0, 0)


def test_run_lands_on_cadence_snapshot_and_end_times(tmp_path):
    cfg = replace(presets.preset("thm2-decay").config, nx=12, ny=12, t_end=1.0,
                  cadence=0.3, snapshot_every=0.2, out_dir=str(tmp_path))
    result = S.run(cfg.build_setup())
    assert result.completed
    assert [e.t for e in by_check(result.report, "weighted_functional")] == [
        0.0, 0.3, 0.6, 3 * 0.3, 1.0]
    # the snapshot due at 3 * 0.2 lands on the cadence time 2 * 0.3 = 0.6
    for name in "uvw":
        paths = sorted(tmp_path.glob(f"{name}_*.fld"))
        assert [G.read_field(p)[2] for p in paths] == [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]
    assert len(result.series["t"]) == result.steps + 1
    assert result.series["t"][-1] == 1.0


def test_run_ends_on_t_end_that_a_cadence_multiple_misses_by_rounding(tmp_path):
    # 3 * 0.3 == 0.8999999999999999, one rounding short of t_end = 0.9
    cfg = replace(presets.preset("thm2-decay").config, nx=12, ny=12, t_end=0.9,
                  cadence=0.3, snapshot_every=0.3, out_dir=str(tmp_path))
    result = S.run(cfg.build_setup())
    assert result.completed
    assert result.final_state.t == 0.9
    assert result.series["t"][-1] == 0.9
    assert [e.t for e in by_check(result.report, "weighted_functional")] == [
        0.0, 0.3, 0.6, 0.9]
    paths = sorted(tmp_path.glob("u_*.fld"))
    assert [G.read_field(p)[2] for p in paths] == [0.0, 0.3, 0.6, 0.9]


@pytest.mark.parametrize("split, steps", [
    (True, [(0.1, 0.85), (0.075, 0.925), (0.075, 1.0)]),
    (False, [(0.1, 0.85), (0.1, 0.95), (0.05, 1.0)])], ids=["adaptive", "fixed"])
def test_clock_before_an_event_halves_what_one_full_step_leaves(split, steps):
    # 2.5 steps of 0.1 before the snapshot at 1: with the split a full step
    # and two of 0.75 dt, so the step after the landing is an SBDF2 step;
    # without it two full steps and a sliver of 0.5 dt
    clock = S._EventClock(0.0, 1.0, 2.0, split=split)
    t = 0.75
    for i, (dt, t_new) in enumerate(steps):
        got_dt, t, cad_hit, snap_hit = clock.clip(t, 0.1)
        assert (got_dt, t) == (pytest.approx(dt, rel=1e-12), pytest.approx(t_new, rel=1e-15))
        assert not cad_hit and snap_hit == (i == 2)
    assert t == 1.0


def test_fixed_dt_run_takes_full_steps_and_clips_only_the_landing():
    cfg = replace(presets.preset("thm2-decay").config, nx=8, ny=8, t_end=0.2,
                  cadence=0.25, snapshot_every=0.1, fixed_dt=0.03, out_dir=None)
    result = S.run(cfg.build_setup())
    assert result.completed
    # full steps while one more leaves room before the event, then the rest
    t, want = 0.0, [0.0]
    for event in (0.1, 0.2):
        while t + 0.03 < event - 1e-9:
            want.append(0.03)
            t = t + 0.03
        want.append(event - t)
        t = event
    assert result.series["dt"].tobytes() == np.array(want).tobytes()


@pytest.mark.parametrize("shape", [(24, 17), (81, 40)])  # dense and DCT path
def test_diffusion_solve_overwrites_its_right_hand_side(shape):
    g = G.Grid(*shape, 1.3, 0.8)
    b = np.random.default_rng(5).random(g.shape)
    x = b.copy()
    assert S._SpectralHelmholtz(g, 3e-3).solve(x, 1.37) is x
    residual = 1.37 * x - 3e-3 * G.laplacian(x, g) - b
    assert np.linalg.norm(residual) <= 1e-13 * np.linalg.norm(b)


def test_dct_solve_copies_back_an_inverse_transform_that_is_not_in_place(monkeypatch):
    # overwrite_x permits an in-place transform but does not promise one
    g = G.Grid(81, 40)
    b = np.random.default_rng(9).random(g.shape)
    want = S._SpectralHelmholtz(g, 3e-3).solve(b.copy(), 1.37)
    fresh = []

    def idctn(x, **kwargs):
        # leaves the coefficients in x and returns the result in a new array
        fresh.append(sfft.idctn(x, **{**kwargs, "overwrite_x": False}))
        return fresh[-1]

    monkeypatch.setattr(S, "_fft", SimpleNamespace(dctn=sfft.dctn, idctn=idctn))
    helm = S._SpectralHelmholtz(g, 3e-3)
    assert not helm.dense
    x = b.copy()
    assert helm.solve(x, 1.37) is x
    assert len(fresh) == 1 and not np.may_share_memory(fresh[0], x)
    assert x.tobytes() == want.tobytes()


# grids on the dense cosine path, up to its cutoff, and a preconditioner-like
# c (the mean w diagonal 1 + dt (mu + sigma)) beside the diffusion's c = 1;
# at 20 and 32 the products on the cached transposes round differently
# from products on transposed views
@pytest.mark.parametrize("shape", [(24, 17), (40, 40), (80, 80), (20, 20), (32, 32)])
@pytest.mark.parametrize("c", [1.0, 1.37])
def test_dense_cosine_solve_matches_the_dct_solve(monkeypatch, shape, c):
    g = G.Grid(*shape, 1.3, 0.8)
    b = np.random.default_rng(7).random(g.shape)
    dt = 3e-3
    dense = S._SpectralHelmholtz(g, dt)
    assert dense.dense
    monkeypatch.setattr(S, "DENSE_DCT_MAX", 0)
    by_dct = S._SpectralHelmholtz(g, dt)
    assert not by_dct.dense
    x, ref = dense.solve(b.copy(), c), by_dct.solve(b.copy(), c)
    assert np.linalg.norm(x - ref) <= 1e-13 * np.linalg.norm(ref)
    eps = np.finfo(float).eps
    assert abs(float(np.sum(x)) - float(np.sum(b)) / c) <= 4 * eps * float(np.sum(np.abs(b)))


@pytest.mark.parametrize("shape", [(81, 40), (40, 81)])
def test_grid_beyond_the_dense_cutoff_keeps_the_dct_solve(shape):
    g = G.Grid(*shape)
    helm = S._SpectralHelmholtz(g, 3e-3)
    assert not helm.dense
    b = np.random.default_rng(3).random(g.shape)
    coeffs = sfft.dctn(b, type=2, norm="ortho") / (S._neumann_eigenvalues(g) * 3e-3 + 1.0)
    plain = sfft.idctn(coeffs, type=2, norm="ortho")
    assert helm.solve(b.copy()).tobytes() == plain.tobytes()


def thm1_core_start(n):
    setup = replace(presets.preset("thm1-core").config, nx=n, ny=n,
                    out_dir=None).build_setup()
    init = setup.initial
    return setup, S.State(init.u0.astype(float), init.v0.astype(float),
                          init.w0.astype(float))


def step_memory(setup, st, dt, history=None):
    """(peak, kept) field-sizes of one step after a warm-up step (cached
    eigenvalue tables, cosine mode, FFT plans).

    With a ``History`` the step is taken as ``run`` takes it: two warm-up
    steps (Euler, then SBDF2) fill the history, and the measured SBDF2 step
    is handed the state's growth terms as ``laws``, evaluated before the
    measurement as the run's record evaluates them.
    """
    args = (setup.params, dt, setup.grid, setup.control)
    ks = setup.params.kinetics

    def laws_of(s):
        return None if history is None else (ks.law_f(s.u), ks.law_g(s.v))

    for _ in range(1 if history is None else 2):
        st, _ = S.step(st, *args, laws=laws_of(st), history=history)
    laws = laws_of(st)
    field = st.u.nbytes
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        new, _ = S.step(st, *args, laws=laws, history=history)
        del laws
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return (peak - base) / field, round((current - base) / field)


def test_step_allocates_its_outputs_and_few_work_arrays():
    # one step holds at most 10 field-sizes at a time and keeps exactly its
    # 3 outputs
    peak, kept = step_memory(*thm1_core_start(64), 2e-3)
    assert peak <= 10.0
    assert kept == 3


def test_sbdf2_step_builds_its_terms_in_the_callers_laws():
    # the growth terms handed over become the step's explicit terms, and u
    # and v are built in the history's spent terms, so the step keeps one
    # new field (w) and peaks at 5.2 field-sizes at 64^2 (it kept 3 and
    # peaked at 7.0 while it allocated its terms beside the caller's laws)
    setup, st = thm1_core_start(64)
    peak, kept = step_memory(setup, st, 2e-3, history=S.History())
    assert peak <= 6.0
    assert kept == 1


def test_manufactured_step_allocates_its_outputs_and_few_work_arrays():
    # the sources add their own fields and temporaries to the step: at most
    # 13 field-sizes at a time, and still only the 3 outputs kept
    setup = cli.mms_config(64).build_setup()
    init = setup.initial
    st = S.State(init.u0.astype(float), init.v0.astype(float), init.w0.astype(float))
    peak, kept = step_memory(setup, st, setup.fixed_dt)
    assert peak <= 13.0
    assert kept == 3


@pytest.mark.parametrize("n", [24, 96])  # the dense and the DCT path
def test_step_builds_one_spectral_operator_for_its_three_solves(monkeypatch, n):
    setup, st = thm1_core_start(n)
    built = []

    class Counting(S._SpectralHelmholtz):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(S, "_SpectralHelmholtz", Counting)
    S.step(st, setup.params, 2e-3, setup.grid, setup.control)
    assert built == [(setup.grid, 2e-3)]


@pytest.mark.parametrize("n", [24, 96])  # the dense and the DCT path
def test_operator_solves_at_shifts_in_turn_as_fresh_operators_bitwise(n):
    # a step's solves come at c = 1, 1, then the w shift; every solve writes
    # its own denominators, so no solve reads what the one before left
    g = G.Grid(n, n)
    rng = np.random.default_rng(n)
    dt, c_w = 2e-3, 1.0 + rng.random()
    op = S._SpectralHelmholtz(g, dt)
    assert op.dense == (n <= S.DENSE_DCT_MAX)
    for c in (1.0, 1.0, c_w, c_w, 1.0):
        b = rng.random(g.shape)
        got = op.solve(b.copy(), c)
        want = S._SpectralHelmholtz(g, dt).solve(b.copy(), c)
        assert got.tobytes() == want.tobytes()


_FAULT_PROBE = """
import resource
from taxis_cascade import cli
counts = []
for _ in range(2):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    cli.mms_study([128], t_end=0.02)
    counts.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(*counts)
"""


@pytest.mark.skipif(resource is None or platform.libc_ver()[0] != "glibc",
                    reason="page-fault counts of glibc's heap")
@pytest.mark.parametrize("hash_seed", ["0", "1", "2"])
def test_manufactured_128_run_faults_its_heap_in_once(hash_seed):
    # one 128^2 study (328 steps) in a fresh process faults in about 890
    # pages, and a second one in the same process about 8, whatever the
    # layout of unrelated small allocations: the run's working set stays
    # mapped (solver._settle_heap).  Without it the second study faults in
    # about 930 pages, or 26,000 where glibc trims the heap every other step.
    src = str(Path(S.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=hash_seed,
               OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", _FAULT_PROBE], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    first, second = (int(x) for x in proc.stdout.split())
    assert first <= 1700
    assert second <= 100


# The peak resident set of the process's own memory (VmHWM, in kB).  Not
# ru_maxrss: Linux carries that across exec, so a child of the test process
# would start at the test process's peak.
_RESIDENT_PROBE = """
from dataclasses import replace
from taxis_cascade import presets, solver

def peak_kb():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))

n = 256
cfg = replace(presets.preset("thm1-core").config, nx=n, ny=n, t_end=0.002, out_dir=None)
setup = cfg.build_setup()
before = peak_kb()
result = solver.run(setup)
print(result.steps, (peak_kb() - before) * 1024 / (8 * n * n))
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc"
                    or not Path("/proc/self/status").exists(),
                    reason="peak resident set of glibc's heap, from /proc")
@pytest.mark.parametrize("hash_seed", ["0", "1", "2"])
def test_adaptive_256_run_grows_few_fields_over_its_setup(hash_seed):
    # an adaptive thm1-core run at 256^2 (8 steps, SBDF2 after the first)
    # raises the process's peak resident set by about 14 field-sizes over
    # the setup, which holds the initial data the run starts from: the
    # state, the history (5), the eigenvalue table, the step's work array
    # and the taxis transients.  It grew by 24 while the run copied the
    # initial data, cached the cell centres, kept a recorder buffer and
    # held the growth terms beside the step's own explicit terms.
    src = str(Path(S.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=hash_seed,
               OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", _RESIDENT_PROBE], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    steps, growth = proc.stdout.split()
    assert int(steps) == 8
    assert float(growth) <= 18.0


def test_mms_sources_build_their_fields_one_at_a_time():
    # each source is one expression in the three fields and the cached cosine
    # mode; building them peaks at about 9 field-sizes and keeps only the 3
    setup, st = thm1_core_start(64)
    mms = S.shipped_mms()
    mms.sources(setup.params, setup.grid, 0.0)  # warm the cosine-mode cache
    field = st.u.nbytes
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        sources = mms.sources(setup.params, setup.grid, 1e-3)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(sources) == 3
    assert (peak - base) / field <= 10.0
    assert round((current - base) / field) == 3


@pytest.mark.parametrize("manufactured", [False, True])
def test_step_outputs_are_fresh_and_inputs_untouched(manufactured):
    setup, st = thm1_core_start(24)
    mms = S.shipped_mms() if manufactured else None
    if manufactured:
        st = S.State(*mms.fields(setup.grid, 0.0))
        sources_before = mms.sources(setup.params, setup.grid, 2e-3)
    args = (replace(setup.params, mms=mms), 1e-3, setup.grid, setup.control)
    st_before = replace(st, u=st.u.copy(), v=st.v.copy(), w=st.w.copy())
    one, _ = S.step(st, *args)
    one_before = replace(one, u=one.u.copy(), v=one.v.copy(), w=one.w.copy())
    two, _ = S.step(one, *args)
    fields = [st.u, st.v, st.w, one.u, one.v, one.w, two.u, two.v, two.w]
    for i, a in enumerate(fields):
        for b in fields[i + 1:]:
            assert not np.shares_memory(a, b)
    for kept, before in ((st, st_before), (one, one_before)):
        for name in "uvw":
            assert getattr(kept, name).tobytes() == getattr(before, name).tobytes()
    if manufactured:
        for s, s0 in zip(mms.sources(setup.params, setup.grid, 2e-3), sources_before):
            assert s.tobytes() == s0.tobytes()


@pytest.mark.parametrize("manufactured", [False, True])
def test_step_with_the_callers_laws_is_bitwise_step(manufactured):
    setup, st = thm1_core_start(24)
    mms = S.shipped_mms() if manufactured else None
    if manufactured:
        st = S.State(*mms.fields(setup.grid, 0.0))
    ks = setup.params.kinetics
    args = (st, replace(setup.params, mms=mms), 1e-3, setup.grid, setup.control)
    plain, _ = S.step(*args)
    shared, _ = S.step(*args, laws=(ks.law_f(st.u), ks.law_g(st.v)))
    for name in "uvw":
        assert getattr(shared, name).tobytes() == getattr(plain, name).tobytes()


@pytest.mark.parametrize("fixed_dt", [None, 1e-3])
def test_run_starts_from_the_admitted_initial_arrays(fixed_dt):
    # no copy: the first state is the setup's initial data, which no step,
    # record or monitor writes (read-only arrays would raise), so a setup
    # runs twice to the same bits
    setup, _ = thm1_core_start(24)
    setup = replace(setup, t_end=0.1, fixed_dt=fixed_dt)
    init = setup.initial
    for phi in (init.u0, init.v0, init.w0):
        phi.setflags(write=False)
    first, second = S.run(setup), S.run(setup)
    assert first.completed and first.steps > 10
    for name in "uvw":
        assert (getattr(first.final_state, name).tobytes()
                == getattr(second.final_state, name).tobytes())
    echo = S.run(replace(setup, t_end=0.0)).final_state
    assert all(a is b for a, b in zip((echo.u, echo.v, echo.w),
                                      (init.u0, init.v0, init.w0)))


def test_run_evaluates_each_law_once_per_state(monkeypatch):
    # the record's law_f(u) and law_g(v) are the next step's growth terms,
    # and suggest_dt takes analytic slopes, so a state costs two law calls
    cfg = replace(presets.preset("thm2-decay").config, nx=16, ny=16, t_end=1.0,
                  snapshot_every=0.0, out_dir=None)
    setup = cfg.build_setup()
    calls = []
    for cls in K.GrowthLaw.__subclasses__():
        def counting(self, s, _law=cls.__call__):
            calls.append(s)
            return _law(self, s)
        monkeypatch.setattr(cls, "__call__", counting)
    result = S.run(setup)
    assert result.completed and result.steps > 0
    assert len(calls) == 2 * (result.steps + 1)


def test_manufactured_run_skips_the_integrals_only_the_monitors_read(monkeypatch):
    # with the monitors off, consumption is evaluated only by the sources
    # (once per step), and the four monitor-only series stay empty
    calls = []

    def counting(*args, _term=S.consumption_term):
        calls.append(args)
        return _term(*args)

    monkeypatch.setattr(S, "consumption_term", counting)
    result = S.run(cli.mms_config(16, t_end=0.05).build_setup())
    assert result.completed and result.steps > 0
    assert len(calls) == result.steps
    series = result.series
    for name in ("int_u_alpha", "int_v_beta", "int_abs_g_v", "int_consumption"):
        assert series[name].shape == (0,)
    for name in ("t", "mass_u", "mass_v", "mass_w", "linf_u", "linf_v", "linf_w",
                 "int_g_v"):
        assert len(series[name]) == result.steps + 1


def test_log_gradient_energy_is_evaluated_at_cadence_hits_only(monkeypatch):
    # one integrand call per cadence hit (t = 0, 0.25, 0.5, 0.75, 1), and each
    # row is the energy of the state recorded at that time, bit for bit
    calls, states = [], []

    def counting(v, g, _integrand=M.log_gradient_integrand):
        calls.append(v)
        return _integrand(v, g)

    def recording_step(*args, _step=S.step, **kwargs):
        new, stats = _step(*args, **kwargs)
        states.append(new)
        return new, stats

    monkeypatch.setattr(M, "log_gradient_integrand", counting)
    monkeypatch.setattr(S, "step", recording_step)
    cfg = replace(presets.preset("thm2-decay").config, nx=12, ny=12, t_end=1.0,
                  out_dir=None)
    setup = cfg.build_setup()
    result = S.run(setup)
    assert result.completed and result.steps == len(states) > 5
    rows = by_check(result.report, "log_gradient_energy")
    assert [e.t for e in rows] == [0.0, 0.25, 0.5, 0.75, 1.0]
    assert len(calls) == len(rows) == 5
    v_at = {0.0: setup.initial.v0.astype(float)}
    v_at.update((st.t, st.v) for st in states)
    for e in rows:
        want = log_gradient_reference(v_at[e.t], setup.grid)
        assert np.float64(e.value).tobytes() == np.float64(want).tobytes()


def test_manufactured_run_never_evaluates_the_log_gradient_energy(monkeypatch):
    calls = []
    monkeypatch.setattr(M, "log_gradient_integrand", lambda *a: calls.append(a))
    result = S.run(cli.mms_config(16, t_end=0.05).build_setup())
    assert result.completed and result.steps > 0
    assert calls == []


def test_recorded_integrals_equal_the_plain_expressions(monkeypatch):
    # the recorder writes u^alpha, v^beta and |g(v)| into one buffer of its
    # own; each recorded value must be the integral of the plain expression
    states = []

    def recording_step(*args, _step=S.step, **kwargs):
        new, stats = _step(*args, **kwargs)
        states.append(new)
        return new, stats

    monkeypatch.setattr(S, "step", recording_step)
    cfg = replace(presets.preset("thm2-decay").config, nx=12, ny=12, t_end=0.3,
                  out_dir=None)
    setup = cfg.build_setup()
    result = S.run(setup)
    assert result.completed and result.steps == len(states) > 0
    g, ks = setup.grid, setup.params.kinetics
    init = setup.initial
    states.insert(0, S.State(init.u0.astype(float), init.v0.astype(float),
                             init.w0.astype(float)))
    # a whole exponent is the left-to-right product (kinetics.power)
    assert ks.alpha == ks.beta == 3.0
    plain = {"int_u_alpha": [G.integrate(st.u * st.u * st.u, g) for st in states],
             "int_v_beta": [G.integrate(st.v * st.v * st.v, g) for st in states],
             "int_abs_g_v": [G.integrate(np.abs(ks.law_g(st.v)), g) for st in states]}
    for name, values in plain.items():
        assert result.series[name].tobytes() == np.asarray(values).tobytes()


def test_run_warns_when_fixed_dt_far_exceeds_the_suggested_step(tmp_path):
    setup, st = thm1_core_start(16)
    bound = S.suggest_dt(st, setup.params, setup.grid, setup.control)
    with pytest.warns(RuntimeWarning, match="fixed_dt") as record:
        S.run(replace(setup, fixed_dt=11.0 * bound, t_end=0.0))
    assert len(record) == 1
    assert repr(11.0 * bound) in str(record[0].message)
    assert repr(bound) in str(record[0].message)
    # neither a step just inside the bound, the manufactured study (dt = h^2)
    # nor the epsilon sweep (half the suggested step) warns
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        S.run(replace(setup, fixed_dt=9.0 * bound, t_end=0.0))
        S.run(cli.mms_config(128, t_end=0.0).build_setup())
        cfg = replace(presets.preset("thm1-core").config, nx=12, ny=12)
        cli.sweep_epsilon(replace(cfg, t_end=0.05), [1e-1, 1e-2], out_root=str(tmp_path))


def test_watchdog_catches_non_finite_and_huge_values():
    for bad in (np.nan, np.inf):
        phi = np.ones((4, 4))
        phi[1, 2] = bad
        with pytest.raises(BlowUpError, match="lost finiteness"):
            S._admit(phi, "u", 0.5)
    phi = np.ones((4, 4))
    phi[0, 3] = 2e8
    with pytest.raises(BlowUpError, match="reached 2.000e\\+08"):
        S._admit(phi, "u", 0.5)
    # below the clamp floor is a positivity error before any blow-up check
    for bad in (-np.inf, -2e8):
        phi = np.ones((4, 4))
        phi[0, 3] = bad
        with pytest.raises(PositivityError):
            S._admit(phi, "u", 0.5)
    assert S._admit(np.ones((4, 4)), "u", 0.5) == (0, 1.0)


_THREAD_PROBE = """
import hashlib, sys
from dataclasses import replace
from taxis_cascade import presets, solver
n = int(sys.argv[1])
cfg = replace(presets.preset("thm1-core").config, nx=n, ny=n, out_dir=None)
setup = cfg.build_setup()
init = setup.initial
st = solver.State(init.u0.astype(float), init.v0.astype(float), init.w0.astype(float))
for _ in range(40):
    dt = solver.suggest_dt(st, setup.params, setup.grid, setup.control)
    st, _ = solver.step(st, setup.params, dt, setup.grid, setup.control)
for phi in (st.u, st.v, st.w):
    print(hashlib.sha256(phi.tobytes()).hexdigest())
"""


# 40 takes the dense cosine path, whose matmuls go through BLAS; 128 the DCT
@pytest.mark.parametrize("n", [40, 128])
def test_final_state_independent_of_blas_threads(n):
    # in fresh processes, since BLAS reads its thread count at import
    assert (n <= S.DENSE_DCT_MAX) == (n == 40)
    src = str(Path(S.__file__).resolve().parents[1])
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-c", _THREAD_PROBE, str(n)], env=env,
                              capture_output=True, text=True, timeout=300, check=True)
        digests.append(proc.stdout.split())
    assert len(digests[0]) == 3
    assert digests[0] == digests[1]


def test_consumption_monotone_in_epsilon():
    rng = np.random.default_rng(29)
    u, v, w = rng.random((3, 6, 6)) * 3.0
    prev = None
    for eps in (0.0, 1e-3, 1e-2, 0.1, 0.5, 0.99):
        term = S.consumption_term(u, v, w, eps)
        if prev is not None:
            assert np.all(term <= prev + 1e-15)
        prev = term


def test_positivity_over_many_steps():
    g = G.Grid(16, 16)
    X, Y = g.cell_centers()
    u = 0.1 + 1.5 * np.exp(-((X - 0.4) ** 2 + (Y - 0.4) ** 2) / 0.02)
    v = 0.1 + 1.0 * np.exp(-((X - 0.7) ** 2 + (Y - 0.6) ** 2) / 0.02)
    w = 0.5 + 0.4 * np.exp(-((X - 0.5) ** 2 + (Y - 0.5) ** 2) / 0.05)
    params = make_params(mu=0.1, epsilon=1e-3, amplitude=0.1)
    control = S.StepControl(dt_max=0.02, safety=0.2)
    st = S.State(u, v, w)
    clamps = 0
    for _ in range(200):
        dt = S.suggest_dt(st, params, g, control)
        st, stats = S.step(st, params, dt, g, control)
        clamps += stats.clamps
    assert clamps == 0
    assert min(st.u.min(), st.v.min(), st.w.min()) >= 0.0


def test_clamp_window():
    phi = np.array([[0.5, -5e-13], [1.0, 2.0]])
    count, sup = S._admit(phi, "u", 0.5)
    assert count == 1 and phi[0, 1] == 0.0
    assert sup == 2.0
    with pytest.raises(PositivityError):
        S._admit(np.array([[0.1, -1e-11]]), "u", 0.5)


@pytest.mark.parametrize("entries, dust", [
    ([-5e-13, -1e-13], 2),             # every entry dust: sup +0.0
    ([-0.0, -0.0], 0),                 # negative zeros are not dust
    ([-0.0, -5e-13], 1),
    ([0.0, -0.0], 0),
    ([0.5, -0.0, -5e-13, 2.0], 1),
    ([3.0, 1.0], 0),
])
def test_admission_sup_is_norm_linf_of_the_admitted_field_bitwise(entries, dust):
    phi = np.array([entries, entries[::-1]])
    count, sup = S._admit(phi, "u", 0.5)
    assert count == 2 * dust
    assert not np.any(phi < 0.0)
    assert np.float64(sup).tobytes() == np.float64(G.norm_linf(phi)).tobytes()
    assert math.copysign(1.0, sup) == 1.0


@pytest.mark.parametrize("negative_zero_w", [False, True])
def test_recorded_sup_norms_are_norm_linf_of_every_state_bitwise(monkeypatch,
                                                                  negative_zero_w):
    # the new states' norms come from admission, the initial state's from
    # norm_linf; w0 = -0.0 with no resupply keeps a flat zero w all along
    states = []

    def recording_step(*args, _step=S.step, **kwargs):
        new, stats = _step(*args, **kwargs)
        states.append(new)
        return new, stats

    monkeypatch.setattr(S, "step", recording_step)
    cfg = replace(presets.preset("thm2-decay").config, nx=12, ny=12, t_end=0.3,
                  out_dir=None)
    setup = cfg.build_setup()
    if negative_zero_w:
        init = setup.initial
        setup = replace(setup, params=replace(setup.params, resupply=K.ResupplySpec()),
                        initial=K.InitialData(init.u0, init.v0, np.full(init.w0.shape, -0.0)))
    result = S.run(setup)
    assert result.completed and result.steps == len(states) > 0
    init = setup.initial
    states.insert(0, S.State(init.u0.astype(float), init.v0.astype(float),
                             init.w0.astype(float)))
    for name in "uvw":
        expected = np.array([G.norm_linf(getattr(st, name)) for st in states])
        assert result.series[f"linf_{name}"].tobytes() == expected.tobytes()
    if negative_zero_w:
        assert result.series["linf_w"].tobytes() == np.zeros(len(states)).tobytes()


def _per_step_violations(result):
    """Failed per-step check entries, one state of the record at a time."""
    series, consts, mu = result.series, result.consts, result.setup.params.mu
    counts = {}
    for i in range(len(series["t"])):
        t, dt = float(series["t"][i]), float(series["dt"][i])
        entries = M.check_mass(t, float(series["mass_u"][i]), float(series["mass_v"][i]),
                               consts, dt)
        entries += M.check_w_supersolution(t, float(series["linf_w"][i]),
                                           float(series["wbar"][i]), consts, mu, dt)
        for e in entries:
            counts[e.check] = counts.get(e.check, 0) + (not e.passed)
    return counts


def _tightened_constants(monkeypatch):
    # ceilings below what thm2-decay reaches, so each check fails somewhere
    original = M.BoundConstants.from_setup.__func__

    def tightened(cls, *args):
        c = original(cls, *args)
        return replace(c, u_star=0.3 * c.u_star, v_star=0.97 * c.v_star, w_star=0.35)

    monkeypatch.setattr(M.BoundConstants, "from_setup", classmethod(tightened))


def test_step_checks_are_the_per_step_loop_over_the_record(monkeypatch):
    _tightened_constants(monkeypatch)
    # the per-step tolerance grows with dt: at the preset's safety 0.4 it
    # absorbs the 0.97 v_star ceiling, and mass_v would fail nowhere
    cfg = replace(presets.preset("thm2-decay").config, t_end=3.0, out_dir=None,
                  safety=0.2)
    result = S.run(cfg.build_setup())
    assert result.completed
    counts = {name: stats.violations for name, stats in result.step_checks.items()}
    assert list(counts) == ["mass_u", "mass_v", "w_supersolution", "w_ceiling"]
    assert counts == _per_step_violations(result)
    assert counts["mass_u"] > 0 and counts["mass_v"] > 0 and counts["w_ceiling"] > 0
    # the report holds the cadence-time entries of the same checks
    failed = {e.check for e in result.report.failures()}
    assert {"mass_u", "mass_v", "w_ceiling"} <= failed


def test_step_checks_of_a_failed_run_count_the_states_it_recorded(monkeypatch):
    _tightened_constants(monkeypatch)
    taken = []

    def failing_step(*args, _step=S.step, **kwargs):
        if len(taken) == 40:
            raise PositivityError("positivity violation in u at cell (0, 0): -1.000000e+00")
        taken.append(None)
        return _step(*args, **kwargs)

    monkeypatch.setattr(S, "step", failing_step)
    cfg = replace(presets.preset("thm2-decay").config, t_end=3.0, out_dir=None)
    result = S.run(cfg.build_setup())
    assert result.failure.startswith("PositivityError")
    assert len(result.series["t"]) == 41
    counts = {name: stats.violations for name, stats in result.step_checks.items()}
    assert counts == _per_step_violations(result)
    assert counts["mass_u"] > 0


# dense cosine path and scipy's DCT; a flat, a mildly and a strongly
# peaked uptake, as a run's populations make the w diagonal
@pytest.mark.parametrize("n", [16, 96])
@pytest.mark.parametrize("amp", [0.0, 0.05, 5.0])
def test_euler_w_update_is_one_cosine_solve_of_the_scaled_rhs_bitwise(n, amp):
    g = G.Grid(n, n)
    X, Y = g.cell_centers()
    dt = 5e-3
    b = 0.5 + 0.4 * np.exp(-((X - 0.5) ** 2 + (Y - 0.5) ** 2) / 0.05)
    diag = 1.0 + dt * (0.1 + amp * np.exp(-((X - 0.3) ** 2 + (Y - 0.3) ** 2) / 0.01))
    kept = diag.copy()
    x = S._pcg(S._SpectralHelmholtz(g, dt), diag, b.copy())
    c = float(np.mean(diag))
    x_ref = S._SpectralHelmholtz(g, dt).solve(b / diag * c, c)
    assert x.tobytes() == x_ref.tobytes()
    assert diag.tobytes() == kept.tobytes()  # only the SBDF2 update spends it


@pytest.mark.parametrize("sbdf2", [False, True])
@pytest.mark.parametrize("g", [G.Grid(16, 16), G.Grid(24, 11, 1.7, 0.6)])
def test_w_update_with_a_constant_diagonal_solves_the_stencil_system(g, sbdf2):
    # c is then the diagonal, so the splitting term (diag - c)(x - pred) is
    # rounding whatever the predictor; 1e-10 is the tolerance the CG met
    dt = 3e-3
    rng = np.random.default_rng(11)
    diag = np.full(g.shape, 1.0 + dt * 0.7)
    b = rng.random(g.shape)
    pred = rng.random(g.shape) if sbdf2 else None
    x = S._pcg(S._SpectralHelmholtz(g, dt), diag.copy(), b.copy(), pred)
    residual = b - (diag * x - dt * G.laplacian(x, g))
    assert np.linalg.norm(residual) <= 1e-10 * np.linalg.norm(b)


@pytest.mark.parametrize("n", [16, 96])  # dense cosine path and scipy's DCT
def test_euler_w_update_of_a_zero_rhs_is_zero(n):
    # no nutrient and no resupply leave w exactly zero, not dust of either sign
    g = G.Grid(n, n)
    dt = 1e-3
    X, Y = g.cell_centers()
    diag = 1.0 + dt * (0.1 + 5.0 * np.exp(-((X - 0.3) ** 2 + (Y - 0.3) ** 2) / 0.01))
    x = S._pcg(S._SpectralHelmholtz(g, dt), diag, np.zeros(g.shape))
    assert not np.any(x) and not np.any(np.signbit(x))


def test_thm1_core_fixed_dt_runs_converge_in_time_without_iterating(monkeypatch):
    # at a fixed dt every step is an Euler step.  Relative L2 errors of w at
    # t = 0.2 against dt = 3.125e-4 measured 1.19e-4 at dt = 5e-3 (2.0e-4
    # while the w solve was a CG to 1e-10) and 5.3e-5 at 2.5e-3, order 1.17
    iterations = []

    def counting_step(*args, _step=S.step, **kwargs):
        new, stats = _step(*args, **kwargs)
        iterations.append(stats.cg_iterations)
        return new, stats

    monkeypatch.setattr(S, "step", counting_step)
    final = {}
    for dt in (5e-3, 2.5e-3, 3.125e-4):
        cfg = replace(presets.preset("thm1-core").config, nx=40, ny=40, t_end=0.2,
                      fixed_dt=dt, out_dir=None)
        result = S.run(cfg.build_setup())
        assert result.completed and result.total_clamps == 0
        final[dt] = result.final_state.w
    assert len(iterations) == 40 + 80 + 640
    assert set(iterations) == {(0, 0, 0)}
    ref = final[3.125e-4]
    err = {dt: np.linalg.norm(final[dt] - ref) / np.linalg.norm(ref) for dt in (5e-3, 2.5e-3)}
    assert err[5e-3] <= 1.5e-4, err
    assert math.log2(err[5e-3] / err[2.5e-3]) >= 0.9, err


# dense cosine path and scipy's DCT; the fine references of the benchmark
# are built by steps without a history at 40^2, 128^2 and 256^2
@pytest.mark.parametrize("n", [24, 96, 128])
@pytest.mark.parametrize("eps, mu, profile", [
    (0.0, 0.0, "constant"), (0.0, 0.4, "gaussian"), (1e-3, 0.0, "constant"),
    (1e-3, 0.4, "gaussian"), (0.0, 0.0, "gaussian"), (1e-3, 0.4, "constant")])
def test_step_skipping_zero_terms_is_the_full_expression_step_bitwise(n, eps, mu, profile):
    setup, st = thm1_core_start(n)
    st.t = 0.3  # a decaying resupply factor below 1
    resupply = K.ResupplySpec(profile=profile, amplitude=0.3, center=(0.4, 0.6),
                              width=0.15, decay_lambda=0.7)
    params = replace(setup.params, epsilon=eps, mu=mu, resupply=resupply)
    dt = 2e-3
    spectral = S._SpectralHelmholtz(setup.grid, dt)
    for _ in range(2):
        new, _ = S.step(st, params, dt, setup.grid, setup.control)
        u, v, w = step_reference(st, params, dt, setup.grid,
                                 lambda b, c: spectral.solve(b.copy(), c))
        assert (new.u.tobytes(), new.v.tobytes(), new.w.tobytes()) == (
            u.tobytes(), v.tobytes(), w.tobytes())
        st = new


@pytest.mark.parametrize("omega", [0.25, 1.0, 2.4 / 1.3])
@pytest.mark.parametrize("given_out", [False, True], ids=["new", "out"])
def test_bdf2_levels_are_the_four_pass_expression_bitwise(omega, given_out):
    rng = np.random.default_rng(7)
    phi, phi_prev = rng.random((2, 24, 24))
    expected = np.multiply(phi_prev, omega / (1.0 + omega))
    np.subtract(phi, expected, out=expected)
    expected *= omega
    expected += phi
    out = np.empty_like(phi) if given_out else None
    field = phi.nbytes
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        levels = S._bdf2_levels(phi, phi_prev, omega, out=out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert levels.tobytes() == expected.tobytes()
    if given_out:
        assert levels is out
        assert peak - base < field
    else:
        # one new field: the weighted previous level, extrapolated in place
        assert field <= peak - base < 2 * field


def test_sbdf2_ratio_is_none_first_and_refuses_the_stability_bound():
    assert S.sbdf2_ratio(1e-3, 0.0) is None
    assert S.sbdf2_ratio(2.4e-3, 1e-3) == 2.4e-3 / 1e-3
    with pytest.raises(DomainError, match="SBDF2 bound"):
        S.sbdf2_ratio(S.SBDF2_MAX_RATIO, 1.0)
    assert S.sbdf2_ratio(1e-3, 4e-3) == 0.25


@pytest.mark.parametrize("ratio", [S.SBDF2_MAX_RATIO, 3.0, 1.0])
def test_a_step_with_history_is_euler_first_then_sbdf2_or_refused(ratio):
    setup, st = thm1_core_start(24)
    args = (setup.params, 2e-3, setup.grid, setup.control)
    history = S.History()
    one, _ = S.step(st, *args, history=history)
    plain, _ = S.step(st, *args)
    assert (one.u.tobytes(), one.v.tobytes(), one.w.tobytes()) == (
        plain.u.tobytes(), plain.v.tobytes(), plain.w.tobytes())
    history.dt = 2e-3 / ratio
    kept = (history.fields, history.terms)
    if ratio >= S.SBDF2_MAX_RATIO:
        # refused before the history is touched
        with pytest.raises(DomainError, match="SBDF2 bound"):
            S.step(one, *args, history=history)
        assert (history.fields, history.terms, history.dt) == (*kept, 2e-3 / ratio)
        return
    two, _ = S.step(one, *args, history=history)
    euler, _ = S.step(one, *args)
    assert two.u.tobytes() != euler.u.tobytes() and two.w.tobytes() != euler.w.tobytes()


def test_a_step_leaves_its_state_terms_and_dt_in_the_history():
    # the first (Euler) step keeps the v term it took, on the new u; an
    # SBDF2 step takes and keeps it on the old u
    setup, st = thm1_core_start(24)
    ks, g = setup.params.kinetics, setup.grid
    history = S.History()
    for dt in (2e-3, 3e-3):
        first = history.dt == 0.0
        new, _ = S.step(st, setup.params, dt, g, setup.control, history=history)
        assert history.fields == (st.u, st.v, st.w) and history.dt == dt
        n_u, n_v = history.terms
        np.testing.assert_array_equal(
            n_u, ks.law_f(st.u) - G.taxis_divergence(st.u, st.w, g))
        np.testing.assert_array_equal(
            n_v, ks.law_g(st.v) - G.taxis_divergence(st.v, new.u if first else st.u, g))
        st = new


def test_first_step_of_an_adaptive_run_takes_two_taxis_terms(monkeypatch):
    # u's on w and v's on the new u, which the history keeps: no third taxis
    # term on the old u for the history alone
    setup, st = thm1_core_start(24)
    calls = []

    def counting_taxis(*args, _taxis=G.taxis_divergence):
        calls.append(args)
        return _taxis(*args)

    monkeypatch.setattr(G, "taxis_divergence", counting_taxis)
    S.step(st, setup.params, 2e-3, setup.grid, setup.control, history=S.History())
    assert len(calls) == 2


@pytest.mark.parametrize("n", [24, 96])  # dense cosine path and scipy's DCT
@pytest.mark.parametrize("eps, mu, profile", [
    (1e-3, 0.0, "constant"), (0.0, 0.4, "gaussian"), (1e-3, 0.4, "gaussian")])
@pytest.mark.parametrize("ratio", [0.5, 1.0, 2.0])
def test_sbdf2_step_is_the_variable_step_formula(n, eps, mu, profile, ratio):
    setup, st = thm1_core_start(n)
    resupply = K.ResupplySpec(profile=profile, amplitude=0.3, center=(0.4, 0.6),
                              width=0.15, decay_lambda=0.7)
    params = replace(setup.params, epsilon=eps, mu=mu, resupply=resupply)
    g, control = setup.grid, setup.control
    dt_prev, dt = 2e-3, 2e-3 * ratio
    history = S.History()
    one, _ = S.step(st, params, dt_prev, g, control, history=history)
    n_prev = tuple(n.copy() for n in history.terms)
    two, stats = S.step(one, params, dt, g, control, history=history)
    spectral = S._SpectralHelmholtz(g, dt)
    want = sbdf2_step_reference(one, st, n_prev, dt, dt_prev, params, g,
                                lambda b, c: spectral.solve(b.copy(), c))
    for got, ref in zip((two.u, two.v, two.w), want):
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
    assert stats.clamps == 0 and two.t == st.t + dt_prev + dt


@pytest.mark.parametrize("n", [24, 96])  # dense cosine path and scipy's DCT
def test_every_step_solves_each_field_once_and_updates_w_once(monkeypatch, n):
    # on a thm1-core state the w diagonal varies, and still neither the Euler
    # step nor the SBDF2 step solves more than once per field
    setup, st = thm1_core_start(n)
    args = (setup.params, 2e-3, setup.grid, setup.control)
    shifts, pcg_calls = [], []

    def counting_solve(self, b, c=1.0, _solve=S._SpectralHelmholtz.solve):
        shifts.append(c)
        return _solve(self, b, c)

    def counting_pcg(*pcg_args, _pcg=S._pcg):
        pcg_calls.append(pcg_args)
        return _pcg(*pcg_args)

    monkeypatch.setattr(S._SpectralHelmholtz, "solve", counting_solve)
    monkeypatch.setattr(S, "_pcg", counting_pcg)
    history = S.History()
    for c in (1.0, 1.5):  # the Euler step, then SBDF2 at omega = 1
        shifts.clear()
        pcg_calls.clear()
        st, stats = S.step(st, *args, history=history)
        assert stats.cg_iterations == (0, 0, 0)
        assert len(pcg_calls) == 1
        assert shifts[:2] == [c, c] and len(shifts) == 3 and shifts[2] > c


def test_sbdf2_w_update_meets_the_implicit_w_system_to_its_extrapolation_error(
        monkeypatch):
    # The update (c_w - dt Lap) w_new = rhs_w - (diag - c_w) w* misses the
    # implicit system (diag - dt Lap) w_new = rhs_w by (diag - c_w)(w* - w_new),
    # O(dt^3).  On thm1-core at 40^2 to t = 0.2 (37 SBDF2 steps) the residual
    # relative to |rhs_w| measured at most 4.95e-6 in the first ten SBDF2
    # steps and 1.40e-6 after them, median 2.1e-8; bounds at twice the
    # maxima and five times the median.
    setup, _ = thm1_core_start(40)
    setup = replace(setup, t_end=0.2)
    residuals = []

    def recording_step(state, params, dt, g, control=None, laws=None, history=None,
                       _step=S.step):
        prev, dt_prev = history.fields, history.dt
        new, stats = _step(state, params, dt, g, control, laws=laws, history=history)
        omega = S.sbdf2_ratio(dt, dt_prev)
        if omega is not None:
            prev_w = prev[2]
            diag, rhs_w, _ = sbdf2_w_system(state, prev_w, new.u + new.v, dt, omega,
                                            params, g)
            residual = rhs_w - (diag * new.w - dt * G.laplacian(new.w, g))
            residuals.append(float(np.linalg.norm(residual) / np.linalg.norm(rhs_w)))
        return new, stats

    monkeypatch.setattr(S, "step", recording_step)
    result = S.run(setup)
    assert result.completed and result.total_clamps == 0
    assert len(residuals) == result.steps - 1 > 10
    assert max(residuals[:10]) <= 1e-5
    assert max(residuals[10:]) <= 3e-6
    assert float(np.median(residuals[10:])) <= 1e-7


def test_adaptive_step_grows_at_most_twofold(monkeypatch):
    # a suggested step three times the one before would be refused
    # (omega >= 1 + sqrt 2); capped at twice that step it is an SBDF2 step
    suggested = []

    def tripled_once(*args, _suggest=S.suggest_dt, **kwargs):
        suggested.append(_suggest(*args, **kwargs))
        return 3.0 * suggested[-1] if len(suggested) == 10 else suggested[-1]

    monkeypatch.setattr(S, "suggest_dt", tripled_once)
    cfg = replace(presets.preset("thm1-core").config, nx=16, ny=16, t_end=0.1,
                  out_dir=None)
    result = S.run(cfg.build_setup())
    assert result.completed and len(suggested) == result.steps > 10
    dt = result.series["dt"]
    assert all(S.sbdf2_ratio(dt[i], dt[i - 1]) is not None for i in range(2, len(dt)))
    assert dt[10] / dt[9] == S.MAX_STEP_GROWTH



def test_a_landing_after_a_step_below_the_event_tolerance_keeps_the_growth_cap(monkeypatch):
    # a first step of 3e-10, then suggestions of 1: the second step is capped
    # at 6e-10 and ends at 9e-10, within the event tolerance 1e-9 of t_end,
    # so landing on t_end at once would make omega 5, which sbdf2_ratio
    # refuses
    suggested = iter([3e-10])
    monkeypatch.setattr(S, "suggest_dt", lambda *args, **kwargs: next(suggested, 1.0))
    cfg = replace(presets.preset("thm1-core").config, nx=8, ny=8, t_end=1.8e-9,
                  out_dir=None)
    result = S.run(cfg.build_setup())
    assert result.completed and result.series["t"][-1] == 1.8e-9
    dt = result.series["dt"][1:]
    assert dt[0] == 3e-10 and len(dt) > 2
    assert all(dt[i] <= S.MAX_STEP_GROWTH * dt[i - 1] for i in range(1, len(dt)))

def _taxis_triple_final(sbdf2, dt):
    """The taxis triple at 32^2 to t = 0.25 in steps of dt, with a history
    (SBDF2 after the first step) or without (Euler)."""
    setup = cli.mms_config(32, mms=taxis_mms()).build_setup()
    init = setup.initial
    st = S.State(init.u0.astype(float), init.v0.astype(float), init.w0.astype(float))
    history = S.History() if sbdf2 else None
    for _ in range(round(0.25 / dt)):
        st, _ = S.step(st, setup.params, dt, setup.grid, setup.control, history=history)
    return st, setup.grid


@pytest.mark.parametrize("sbdf2, low, high", [(True, 1.8, math.inf), (False, 0.8, 1.3)],
                         ids=["sbdf2", "euler"])
def test_temporal_order_on_the_taxis_triple(sbdf2, low, high):
    # the time error alone: dt, dt/2 and dt/4 against dt/16 on one 32^2
    # grid; measured orders 2.42, 2.11 and 2.09 for SBDF2 and 1.17, 1.18 and
    # 1.20 for Euler (the dt/16 reference biases both upwards)
    dt = 1.0 / 32
    ref, g = _taxis_triple_final(sbdf2, dt / 16)
    dts = [dt, dt / 2, dt / 4]
    finals = [_taxis_triple_final(sbdf2, d)[0] for d in dts]
    for name in "uvw":
        errs = [G.norm_lp(getattr(f, name) - getattr(ref, name), g, 2) for f in finals]
        order = float(np.polyfit(np.log(dts), np.log(errs), 1)[0])
        assert low <= order <= high, (name, order)


def test_taxis_triple_converges_at_first_order():
    # both taxis carriers vary in space, so the upwind flux is first order,
    # and so does the w diagonal.  Least-squares
    # orders at 16^2-64^2 with dt = h^2 measured 0.86, 0.97 and 1.64 for u,
    # v and w; the bounds sit at least 0.1 below.  Deleting u's taxis term
    # takes u's order to about 0.  Upwinding on the downstream carrier
    # passes here (w 1.67), and fails the SBDF2 study below.
    study = cli.mms_study([16, 32, 64], t_end=0.25, mms=taxis_mms())
    orders = study.orders_l2
    assert orders["u"] >= 0.75 and orders["v"] >= 0.85 and orders["w"] >= 1.15, orders


def test_taxis_triple_converges_in_space_with_the_sbdf2_step():
    # The Euler w update's splitting error, O(dt) = O(h^2) per unit time at
    # dt = h^2, dominates w's error at 16^2-32^2, so the study above passes
    # the downstream-carrier mutant of grid.taxis_divergence (w order 1.67,
    # against 1.64 correct).  SBDF2 steps at the same dt leave the flux's
    # error in front: least-squares orders 0.91, 0.97 and 1.29 for u, v and
    # w, and 1.08, 1.04 and 0.63 on that mutant.
    t_end, widths, errs = 0.25, [], []
    for n in (16, 32, 64):
        setup = cli.mms_config(n, t_end=t_end, mms=taxis_mms()).build_setup()
        g, params, init = setup.grid, setup.params, setup.initial
        steps = math.ceil(t_end * n * n)
        st = S.State(init.u0.astype(float), init.v0.astype(float), init.w0.astype(float))
        history = S.History()
        for _ in range(steps):
            st, _ = S.step(st, params, t_end / steps, g, setup.control, history=history)
        exact = params.mms.fields(g, st.t)
        widths.append(g.hx)
        errs.append([G.norm_lp(num - ex, g, 2) for num, ex in zip((st.u, st.v, st.w), exact)])
    orders = dict(zip("uvw", np.polyfit(np.log(widths), np.log(errs), 1)[0]))
    assert orders["u"] >= 0.75 and orders["v"] >= 0.85 and orders["w"] >= 1.1, orders


def test_blowup_watchdog():
    g = G.Grid(8, 8)
    st = S.State(np.full(g.shape, 9e7), np.ones(g.shape), np.zeros(g.shape))
    # growth of a field already near the ceiling trips the watchdog
    spec = K.KineticSpec.from_laws(K.Logistic(a=50.0, b=1e-30, alpha=2.0),
                                   K.PurePower(1.0, 1.0, 3.0),
                                   alpha=2.0, K_f=1e-30, L_f=1.0, k_f=1.0, l_f=1.0)
    params = make_params(spec=spec)
    with pytest.raises(BlowUpError):
        S.step(st, params, 0.5, g)


def test_suggest_dt_zero_state_flat_laws():
    g = G.Grid(8, 8)
    params = make_params()
    control = S.StepControl(dt_max=0.5, safety=0.3)
    st = S.State(np.zeros(g.shape), np.zeros(g.shape), np.zeros(g.shape))
    assert S.suggest_dt(st, params, g, control) == pytest.approx(0.3 * 0.5, rel=1e-9)


def test_suggest_dt_advective_bound():
    g = G.Grid(10, 10)  # h = 0.1
    X, _ = g.cell_centers()
    control = S.StepControl(dt_max=1e6, safety=0.25)
    params = make_params()
    st = S.State(np.zeros(g.shape), np.zeros(g.shape), 10.0 * X)
    dt = S.suggest_dt(st, params, g, control)
    assert dt == pytest.approx(0.25 * 0.1 / 10.0, rel=1e-6)
    st2 = S.State(np.zeros(g.shape), np.zeros(g.shape), 20.0 * X)
    assert S.suggest_dt(st2, params, g, control) == pytest.approx(dt / 2.0, rel=1e-6)


def test_suggest_dt_reaction_bound():
    g = G.Grid(8, 8)
    control = S.StepControl(dt_max=1e6, safety=1.0)
    params = make_params()
    st = S.State(np.full(g.shape, 2.0), np.full(g.shape, 1.0), np.zeros(g.shape))
    # |f'(2)| = 12, |g'(1)| = 3
    assert S.suggest_dt(st, params, g, control) == pytest.approx(1.0 / 16.0, rel=1e-5)


def test_homogeneous_reduction_against_ode_oracle():
    g = G.Grid(6, 8)
    params = make_params(mu=0.4, epsilon=0.05, amplitude=0.2)

    def rhs(t, y):
        u, v, w = y
        cons = (u + v) * w / (1.0 + 0.05 * (u + v) * w)
        return [1.0 - u**3, 1.0 - v**3, -cons - 0.4 * w + 0.2]

    sol = solve_ivp(rhs, (0.0, 1.0), [2.0, 0.5, 1.0], method="Radau",
                    rtol=1e-11, atol=1e-13)
    exact = sol.y[:, -1]

    def integrate(dt):
        st = S.State(np.full(g.shape, 2.0), np.full(g.shape, 0.5),
                     np.full(g.shape, 1.0))
        n = int(round(1.0 / dt))
        for _ in range(n):
            st, _ = S.step(st, params, dt, g)
        return np.array([st.u[0, 0], st.v[0, 0], st.w[0, 0]])

    err1 = np.max(np.abs(integrate(2e-3) - exact))
    err2 = np.max(np.abs(integrate(1e-3) - exact))
    assert err1 < 0.02                      # first-order accuracy at dt = 2e-3
    assert 1.5 < err1 / err2 < 2.5          # empirical O(dt)


# --- manufactured sources against a symbolic oracle ------------------------


_x, _y, _t = sp.symbols("x y t", real=True)
# (label, sympy u, v, w, the same triple as an MmsSpec, grid, mu, epsilon, r)
MMS_ORACLE_CASES = [
    # the shipped triple: only u has a cosine part, eps = r = 0
    ("shipped",
     2 + sp.cos(sp.pi * _x) * sp.cos(sp.pi * _y) * sp.exp(-_t),
     1 + sp.Rational(1, 2) * sp.exp(-_t),
     sp.Rational(3, 10) + sp.Rational(1, 5) * sp.exp(-_t),
     S.shipped_mms(), G.Grid(16, 16), 0.3, 0.0, 0.0),
    # a cosine part in every component on [0, 2] x [0, 1], so the products
    # of two cosine amplitudes, eps and r all enter the sources
    ("all-cosine",
     2 + sp.Rational(7, 10) * sp.cos(sp.pi * _x / 2) * sp.cos(sp.pi * _y)
     * sp.exp(-sp.Rational(13, 10) * _t) + sp.Rational(2, 5) * sp.exp(-_t / 2),
     1 + sp.Rational(3, 10) * sp.cos(sp.pi * _x / 2) * sp.cos(sp.pi * _y)
     * sp.exp(-sp.Rational(4, 5) * _t) + sp.Rational(1, 2) * sp.exp(-_t),
     sp.Rational(1, 2) + sp.Rational(1, 5) * sp.cos(sp.pi * _x / 2) * sp.cos(sp.pi * _y)
     * sp.exp(-2 * _t) + sp.Rational(1, 5) * sp.exp(-sp.Rational(7, 10) * _t),
     S.MmsSpec(u=S.MmsComponent(2.0, 0.7, 1.3, 0.4, 0.5),
               v=S.MmsComponent(1.0, 0.3, 0.8, 0.5, 1.0),
               w=S.MmsComponent(0.5, 0.2, 2.0, 0.2, 0.7)),
     G.Grid(24, 12, 2.0, 1.0), 0.3, 0.1, 0.2),
]


@pytest.mark.parametrize("case", MMS_ORACLE_CASES, ids=[c[0] for c in MMS_ORACLE_CASES])
def test_mms_sources_match_sympy(case):
    _, u, v, w, mms, grid, mu_f, eps_f, r_f = case
    x, y, t = _x, _y, _t
    mu, eps, r = (sp.nsimplify(c) for c in (mu_f, eps_f, r_f))
    f = lambda s: 1 - s**3
    g_law = lambda s: 1 - s**3

    def lap(e):
        return sp.diff(e, x, 2) + sp.diff(e, y, 2)

    s_u = (sp.diff(u, t) - lap(u)
           + sp.diff(u * sp.diff(w, x), x) + sp.diff(u * sp.diff(w, y), y)
           - f(u))
    s_v = (sp.diff(v, t) - lap(v)
           + sp.diff(v * sp.diff(u, x), x) + sp.diff(v * sp.diff(u, y), y)
           - g_law(v))
    s_w = (sp.diff(w, t) - lap(w) + (u + v) * w / (1 + eps * (u + v) * w)
           + mu * w - r)
    fn_u = sp.lambdify((x, y, t), s_u, "numpy")
    fn_v = sp.lambdify((x, y, t), s_v, "numpy")
    fn_w = sp.lambdify((x, y, t), s_w, "numpy")

    params = make_params(mu=mu_f, epsilon=eps_f, amplitude=r_f)
    rng = np.random.default_rng(31)
    for tv in (0.0, 0.37, 1.21):
        got_u, got_v, got_w = mms.sources(params, grid, tv)
        X, Y = grid.cell_centers()
        idx = rng.integers(0, grid.nx * grid.ny, size=20)
        jj, ii = np.unravel_index(idx, grid.shape)
        for j, i in zip(jj, ii):
            assert got_u[j, i] == pytest.approx(float(fn_u(X[j, i], Y[j, i], tv)), abs=1e-12)
            assert got_v[j, i] == pytest.approx(float(fn_v(X[j, i], Y[j, i], tv)), abs=1e-12)
            assert got_w[j, i] == pytest.approx(float(fn_w(X[j, i], Y[j, i], tv)), abs=1e-12)


# every amplitude of a general triple, that triple with each of its six
# amplitudes zero in turn (a zero cosine amplitude makes the component flat),
# and a triple with no cosine part at all, whose u and v sources are scalars
_ALL_AMPLITUDES = S.MmsSpec(u=S.MmsComponent(2.0, 0.7, 1.3, 0.4, 0.5),
                            v=S.MmsComponent(1.0, 0.3, 0.8, 0.5, 1.0),
                            w=S.MmsComponent(0.5, 0.2, 2.0, 0.2, 0.7))
_ZEROED_AMPLITUDES = [
    (f"{slot}.{amp}=0", replace(_ALL_AMPLITUDES, **{
        slot: replace(getattr(_ALL_AMPLITUDES, slot), **{amp: 0.0})}))
    for slot in "uvw" for amp in ("cos_amp", "flat_amp")]
_FLAT = S.MmsSpec(u=S.MmsComponent(2.0, 0.0, 0.0, 0.4, 0.5),
                 v=S.MmsComponent(1.0, 0.0, 0.0, 0.5, 1.0),
                 w=S.MmsComponent(0.5, 0.0, 0.0, 0.2, 0.7))
MMS_AMPLITUDE_CASES = ([("all", _ALL_AMPLITUDES), ("shipped", S.shipped_mms()),
                        ("flat", _FLAT)] + _ZEROED_AMPLITUDES)


@pytest.mark.parametrize("case", MMS_AMPLITUDE_CASES, ids=[c[0] for c in MMS_AMPLITUDE_CASES])
@pytest.mark.parametrize("mu, eps, r", [(0.3, 0.0, 0.0), (0.3, 0.1, 0.2)])
def test_mms_sources_by_amplitude_match_the_full_expressions(case, mu, eps, r):
    mms = case[1]
    g = G.Grid(24, 12, 2.0, 1.0)
    params = make_params(mu=mu, epsilon=eps, amplitude=r, decay_lambda=0.5)
    for t in (0.0, 0.37):
        got = mms.sources(params, g, t)
        want = mms_sources_reference(mms, params, g, t)
        for s, ref in zip(got, want):
            assert s.shape == g.shape and s.dtype == np.float64 and s.flags.writeable
            scale = float(np.abs(ref).max())
            assert float(np.abs(s - ref).max()) <= 1e-14 * scale
        for i, a in enumerate(got):  # three new arrays, none of them cached
            assert not np.shares_memory(a, S._cosine_mode(g)[0])
            for b in got[i + 1:]:
                assert not np.shares_memory(a, b)


def test_mms_constant_equilibrium_has_zero_sources():
    grid = G.Grid(8, 8)
    mms = S.MmsSpec(u=S.MmsComponent(base=1.0), v=S.MmsComponent(base=1.0),
                    w=S.MmsComponent(base=0.0))
    params = make_params()  # f(1) = g(1) = 0, w = 0, mu = 0, r = 0
    for tv in (0.0, 0.5):
        for s in mms.sources(params, grid, tv):
            assert np.max(np.abs(s)) < 1e-14


def test_mms_time_frozen_sources_are_time_independent():
    grid = G.Grid(8, 8)
    mms = S.MmsSpec(u=S.MmsComponent(base=2.0, cos_amp=0.5, cos_rate=0.0),
                    v=S.MmsComponent(base=1.0), w=S.MmsComponent(base=0.2))
    params = make_params(mu=0.1)
    s0 = mms.sources(params, grid, 0.0)
    s1 = mms.sources(params, grid, 0.8)
    for a, b in zip(s0, s1):
        assert np.array_equal(a, b)


def test_mms_rejects_negative_rates():
    with pytest.raises(Exception):
        S.MmsComponent(base=1.0, cos_amp=1.0, cos_rate=-1.0)
