"""IMEX time integration of the taxis cascade with positivity preservation.

One step advances the cascade in order u -> v -> w: diffusion is implicit,
taxis and growth are explicit.  Without a ``History`` a step is the Euler
step: backward Euler for diffusion with the explicit terms at the old state,
and the v-taxis potential is the freshly solved u.  With one it is the
variable-step second-order semi-implicit BDF (SBDF2): it extrapolates the
explicit terms N = law - taxis of the two states before, v's taxis taking
the old u, and falls back to the Euler step where SBDF2 cannot run
(``sbdf2_ratio``).  ``run`` keeps a history where dt adapts and takes Euler
steps at a fixed dt.  One operator c*I - dt*Lap per step serves all three
solves.  The u and v systems (c = 1 for Euler) are solved directly by the
cosine transform that diagonalizes the Neumann Laplacian: on grids of at most
DENSE_DCT_MAX cells a side as four small products with cached dense cosine
matrices and their C-contiguous transposes, on larger grids by scipy's DCT.
The nutrient consumption is semi-implicit through a nonnegative diagonal.
The Euler step solves w with it by spectrally preconditioned CG, so w
inherits nonnegativity from the M-matrix solve whatever dt is; that solve is
the only iterative one, and StepControl.lin_tol and max_iter govern it
alone.  It starts from the consumption-scaled guess P^-1(c b / diag), whose
residual is pointwise, and meets lin_tol after 0 to 2 iterations on the
shipped problems.  The SBDF2 step solves w once, at the mean c_w of the
diagonal, and takes the rest of the uptake at the extrapolation w* that the
diagonal already reads: (c_w - dt Lap) w_new = rhs_w - (diag - c_w) w*.
That is the CG start with w* as its predictor; it misses the implicit
system by (diag - c_w)(w* - w_new), O(dt^3) per step, and since the inverse
of c_w - dt Lap is nonnegative, w_new is nonnegative whenever its whole
right-hand side is.  ``_admit``
clamps entries of a new field in [-1e-12, 0) to zero and counts them;
anything lower is a hard positivity error.

A step allocates its three new fields and a few work arrays of its own call,
nothing more (an SBDF2 step builds its u and v in the history's spent
explicit terms and allocates its own two instead): each right-hand side is
built in the array that the solve then overwrites with the new field, and
each transform writes into the result array or the solver's one work array.  The in-place forms keep the
operation order of the plain expressions, so the result is bit for bit what
they give.  ``run`` first raises glibc's heap thresholds (``_settle_heap``),
so the memory a step frees serves the next step instead of being returned
to the system and faulted in again, however many temporaries a step makes.
A manufactured model adds sources evaluated by amplitude: a spatially flat
component is a scalar, and a term whose coefficient is zero costs nothing.
"""

from __future__ import annotations

import hashlib
import math
import time
import warnings
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path

import numpy as np
from scipy import fft as _fft

from taxis_cascade import grid as gridmod
from taxis_cascade import kinetics as kin
from taxis_cascade import monitors as mon
from taxis_cascade.errors import (
    BlowUpError,
    DomainError,
    LinearSolveError,
    PositivityError,
    StructuralError,
)

CLAMP_FLOOR = -1e-12
BLOWUP_LIMIT = 1e8
TINY_GRADIENT = 1e-30
FIXED_DT_WARN_RATIO = 10.0
# variable-step BDF2 is zero-stable while each step is less than this many
# times the one before (Wang & Ruuth, J. Comput. Math. 2008)
SBDF2_MAX_RATIO = 1.0 + math.sqrt(2.0)
# an adaptive run's step is at most this many times the one before, so no
# step after its first is an Euler step: 2 < SBDF2_MAX_RATIO, and landings
# on events (_EventClock) already keep the ratio at 2 at most
MAX_STEP_GROWTH = 2.0

# Grids with at most this many cells a side take the dense cosine path of
# _SpectralHelmholtz.  One solve (forward and inverse transform), scipy.fft
# against the dense products, medians of three runs (numpy 2.4, scipy 1.17,
# OPENBLAS_NUM_THREADS=1, a shared 2-CPU x86-64 machine whose speed drifts
# by about 20% between runs):
#
#     n     scipy pair   dense pair
#     32      63 us        23 us
#     40      78 us        32 us
#     64     136 us        72 us
#     80     197 us       125 us
#     96     261 us       200 us
#    128     452 us       538 us
#    256    1616 us      3433 us
#
# scipy's dispatch around its transform dominates small grids; the n^3
# products overtake it between 96 and 128.  No shipped workload lies
# between 80 and 128, so the cutoff stays at 80.
DENSE_DCT_MAX = 80


@dataclass(frozen=True)
class ModelParams:
    mu: float
    epsilon: float
    resupply: kin.ResupplySpec
    kinetics: kin.KineticSpec
    # the manufactured source triple added to the system, or None
    mms: MmsSpec | None = None

    def __post_init__(self):
        if self.mu < 0:
            raise DomainError(f"mu must be nonnegative, got {self.mu}")
        if not (0.0 <= self.epsilon < 1.0):
            raise DomainError(f"epsilon must lie in [0, 1), got {self.epsilon}")


@dataclass
class State:
    u: np.ndarray
    v: np.ndarray
    w: np.ndarray
    t: float = 0.0
    step_index: int = 0


@dataclass(frozen=True)
class StepControl:
    """Step-size and linear-solve settings.

    ``suggest_dt`` reads ``dt_max`` and ``safety``.  ``lin_tol`` and
    ``max_iter`` govern the Euler step's w solve (``_pcg``), the only
    iterative one; an SBDF2 step solves w directly and reads neither.
    """

    dt_max: float = 0.02
    safety: float = 0.2
    lin_tol: float = 1e-10
    max_iter: int = 2000

    def __post_init__(self):
        if not (self.dt_max > 0 and 0 < self.safety <= 1 and self.lin_tol > 0
                and self.max_iter > 0):
            raise DomainError("step control values must be positive, safety <= 1")


@dataclass
class History:
    """The step before, as an SBDF2 step reads it.

    ``u``, ``v`` and ``w`` are that step's input state, ``n_u`` and ``n_v``
    its explicit terms law - taxis at that state (v's taxis with that
    state's u as potential), and ``dt`` its size; an empty history
    (``dt`` 0) makes the next step an Euler step.  ``step`` reads the
    history and leaves in it what the next step needs: its own input state,
    terms and dt.  The explicit terms belong to the history, and a step
    builds its right-hand sides in them; the state fields are only read.
    After a step that raised, the history is spent.
    """

    u: np.ndarray | None = None
    v: np.ndarray | None = None
    w: np.ndarray | None = None
    n_u: np.ndarray | None = None
    n_v: np.ndarray | None = None
    dt: float = 0.0


def sbdf2_ratio(dt: float, dt_prev: float) -> float | None:
    """The step ratio omega = dt / dt_prev of an SBDF2 step, or None where
    the step is an Euler step: the first one (dt_prev 0) and any whose
    omega is at least SBDF2_MAX_RATIO.  An adaptive ``run`` lands on its
    events (``_EventClock``) and grows each step at most MAX_STEP_GROWTH
    times the one before, so that its first step is its only Euler step.
    """
    if not dt_prev > 0.0:
        return None
    omega = dt / dt_prev
    return omega if omega < SBDF2_MAX_RATIO else None


@dataclass
class StepStats:
    clamps: int = 0
    cg_iterations: tuple[int, int, int] = (0, 0, 0)
    # sup norms of the new u, v and w, read by admission (``_admit``)
    linf: tuple[float, float, float] = (0.0, 0.0, 0.0)


def consumption_term(u, v, w, epsilon):
    """Nutrient uptake (u+v) w / (1 + eps (u+v) w); pointwise nonincreasing in eps.

    At eps = 0 the uptake is (u+v) w itself: s / (1 + 0 s) is s for finite s.
    """
    s = (u + v) * w
    if epsilon == 0.0:
        return s
    return s / (1.0 + epsilon * s)


@lru_cache(maxsize=32)
def _neumann_eigenvalues(g: gridmod.Grid) -> np.ndarray:
    """Eigenvalue table of -Lap_h in the half-sample cosine basis, shape (ny, nx)."""
    lam_x = (2.0 / g.hx**2) * (1.0 - np.cos(np.pi * np.arange(g.nx) / g.nx))
    lam_y = (2.0 / g.hy**2) * (1.0 - np.cos(np.pi * np.arange(g.ny) / g.ny))
    table = lam_y[:, None] + lam_x[None, :]
    table.setflags(write=False)
    return table


@lru_cache(maxsize=32)
def _cosine_matrix(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal DCT-II matrix C of size n (C @ x is dct(x, norm="ortho"))
    and its transpose as a C-contiguous copy, both read-only."""
    matrix = _fft.dct(np.eye(n), type=2, norm="ortho", axis=0)
    transpose = np.ascontiguousarray(matrix.T)
    matrix.setflags(write=False)
    transpose.setflags(write=False)
    return matrix, transpose


class _SpectralHelmholtz:
    """Exact inverse of c*I - dt*Lap in the Neumann (half-sample cosine) basis.

    The mirror-ghost five-point Laplacian is diagonalized by the type-II DCT
    per axis with eigenvalues -(2/h^2)(1 - cos(pi k / n)).  One instance per
    step serves all three of its solves, with c given per solve: c = 1 is
    the u and v diffusion solve of an Euler step, (1 + 2 omega) / (1 + omega)
    that of an SBDF2 step, whose k = 0 denominator is c, so the cell sum of
    the solution is the right-hand side's over c, to rounding; c the mean
    nutrient diagonal is an SBDF2 step's one w solve, and in an Euler step
    the preconditioner of ``_pcg``, which gives the w solve its start
    P^-1(c b / diag).  The solves are direct, so StepControl.lin_tol and
    max_iter govern only the Euler step's w solve.

    When neither side exceeds DENSE_DCT_MAX the transforms are the products
    Cy b Cx^T and Cy^T X Cx with cached cosine matrices (``dense``), which
    skips scipy's per-call dispatch; larger grids call scipy's DCT in place.
    Each matrix is cached with its transpose as a C-contiguous copy, so no
    product reads a transposed view, and the products are ``np.dot`` with
    ``out=``, the BLAS call of ``np.matmul`` with less dispatch.  On some
    sizes they round differently from products on transposed views (the
    README's Scheme lists them), deterministically and whatever the BLAS
    thread count.  ``np.dot`` needs a C-contiguous ``out``, as every field
    of a step is.  A solve divides by the denominators lambda*dt + c held
    in the one work array (not multiplying by reciprocals, which would
    change the bits).  On the DCT path the array holds nothing else, so the
    table is written only when c changes: u and v share one, the w solves
    another.  The dense products pass through the work array, so that path
    writes the table on every solve; they also round the k = 0 mode, so it
    then restores the exact cell sum, sum(b) / c.
    """

    def __init__(self, g: gridmod.Grid, dt: float):
        self.dense = max(g.nx, g.ny) <= DENSE_DCT_MAX
        self.eigenvalues = _neumann_eigenvalues(g)
        self.dt = dt
        self.work = np.empty(g.shape)
        self.shift = None  # the c whose denominators the work array holds
        if self.dense:
            self.cosines = (_cosine_matrix(g.ny), _cosine_matrix(g.nx))

    def solve(self, b: np.ndarray, out: np.ndarray, c: float = 1.0) -> np.ndarray:
        """Write x with (c*I - dt*Lap) x = b into ``out`` and return it.

        ``out`` may be ``b`` itself, which is then overwritten by x; otherwise
        b is left alone.  The transforms write into ``out`` and the work
        array, so a solve allocates no field.
        """
        if self.dense:
            total = float(b.sum())  # read before out = b is overwritten
            (cy, cy_t), (cx, cx_t) = self.cosines
            np.dot(cy, b, out=self.work)
            coeffs = np.dot(self.work, cx_t, out=out)
        else:
            if out is not b:
                np.copyto(out, b)
            coeffs = _fft.dctn(out, type=2, norm="ortho", overwrite_x=True)
        if c != self.shift:
            np.multiply(self.eigenvalues, self.dt, out=self.work)
            self.work += c
            # the dense products below overwrite the table
            self.shift = None if self.dense else c
        coeffs /= self.work
        if not self.dense:
            x = _fft.idctn(coeffs, type=2, norm="ortho", overwrite_x=True)
            # overwrite_x permits an in-place transform but does not promise one
            if not np.may_share_memory(x, out):
                np.copyto(out, x)
            return out
        np.dot(cy_t, out, out=self.work)
        np.dot(self.work, cx, out=out)
        out += (total / c - float(out.sum())) / out.size
        return out


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """Inner product by numpy's own loop, so no BLAS thread count changes it."""
    return float(np.einsum("ij,ij->", a, b))


def _pcg(spectral: _SpectralHelmholtz, diag: np.ndarray, b: np.ndarray,
         rtol: float, max_iter: int) -> tuple[np.ndarray, int]:
    """The Euler step's w solve (diag*I - dt*Lap) x = b by preconditioned CG.

    The operator splits as A = P + diag(diag - c), with c = mean(diag) and
    P = c*I - dt*Lap inverted exactly by ``spectral`` (the step's operator,
    which carries dt) at that c.  CG starts from
    x0 = P^-1(c b / diag): then P x0 = c b / diag, so the initial residual
    r0 = b - A x0 = (diag - c)(b / diag - x0) is a pointwise product of the
    spread of the diagonal and the diffusion increment, with no stencil and
    no extra transform.  CG carries P p by recurrence: P z = r gives
    P p_new = r + beta P p_old, hence A p = P p + (diag - c) p without any
    stencil apply.  A constant diagonal returns x0 after 0 iterations; the
    manufactured problem needs 0 and the presets 1 or 2 (about 1.5 on
    average) per step.
    StepControl.lin_tol (rtol) and max_iter govern this solve only: it
    converges to a relative residual of rtol within max_iter iterations, or
    raises LinearSolveError.

    ``b`` is overwritten: it becomes the first residual r0, which is P p0, and
    from then on carries P p while the first update moves the residual to a
    new array.  ``diag`` is left alone and x is a new array.  The iteration
    updates its arrays in place, in the operation order of the textbook
    expressions, so the bits do not depend on the buffering.  One work array
    holds b / diag, then diag - c, A p, alpha p and z = P^-1 r in turn; diag - c
    is recomputed for each iteration after the first rather than kept.
    """
    bnorm = math.sqrt(_dot(b, b))
    target = rtol * bnorm
    c = float(diag.sum()) / diag.size  # the bits of np.mean(diag)
    p = np.empty_like(b)
    work = np.divide(b, diag)
    x = np.multiply(work, c)
    spectral.solve(x, x, c)
    r = np.subtract(work, x, out=b)
    r *= np.subtract(diag, c, out=work)
    if math.sqrt(_dot(r, r)) <= target:
        return x, 0
    spectral.solve(r, p, c)
    p_img = r  # P p0 = r0
    rz = _dot(r, p)
    for it in range(1, max_iter + 1):
        work *= p
        work += p_img  # A p
        alpha = rz / _dot(p, work)
        work *= alpha
        # the first update leaves r0 behind as P p0
        r = np.subtract(r, work, out=None if r is p_img else r)
        np.multiply(p, alpha, out=work)
        x += work
        if math.sqrt(_dot(r, r)) <= target:
            return x, it
        z = spectral.solve(r, work, c)
        rz_new = _dot(r, z)
        beta = rz_new / rz
        p *= beta
        p += z
        p_img *= beta
        p_img += r
        rz = rz_new
        np.subtract(diag, c, out=work)
    # a zero b only gets here with a non-finite operator, whose residual is nan
    rel = math.sqrt(_dot(r, r)) / bnorm if bnorm > 0 else math.nan
    raise LinearSolveError(
        f"w-solve: PCG stalled at relative residual {rel:.3e} after {max_iter} iterations"
    )


def _admit(phi, name, t) -> tuple[int, float]:
    """Zero a new field's dust in [CLAMP_FLOOR, 0) in place; return its count
    and the sup norm of the admitted field.  Lower entries (-inf too) are a
    positivity error, and NaN, +inf or a value above BLOWUP_LIMIT is a
    blow-up.  Reads the field twice: min, then max.

    Once the dust is zero the sup norm is max(fmax, 0.0) + 0.0, which has the
    bits of ``grid.norm_linf`` of the admitted field: fmax when some entry is
    positive, else +0.0 (every entry dust or a zero of either sign).
    """
    fmin = float(phi.min())
    if fmin < CLAMP_FLOOR:
        idx = np.unravel_index(int(np.argmin(phi)), phi.shape)
        raise PositivityError(name, tuple(int(i) for i in idx), fmin)
    fmax = float(phi.max())
    if not math.isfinite(fmin + fmax):
        raise BlowUpError(f"{name} lost finiteness at t={t:.6g}")
    if fmax > BLOWUP_LIMIT:
        raise BlowUpError(f"|{name}| reached {fmax:.3e} (> {BLOWUP_LIMIT:.0e}) at t={t:.6g}")
    sup = max(fmax, 0.0) + 0.0
    if fmin >= 0.0:
        return 0, sup
    mask = phi < 0.0
    phi[mask] = 0.0
    return int(np.count_nonzero(mask)), sup


def _extrapolate(phi, phi_prev, omega, out=None):
    """(1 + omega) phi - omega phi_prev, as phi + omega (phi - phi_prev), in
    ``out`` (which may be phi_prev itself) or a new array."""
    out = np.subtract(phi, phi_prev, out=out)
    out *= omega
    out += phi
    return out


def _bdf2_levels(phi, phi_prev, omega, out=None):
    """The old levels of the variable-step BDF2 formula,
    (1 + omega) phi - omega^2 / (1 + omega) phi_prev, as
    phi + omega (phi - omega / (1 + omega) phi_prev), in ``out`` or a new array."""
    out = np.multiply(phi_prev, omega / (1.0 + omega), out=out)
    np.subtract(phi, out, out=out)
    out *= omega
    out += phi
    return out


def step(state: State, params: ModelParams, dt: float, g: gridmod.Grid,
         control: StepControl = StepControl(),
         laws: tuple[np.ndarray, np.ndarray] | None = None,
         history: History | None = None) -> tuple[State, StepStats]:
    """One IMEX step of size dt; returns the new state and step statistics.

    Without ``history`` this is the Euler step.  With one it is the SBDF2
    step of ratio omega = dt / history.dt, or the Euler step where
    ``sbdf2_ratio`` gives None; either way the history then describes this
    step.  With c = (1 + 2 omega) / (1 + omega), N = law - taxis and the
    previous state's fields and terms marked _prev, u and v solve
        c phi_new - dt Lap phi_new = (1 + omega) phi
            - omega^2 / (1 + omega) phi_prev + dt ((1 + omega) N - omega N_prev),
    v's taxis taking the old u, and the w diagonal is
    diag = c + dt (mu + sigma / (1 + eps sigma w*)) with sigma = u_new + v_new
    and w* = max((1 + omega) w - omega w_prev, 0).  The SBDF2 step solves
    (c_w - dt Lap) w_new = rhs_w - (diag - c_w) w* once, with c_w the mean
    of diag and rhs_w = (1 + omega) w - omega^2 / (1 + omega) w_prev
    + dt r(t_new), and reports no CG iteration.  The Euler step is c = 1,
    omega = 0, except that v's taxis takes the new u, and it solves
    (diag - dt Lap) w_new = rhs_w by ``_pcg`` to StepControl.lin_tol.

    ``laws`` is (law_f(state.u), law_g(state.v)) when the caller has them
    already; they are read, not written.  Without them each law is evaluated
    where it is used, so the two never take memory at the same time.  The
    input state is left unchanged; the new state's fields are new arrays or
    the history's spent explicit terms.
    A manufactured model (``params.mms``) adds its sources at the new time.
    A term that the model sets to zero costs no pass: at eps = 0 the uptake
    has no denominator, mu = 0 adds nothing to the w diagonal, and a constant
    resupply profile enters as the scalar linf(t) * dt, the bits of the
    field's product with dt.  The stats carry the new fields' sup norms.
    """
    if dt <= 0:
        raise DomainError(f"dt must be positive, got {dt}")
    g.check_conforms(state.u, state.v, state.w)
    ks = params.kinetics
    t_new = state.t + dt
    mms = params.mms
    if mms is not None:
        s_u, s_v, s_w = mms.sources(params, g, t_new)
    omega = None if history is None else sbdf2_ratio(dt, history.dt)
    c = 1.0 if omega is None else (1.0 + 2.0 * omega) / (1.0 + omega)

    # c*I - dt*Lap for all three solves: u and v at c, w at its mean diagonal
    spectral = _SpectralHelmholtz(g, dt)
    # Each right-hand side is built in the array that the solve turns into the
    # new field; dt * (law - div) + u has the bits of u + dt * (-div + law).
    n_u = gridmod.taxis_divergence(state.u, state.w, g)
    np.subtract(ks.law_f(state.u) if laws is None else laws[0], n_u, out=n_u)
    if omega is None:
        # a history keeps N_u for the next step
        u_new = np.multiply(n_u, dt, out=n_u if history is None else None)
        u_new += state.u
    else:
        u_new = _extrapolate(n_u, history.n_u, omega, out=history.n_u)
        u_new *= dt
        u_new += _bdf2_levels(state.u, history.u, omega)
    if mms is not None:
        s_u *= dt
        u_new += s_u
    clamp_u, linf_u = _admit(spectral.solve(u_new, u_new, c), "u", t_new)

    if history is not None:
        n_v = gridmod.taxis_divergence(state.v, state.u, g)
        np.subtract(ks.law_g(state.v) if laws is None else laws[1], n_v, out=n_v)
    if omega is None:
        v_new = gridmod.taxis_divergence(state.v, u_new, g)
        np.subtract(ks.law_g(state.v) if laws is None else laws[1], v_new, out=v_new)
        v_new *= dt
        v_new += state.v
    else:
        v_new = _extrapolate(n_v, history.n_v, omega, out=history.n_v)
        v_new *= dt
        v_new += _bdf2_levels(state.v, history.v, omega)
    if mms is not None:
        s_v *= dt
        v_new += s_v
    clamp_v, linf_v = _admit(spectral.solve(v_new, v_new, c), "v", t_new)

    # diag = c + dt (mu + sigma / (1 + eps sigma w)) with sigma = u_new + v_new
    # and w* in place of w for SBDF2.  At eps = 0 the denominator is 1.0 and
    # sigma / 1.0 is sigma; at mu = 0 the sum changes at most a -0.0, which
    # dt * and + c turn into c.
    diag = np.add(u_new, v_new)
    rhs_w = w_star = None
    if omega is not None:
        # the uptake's extrapolation, and the predictor of the w update
        w_star = _extrapolate(state.w, history.w, omega)
        np.maximum(w_star, 0.0, out=w_star)
    if params.epsilon != 0.0:
        # rhs_w holds the denominator first
        if omega is None:
            rhs_w = np.multiply(diag, params.epsilon)
            rhs_w *= state.w
        else:
            rhs_w = np.multiply(w_star, diag)
            rhs_w *= params.epsilon
        rhs_w += 1.0
        diag /= rhs_w
    if params.mu != 0.0:
        diag += params.mu
    diag *= dt
    diag += c
    resupply = params.resupply
    if omega is not None:
        rhs_w = _bdf2_levels(state.w, history.w, omega, out=rhs_w)
        rhs_w += (resupply.linf(t_new) * dt if resupply.profile == "constant"
                  else resupply.field(g, t_new) * dt)
    elif resupply.profile == "constant":
        # the field is linf(t) times ones: its product with dt is this scalar
        rhs_w = np.add(state.w, resupply.linf(t_new) * dt, out=rhs_w)
    else:
        rhs_w = np.multiply(resupply.field(g, t_new), dt, out=rhs_w)
        rhs_w += state.w
    if mms is not None:
        s_w *= dt
        rhs_w += s_w
    if history is not None:
        # the previous state is spent: its fields are free before the w solve
        history.u, history.v, history.w = state.u, state.v, state.w
        history.n_u, history.n_v, history.dt = n_u, n_v, dt
    if omega is None:
        w_new, it_w = _pcg(spectral, diag, rhs_w, control.lin_tol, control.max_iter)
    else:
        # (c_w - dt Lap) w_new = rhs_w - (diag - c_w) w*, c_w = mean(diag)
        c_w = float(diag.sum()) / diag.size  # the bits of _pcg's c
        diag -= c_w
        w_star *= diag
        rhs_w -= w_star
        w_new, it_w = spectral.solve(rhs_w, rhs_w, c_w), 0
    clamp_w, linf_w = _admit(w_new, "w", t_new)

    new_state = State(u=u_new, v=v_new, w=w_new, t=t_new, step_index=state.step_index + 1)
    stats = StepStats(clamps=clamp_u + clamp_v + clamp_w,
                      cg_iterations=(0, 0, it_w), linf=(linf_u, linf_v, linf_w))
    return new_state, stats


def suggest_dt(state: State, params: ModelParams, g: gridmod.Grid,
               control: StepControl, u_max: float | None = None,
               v_max: float | None = None) -> float:
    """Advective and reaction-limited step size.

    dt = safety * min(dt_max, h_min / (max|grad w| + max|grad u|),
                      1 / (1 + |f'| + |g'|)) with the laws' analytic slopes
    at the current field maxima.  Returns safety * dt_max for the flat zero
    state.  ``u_max`` and ``v_max`` are those maxima when the caller has them
    (``run`` passes the sup norms, which are the maxima of nonnegative
    fields); otherwise they are read from the state.
    """
    grad_sum = (gridmod.max_face_gradient(state.w, g)
                + gridmod.max_face_gradient(state.u, g))
    advective = g.h_min / (grad_sum + TINY_GRADIENT)
    if u_max is None:
        u_max = float(state.u.max())
    if v_max is None:
        v_max = float(state.v.max())
    slope_f = abs(params.kinetics.law_f.derivative(u_max))
    slope_g = abs(params.kinetics.law_g.derivative(v_max))
    reactive = 1.0 / (1.0 + slope_f + slope_g)
    return control.safety * min(control.dt_max, advective, reactive)


# --- manufactured solutions ----------------------------------------------


@dataclass(frozen=True)
class MmsComponent:
    """base + cos_amp cos(pi x/Lx) cos(pi y/Ly) e^(-cos_rate t) + flat_amp e^(-flat_rate t)."""

    base: float
    cos_amp: float = 0.0
    cos_rate: float = 0.0
    flat_amp: float = 0.0
    flat_rate: float = 0.0

    def __post_init__(self):
        if self.cos_rate < 0 or self.flat_rate < 0:
            raise StructuralError("manufactured decay rates must be nonnegative")

    def amplitudes(self, t: float) -> tuple[float, float, float, float]:
        """(A, B, dA/dt, dB/dt): the component is base + A C + B with C the cosine mode."""
        a = math.exp(-self.cos_rate * t) * self.cos_amp
        b = math.exp(-self.flat_rate * t) * self.flat_amp
        return a, b, -self.cos_rate * a, -self.flat_rate * b

    def value(self, mode: np.ndarray, t: float):
        """base + A C + B at time t on the cosine mode C; the scalar base + B
        when the component has no cosine part."""
        a, b, _, _ = self.amplitudes(t)
        if self.cos_amp == 0.0:
            # a numpy scalar, so the laws and sums treat it as a field entry
            return np.float64(self.base + b)
        return self.base + a * mode + b


@lru_cache(maxsize=16)
def _cosine_mode(g: gridmod.Grid):
    """(C, k^2, |grad C|^2) on g for C = cos(pi x/Lx) cos(pi y/Ly); lap C = -k^2 C."""
    kx = math.pi / g.Lx
    ky = math.pi / g.Ly
    X, Y = g.cell_centers()
    cos_x, cos_y = np.cos(kx * X), np.cos(ky * Y)
    mode = cos_x * cos_y
    grad_sq = (kx * np.sin(kx * X) * cos_y) ** 2 + (ky * cos_x * np.sin(ky * Y)) ** 2
    mode.setflags(write=False)
    grad_sq.setflags(write=False)
    return mode, kx**2 + ky**2, grad_sq


@dataclass(frozen=True)
class MmsSpec:
    """Manufactured triple on one cosine mode C, with zero normal derivative on the boundary.

    Every term of the system is a scalar times C, |grad C|^2 or a field, so
    the sources are closed-form expressions in the amplitudes of the three
    components: with c = base + A C + B, c_t - lap c = (A' + k^2 A) C + B'
    and div(c grad p) = A_c A_p |grad C|^2 - k^2 A_p c C.
    """

    u: MmsComponent
    v: MmsComponent
    w: MmsComponent

    def fields(self, g: gridmod.Grid, t: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        mode = _cosine_mode(g)[0]
        return tuple(np.full(g.shape, comp.value(mode, t)) for comp in (self.u, self.v, self.w))

    def sources(self, params: ModelParams, g: gridmod.Grid, t: float):
        """Residual sources making the triple an exact solution of the system.

        Evaluated by amplitude: a component without a cosine part is the
        scalar base + B, each term coef * C, coef * |grad C|^2 or
        coef * field * C is computed only when its coefficient is nonzero,
        and the scalar terms are added once.  On the shipped triple, whose v
        and w are flat, that is a handful of field passes per source.
        Returns three new writable arrays (``step`` scales them in place).
        """
        mode, k2, grad_sq = _cosine_mode(g)
        comps = (self.u, self.v, self.w)
        u, v, w = (comp.value(mode, t) for comp in comps)
        (a_u, _, da_u, db_u), (a_v, _, da_v, db_v), (a_w, _, da_w, db_w) = (
            comp.amplitudes(t) for comp in comps)
        ks = params.kinetics
        resupply = params.resupply
        r = resupply.field(g, t) if resupply.linf(t) != 0.0 else 0.0
        s_u = _combine(g, (_scaled(da_u + k2 * a_u, mode), db_u,
                           _scaled(a_u * a_w, grad_sq), _scaled(-k2 * a_w, u, mode)),
                       ks.law_f(u))
        s_v = _combine(g, (_scaled(da_v + k2 * a_v, mode), db_v,
                           _scaled(a_v * a_u, grad_sq), _scaled(-k2 * a_u, v, mode)),
                       ks.law_g(v))
        s_w = _combine(g, (_scaled(da_w + k2 * a_w, mode), db_w,
                           consumption_term(u, v, w, params.epsilon), params.mu * w),
                       r)
        return s_u, s_v, s_w


def _scaled(coef: float, *factors):
    """coef times the factors (scalars or fields), or 0.0 with no pass when coef is 0."""
    if coef == 0.0:
        return 0.0
    for factor in factors:
        coef = coef * factor
    return coef


def _combine(g: gridmod.Grid, terms, minus) -> np.ndarray:
    """sum(terms) - minus as a new writable array on g.

    Each term and ``minus`` is a scalar or a new field of the caller's; the
    fields are summed into the first of them, and the scalars are summed
    apart and added once, or not at all when their sum is zero.
    """
    out = None
    scalar = 0.0
    for term in terms:
        if np.ndim(term) == 0:
            scalar += float(term)
        elif out is None:
            out = term
        else:
            out += term
    if np.ndim(minus) == 0:
        scalar -= float(minus)
    elif out is None:
        out = np.subtract(scalar, minus, out=minus)
        scalar = 0.0
    else:
        out -= minus
    if out is None:
        return np.full(g.shape, scalar)
    if scalar != 0.0:
        out += scalar
    return out


def shipped_mms() -> MmsSpec:
    """The verification triple: cosine forager, spatially flat decaying v and w."""
    return MmsSpec(
        u=MmsComponent(base=2.0, cos_amp=1.0, cos_rate=1.0),
        v=MmsComponent(base=1.0, flat_amp=0.5, flat_rate=1.0),
        w=MmsComponent(base=0.3, flat_amp=0.2, flat_rate=1.0),
    )


def taxis_mms() -> MmsSpec:
    """A triple on one decaying cosine mode in all three components: both
    taxis carriers and the w diagonal vary in space, so the upwind choice of
    carrier matters and the w solve iterates."""
    return MmsSpec(
        u=MmsComponent(base=2.0, cos_amp=1.0, cos_rate=1.0),
        v=MmsComponent(base=1.0, cos_amp=0.5, cos_rate=1.0),
        w=MmsComponent(base=0.6, cos_amp=0.4, cos_rate=1.0),
    )


# --- the run driver -------------------------------------------------------


@dataclass(frozen=True)
class RunSetup:
    """Everything a run needs, admitted once: a setup that exists may run.

    Construction refuses a non-finite or negative time, a non-positive
    ``fixed_dt`` or ``monitor_delta``, a ``monitor_q`` not above 1, initial
    data that is off the grid, negative, non-finite or massless, and a
    declared growth envelope ``-k s^a - l <= f(s) <= -K s^a + L`` (and its
    g twin) that the laws break.  So every command that runs refuses these
    before any step runs or any output directory is touched.  A setup is
    frozen: ``dataclasses.replace`` makes a changed one, and admits it anew.
    """

    grid: gridmod.Grid
    params: ModelParams
    initial: kin.InitialData
    control: StepControl = StepControl()
    t_end: float = 1.0
    monitor_cadence: float = 0.25
    monitor_delta: float = 1e-2
    monitor_q: float = 2.0
    snapshot_every: float = 0.0  # 0 disables intermediate snapshots
    out_dir: Path | None = None
    config_text: str = ""
    label: str = "run"
    fixed_dt: float | None = None

    def __post_init__(self):
        # 0 is a valid t_end (echo the initial state) and disables the cadence
        # and the snapshots; inf or nan would never end or never start the loop
        for name in ("t_end", "monitor_cadence", "snapshot_every"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise DomainError(f"{name} must be finite and nonnegative, got {value}")
        for name in ("fixed_dt", "monitor_delta"):
            value = getattr(self, name)
            if value is not None and not (math.isfinite(value) and value > 0):
                raise DomainError(f"{name} must be finite and positive, got {value}")
        # refused here, before run clears the snapshots of out_dir
        mon.pick_theta_delta(self.monitor_q)
        self.initial.validate(self.grid)
        env = kin.validate_envelope(self.params.kinetics)
        if not env.holds:
            raise DomainError(f"growth envelope violated ({env.worst_check} at "
                              f"s={env.worst_point:.4g}, margin {env.worst_margin:.3e})")


@dataclass
class RunResult:
    setup: RunSetup
    series: dict
    report: mon.MonitorReport
    consts: mon.BoundConstants
    final_state: State
    failure: str = ""
    decay: mon.DecayDetection | None = None
    regularity: mon.RegularityReport | None = None
    step_checks: dict = field(default_factory=dict)
    w_iterations: int = 0
    wall_time: float = 0.0

    @property
    def completed(self) -> bool:
        return not self.failure

    @property
    def steps(self) -> int:
        return self.final_state.step_index

    @property
    def total_clamps(self) -> int:
        return int(self.series["clamps"].sum())


def git_blob_hash(text: str) -> str:
    data = text.encode("utf-8")
    return hashlib.sha1(b"blob %d\0" % len(data) + data).hexdigest()


class _EventClock:
    """Merged forced-time grid (cadence, snapshots, t_end) with exact landings.

    With ``split`` (adaptive runs) a step that would leave less than one
    full step before the next event takes half the remaining interval
    instead, so the landing step is at least half its suggested size and
    the ratio of the step after it stays near 2 at most, where SBDF2 still
    runs (``sbdf2_ratio``); a sliver landing would make that step an Euler
    step.  Without it (fixed dt) every step is the given one but the landing.
    """

    def __init__(self, cadence: float, snap: float, t_end: float, split: bool):
        self.cadence = cadence
        self.snap = snap
        self.t_end = t_end
        self.split = split
        self.k_cad = 0
        self.k_snap = 0

    @staticmethod
    def _next(every: float, hits: int) -> float:
        """The next multiple of ``every`` after ``hits`` landings; inf when off."""
        return (hits + 1) * every if every > 0 else math.inf

    def clip(self, t: float, dt: float) -> tuple[float, float, bool, bool]:
        """Clip dt to the next event; returns (dt, t_new, cadence_hit, snap_hit).

        Landing on t_end counts as a cadence and a snapshot hit.  An event
        that rounding puts within eps of t_end (3 * 0.3 < 0.9) is t_end.
        """
        nc, ns = self._next(self.cadence, self.k_cad), self._next(self.snap, self.k_snap)
        target = min(nc, ns, self.t_end)
        eps = 1e-9 * max(1.0, abs(target))
        if target >= self.t_end - eps:
            target = self.t_end
        if t + dt >= target - eps:
            dt = target - t
            t_new = target
        else:
            if self.split and t + 2.0 * dt > target - eps:
                dt = 0.5 * (target - t)
            t_new = t + dt
        cad_hit = abs(t_new - nc) <= eps
        snap_hit = abs(t_new - ns) <= eps
        if cad_hit:
            self.k_cad += 1
        if snap_hit:
            self.k_snap += 1
        last = t_new >= self.t_end
        return dt, t_new, cad_hit or last, snap_hit or last


# After one block this large is allocated and freed (_settle_heap), glibc
# takes fields of up to 1024^2 from the heap and keeps up to twice this
# much free at its top: more than the working set of a 256^2 run.
HEAP_SETTLE_BYTES = 8 << 20


def _settle_heap() -> None:
    """Make freed field memory stay in the heap for the rest of the process.

    glibc serves blocks above its mmap threshold (128 KiB at first, exactly
    one 128^2 field) by fresh mappings and returns free heap above its trim
    threshold to the system, so whether a step's temporaries fault their
    pages in again would turn on the order and sizes of earlier allocations.
    By mallopt(3), freeing a mapped block raises the mmap threshold to its
    size and the trim threshold to twice that: after this one unused 8 MiB
    block, fields come from the heap and a run's working set stays mapped.
    On other allocators it is an allocation and a free, nothing more.
    mallopt(M_MMAP_THRESHOLD) through ctypes would do the same on glibc
    only, needs a libc lookup per platform, and switches the dynamic rule
    off for the whole process for good.
    """
    np.empty(HEAP_SETTLE_BYTES, dtype=np.uint8)


def _write_snapshot(out_dir: Path, state: State, g: gridmod.Grid):
    paths = gridmod.snapshot_paths(out_dir, state.step_index)
    for path, phi in zip(paths, (state.u, state.v, state.w)):
        gridmod.write_field(path, phi, g, state.t)


def run(setup: RunSetup) -> RunResult:
    """Integrate to t_end and record the trajectory; write outputs if configured.

    The initial state goes through the loop body as a step with dt = 0 that
    hits the cadence and the snapshot grid.  An adaptive run keeps one
    ``History`` and hands it to every step, so it takes SBDF2 steps, and
    grows each step at most MAX_STEP_GROWTH times the one before; a run at
    a fixed dt takes Euler steps.  Watchdog failures do not raise: the
    partial series, report and a failure record are returned (and written)
    instead.

    ``run`` records; ``monitors.assess`` judges the record after the loop.
    Per state the series take the masses, the sup norms, the growth
    integrals, the flat nutrient supersolution ``wbar`` and the integrals
    ``int_u_alpha``, ``int_v_beta``, ``int_abs_g_v`` and ``int_consumption``,
    which only the monitors read.  At each cadence hit the record takes the
    state's index and what only the live state gives: the log-gradient
    energy, the largest face gradients of u and v, the W^{2,4} seminorm of u
    and the weighted functional.  A manufactured run (``params.mms``) is
    held to no a-priori bound: it records neither, and its report is empty.

    Each fact of a state is computed once.  The sup norms ``linf_*`` of a new
    state come from admission (``StepStats.linf``); those of the initial
    state from ``grid.norm_linf``; ``suggest_dt`` takes u's and v's from the
    record.
    """
    g = setup.grid
    params = setup.params
    ks = params.kinetics
    control = setup.control
    t0 = time.perf_counter()
    _settle_heap()
    out_dir = Path(setup.out_dir) if setup.out_dir is not None else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        # the snapshots of an earlier run here would join this run's trajectory
        for p in out_dir.iterdir():
            if gridmod.SNAPSHOT_NAME.match(p.name):
                p.unlink()

    consts = mon.BoundConstants.from_setup(
        g, ks, params.resupply, params.mu, setup.initial.u0, setup.initial.v0,
        setup.initial.w0)
    fparams = mon.pick_theta_delta(setup.monitor_q)

    state = State(setup.initial.u0.astype(float),
                  setup.initial.v0.astype(float),
                  setup.initial.w0.astype(float))
    if setup.fixed_dt is not None:
        dt_bound = suggest_dt(state, params, g, control)
        if setup.fixed_dt > FIXED_DT_WARN_RATIO * dt_bound:
            warnings.warn(
                f"fixed_dt {setup.fixed_dt!r} exceeds {FIXED_DT_WARN_RATIO:g}x the "
                f"suggested step {dt_bound!r} of the initial state",
                RuntimeWarning, stacklevel=2)
    series: dict[str, list] = {k: [] for k in (
        "t", "dt", "mass_u", "mass_v", "mass_w", "linf_u", "linf_v", "linf_w",
        "clamps", "int_u_alpha", "int_v_beta", "int_f_u", "int_g_v",
        "int_abs_g_v", "int_consumption", "wbar")}
    # per cadence hit: the record index and what only the live state gives
    cadence: dict[str, list] = {k: [] for k in (
        "index", "log_gradient_energy", "maxgrad_u", "maxgrad_v", "seminorm_u_w24",
        "weighted_functional")}

    # against a source-augmented (manufactured) system the a-priori bounds
    # do not apply; record series and snapshots only
    checks_active = params.mms is None
    linf = tuple(gridmod.norm_linf(phi) for phi in (state.u, state.v, state.w))
    wbar = linf[2]
    r_now = params.resupply.linf(state.t)
    dt, clamps, cad_hit, snap_hit = 0.0, 0, True, True
    # the recorder's u^alpha, v^beta and |g(v)|, which only the monitors read
    scratch = np.empty(g.shape) if checks_active else None
    failure = ""
    w_iterations = 0
    # At dt = h^2 the Euler time error offsets part of the space error of
    # the manufactured study: SBDF2 there raised the l2 errors of u and v at
    # 128^2 by 65% and 22%.  Adaptive runs gain from it (CHANGES.md).
    history = History() if setup.fixed_dt is None else None
    clock = _EventClock(setup.monitor_cadence, setup.snapshot_every, setup.t_end,
                        split=history is not None)
    try:
        while True:
            # the growth terms of this state, for the record and the next step
            fu = ks.law_f(state.u)
            gv = ks.law_g(state.v)
            series["t"].append(state.t)
            series["dt"].append(dt)
            series["mass_u"].append(gridmod.integrate(state.u, g))
            series["mass_v"].append(gridmod.integrate(state.v, g))
            series["mass_w"].append(gridmod.integrate(state.w, g))
            series["linf_u"].append(linf[0])
            series["linf_v"].append(linf[1])
            series["linf_w"].append(linf[2])
            series["clamps"].append(clamps)
            series["int_f_u"].append(gridmod.integrate(fu, g))
            series["int_g_v"].append(gridmod.integrate(gv, g))
            series["wbar"].append(wbar)

            if checks_active:
                # the integrals that only the monitors and the decay verdict read
                series["int_u_alpha"].append(
                    gridmod.integrate(kin.power(state.u, ks.alpha, out=scratch), g))
                series["int_v_beta"].append(
                    gridmod.integrate(kin.power(state.v, ks.beta, out=scratch), g))
                series["int_abs_g_v"].append(
                    gridmod.integrate(np.abs(gv, out=scratch), g))
                series["int_consumption"].append(
                    gridmod.integrate(consumption_term(state.u, state.v, state.w,
                                                       params.epsilon), g))
                if cad_hit:
                    cadence["index"].append(len(series["t"]) - 1)
                    cadence["log_gradient_energy"].append(mon.log_gradient_integrand(state.v, g))
                    cadence["maxgrad_u"].append(gridmod.max_face_gradient(state.u, g))
                    cadence["maxgrad_v"].append(gridmod.max_face_gradient(state.v, g))
                    cadence["seminorm_u_w24"].append(gridmod.seminorm_w2p(state.u, g, 4))
                    wf = mon.weighted_functional(state.u, state.w, fparams, g)
                    cadence["weighted_functional"].append(math.nan if wf is None else wf)
            if out_dir is not None and snap_hit:
                _write_snapshot(out_dir, state, g)

            if state.t >= setup.t_end:
                break
            if setup.fixed_dt is not None:
                dt = setup.fixed_dt
            else:
                suggested = suggest_dt(state, params, g, control, linf[0], linf[1])
                # dt is the step before, 0 before the first step
                dt = min(suggested, MAX_STEP_GROWTH * dt) if dt > 0.0 else suggested
            dt, t_new, cad_hit, snap_hit = clock.clip(state.t, dt)
            state, stats = step(state, params, dt, g, control, laws=(fu, gv),
                                history=history)
            state.t = t_new
            clamps = stats.clamps
            linf = stats.linf
            w_iterations += stats.cg_iterations[2]
            # advance the nutrient supersolution with the analytic resupply sup
            r_prev, r_now = r_now, params.resupply.linf(t_new)
            wbar = mon.supersolution_step(wbar, params.mu, r_prev, r_now, dt)
    except (PositivityError, LinearSolveError, BlowUpError) as exc:
        failure = f"{type(exc).__name__}: {exc}"

    series_np = {k: np.asarray(v, dtype=float) for k, v in series.items()}
    report, step_checks, decay, regularity = mon.MonitorReport(), {}, None, None
    if checks_active:
        report, step_checks, decay, regularity = mon.assess(
            series_np, {k: np.asarray(v) for k, v in cadence.items()}, consts, params.mu,
            setup.monitor_delta, completed=not failure)

    result = RunResult(
        setup=setup, series=series_np, report=report, consts=consts,
        final_state=state, failure=failure, decay=decay,
        regularity=regularity, step_checks=step_checks, w_iterations=w_iterations,
        wall_time=time.perf_counter() - t0)
    if out_dir is not None:
        _write_outputs(result, out_dir)
    return result


def _fmt(x) -> str:
    return repr(float(x))


def _write_outputs(result: RunResult, out_dir: Path):
    series = result.series
    cols = ["t", "dt", "mass_u", "mass_v", "mass_w", "linf_u", "linf_v",
            "linf_w", "clamps"]
    # row by row: the whole file as one string (twice, joined and then with
    # its last newline) took a few hundred KiB of fresh heap on long runs
    with open(out_dir / "timeseries.csv", "w") as fh:
        fh.write(",".join(cols) + "\n")
        for i in range(len(series["t"])):
            row = [_fmt(series[c][i]) if c != "clamps" else str(int(series["clamps"][i]))
                   for c in cols]
            fh.write(",".join(row) + "\n")

    (out_dir / "monitors.csv").write_text(
        "\n".join(result.report.csv_rows()) + "\n")

    manifest = [
        "# taxis-cascade run",
        f"# label: {result.setup.label}",
        f"# config-hash: {git_blob_hash(result.setup.config_text)}",
        f"# status: {'completed' if result.completed else 'failed'}",
        f"# steps: {result.steps}",
        f"# clamps: {result.total_clamps}",
        f"# w-solve iterations: {result.w_iterations}",
    ]
    if result.failure:
        manifest.append(f"# failure: {result.failure}")
    manifest.append(result.setup.config_text.rstrip("\n"))
    (out_dir / "manifest.txt").write_text("\n".join(manifest) + "\n")
