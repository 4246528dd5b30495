"""IMEX time integration of the taxis cascade with positivity preservation.

One step advances the cascade in order u -> v -> w: diffusion is implicit,
taxis and growth are explicit.  u and v obey one law with different
potentials, phi_t = Lap phi - div(phi grad p) + law(phi), p = w for u and
p = u for v, and a step takes both through one loop body.  Without a
``History``, and as the first step of one, a step is the Euler step:
backward Euler for diffusion with the explicit terms at the old state, v's
taxis taking the freshly solved u.  Every later step of a history is the
variable-step second-order semi-implicit BDF (SBDF2): it extrapolates the
explicit terms N = law - taxis of the two states before, v's taxis taking
the old u, and refuses a step ratio at or beyond 1 + sqrt(2)
(``sbdf2_ratio``).  ``run`` keeps a history where dt adapts and takes Euler
steps at a fixed dt.  One operator c*I - dt*Lap per step serves all three
solves.  The u and v systems (c = 1 for Euler) are solved directly by the
cosine transform that diagonalizes the Neumann Laplacian: on grids of at most
DENSE_DCT_MAX cells a side as four small products with cached dense cosine
matrices and their C-contiguous transposes, on larger grids by scipy's DCT.
The nutrient consumption is semi-implicit through a nonnegative diagonal
whose uptake denominator reads w (Euler) or its extrapolation w* (SBDF2).
Every step updates w by one solve of the same operator at the mean c of
that diagonal, the rest of the uptake taken at a predictor:
(c - dt Lap) w_new = rhs_w - (diag - c) pred (``_pcg``).  The SBDF2 step's
pred is w*; it misses the implicit system by (diag - c)(w* - w_new),
O(dt^3) per step.  The Euler step's is rhs_w / diag, which makes the
right-hand side c rhs_w / diag.  No solve iterates.  Since
the inverse of c - dt Lap is nonnegative, w_new is nonnegative whenever its
whole right-hand side is: in an Euler step whenever rhs_w is, whatever dt
is.  ``_admit`` clamps entries of a new field in [-1e-12, 0) to zero and
counts them; anything lower is a hard positivity error.

A step allocates its three new fields and a few work arrays of its own call,
nothing more (an SBDF2 step builds its u and v in the history's spent
explicit terms), and builds its explicit terms in the growth terms that its
caller hands over (``laws``), which it consumes: each right-hand side is
built in the array that the solve then overwrites with the new field, and
each transform writes into that array or the solver's one work array.  No
field-sized array is held past its last use: ``run`` starts from the
admitted initial arrays, keeps no reference to the growth terms it hands a
step, and records its monitor integrands in temporaries.  The
in-place forms keep the operation order of the plain expressions, so the
result is bit for bit what they give.  ``run`` first raises glibc's heap
thresholds (``_settle_heap``), so the memory a step frees serves the next
step instead of being returned to the system and faulted in again, however
many temporaries a step makes.  A manufactured model adds sources evaluated
by amplitude: a spatially flat component is a scalar, and a term whose
coefficient is zero costs nothing.
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
    PositivityError,
    StructuralError,
)

BLOWUP_LIMIT = 1e8
TINY_GRADIENT = 1e-30
FIXED_DT_WARN_RATIO = 10.0
# variable-step BDF2 is zero-stable while each step is less than this many
# times the one before (Wang & Ruuth, J. Comput. Math. 2008)
SBDF2_MAX_RATIO = 1.0 + math.sqrt(2.0)
# an adaptive run's step is at most this many times the one before, so no
# step reaches the ratio that sbdf2_ratio refuses: 2 < SBDF2_MAX_RATIO.  The
# event clock applies it (_EventClock), to landings on events too, which may
# otherwise stretch a step by the event tolerance
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
    """Step-size settings, read by ``suggest_dt``."""

    dt_max: float
    safety: float

    def __post_init__(self):
        if not (self.dt_max > 0 and 0 < self.safety <= 1):
            raise DomainError("step control values must be positive, safety <= 1")


@dataclass
class History:
    """The step before, as an SBDF2 step reads it.

    ``fields`` is that step's input state (u, v, w), ``terms`` its explicit
    terms (N_u, N_v), N = law - taxis, as that step took them, and ``dt``
    its size.  An empty history (``dt`` 0) makes the next step an Euler
    step, whose v term takes the new u as its potential; every later one is
    an SBDF2 step, whose v term takes the old u.  ``step`` reads the history
    and leaves in it what the next step needs: its own input state, terms
    and dt.  The terms belong to the history, and a step builds its u and v
    right-hand sides in them; the fields are only read.  After a step that
    raised, the history is spent, except after ``sbdf2_ratio``'s refusal,
    which comes before anything is written.
    """

    fields: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
    terms: tuple[np.ndarray, np.ndarray] | None = None
    dt: float = 0.0


def sbdf2_ratio(dt: float, dt_prev: float) -> float | None:
    """The step ratio omega = dt / dt_prev of an SBDF2 step, or None for the
    first step of a history (dt_prev 0), which is an Euler step.  Refuses
    omega at or beyond SBDF2_MAX_RATIO, where variable-step BDF2 is not
    zero-stable, with a ``DomainError``.  An adaptive ``run`` lands on its
    events (``_EventClock``) and grows each step at most MAX_STEP_GROWTH
    times the one before, so none of its steps comes near the bound.
    """
    if not dt_prev > 0.0:
        return None
    omega = dt / dt_prev
    if not omega < SBDF2_MAX_RATIO:
        raise DomainError(f"step ratio {omega:.6g} is not below the SBDF2 bound "
                          f"1 + sqrt(2) (dt {dt!r} after {dt_prev!r})")
    return omega


@dataclass
class StepStats:
    clamps: int = 0
    # no solve iterates, so this reads (0, 0, 0); kept while the bench sums
    # it into its solver.cg_iters_* metrics (perfbench/tracing.py)
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
    the solution is the right-hand side's over c, to rounding; and c the mean
    nutrient diagonal is the step's one w solve (``_pcg``).  Every solve is
    direct.

    When neither side exceeds DENSE_DCT_MAX the transforms are the products
    Cy b Cx^T and Cy^T X Cx with cached cosine matrices (``dense``), which
    skips scipy's per-call dispatch; larger grids call scipy's DCT in place.
    Each matrix is cached with its transpose as a C-contiguous copy, so no
    product reads a transposed view, and the products are ``np.dot`` with
    ``out=``, the BLAS call of ``np.matmul`` with less dispatch.  On some
    sizes they round differently from products on transposed views (the
    README's Scheme lists them), deterministically and whatever the BLAS
    thread count.  ``np.dot`` needs a C-contiguous ``out``, as every field
    of a step is.  Every solve writes the denominators lambda*dt + c into
    the one work array and divides by them (not multiplying by reciprocals,
    which would change the bits).  The dense products pass through the same
    array and round the k = 0 mode, so that path then restores the exact
    cell sum, sum(b) / c.
    """

    def __init__(self, g: gridmod.Grid, dt: float):
        self.dense = max(g.nx, g.ny) <= DENSE_DCT_MAX
        self.eigenvalues = _neumann_eigenvalues(g)
        self.dt = dt
        self.work = np.empty(g.shape)
        if self.dense:
            self.cosines = (_cosine_matrix(g.ny), _cosine_matrix(g.nx))

    def solve(self, b: np.ndarray, c: float = 1.0) -> np.ndarray:
        """Overwrite b by x with (c*I - dt*Lap) x = b and return it.

        The transforms write into b and the work array, so a solve allocates
        no field.
        """
        if self.dense:
            total = float(b.sum())
            (cy, cy_t), (cx, cx_t) = self.cosines
            np.dot(cy, b, out=self.work)
            coeffs = np.dot(self.work, cx_t, out=b)
        else:
            coeffs = _fft.dctn(b, type=2, norm="ortho", overwrite_x=True)
        np.multiply(self.eigenvalues, self.dt, out=self.work)
        self.work += c
        coeffs /= self.work
        if not self.dense:
            x = _fft.idctn(coeffs, type=2, norm="ortho", overwrite_x=True)
            # overwrite_x permits an in-place transform but does not promise one
            if not np.may_share_memory(x, b):
                np.copyto(b, x)
            return b
        np.dot(cy_t, b, out=self.work)
        np.dot(self.work, cx, out=b)
        b += (total / c - float(b.sum())) / b.size
        return b


def _pcg(spectral: _SpectralHelmholtz, diag: np.ndarray, b: np.ndarray,
         pred: np.ndarray | None = None) -> np.ndarray:
    """A step's one w update: with c = mean(diag), solve
    (c*I - dt*Lap) x = b - (diag - c) pred by ``spectral`` (the step's
    operator, which carries dt) at that c, and return x in ``b``.

    The SBDF2 step passes its extrapolation w* as ``pred``.  Without one (the
    Euler step) the predictor is b / diag, so the right-hand side is
    (b / diag) c, nonnegative wherever b is, and then so is x, whatever dt
    is.  Either way x misses (diag*I - dt*Lap) x = b by
    (diag - c)(x - pred), to rounding: the diagonal's spread times the
    predictor's miss.  Nothing iterates; the name is kept for the bench's
    ``solver.pcg`` span (perfbench/tracing.py) until the bench renames it.

    ``b`` is overwritten by x, and an SBDF2 update also overwrites ``diag``
    (by diag - c) and ``pred``.
    """
    c = float(diag.sum()) / diag.size  # the bits of np.mean(diag)
    if pred is None:
        np.divide(b, diag, out=b)
        b *= c
    else:
        diag -= c
        pred *= diag
        b -= pred
    return spectral.solve(b, c)


def _admit(phi, name, t) -> tuple[int, float]:
    """Zero a new field's dust in [grid.DUST_FLOOR, 0) in place; return its
    count and the sup norm of the admitted field.  Lower entries (-inf too)
    are a positivity error, and NaN, +inf or a value above BLOWUP_LIMIT is
    a blow-up.  Reads the field twice: min, then max.

    Once the dust is zero the sup norm is max(fmax, 0.0) + 0.0, which has the
    bits of ``grid.norm_linf`` of the admitted field: fmax when some entry is
    positive, else +0.0 (every entry dust or a zero of either sign).
    """
    fmin = float(phi.min())
    if fmin < gridmod.DUST_FLOOR:
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
         control: StepControl | None = None,
         laws: tuple[np.ndarray, np.ndarray] | None = None,
         history: History | None = None) -> tuple[State, StepStats]:
    """One IMEX step of size dt; returns the new state and step statistics.

    Without ``history``, and as the first step of one, this is the Euler
    step; after that a history makes it the SBDF2 step of ratio
    omega = dt / history.dt (``sbdf2_ratio``, which refuses omega at or
    beyond SBDF2_MAX_RATIO), and the history then describes this step.
    u and v obey one law, phi_t = Lap phi - div(phi grad p) + law(phi), with
    p = w for u and p = u for v, and go through one loop body: with
    N = law - div(phi grad p), c = (1 + 2 omega) / (1 + omega) and the
    previous state's fields and terms marked _prev, each solves
        c phi_new - dt Lap phi_new = (1 + omega) phi
            - omega^2 / (1 + omega) phi_prev + dt ((1 + omega) N - omega N_prev)
    in an SBDF2 step, with v's potential the old u, and
    phi_new - dt Lap phi_new = phi + dt N in an Euler step, with v's
    potential the new u.  w has one predictor w_pred, w itself in an Euler
    step and w* = max((1 + omega) w - omega w_prev, 0) in an SBDF2 step, and
    one right-hand side rhs_w = levels + dt r(t_new), with levels = w or
    (1 + omega) w - omega^2 / (1 + omega) w_prev.  Its diagonal is
    diag = c + dt (mu + sigma / (1 + eps sigma w_pred)) with
    sigma = u_new + v_new, and w solves
    (c_w - dt Lap) w_new = rhs_w - (diag - c_w) pred once (``_pcg``), with
    c_w the mean of diag and pred = w* in an SBDF2 step, rhs_w / diag in an
    Euler step.  Every step makes three solves, none iterative, and reports
    ``cg_iterations`` (0, 0, 0).  ``control`` is unused; it keeps its
    position because the bench's reference build passes it there
    (perfbench/workloads.py).

    ``laws`` is (law_f(state.u), law_g(state.v)) when the caller has them
    already, and the step consumes them: each explicit term N is built in
    its law's array, so they become the history's terms, or at a fixed dt
    (no history) the new u and v, and the caller must not read them after
    the call.  Without them each law is evaluated where it is used, in a
    new array of the step's.  The input state is left unchanged; the new
    state's fields are new arrays, the history's spent explicit terms or
    the caller's laws.
    A manufactured model (``params.mms``) adds its sources at the new time.
    A term that the model sets to zero costs no pass: at eps = 0 the uptake
    has no denominator, mu = 0 adds nothing to the w diagonal, and a
    resupply flat in space is the scalar that ``ResupplySpec.field``
    returns, so r dt takes one product for every profile, with the bits of
    the field's product with dt.  The stats carry the new fields' sup norms.
    """
    if dt <= 0:
        raise DomainError(f"dt must be positive, got {dt}")
    g.check_conforms(state.u, state.v, state.w)
    ks = params.kinetics
    t_new = state.t + dt
    sources = None if params.mms is None else params.mms.sources(params, g, t_new)
    omega = None if history is None else sbdf2_ratio(dt, history.dt)
    c = 1.0 if omega is None else (1.0 + 2.0 * omega) / (1.0 + omega)

    # c*I - dt*Lap for all three solves: u and v at c, w at its mean diagonal
    spectral = _SpectralHelmholtz(g, dt)
    new, terms, admitted = [], [], []
    for k, (phi, law) in enumerate(((state.u, ks.law_f), (state.v, ks.law_g))):
        # u drifts up w; v up u, the new u in an Euler step and the old in SBDF2
        potential = state.w if k == 0 else new[0] if omega is None else state.u
        # N = law - div(phi grad p), built in the law's array and kept by a
        # history for the next step
        div = gridmod.taxis_divergence(phi, potential, g)
        n = law(phi) if laws is None else laws[k]
        np.subtract(n, div, out=n)
        del div
        terms.append(n)
        # Each right-hand side is built in the array that the solve turns into
        # the new field; dt * (law - div) + phi has the bits of
        # phi + dt * (-div + law).
        if omega is None:
            rhs = np.multiply(n, dt, out=n if history is None else None)
            rhs += phi
        else:
            rhs = _extrapolate(n, history.terms[k], omega, out=history.terms[k])
            rhs *= dt
            rhs += _bdf2_levels(phi, history.fields[k], omega)
        if sources is not None:
            rhs += np.multiply(sources[k], dt, out=sources[k])
        new.append(spectral.solve(rhs, c))
        admitted.append(_admit(new[k], "uv"[k], t_new))

    # diag = c + dt (mu + sigma / (1 + eps sigma w_pred)) with
    # sigma = u_new + v_new.  At eps = 0 the denominator is 1.0 and
    # sigma / 1.0 is sigma; at mu = 0 the sum changes at most a -0.0, which
    # dt * and + c turn into c.
    diag = np.add(new[0], new[1])
    if omega is None:
        w_pred = state.w
    else:
        w_pred = _extrapolate(state.w, history.fields[2], omega)
        np.maximum(w_pred, 0.0, out=w_pred)
    # the array of the w right-hand side holds the uptake's denominator first
    rhs_w = np.empty(g.shape)
    if params.epsilon != 0.0:
        np.multiply(diag, params.epsilon, out=rhs_w)
        rhs_w *= w_pred
        rhs_w += 1.0
        diag /= rhs_w
    if params.mu != 0.0:
        diag += params.mu
    diag *= dt
    diag += c
    r_dt = params.resupply.field(g, t_new)
    r_dt *= dt
    levels = (state.w if omega is None
              else _bdf2_levels(state.w, history.fields[2], omega, out=rhs_w))
    np.add(levels, r_dt, out=rhs_w)
    if sources is not None:
        rhs_w += np.multiply(sources[2], dt, out=sources[2])
    if history is not None:
        # the previous state is spent: its fields are free before the w solve
        history.fields, history.terms = (state.u, state.v, state.w), tuple(terms)
        history.dt = dt
    new.append(_pcg(spectral, diag, rhs_w, None if omega is None else w_pred))
    admitted.append(_admit(new[2], "w", t_new))
    clamps, linf = zip(*admitted)
    new_state = State(*new, t=t_new, step_index=state.step_index + 1)
    return new_state, StepStats(clamps=sum(clamps), linf=linf)


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
        r = params.resupply.field(g, t)
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
    Its fields have no defaults: ``Config.build_setup`` builds it, and a
    setup made by hand states every value.
    """

    grid: gridmod.Grid
    params: ModelParams
    initial: kin.InitialData
    control: StepControl
    t_end: float
    monitor_cadence: float
    monitor_delta: float
    monitor_q: float
    snapshot_every: float  # 0 disables intermediate snapshots
    out_dir: Path | None
    config_text: str
    label: str
    fixed_dt: float | None

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
    runs (``sbdf2_ratio``); after a sliver landing that ratio could pass the
    bound.  With it, too, no step is longer than MAX_STEP_GROWTH times the
    step before (``dt_max``): a landing, which may stretch a step by up to
    the event tolerance eps, waits for a later step when it would pass that
    cap.  Without it (fixed dt) every step is the given one but the landing.
    """

    def __init__(self, cadence: float, snap: float, t_end: float, split: bool):
        self.cadence = cadence
        self.snap = snap
        self.t_end = t_end
        self.split = split
        self.k_cad = 0
        self.k_snap = 0
        self.dt_max = math.inf  # the cap on the next step

    @staticmethod
    def _next(every: float, hits: int) -> float:
        """The next multiple of ``every`` after ``hits`` landings; inf when off."""
        return (hits + 1) * every if every > 0 else math.inf

    def clip(self, t: float, dt: float) -> tuple[float, float, bool, bool]:
        """Cap dt and clip it to the next event; returns
        (dt, t_new, cadence_hit, snap_hit).

        Landing on t_end counts as a cadence and a snapshot hit.  An event
        that rounding puts within eps of t_end (3 * 0.3 < 0.9) is t_end.
        Only a landing hits an event.
        """
        dt = min(dt, self.dt_max)
        nc, ns = self._next(self.cadence, self.k_cad), self._next(self.snap, self.k_snap)
        target = min(nc, ns, self.t_end)
        eps = 1e-9 * max(1.0, abs(target))
        if target >= self.t_end - eps:
            target = self.t_end
        landed = t + dt >= target - eps and target - t <= self.dt_max
        if landed:
            dt = target - t
        elif self.split and t + 2.0 * dt > target - eps:
            dt = min(0.5 * (target - t), self.dt_max)
        t_new = target if landed else t + dt
        cad_hit = landed and abs(target - nc) <= eps
        snap_hit = landed and abs(target - ns) <= eps
        if cad_hit:
            self.k_cad += 1
        if snap_hit:
            self.k_snap += 1
        if self.split:
            self.dt_max = MAX_STEP_GROWTH * dt
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
    ``History`` and hands it to every step, so it takes SBDF2 steps, and its
    event clock caps each step at MAX_STEP_GROWTH times the one before; a
    run at a fixed dt takes Euler steps.  Watchdog failures do not raise: the
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

    # a step never writes its input state, so the run starts from the
    # admitted arrays themselves (asarray copies only a non-float input)
    init = setup.initial
    state = State(*(np.asarray(phi, dtype=float) for phi in (init.u0, init.v0, init.w0)))
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
    failure = ""
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
                    gridmod.integrate(kin.power(state.u, ks.alpha), g))
                series["int_v_beta"].append(
                    gridmod.integrate(kin.power(state.v, ks.beta), g))
                series["int_abs_g_v"].append(gridmod.integrate(np.abs(gv), g))
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
            dt = setup.fixed_dt
            if dt is None:
                dt = suggest_dt(state, params, g, control, linf[0], linf[1])
            dt, t_new, cad_hit, snap_hit = clock.clip(state.t, dt)
            state, stats = step(state, params, dt, g, laws=(fu, gv), history=history)
            # consumed: now the history's terms or, at a fixed dt, the new u and v
            del fu, gv
            state.t = t_new
            clamps = stats.clamps
            linf = stats.linf
            # advance the nutrient supersolution with the analytic resupply sup
            r_prev, r_now = r_now, params.resupply.linf(t_new)
            wbar = mon.supersolution_step(wbar, params.mu, r_prev, r_now, dt)
    except (PositivityError, BlowUpError) as exc:
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
        regularity=regularity, step_checks=step_checks,
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
    ]
    if result.failure:
        manifest.append(f"# failure: {result.failure}")
    manifest.append(result.setup.config_text.rstrip("\n"))
    (out_dir / "manifest.txt").write_text("\n".join(manifest) + "\n")
