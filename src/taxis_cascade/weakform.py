"""Generalized-solution identities evaluated on recorded trajectories.

A trajectory is a directory of FLD1 snapshot triples plus the manifest that
produced them.  The evaluators quadrature the space-time identities of the
solution concept against a small basis of smooth, compactly supported test
functions: midpoint in space on the cell centers, trapezoid in time on the
snapshot times, field gradients by face differences, test-function
derivatives in closed form.

Each test function is a spatial factor times a temporal factor, and each
factor is one call that returns its value with its derivatives: a spatial
factor ``spatial(x, y)`` gives (phi, d_x phi, d_y phi), scalars where it is
flat in space, a temporal factor ``temporal(t)`` gives (phi, phi_t) and
states its ``support``.

A finite basis can falsify the inequalities but never certify them; the
five shipped functions are chosen to exercise every term, including the
initial-trace contributions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from taxis_cascade import grid as gridmod
from taxis_cascade import monitors, solver
from taxis_cascade.config import parse_config
from taxis_cascade.errors import DomainError, StructuralError

# quadrature slack the exploiter mass inequality may show and still pass
MASS_TOL = 1e-3


# --- smooth bump building blocks -----------------------------------------


def _bump(z):
    """exp(1 - 1/(1 - z^2)) inside |z| < 1, else 0 (C-infinity), and its slope."""
    z = np.asarray(z, dtype=float)
    value = np.zeros_like(z)
    slope = np.zeros_like(z)
    inside = np.abs(z) < 1.0
    zi = z[inside]
    value[inside] = np.exp(1.0 - 1.0 / (1.0 - zi**2))
    slope[inside] = value[inside] * (-2.0 * zi / (1.0 - zi**2) ** 2)
    return value, slope


def _mollifier_piece(z):
    """exp(-1/z) for z > 0 else 0, and its slope; building block of the step."""
    z = np.asarray(z, dtype=float)
    value = np.zeros_like(z)
    slope = np.zeros_like(z)
    pos = z > 0.0
    zp = z[pos]
    value[pos] = np.exp(-1.0 / zp)
    slope[pos] = value[pos] / zp**2
    return value, slope


@dataclass(frozen=True)
class SpatialBump:
    """Radial bump of unit height centered at (cx, cy) with radius r."""

    cx: float
    cy: float
    r: float

    def __call__(self, x, y):
        dx = np.asarray(x, dtype=float) - self.cx
        dy = np.asarray(y, dtype=float) - self.cy
        rho = np.sqrt(dx**2 + dy**2) / self.r
        value, slope = _bump(rho)
        with np.errstate(invalid="ignore", divide="ignore"):
            scale = np.where(rho > 0.0, slope / (rho * self.r**2), 0.0)
        return value, scale * dx, scale * dy


@dataclass(frozen=True)
class SpatialConstant:
    """phi = 1: flat in space, so its value and gradient are scalars."""

    def __call__(self, x, y):
        return 1.0, 0.0, 0.0


@dataclass(frozen=True)
class TemporalBump:
    """Bump supported on (t0, t1), zero at and outside the endpoints."""

    t0: float
    t1: float

    @property
    def support(self) -> tuple[float, float]:
        return (self.t0, self.t1)

    def __call__(self, t):
        half = 0.5 * (self.t1 - self.t0)
        value, slope = _bump((np.asarray(t, dtype=float) - 0.5 * (self.t0 + self.t1)) / half)
        return value, slope / half


@dataclass(frozen=True)
class TemporalPlateau:
    """Identically 1 on [0, a], smooth monotone descent to 0 at b.

    Uses the classic two-mollifier partition q / (p + q) so all derivatives
    vanish at both junctions; exercises the phi(.,0) initial-trace terms.
    p + q >= 1/e for every t, and the quotient is exactly 1 up to a and
    exactly 0 from b on (p = 0 there, respectively q = 0).
    """

    a: float
    b: float

    @property
    def support(self) -> tuple[float, float]:
        return (0.0, self.b)

    def __call__(self, t):
        z = (np.asarray(t, dtype=float) - self.a) / (self.b - self.a)
        p, dp = _mollifier_piece(z)
        q, dq = _mollifier_piece(1.0 - z)
        return q / (p + q), (-dq * p - q * dp) / (p + q) ** 2 / (self.b - self.a)


@dataclass(frozen=True)
class TestFunction:
    """Separable space-time test function with closed-form derivatives.

    ``spatial(x, y)`` returns (phi, d_x phi, d_y phi), each a scalar where
    the factor is flat in space, and ``temporal(t)`` returns (phi, phi_t);
    the temporal factor's ``support`` is the (lo, hi) outside which it
    vanishes.
    """

    name: str
    spatial: object
    temporal: object


def default_basis(t_end: float) -> list[TestFunction]:
    """Five functions: one spatial constant and four off-center bumps.

    Two temporal placements: plateaus live on the initial trace, interior
    bumps probe the bulk evolution.
    """
    T = t_end
    return [
        TestFunction("const_x_plateau", SpatialConstant(),
                     TemporalPlateau(0.15 * T, 0.75 * T)),
        TestFunction("bump_a_x_bump", SpatialBump(0.3, 0.3, 0.25),
                     TemporalBump(0.2 * T, 0.6 * T)),
        TestFunction("bump_b_x_plateau", SpatialBump(0.7, 0.4, 0.3),
                     TemporalPlateau(0.1 * T, 0.55 * T)),
        TestFunction("bump_c_x_bump", SpatialBump(0.4, 0.7, 0.3),
                     TemporalBump(0.35 * T, 0.9 * T)),
        TestFunction("bump_d_x_plateau", SpatialBump(0.65, 0.65, 0.2),
                     TemporalPlateau(0.3 * T, 0.95 * T)),
    ]


# --- trajectories ---------------------------------------------------------


@dataclass(eq=False)
class TrajectoryHandle:
    """Ordered FLD1 snapshot triples with the run's grid and model context.

    Snapshot fields are read lazily and cached on the handle, so they are
    freed with it; identities assume the first snapshot carries the initial
    datum.
    """

    grid: gridmod.Grid
    times: list[float]
    paths: list[tuple[Path, Path, Path]]
    params: object = None       # solver.ModelParams
    _loaded: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        if len(self.times) != len(self.paths):
            raise StructuralError("times and snapshot paths disagree")
        if any(t2 <= t1 for t1, t2 in zip(self.times, self.times[1:])):
            raise StructuralError("snapshot times must be strictly increasing")

    def __len__(self):
        return len(self.times)

    @property
    def t_end(self) -> float:
        return self.times[-1]

    def load(self, i: int):
        """The (u, v, w) fields of snapshot ``i``, read on first use and cached.

        Each file must carry the handle's grid and the snapshot's time; a
        triple whose files disagree is a ``StructuralError`` naming the file.
        """
        if i in self._loaded:
            return self._loaded[i]
        triple = []
        for p in self.paths[i]:
            phi, g, t = gridmod.read_field(p)
            if g != self.grid or t != self.times[i]:
                raise StructuralError(f"{p}: grid or time mismatch")
            triple.append(phi)
        self._loaded[i] = tuple(triple)
        return self._loaded[i]


def load_trajectory(run_dir) -> TrajectoryHandle:
    """Build a handle from a run directory (snapshots + manifest)."""
    run_dir = Path(run_dir)
    cfg = parse_config((run_dir / "manifest.txt").read_text(), label=run_dir.name)
    g = cfg.build_grid()
    params = cfg.build_params()
    entries = []
    for p in sorted(run_dir.glob("u_*.fld")):
        m = gridmod.SNAPSHOT_NAME.match(p.name)
        if not m:
            continue
        _, vp, wp = gridmod.snapshot_paths(run_dir, int(m.group(2)))
        if not (vp.exists() and wp.exists()):
            raise StructuralError(f"{run_dir}: incomplete snapshot triple {m.group(2)}")
        with open(p, "rb") as fh:
            gp, t = gridmod.read_header(fh)
        if gp != g:
            raise StructuralError(f"{p}: grid mismatch")
        entries.append((t, (p, vp, wp)))
    if not entries:
        raise StructuralError(f"{run_dir}: no snapshots found")
    entries.sort(key=lambda e: e[0])
    return TrajectoryHandle(grid=g, times=[e[0] for e in entries],
                            paths=[e[1] for e in entries], params=params)


# --- quadrature helpers ----------------------------------------------------


def time_weights(times) -> np.ndarray:
    """Trapezoid weights on the snapshot times."""
    times = np.asarray(times, dtype=float)
    w = np.zeros_like(times)
    w[:-1] += 0.5 * np.diff(times)
    w[1:] += 0.5 * np.diff(times)
    return w


def _check_support(fn: TestFunction, traj: TrajectoryHandle):
    """Disjoint temporal support is fine (all integrals vanish); support that
    overlaps the recorded range but sticks out of it is a structural error,
    and so is support that holds no snapshot strictly inside it: the
    trapezoid would see the function only where it vanishes, and judge the
    quadrature rather than the solution."""
    t0, t1 = traj.times[0], traj.times[-1]
    lo, hi = fn.temporal.support
    if hi <= t0 + 1e-12 or lo >= t1 - 1e-12:
        return
    if lo < t0 - 1e-9 or hi > t1 + 1e-9:
        raise StructuralError(
            f"test function {fn.name} supported on [{lo:.3g}, {hi:.3g}] exceeds "
            f"trajectory range [{t0:.3g}, {t1:.3g}]")
    if not any(lo < t < hi for t in traj.times):
        raise StructuralError(
            f"test function {fn.name} supported on ({lo:.3g}, {hi:.3g}) holds no "
            f"snapshot strictly inside it ({len(traj)} snapshots over "
            f"[{t0:.3g}, {t1:.3g}]); write snapshots more often")


def _face_mean(phi):
    return 0.5 * (phi[:, 1:] + phi[:, :-1]), 0.5 * (phi[1:, :] + phi[:-1, :])


class _Samples:
    """Time-independent samples of one test function on a trajectory's grid:
    values at the cell centers (``phi``), values and normal derivatives at
    the interior face midpoints, and phi(t_0) for the initial-trace terms.
    Building them checks the temporal support against the trajectory.  The
    residuals read the samples through three pairings (``cells``, ``faces``
    and ``grads``), each summed without the cell volume.  A factor flat in
    space gives scalar samples, so its pairings hold no field of their own."""

    def __init__(self, fn: TestFunction, traj: TrajectoryHandle):
        _check_support(fn, traj)
        g = traj.grid
        X, Y = g.cell_centers()
        # (x, y) of the x-face and of the y-face midpoints between adjacent centers
        xface, yface = zip(_face_mean(X), _face_mean(Y))
        self.phi = fn.spatial(X, Y)[0]
        self._on_xfaces, self._gx_on_xfaces, _ = fn.spatial(*xface)
        self._on_yfaces, _, self._gy_on_yfaces = fn.spatial(*yface)
        self.shape = g.shape
        self.vol = g.cell_volume
        self.tf0 = float(fn.temporal(traj.times[0])[0])

    def cells(self, a):
        """sum of a * phi over the cells; a scalar product (a flat a against
        a flat phi) is summed over every cell, with the bits of summing it
        as a field."""
        p = a * self.phi
        return p.sum() if np.ndim(p) else np.broadcast_to(p, self.shape).sum()

    def faces(self, ax, ay):
        """sum of (ax, ay) * phi over the x-faces and the y-faces."""
        return (ax * self._on_xfaces).sum() + (ay * self._on_yfaces).sum()

    def grads(self, ax, ay):
        """sum of (ax, ay) times the normal derivative of phi over the faces."""
        return (ax * self._gx_on_xfaces).sum() + (ay * self._gy_on_yfaces).sum()

    def initial_trace(self, phi0) -> float:
        """int phi0 * phi(., t_0) over the domain."""
        return self.cells(phi0) * self.tf0 * self.vol


@dataclass(frozen=True)
class Identities:
    """One test function's three identities and their budgets.

    ``u`` and ``w`` are the signed residuals of the forager and nutrient
    identities, both held against ``budget``; ``v`` is LHS minus RHS of the
    logarithmic exploiter inequality (>= 0 expected), held against
    ``v_budget``, or None where the spatial factor takes negative values,
    which the inequality does not admit.
    """

    u: float
    w: float
    v: float | None
    budget: float
    v_budget: float


def evaluate(traj: TrajectoryHandle, basis) -> tuple[list[Identities], list]:
    """Every identity of each function in ``basis`` and the mass-inequality
    rows (see ``check_mass_inequality``), from one pass over the snapshots.

    The pass loads each snapshot and builds its manufactured source triple
    once; the derived fields (face gradients and means, the laws, the
    resupply, (u+v) w) are computed once for the functions whose temporal
    factor is nonzero there, and each function adds its six sums in the
    same expressions and snapshot order as a pass of its own would.  The
    shipped temporal factors vanish together with their derivative (both
    carry the same exponential), so skipping a snapshot where phi(t) = 0
    loses none of the phi_t terms.

    The consumption enters the nutrient identity unregularized as (u+v) w
    regardless of the epsilon the trajectory was produced with; for
    regularized runs its residual therefore reports the regularization
    defect.  Each budget is (h + mean snapshot spacing) times the natural
    size of its identities' integrals, so it shrinks at first order under
    simultaneous refinement.
    """
    g, params = traj.grid, traj.params
    ks, mms = params.kinetics, params.mms
    samples = [_Samples(fn, traj) for fn in basis]
    vol = g.cell_volume
    sums = [[0.0] * 6 for _ in basis]  # ru, rw, lhs, rhs, scale, v_scale
    dts = np.diff(traj.times)
    # a budget is (h + mean snapshot spacing) times its natural size, halved
    half_h = 0.5 * (max(g.hx, g.hy) + (float(np.mean(dts)) if dts.size else 0.0))
    masses, int_g = [], []
    for i, (t, wt) in enumerate(zip(traj.times, time_weights(traj.times))):
        u, v, w = traj.load(i)
        src = None if mms is None else mms.sources(params, g, t)
        gv = ks.law_g(v)
        gvs = gv if src is None else gv + src[1]
        masses.append(gridmod.integrate(v, g))
        int_g.append(gridmod.integrate(gvs, g))
        temporal = [fn.temporal(t) for fn in basis]
        if all(tf == 0.0 for tf, _ in temporal):
            continue
        ux, uy = gridmod.face_gradients(u, g)
        wx, wy = gridmod.face_gradients(w, g)
        ell = np.log1p(v)
        lx, ly = gridmod.face_gradients(ell, g)
        ufx, ufy = _face_mean(u)
        vp1 = v + 1.0
        rfx, rfy = _face_mean(v / vp1)
        fu, r = ks.law_f(u), params.resupply.field(g, t)
        fus, rs = (fu, r) if src is None else (fu + src[0], r + src[2])
        uvw = solver.consumption_term(u, v, w, 0.0)
        lx2, ly2, ux2, uy2 = lx**2, ly**2, ux**2, uy**2
        size = (ux2.sum() + uy2.sum() + (wx**2).sum() + (wy**2).sum() + np.abs(fu).sum()
                + uvw.sum() + np.broadcast_to(r, g.shape).sum()) * vol
        v_size = (lx2.sum() + ly2.sum() + ux2.sum() + uy2.sum()
                  + np.abs(gv / vp1).sum()) * vol
        for sp, (tf, tdf), s in zip(samples, temporal, sums):
            if tf == 0.0:
                continue
            tf, tdf = float(tf), float(tdf)
            s[0] += wt * (-sp.cells(u) * tdf + sp.grads(ux, uy) * tf
                          - sp.grads(ufx * wx, ufy * wy) * tf - sp.cells(fus) * tf) * vol
            s[1] += wt * (-sp.cells(w) * tdf + sp.grads(wx, wy) * tf
                          + sp.cells(uvw) * tf + params.mu * sp.cells(w) * tf
                          - sp.cells(rs) * tf) * vol
            s[2] += wt * (-sp.cells(ell) * tdf) * vol
            s[3] += wt * vol * (
                sp.faces(lx2, ly2) * tf - sp.grads(lx, ly) * tf
                - sp.faces(rfx * lx * ux, rfy * ly * uy) * tf
                + sp.grads(rfx * ux, rfy * uy) * tf + sp.cells(gvs / vp1) * tf)
            s[4] += wt * size * tf
            s[5] += wt * v_size * tf
    u0, v0, w0 = traj.load(0)
    ell0 = np.log1p(v0)
    ids = [Identities(u=float(ru - sp.initial_trace(u0)), w=float(rw - sp.initial_trace(w0)),
                      v=None if np.any(sp.phi < 0) else float(lhs - sp.initial_trace(ell0) - rhs),
                      budget=float(half_h * (1.0 + scale)),
                      v_budget=float(half_h * (1.0 + v_scale)))
           for sp, (ru, rw, lhs, rhs, scale, v_scale) in zip(samples, sums)]
    slack = masses[0] + monitors.running_trapezoid(int_g, traj.times) - np.asarray(masses)
    mass_rows = [(float(t), float(s), bool(s >= -MASS_TOL)) for t, s in zip(traj.times, slack)]
    return ids, mass_rows


def identities(traj: TrajectoryHandle, fn: TestFunction) -> Identities:
    """Every identity of ``fn`` on ``traj`` (see ``evaluate``)."""
    return evaluate(traj, [fn])[0][0]


def residual_u(traj: TrajectoryHandle, fn: TestFunction) -> float:
    """Signed space-time residual of the forager identity against phi."""
    return identities(traj, fn).u


def residual_w(traj: TrajectoryHandle, fn: TestFunction) -> float:
    """Signed residual of the nutrient identity (see ``identities``)."""
    return identities(traj, fn).w


def defect_v(traj: TrajectoryHandle, fn: TestFunction) -> float:
    """LHS minus RHS of the logarithmic exploiter inequality (>= 0 expected)."""
    v = identities(traj, fn).v
    if v is None:
        raise DomainError("the exploiter inequality needs a nonnegative test function")
    return v


def identity_budget(traj: TrajectoryHandle, fn: TestFunction) -> float:
    """Discretization budget for the u/w identity residuals."""
    return identities(traj, fn).budget


def defect_budget(traj: TrajectoryHandle, fn: TestFunction) -> float:
    """Heuristic discretization budget for defect_v on this trajectory."""
    return identities(traj, fn).v_budget


def check_mass_inequality(traj: TrajectoryHandle):
    """Per-snapshot slack m(0) + int_0^t int g(v) - m(t) of the exploiter mass
    inequality, the time integral a ``monitors.running_trapezoid`` (>= -MASS_TOL
    passes)."""
    return evaluate(traj, [])[1]
