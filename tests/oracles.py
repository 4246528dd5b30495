"""Independent brute-force oracles shared across test modules.

Everything here is written the slow, explicit way on purpose: loops over
faces, dense matrices, direct elimination, whole-field expressions.  None of
it calls back into the vectorized production kernels; the oracles of the
step take the spectral inverse of c I - dt Lap as a function ``solve(b, c)``,
which the tests check against dense elimination on its own.  The one
exception is the weak-form reference: it is the five per-identity
evaluators that one walk replaced, on the same samples and walk, so that
the walk is pinned to their bits.
"""

import math

import numpy as np

from taxis_cascade import grid as gridmod
from taxis_cascade import weakform as W
from taxis_cascade.errors import DomainError
from taxis_cascade.solver import MmsComponent, MmsSpec

# the mass-law defect a step may leave, per unit area of the domain: the
# diffusion and taxis solves conserve mass to rounding
MASS_LAW_TOL = 1e-10


def comparison_ode_bound(y0, a, C):
    """Ceiling for y' + a y <= h with unit-window integrals of h at most C."""
    if a <= 0:
        raise DomainError(f"comparison bound needs a > 0, got {a}")
    if C <= 0 or y0 < 0:
        raise DomainError("comparison bound needs C > 0 and y0 >= 0")
    return y0 + C / (1.0 - math.exp(-a))


def windowed_forcing(rng, C, t_end, piece):
    """Nonnegative piecewise-constant h with rolling unit-window integrals <= C.

    Raw uniform values are rescaled so the worst window (evaluated at every
    piece boundary, where the piecewise-linear window sum peaks) hits C.
    """
    n = int(round(t_end / piece))
    values = rng.uniform(0.0, 1.0, n)
    edges = np.arange(n + 1) * piece

    def window_sum(t):
        lo = max(t - 1.0, 0.0)
        total = 0.0
        for k in range(n):
            a, b = edges[k], edges[k + 1]
            total += values[k] * max(0.0, min(b, t) - max(a, lo))
        return total

    worst = max(window_sum(t) for t in np.arange(piece, t_end + piece / 2, piece))
    if worst > 0:
        values *= C / worst
    return values, edges


def peak_of_forced_decay(y0, a, values, edges):
    """Exact max of y' = -a y + h over [0, t_end], h piecewise constant.

    On each piece the solution is monotone toward h_k/a, so the running peak
    is attained at piece endpoints; integrated in closed form per piece.
    """
    import math

    y = y0
    peak = y
    for k, h in enumerate(values):
        span = edges[k + 1] - edges[k]
        y = h / a + (y - h / a) * math.exp(-a * span)
        peak = max(peak, y)
    return peak


def brute_force_taxis(carrier, potential, g):
    """Flux-by-flux upwind assembly of div(carrier grad potential)."""
    ny, nx = g.shape
    div = np.zeros((ny, nx))
    for j in range(ny):
        for i in range(nx - 1):
            grad = (potential[j, i + 1] - potential[j, i]) / g.hx
            up = carrier[j, i] if grad > 0 else carrier[j, i + 1]
            flux = up * grad
            div[j, i] += flux / g.hx
            div[j, i + 1] -= flux / g.hx
    for j in range(ny - 1):
        for i in range(nx):
            grad = (potential[j + 1, i] - potential[j, i]) / g.hy
            up = carrier[j, i] if grad > 0 else carrier[j + 1, i]
            flux = up * grad
            div[j, i] += flux / g.hy
            div[j + 1, i] -= flux / g.hy
    return div


def taxis_divergence_reference(carrier, potential, g):
    """Upwind divergence from undivided fluxes, each axis scaled once by 1/h^2.

    Plain expressions on (ny, nx) rows in the operation order of the
    vectorized kernel, so the two agree bit for bit, signed zeros included:
    carrier times undivided jump, the x-divergence as the difference of
    neighbouring fluxes, a row's first cell copying its flux and every row's
    last cell taking 0.0 - flux, then 1/hx^2 on the x-part, and the y-fluxes
    times 1/hy^2 added to the row below each face and subtracted from the
    row above.
    """
    jx = potential[:, 1:] - potential[:, :-1]
    jy = potential[1:, :] - potential[:-1, :]
    fx = np.where(jx > 0.0, carrier[:, :-1], carrier[:, 1:]) * jx
    fy = np.where(jy > 0.0, carrier[:-1, :], carrier[1:, :]) * jy
    dx = np.empty(g.shape)
    dx[:, 0] = fx[:, 0]
    dx[:, 1:-1] = fx[:, 1:] - fx[:, :-1]
    dx[:, -1] = 0.0 - fx[:, -1]
    div = dx * (1.0 / g.hx**2)
    fy = fy * (1.0 / g.hy**2)
    div[:-1, :] += fy
    div[1:, :] -= fy
    return div


def taxis_divergence_divided_reference(carrier, potential, g):
    """Upwind divergence with divided jumps and fluxes, added into zeros.

    The operation order of the kernel that divided every field by h twice:
    the jump by h, the carrier times it, the flux by h again, and the
    fluxes added into a field of zeros.
    """
    gx = (potential[:, 1:] - potential[:, :-1]) / g.hx
    gy = (potential[1:, :] - potential[:-1, :]) / g.hy
    fx = np.where(gx > 0.0, carrier[:, :-1], carrier[:, 1:]) * gx / g.hx
    fy = np.where(gy > 0.0, carrier[:-1, :], carrier[1:, :]) * gy / g.hy
    div = np.zeros(g.shape)
    div[:, :-1] += fx
    div[:, 1:] -= fx
    div[:-1, :] += fy
    div[1:, :] -= fy
    return div


def log_gradient_reference(v, g):
    """Face quadrature of |grad v|^2 / (v+1)^2 as plain expressions."""
    gx = (v[:, 1:] - v[:, :-1]) / g.hx
    gy = (v[1:, :] - v[:-1, :]) / g.hy
    mx = 1.0 + 0.5 * (v[:, 1:] + v[:, :-1])
    my = 1.0 + 0.5 * (v[1:, :] + v[:-1, :])
    return float(np.sum((gx / mx) ** 2) + np.sum((gy / my) ** 2)) * g.cell_volume


def dense_laplacian_matrix(g):
    """Dense mirror-ghost five-point operator, row-major cell order."""
    ny, nx = g.shape
    n = nx * ny
    L = np.zeros((n, n))
    for j in range(ny):
        for i in range(nx):
            row = j * nx + i
            for dj, di, h2 in ((0, -1, g.hx**2), (0, 1, g.hx**2),
                               (-1, 0, g.hy**2), (1, 0, g.hy**2)):
                jj, ii = j + dj, i + di
                if 0 <= jj < ny and 0 <= ii < nx:
                    L[row, jj * nx + ii] += 1.0 / h2
                    L[row, row] -= 1.0 / h2
                # mirror ghost: boundary-normal flux is zero, no entry
    return L


def dense_step(state, params, dt, g):
    """The same IMEX update assembled densely and solved by elimination.

    w solves the Euler step's update: with diag = 1 + dt (mu + uptake) and
    c its mean, (c I - dt L) w_new = c rhs_w / diag.
    """
    ny, nx = g.shape
    n = nx * ny
    L = dense_laplacian_matrix(g)
    A = np.eye(n) - dt * L
    ks = params.kinetics
    t_new = state.t + dt
    s_u = s_v = s_w = 0.0
    if params.mms is not None:
        s_u, s_v, s_w = params.mms.sources(params, g, t_new)

    rhs_u = state.u + dt * (-brute_force_taxis(state.u, state.w, g)
                            + ks.law_f(state.u) + s_u)
    u1 = np.linalg.solve(A, rhs_u.ravel()).reshape(ny, nx)

    rhs_v = state.v + dt * (-brute_force_taxis(state.v, u1, g)
                            + ks.law_g(state.v) + s_v)
    v1 = np.linalg.solve(A, rhs_v.ravel()).reshape(ny, nx)

    sigma = u1 + v1
    cons = sigma / (1.0 + params.epsilon * sigma * state.w)
    diag = 1.0 + dt * params.mu + dt * cons
    c = float(np.mean(diag))
    rhs_w = state.w + dt * (params.resupply.field(g, t_new) + s_w)
    w1 = np.linalg.solve(c * np.eye(n) - dt * L, (c * rhs_w / diag).ravel()).reshape(ny, nx)
    return u1, v1, w1


def by_check(report, name):
    """The entries of a monitor report that one check wrote, in order."""
    return [e for e in report if e.check == name]


def v_mass_residual(times, int_g_series, int_abs_g_series, mass_v_series):
    """Signed and relative defect of mass_v(t) = mass_v(0) + int_0^t int g(v).

    The trapezoid rule is summed interval by interval.  The relative defect
    is normalized by max|int g| seen times the elapsed time (floored at one
    unit), the first-order accumulation scale.
    """
    growth = 0.0
    for k in range(len(times) - 1):
        growth += 0.5 * (times[k + 1] - times[k]) * (int_g_series[k] + int_g_series[k + 1])
    signed = mass_v_series[-1] - mass_v_series[0] - growth
    scale = max(int_abs_g_series) * max(times[-1] - times[0], 1.0)
    return signed, abs(signed) / max(scale, 1e-300)


def resupply_reference(spec, x, y, t):
    """r(x, y, t) from the spec's fields: amplitude, then the temporal factor
    (exp(-lambda t), or 1 without decay), then the unit profile (ones, or the
    Gaussian bump)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    factor = math.exp(-spec.decay_lambda * t) if spec.decay_lambda > 0 else 1.0
    if spec.profile == "constant":
        profile = np.ones_like(x)
    else:
        cx, cy = spec.center
        profile = np.exp(-((x - cx) ** 2 + (y - cy) ** 2) / (2.0 * spec.width**2))
    return spec.amplitude * factor * profile


def taxis_mms():
    """A triple on one decaying cosine mode in all three components: both
    taxis carriers and the w diagonal vary in space, so the upwind choice of
    carrier matters and the w update's uptake predictor does too."""
    return MmsSpec(
        u=MmsComponent(base=2.0, cos_amp=1.0, cos_rate=1.0),
        v=MmsComponent(base=1.0, cos_amp=0.5, cos_rate=1.0),
        w=MmsComponent(base=0.6, cos_amp=0.4, cos_rate=1.0),
    )


def mms_sources_reference(mms, params, g, t):
    """The manufactured sources as the full closed-form expressions.

    Every term is evaluated on whole fields, zero amplitudes included, with
    the cosine mode, its gradient and each component written out here.
    """
    kx, ky = math.pi / g.Lx, math.pi / g.Ly
    X, Y = g.cell_centers()
    mode = np.cos(kx * X) * np.cos(ky * Y)
    grad_sq = ((kx * np.sin(kx * X) * np.cos(ky * Y)) ** 2
               + (ky * np.cos(kx * X) * np.sin(ky * Y)) ** 2)
    k2 = kx**2 + ky**2

    def component(c):
        a = math.exp(-c.cos_rate * t) * c.cos_amp
        b = math.exp(-c.flat_rate * t) * c.flat_amp
        return c.base + a * mode + b, a, -c.cos_rate * a, -c.flat_rate * b

    u, a_u, da_u, db_u = component(mms.u)
    v, a_v, da_v, db_v = component(mms.v)
    w, a_w, da_w, db_w = component(mms.w)
    ks = params.kinetics
    sigma = (u + v) * w
    s_u = ((da_u + k2 * a_u) * mode + db_u + (a_u * a_w) * grad_sq
           - (k2 * a_w) * u * mode - ks.law_f(u))
    s_v = ((da_v + k2 * a_v) * mode + db_v + (a_v * a_u) * grad_sq
           - (k2 * a_u) * v * mode - ks.law_g(v))
    s_w = ((da_w + k2 * a_w) * mode + db_w + sigma / (1.0 + params.epsilon * sigma)
           + params.mu * w - resupply_reference(params.resupply, X, Y, t))
    return s_u, s_v, s_w


def step_reference(state, params, dt, g, solve):
    """One IMEX step of a model without manufactured sources, as the full
    expressions: the consumption denominator at eps = 0, the + mu at mu = 0
    and the resupply as a whole field are all evaluated.

    Plain expressions in the operation order of ``solver.step``, with the
    dust of each new field zeroed.  w solves at the mean c of its diagonal,
    the uptake taken at the predictor rhs_w / diag:
    (c - dt Lap) w_new = (rhs_w / diag) c.  Returns (u, v, w).
    """
    ks = params.kinetics
    t_new = state.t + dt

    def admit(phi):
        return np.where(phi < 0.0, 0.0, phi)

    u1 = admit(solve((ks.law_f(state.u) - taxis_divergence_reference(state.u, state.w, g))
                     * dt + state.u, 1.0))
    v1 = admit(solve((ks.law_g(state.v) - taxis_divergence_reference(state.v, u1, g))
                     * dt + state.v, 1.0))
    sigma = u1 + v1
    diag = (sigma / (sigma * params.epsilon * state.w + 1.0) + params.mu) * dt + 1.0
    X, Y = g.cell_centers()
    rhs_w = resupply_reference(params.resupply, X, Y, t_new) * dt + state.w
    c = float(np.mean(diag))
    w1 = solve(rhs_w / diag * c, c)
    return u1, v1, admit(w1)


def sbdf2_step_reference(state, prev, n_prev, dt, dt_prev, params, g, solve):
    """One variable-step SBDF2 step of a model without manufactured sources,
    as the plain expressions of the formula.

    ``prev`` is the state before ``state`` and ``n_prev`` the explicit terms
    (law - taxis of u and of v) that the step from it took.  With
    omega = dt / dt_prev, each of u and v solves
    c phi_new - dt Lap phi_new = (1 + omega) phi - omega^2 / (1 + omega) phi_prev
    + dt ((1 + omega) N - omega N_prev), c = (1 + 2 omega) / (1 + omega), and w
    has the system of ``sbdf2_w_system``.  w solves at the mean c_w of its
    diagonal, with the rest of the uptake taken at w*:
    (c_w - dt Lap) w_new = rhs_w - (diag - c_w) w*.  Returns (u, v, w).
    """
    ks = params.kinetics
    omega = dt / dt_prev
    c = (1.0 + 2.0 * omega) / (1.0 + omega)
    a, b = 1.0 + omega, omega**2 / (1.0 + omega)

    def admit(phi):
        return np.where(phi < 0.0, 0.0, phi)

    n_u = ks.law_f(state.u) - taxis_divergence_reference(state.u, state.w, g)
    n_v = ks.law_g(state.v) - taxis_divergence_reference(state.v, state.u, g)
    u1 = admit(solve(a * state.u - b * prev.u + dt * (a * n_u - omega * n_prev[0]), c))
    v1 = admit(solve(a * state.v - b * prev.v + dt * (a * n_v - omega * n_prev[1]), c))
    diag, rhs_w, w_star = sbdf2_w_system(state, prev.w, u1 + v1, dt, omega, params, g)
    c_w = float(np.mean(diag))
    w1 = solve(rhs_w - (diag - c_w) * w_star, c_w)
    return u1, v1, admit(w1)


def sbdf2_w_system(state, w_prev, sigma, dt, omega, params, g):
    """The implicit w system of an SBDF2 step from ``state``, with w_prev
    the w before it and sigma = u_new + v_new:
    diag w_new - dt Lap w_new = rhs_w with
    diag = c + dt (mu + sigma / (1 + eps sigma w*)),
    w* = max((1 + omega) w - omega w_prev, 0) and
    rhs_w = (1 + omega) w - omega^2 / (1 + omega) w_prev + dt r(t + dt).
    Returns (diag, rhs_w, w*)."""
    c = (1.0 + 2.0 * omega) / (1.0 + omega)
    w_star = np.maximum((1.0 + omega) * state.w - omega * w_prev, 0.0)
    diag = c + dt * (params.mu + sigma / (1.0 + params.epsilon * sigma * w_star))
    X, Y = g.cell_centers()
    rhs_w = ((1.0 + omega) * state.w - omega**2 / (1.0 + omega) * w_prev
             + dt * resupply_reference(params.resupply, X, Y, state.t + dt))
    return diag, rhs_w, w_star


# --- the weak-form identities, one walk each ---------------------------------


def _residual_u_reference(traj, fn) -> float:
    """Signed space-time residual of the forager identity against phi."""
    g = traj.grid
    sp = W._Samples(fn, traj)
    ks = traj.params.kinetics
    total = 0.0
    for wt, t, tf, tdf, (u, _, w) in W._walk(traj, fn):
        ux, uy = gridmod.face_gradients(u, g)
        wx, wy = gridmod.face_gradients(w, g)
        ufx, ufy = W._face_mean(u)
        fu = W._with_source(traj, t, ks.law_f(u), 0)
        inst = (-sp.cells(u) * tdf + sp.grads(ux, uy) * tf
                - sp.grads(ufx * wx, ufy * wy) * tf - sp.cells(fu) * tf)
        total += wt * inst * sp.vol
    total -= sp.initial_trace(traj.load(0)[0])
    return float(total)


def _residual_w_reference(traj, fn) -> float:
    """Signed residual of the nutrient identity.

    The consumption enters unregularized as (u+v) w regardless of the
    epsilon the trajectory was produced with; for regularized runs the
    residual therefore reports the regularization defect.
    """
    g = traj.grid
    sp = W._Samples(fn, traj)
    params = traj.params
    total = 0.0
    for wt, t, tf, tdf, (u, v, w) in W._walk(traj, fn):
        wx, wy = gridmod.face_gradients(w, g)
        r_cells = W._with_source(traj, t, params.resupply.field(g, t), 2)
        inst = (-sp.cells(w) * tdf + sp.grads(wx, wy) * tf
                + sp.cells((u + v) * w) * tf + params.mu * sp.cells(w) * tf
                - sp.cells(r_cells) * tf)
        total += wt * inst * sp.vol
    total -= sp.initial_trace(traj.load(0)[2])
    return float(total)


def _defect_v_reference(traj, fn) -> float:
    """LHS minus RHS of the logarithmic exploiter inequality (>= 0 expected)."""
    g = traj.grid
    sp = W._Samples(fn, traj)
    vol = sp.vol
    ks = traj.params.kinetics
    if np.any(sp.phi < 0):
        raise DomainError("the exploiter inequality needs a nonnegative test function")
    lhs = 0.0
    rhs = 0.0
    for wt, t, tf, tdf, (u, v, _) in W._walk(traj, fn):
        ell = np.log1p(v)
        lx, ly = gridmod.face_gradients(ell, g)
        ux, uy = gridmod.face_gradients(u, g)
        rfx, rfy = W._face_mean(v / (v + 1.0))
        gv = W._with_source(traj, t, ks.law_g(v), 1)
        lhs += wt * (-sp.cells(ell) * tdf) * vol
        rhs += wt * vol * (
            sp.faces(lx**2, ly**2) * tf - sp.grads(lx, ly) * tf
            - sp.faces(rfx * lx * ux, rfy * ly * uy) * tf
            + sp.grads(rfx * ux, rfy * uy) * tf + sp.cells(gv / (v + 1.0)) * tf)
    lhs -= sp.initial_trace(np.log1p(traj.load(0)[1]))
    return float(lhs - rhs)


def _defect_budget_reference(traj, fn) -> float:
    """Heuristic discretization budget for defect_v on this trajectory.

    Scales with the mesh width plus mean snapshot spacing times the natural
    size of the inequality's right-hand integrals; shrinks at first order
    under simultaneous refinement.
    """
    g = traj.grid
    scale = 0.0
    for wt, _, tf, _, (u, v, _) in W._walk(traj, fn):
        ell = np.log1p(v)
        lx, ly = gridmod.face_gradients(ell, g)
        ux, uy = gridmod.face_gradients(u, g)
        gv = np.abs(traj.params.kinetics.law_g(v) / (v + 1.0))
        inst = (np.sum(lx**2) + np.sum(ly**2) + np.sum(ux**2) + np.sum(uy**2)
                + np.sum(gv)) * g.cell_volume
        scale += wt * inst * tf
    return W._budget(traj, scale)


def _identity_budget_reference(traj, fn) -> float:
    """Discretization budget for the u/w identity residuals.

    Same shape as defect_budget: (h + mean snapshot spacing) times the
    natural magnitude of the identities' integrals.
    """
    g = traj.grid
    params = traj.params
    scale = 0.0
    for wt, t, tf, _, (u, v, w) in W._walk(traj, fn):
        ux, uy = gridmod.face_gradients(u, g)
        wx, wy = gridmod.face_gradients(w, g)
        inst = (np.sum(ux**2) + np.sum(uy**2) + np.sum(wx**2) + np.sum(wy**2)
                + np.sum(np.abs(params.kinetics.law_f(u))) + np.sum((u + v) * w)
                + np.sum(params.resupply.field(g, t))) * g.cell_volume
        scale += wt * inst * tf
    return W._budget(traj, scale)


def weak_identities_reference(traj, fn):
    """``W.identities`` the long way: each identity and budget walks the
    snapshots on its own; ``v`` is None where the exploiter evaluator
    refuses a signed test function."""
    try:
        v = _defect_v_reference(traj, fn)
    except DomainError:
        v = None
    return W.Identities(u=_residual_u_reference(traj, fn), w=_residual_w_reference(traj, fn),
                        v=v, budget=_identity_budget_reference(traj, fn),
                        v_budget=_defect_budget_reference(traj, fn))
