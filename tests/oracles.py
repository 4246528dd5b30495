"""Independent brute-force oracles shared across test modules.

Everything here is written the slow, explicit way on purpose: loops over
faces, dense matrices, direct elimination, whole-field expressions.  None of
it calls back into the vectorized production kernels; the oracles of the w
solve and the step take the spectral inverse of c I - dt Lap as a function
``solve(b, c)``, which the tests check against dense elimination on its own.
"""

import math

import numpy as np

from taxis_cascade.errors import DomainError


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
    """Upwind divergence assembled by adding the face fluxes into zeros.

    Plain expressions in the operation order of the vectorized kernel, so
    the two agree bit for bit, signed zeros included.
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
    """The same IMEX update assembled densely and solved by elimination."""
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
    Aw = (np.eye(n) * (1.0 + dt * params.mu) + dt * np.diag(cons.ravel())
          - dt * L)
    rhs_w = state.w + dt * (params.resupply.field(g, t_new) + s_w)
    w1 = np.linalg.solve(Aw, rhs_w.ravel()).reshape(ny, nx)
    return u1, v1, w1


def by_check(report, name):
    """The entries of a monitor report that one check wrote, in order."""
    return [e for e in report.entries if e.check == name]


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


def _dot(a, b):
    return float(np.einsum("ij,ij->", a, b))


def pcg_reference(diag, b, rtol, max_iter, solve):
    """The textbook preconditioned CG of the w solve, one new array per expression.

    Preconditioner P = c I - dt Lap with c = mean(diag), start
    x0 = P^-1(c b / diag), residual r0 = (b / diag - x0)(diag - c), and P p
    carried by the recurrence P p_new = r + beta P p.  Returns (x, iterations),
    or (None, max_iter) when it does not converge.
    """
    target = rtol * math.sqrt(_dot(b, b))
    c = float(np.mean(diag))
    x = solve(b / diag * c, c)
    r = (b / diag - x) * (diag - c)
    if math.sqrt(_dot(r, r)) <= target:
        return x, 0
    p = solve(r, c)
    p_img = r
    rz = _dot(r, p)
    for it in range(1, max_iter + 1):
        a_p = (diag - c) * p + p_img
        alpha = rz / _dot(p, a_p)
        r = r - a_p * alpha
        x = x + p * alpha
        if math.sqrt(_dot(r, r)) <= target:
            return x, it
        z = solve(r, c)
        rz_new = _dot(r, z)
        beta = rz_new / rz
        p = p * beta + z
        p_img = p_img * beta + r
        rz = rz_new
    return None, max_iter


def step_reference(state, params, dt, g, control, solve):
    """One IMEX step of a model without manufactured sources, as the full
    expressions: the consumption denominator at eps = 0, the + mu at mu = 0
    and the resupply as a whole field are all evaluated.

    Plain expressions in the operation order of ``solver.step``, with the
    dust of each new field zeroed.  Returns (u, v, w, w-solve iterations).
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
    w1, iterations = pcg_reference(diag, rhs_w, control.lin_tol, control.max_iter, solve)
    return u1, v1, admit(w1), iterations


def sbdf2_step_reference(state, prev, n_prev, dt, dt_prev, params, g, solve):
    """One variable-step SBDF2 step of a model without manufactured sources,
    as the plain expressions of the formula.

    ``prev`` is the state before ``state`` and ``n_prev`` its explicit terms
    (law - taxis of u and of v, v's with prev.u as potential).  With
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
