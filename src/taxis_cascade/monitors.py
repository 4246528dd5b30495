"""Runtime checks for every explicit bound, identity and decay statement.

Every statement checked here is a claim about a trajectory, so the checks
judge the run's record: ``solver.run`` integrates and records, and
``assess`` turns the record into the report, the per-step violation counts
and the decay and regularity verdicts.  Each check produces a MonitorEntry
with the measured value, the bound it is held against, the margin
(bound - value) and a pass flag.  Checks whose constants are
non-constructive are report-only: they log the value and never fail.
Discrete tolerances follow the scheme order, REL_TOL + DT_SLACK * dt
(1e-6 + 10 dt): the mass ceilings and the windows scale both parts by
their bound, bound * (1e-6 + 10 dt), and the supersolution check takes
the sum as an absolute tolerance.  Any other check states its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from taxis_cascade import grid as gridmod
from taxis_cascade import kinetics as kin
from taxis_cascade.errors import DomainError

REL_TOL = 1e-6
DT_SLACK = 10.0
CEILING_DUST = 1e-8  # rounding allowance for exact-in-exact-arithmetic ceilings
# largest growth per unit time of a tail norm that still counts as regularized
REGULARITY_SLOPE_TOL = 1e-3


@dataclass
class MonitorEntry:
    t: float
    check: str
    value: float
    bound: float
    margin: float
    passed: bool

    @classmethod
    def compare(cls, t, check, value, bound, tol=0.0):
        margin = bound - value
        return cls(t=t, check=check, value=value, bound=bound, margin=margin,
                   passed=margin >= -tol)

    @classmethod
    def report_only(cls, t, check, value):
        return cls(t=t, check=check, value=value, bound=math.nan, margin=math.nan,
                   passed=True)


class MonitorReport(list):
    """The monitor entries of one run, in the order ``assess`` made them."""

    def failures(self) -> list[MonitorEntry]:
        return [e for e in self if not e.passed]

    def csv_rows(self):
        yield "t,check_name,value,bound,margin,pass"
        for e in self:
            yield (f"{e.t!r},{e.check},{e.value!r},{e.bound!r},{e.margin!r},"
                   f"{'true' if e.passed else 'false'}")


def mass_ode_star(alpha: float, K: float, L: float, omega_vol: float, y0: float) -> float:
    """Ceiling of y' + (K/|Omega|^(a-1)) y^a <= L |Omega|: max(y0, |Omega| (L/K)^(1/a))."""
    if not (alpha > 1 and K > 0 and L >= 0 and omega_vol > 0 and y0 >= 0):
        raise DomainError("mass_ode_star needs alpha>1, K>0, L>=0, |Omega|>0, y0>=0")
    return max(y0, omega_vol * (L / K) ** (1.0 / alpha))


@dataclass(frozen=True)
class BoundConstants:
    """Explicit a-priori constants computed from the initial data."""

    u_star: float
    v_star: float
    w_star: float  # +inf when mu == 0
    window_alpha_bound: float
    window_beta_bound: float

    @classmethod
    def from_setup(cls, g, kin, resupply, mu, u0, v0, w0) -> "BoundConstants":
        vol = g.volume
        u_star = mass_ode_star(kin.alpha, kin.K_f, kin.L_f, vol, gridmod.integrate(u0, g))
        v_star = mass_ode_star(kin.beta, kin.K_g, kin.L_g, vol, gridmod.integrate(v0, g))
        if mu > 0:
            w_star = gridmod.norm_linf(w0) + resupply.amplitude / mu
        else:
            w_star = math.inf
        return cls(
            u_star=u_star,
            v_star=v_star,
            w_star=w_star,
            window_alpha_bound=kin.L_f * vol / kin.K_f + u_star / kin.K_f,
            window_beta_bound=kin.L_g * vol / kin.K_g + v_star / kin.K_g,
        )


def check_mass(t, mass_u, mass_v, consts: BoundConstants, dt) -> list[MonitorEntry]:
    """Population masses against their ODE-comparison ceilings.

    Takes one recorded state (scalars) or a whole record (arrays of t, the
    masses and dt); an entry then holds arrays and ``passed`` per state.
    """
    out = []
    for name, value, star in (("mass_u", mass_u, consts.u_star),
                              ("mass_v", mass_v, consts.v_star)):
        tol = star * (REL_TOL + DT_SLACK * dt)
        out.append(MonitorEntry.compare(t, name, value, star, tol=tol))
    return out


def supersolution_step(wbar: float, mu: float, r_prev: float, r_new: float, dt: float) -> float:
    """Advance the spatially-flat supersolution by one step.

    Exact exponential decay of the homogeneous part plus a trapezoidal
    convolution of the resupply sup-norm history.
    """
    decay = math.exp(-mu * dt)
    return wbar * decay + 0.5 * dt * (r_prev * decay + r_new)


def check_w_supersolution(t, linf_w, wbar, consts: BoundConstants, mu, dt) -> list[MonitorEntry]:
    """sup w against the flat supersolution and, for mu > 0, the ceiling w_star;
    like ``check_mass`` on one state (scalars) or a whole record (arrays)."""
    out = [MonitorEntry.compare(t, "w_supersolution", linf_w, wbar,
                                tol=REL_TOL + DT_SLACK * dt)]
    if mu > 0:
        out.append(MonitorEntry.compare(t, "w_ceiling", linf_w, consts.w_star,
                                        tol=CEILING_DUST))
    return out


def running_trapezoid(values, times) -> np.ndarray:
    """Trapezoid integral of a sampled series from times[0] to each sample.

    Every time integral of the run's record is read off this one array: the
    integral over [a, b] is its difference at a and b.
    """
    values = np.asarray(values, dtype=float)
    steps = np.diff(np.asarray(times, dtype=float)) * (values[1:] + values[:-1]) / 2.0
    return np.concatenate(([0.0], np.cumsum(steps)))


def check_window_integrals(t, times, cum_u_alpha, cum_v_beta,
                           consts: BoundConstants, dt: float) -> list[MonitorEntry]:
    """Space-time integrals of u^alpha and v^beta over the window [t-1, t].

    ``cum_*`` are the ``running_trapezoid`` integrals of the series up to t,
    read at t - 1 by linear interpolation, so the window spans exactly one
    unit whether or not a sample falls on t - 1.
    """
    out = []
    for name, cum, bound in (("window_u_alpha", cum_u_alpha, consts.window_alpha_bound),
                             ("window_v_beta", cum_v_beta, consts.window_beta_bound)):
        if t < 1.0 or times[0] > t - 1.0 + 1e-12:  # the record does not yet cover it
            out.append(MonitorEntry.report_only(t, name, math.nan))
            continue
        value = float(cum[-1] - np.interp(t - 1.0, times, cum))
        tol = bound * (REL_TOL + DT_SLACK * dt)
        out.append(MonitorEntry.compare(t, name, value, bound, tol=tol))
    return out


def check_v_mass_identity(t, t0, steps, signed, c_max, mass_v_max,
                          dt_scale: float) -> MonitorEntry:
    """|signed| = |mass_v(t) - mass_v(t0) - int_t0^t int g(v)| against the
    C*dt*t accumulation envelope, C = ``c_max`` the largest int |g(v)| and dt
    = ``dt_scale`` the largest step so far.

    Pass when |defect| stays under the envelope, give or take steps * eps *
    ``mass_v_max`` (the largest |mass_v| so far): each diffusion solve moves
    the v mass by rounding, even at an equilibrium, where the envelope is
    zero.  The elapsed time is floored at one unit."""
    elapsed = max(t - t0, 1.0)
    rounding = steps * np.finfo(float).eps * mass_v_max
    return MonitorEntry.compare(t, "v_mass_identity", abs(signed), c_max * dt_scale * elapsed,
                                tol=rounding)


def log_gradient_integrand(v: np.ndarray, g) -> float:
    """Face quadrature of |grad ln(1+v)|^2 over the domain at one instant.

    The squared ``face_gradients`` of ln(1+v), summed over the x-faces and
    then the y-faces: the exploiter term ``weakform.identities`` integrates.
    """
    lx, ly = gridmod.face_gradients(np.log1p(v), g)
    lx *= lx
    ly *= ly
    return float(np.sum(lx) + np.sum(ly)) * g.cell_volume


def check_log_gradient_energy(t, energy: float) -> MonitorEntry:
    """Report-only: the log-gradient energy at t (``log_gradient_integrand``)."""
    return MonitorEntry.report_only(t, "log_gradient_energy", energy)


@dataclass(frozen=True)
class DecayDetection:
    detected: bool
    t_detect: float  # nan when not detected
    tail_w_integral: float
    tail_consumption: float


def detect_w_decay(times, linf_w, int_w_series, int_consumption_series,
                   delta: float) -> DecayDetection:
    """Earliest recorded time after which ||w||_inf stays below delta.

    Also reports the space-time tails of w and of the consumption term past
    that time.  It is computed whether or not the eventual-regularity
    hypotheses hold.  The series are arrays over the same times.
    """
    above = np.nonzero(linf_w >= delta)[0]
    if above.size == 0:
        idx = 0
    elif above[-1] == len(times) - 1:
        return DecayDetection(False, math.nan, math.nan, math.nan)
    else:
        idx = int(above[-1]) + 1
    cum_w = running_trapezoid(int_w_series, times)
    cum_c = running_trapezoid(int_consumption_series, times)
    return DecayDetection(True, float(times[idx]), float(cum_w[-1] - cum_w[idx]),
                          float(cum_c[-1] - cum_c[idx]))


@dataclass(frozen=True)
class FunctionalParams:
    """Exponents (q, theta, delta) of the weighted tail functional.

    Construction enforces the three smallness constraints that make the
    functional's differential inequality absorb its gradient terms:
    4(q + 2q(q-1) + q(q-1)^2) theta < 2(q-1), delta < min(1, theta, 1/(4q)),
    and the quotient inequality below strictly under q(q-1).
    """

    q: float
    theta: float
    delta: float

    def __post_init__(self):
        if not self.q > 1:
            raise DomainError(f"q must exceed 1, got {self.q}")
        m = self.margins()
        bad = [k for k, v in m.items() if v <= 0]
        if bad:
            raise DomainError(f"functional parameters violate: {', '.join(bad)}")

    def margins(self) -> dict:
        q, th, de = self.q, self.theta, self.delta
        theta_ceiling = 2.0 * (q - 1.0) - 4.0 * (q + 2.0 * q * (q - 1.0) + q * (q - 1.0) ** 2) * th
        delta_ceiling = min(1.0, th, 1.0 / (4.0 * q)) - de
        denom = 4.0 * (th * (th + 1.0) - 2.0 * q * th * de)
        if denom <= 0:
            quotient = math.inf
        else:
            quotient = (2.0 * q * th + 2.0 * q * (q - 1.0) * de) ** 2 / denom
        return {
            "theta_smallness": theta_ceiling,
            "delta_smallness": delta_ceiling,
            "quotient_inequality": q * (q - 1.0) - quotient,
            "delta_below_half_inverse_q": 1.0 / (2.0 * q) - de,
        }


def pick_theta_delta(q: float) -> FunctionalParams:
    """Half-the-ceiling choice: theta = (q-1)/(4 q^3), delta = min(1, theta, 1/(4q))/2."""
    if q <= 1:
        raise DomainError(f"q must exceed 1, got {q}")
    theta = 2.0 * (q - 1.0) / (8.0 * (q + 2.0 * q * (q - 1.0) + q * (q - 1.0) ** 2))
    delta = 0.5 * min(1.0, theta, 1.0 / (4.0 * q))
    return FunctionalParams(q=q, theta=theta, delta=delta)


def weighted_functional(u: np.ndarray, w: np.ndarray, fp: FunctionalParams, g) -> float | None:
    """Integral of u^q / (2 delta - w)^theta; None before w has decayed below delta."""
    if gridmod.norm_linf(w) >= fp.delta:
        return None
    return gridmod.integrate(kin.power(u, fp.q) / kin.power(2.0 * fp.delta - w, fp.theta), g)


@dataclass(frozen=True)
class RegularityReport:
    regularized: bool
    slopes: dict


def eventual_regularity_report(ts, series: dict, t_detect: float) -> RegularityReport:
    """Least-squares growth slopes of the tail norms past t_detect + 1.

    ``ts`` and each series are arrays over the cadence hits.  The verdict is
    "regularized" when every tracked series grows at most
    REGULARITY_SLOPE_TOL per unit time over the tail.  Series with missing
    entries (NaN, e.g. the weighted functional before arming) contribute
    their armed part.
    """
    keep = ts >= t_detect + 1.0
    if np.count_nonzero(keep) < 3:
        return RegularityReport(False, {})  # tail too short
    slopes = {}
    for name, ys in series.items():
        mask = keep & np.isfinite(ys)
        if np.count_nonzero(mask) < 3:
            slopes[name] = math.nan
            continue
        slopes[name] = float(np.polyfit(ts[mask], ys[mask], 1)[0])
    finite = [s for s in slopes.values() if not math.isnan(s)]
    ok = bool(finite) and all(s <= REGULARITY_SLOPE_TOL for s in finite)
    return RegularityReport(ok, slopes)


# --- judging a run's record -------------------------------------------------


@dataclass
class CheckStats:
    """Failed entries of one per-step check over every recorded state."""

    violations: int = 0


def _row(entry: MonitorEntry, i: int) -> MonitorEntry:
    """State i's entry, in Python scalars, of an entry evaluated on the record
    arrays (a numpy scalar would print as np.float64(...) in monitors.csv)."""
    t, value, bound, margin, passed = (x[i] if np.ndim(x) else x for x in (
        entry.t, entry.value, entry.bound, entry.margin, entry.passed))
    return MonitorEntry(float(t), entry.check, float(value), float(bound),
                        float(margin), bool(passed))


def assess(series: dict, cadence: dict, consts: BoundConstants, mu: float,
           delta: float, completed: bool):
    """Judge a run's record; returns (report, step_checks, decay, regularity).

    ``series`` holds one array entry per recorded state (``solver.run``'s
    series).  ``cadence`` holds one array entry per cadence hit: the record
    index ``index`` and what only the live state gave, ``log_gradient_energy``,
    ``maxgrad_u``, ``maxgrad_v``, ``seminorm_u_w24`` and
    ``weighted_functional`` (NaN before it arms).

    The per-step checks (mass ceilings, nutrient supersolution) are
    evaluated once, on the record arrays: ``step_checks`` counts their
    failed entries over every state, and each hit takes its rows from that
    evaluation.  A hit's rows then go on with the window integrals, the
    v-mass identity (its bound scaled by the largest step so far), the
    log-gradient energy and the weighted functional, each over the record
    up to the hit; the windows and the identity read the prefixes of the
    ``running_trapezoid`` integrals of ``int_u_alpha``, ``int_v_beta`` and
    ``int_g_v``, and the identity reads the running maxima of ``int_abs_g_v``,
    |``mass_v``| and ``dt`` at the hit, each built once for the whole record,
    so no hit rescans its prefix.  A completed run ends the report
    with the decay verdict and, when w decayed, the regularity verdict over
    the cadence hits; ``decay`` and ``regularity`` are otherwise None.
    """
    times, dt, hits, mass_v = series["t"], series["dt"], cadence["index"], series["mass_v"]
    cum = {name: running_trapezoid(series[name], times)
           for name in ("int_u_alpha", "int_v_beta", "int_g_v")}
    peak = {"int_abs_g_v": np.maximum.accumulate(series["int_abs_g_v"]),
            "abs_mass_v": np.maximum.accumulate(np.abs(mass_v)),
            "dt": np.maximum.accumulate(dt)}
    per_step = check_mass(times, series["mass_u"], series["mass_v"], consts, dt)
    per_step += check_w_supersolution(times, series["linf_w"], series["wbar"], consts, mu, dt)
    step_checks = {e.check: CheckStats(int(np.count_nonzero(~e.passed))) for e in per_step}

    report = MonitorReport()
    for k, i in enumerate(hits):
        t, upto = float(times[i]), slice(0, i + 1)
        report.extend(_row(e, i) for e in per_step)
        report.extend(check_window_integrals(
            t, times[upto], cum["int_u_alpha"][upto], cum["int_v_beta"][upto],
            consts, float(dt[i])))
        report.append(check_v_mass_identity(
            t, float(times[0]), i, float(mass_v[i] - mass_v[0]) - float(cum["int_g_v"][i]),
            float(peak["int_abs_g_v"][i]), float(peak["abs_mass_v"][i]),
            dt_scale=float(peak["dt"][i])))
        report.append(check_log_gradient_energy(t, float(cadence["log_gradient_energy"][k])))
        report.append(MonitorEntry.report_only(
            t, "weighted_functional", float(cadence["weighted_functional"][k])))

    decay = regularity = None
    if completed:
        decay = detect_w_decay(times, series["linf_w"], series["mass_w"],
                               series["int_consumption"], delta)
        verdicts = [("w_decay_detect", decay.t_detect if decay.detected else math.nan)]
        if decay.detected:
            tail = {"linf_u": series["linf_u"][hits], "linf_v": series["linf_v"][hits]}
            tail.update((name, cadence[name]) for name in (
                "maxgrad_u", "maxgrad_v", "seminorm_u_w24", "weighted_functional"))
            regularity = eventual_regularity_report(times[hits], tail, decay.t_detect)
            verdicts += [("w_tail_mass", decay.tail_w_integral),
                         ("w_tail_consumption", decay.tail_consumption),
                         ("eventual_regularity", 1.0 if regularity.regularized else 0.0)]
        report.extend(MonitorEntry.report_only(float(times[-1]), name, value)
                      for name, value in verdicts)
    return report, step_checks, decay, regularity
