"""Growth laws with degradation envelopes, nutrient resupply, parameter gates.

Both population growth laws must be sandwiched between power-law envelopes

    -k s^a - l  <=  law(s)  <=  -K s^a + L        (s >= 0)

with a > 1, K, k > 0 and L, l >= 0, and must be nonnegative at s = 0.  The
global-existence gate requires a > 1 + sqrt(2) for the forager exponent and
min(alpha, beta) > (alpha + 1)/(alpha - 1); the eventual-regularity gate
additionally needs beta > 1 + sqrt(2), positive nutrient decay and a
time-integrable resupply.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, fields
from functools import lru_cache

import numpy as np

from taxis_cascade import grid as gridmod
from taxis_cascade.errors import DomainError, StructuralError

ALPHA_CRITICAL = 1.0 + math.sqrt(2.0)
KNIFE_EDGE = 1e-9
# the most negative normalized slack for which an envelope still holds
ENVELOPE_TOL = 1e-12
# the largest whole exponent that power() evaluates by repeated products;
# libm pow costs about 8 products per entry, so beyond it pow is cheaper
POWER_PRODUCTS_MAX = 8


def _require_nonneg(s):
    # one reduction, no mask: fmin skips NaN as ``np.any(arr < 0)`` does, so
    # a NaN next to a negative entry still raises (min would return the NaN)
    arr = np.asarray(s, dtype=float)
    if arr.size and np.fmin.reduce(arr, axis=None) < 0:
        raise DomainError("growth laws are only defined for s >= 0")
    return arr


def power(s, a):
    """s^a, like ``np.power(s, a)``.

    A whole exponent 2 <= a <= POWER_PRODUCTS_MAX is the left-to-right
    product s*s*...*s (a - 1 products): deterministic, and within a
    relative (a - 1) eps of libm's pow where no product is subnormal.  Any
    other exponent is ``np.power``.
    """
    if 2 <= a <= POWER_PRODUCTS_MAX and float(a).is_integer():
        p = np.multiply(s, s)
        for _ in range(int(a) - 2):
            p *= s
        return p
    return np.power(s, a)


@dataclass(frozen=True)
class EnvelopeConstants:
    """Constants (k, l, K, L, exponent) of one degradation envelope."""

    k: float
    l: float
    K: float
    L: float
    exponent: float


class GrowthLaw:
    """Base class; subclasses evaluate law(s) and law'(s) and ship default envelopes.

    A subclass is a frozen dataclass whose fields are its config arguments in
    call order, with its config name in the class attribute ``name``.
    """

    def __post_init__(self):
        for f in fields(self):
            if not math.isfinite(value := getattr(self, f.name)):
                raise DomainError(f"{self.name} law needs a finite {f.name}, got {value}")

    def __call__(self, s):
        raise NotImplementedError

    def derivative(self, s):
        """law'(s) in closed form, for s >= 0 (not checked)."""
        raise NotImplementedError

    def default_envelope(self) -> EnvelopeConstants:
        raise NotImplementedError


@dataclass(frozen=True)
class PurePower(GrowthLaw):
    """law(s) = L - K s^alpha; the upper envelope is the law itself.

    s^alpha comes from ``power``: a whole alpha up to 8 is a product, which
    moves the value by rounding against pow and keeps it deterministic.
    """

    K: float = 1.0
    L: float = 1.0
    alpha: float = 3.0
    name = "purepower"

    def __post_init__(self):
        super().__post_init__()
        if not (self.K > 0 and self.alpha > 1):
            raise DomainError("purepower law needs K > 0, alpha > 1")

    def __call__(self, s):
        s = _require_nonneg(s)
        return self.L - self.K * power(s, self.alpha)

    def derivative(self, s):
        return -self.K * self.alpha * s ** (self.alpha - 1.0)

    def default_envelope(self) -> EnvelopeConstants:
        return EnvelopeConstants(k=self.K, l=0.0, K=self.K, L=self.L, exponent=self.alpha)


@dataclass(frozen=True)
class Allee(GrowthLaw):
    """Bistable law s(1-s)(s-2): extinction below 1, saturation at 2.

    Default envelope constants (k=2, l=3, K=1/2, L=9, exponent 3) were picked
    by scanning the polynomial differences: min of 0.5 s^3 - 3 s^2 + 2 s is
    about -8.354, so the upper offset must be at least 8.36.
    """

    name = "allee"

    def __call__(self, s):
        s = _require_nonneg(s)
        return s * (1.0 - s) * (s - 2.0)

    def derivative(self, s):
        return -3.0 * s**2 + 6.0 * s - 2.0

    def default_envelope(self) -> EnvelopeConstants:
        return EnvelopeConstants(k=2.0, l=3.0, K=0.5, L=9.0, exponent=3.0)


@dataclass(frozen=True)
class Logistic(GrowthLaw):
    """Generalized logistic law a s - b s^alpha.

    s^alpha comes from ``power``, as in ``PurePower``: a whole alpha up to 8
    is a product, so values move by rounding against pow and stay
    deterministic.
    """

    a: float = 1.0
    b: float = 1.0
    alpha: float = 2.0
    name = "logistic"

    def __post_init__(self):
        super().__post_init__()
        if self.a < 0 or self.b <= 0 or self.alpha <= 1:
            raise DomainError("logistic law needs a >= 0, b > 0, alpha > 1")

    def __call__(self, s):
        s = _require_nonneg(s)
        return self.a * s - self.b * power(s, self.alpha)

    def derivative(self, s):
        return self.a - self.b * self.alpha * s ** (self.alpha - 1.0)

    def default_envelope(self) -> EnvelopeConstants:
        # upper: a s - (b/2) s^alpha peaks at s* = (2a/(b alpha))^(1/(alpha-1))
        s_star = (2.0 * self.a / (self.b * self.alpha)) ** (1.0 / (self.alpha - 1.0))
        L = self.a * s_star * (self.alpha - 1.0) / self.alpha
        return EnvelopeConstants(k=self.b, l=0.0, K=self.b / 2.0, L=L, exponent=self.alpha)


# the growth laws a config may name, by their call-syntax name
LAWS = {law.name: law for law in (PurePower, Allee, Logistic)}

# per law side, KineticSpec's names of its envelope constants, in
# EnvelopeConstants order (k, l, K, L, exponent)
ENVELOPE_KEYS = {"f": ("k_f", "l_f", "K_f", "L_f", "alpha"),
                 "g": ("k_g", "l_g", "K_g", "L_g", "beta")}
# (slots in ENVELOPE_KEYS, failing test, requirement), checked in this order
_CONSTANT_RULES = (
    ((4,), lambda v: not v > 1, "exceed 1"),
    ((2, 0), lambda v: not v > 0, "be positive"),
    ((3, 1), lambda v: v < 0, "be nonnegative"),
    ((4, 2, 0, 3, 1), lambda v: not math.isfinite(v), "be finite"),
)


@dataclass(frozen=True)
class KineticSpec:
    """The pair of growth laws together with their declared envelopes."""

    law_f: GrowthLaw
    law_g: GrowthLaw
    alpha: float
    beta: float
    k_f: float
    K_f: float
    l_f: float
    L_f: float
    k_g: float
    K_g: float
    l_g: float
    L_g: float

    def __post_init__(self):
        for slots, fails, need in _CONSTANT_RULES:
            for nm in (keys[i] for keys in ENVELOPE_KEYS.values() for i in slots):
                if fails(val := getattr(self, nm)):
                    raise DomainError(f"{nm} must {need}, got {val}")
        for side in ENVELOPE_KEYS:
            if float(getattr(self, f"law_{side}")(0.0)) < 0:
                raise DomainError(f"law_{side}(0) must be nonnegative")

    def envelope(self, side: str) -> EnvelopeConstants:
        """The declared envelope constants of law_f (side "f") or law_g ("g")."""
        return EnvelopeConstants(*(getattr(self, key) for key in ENVELOPE_KEYS[side]))

    @classmethod
    def from_laws(cls, law_f: GrowthLaw, law_g: GrowthLaw, **overrides) -> "KineticSpec":
        """Build a spec from the laws' default envelopes, with optional overrides."""
        kw = {key: value for side, law in (("f", law_f), ("g", law_g))
              for key, value in zip(ENVELOPE_KEYS[side], astuple(law.default_envelope()))}
        return cls(law_f=law_f, law_g=law_g, **(kw | overrides))


@dataclass(frozen=True)
class EnvelopeReport:
    holds: bool
    worst_margin: float
    worst_point: float
    worst_check: str


def _envelope_margins(law, env: EnvelopeConstants, sample):
    """Normalized slack of both envelope inequalities at each sample point.

    Margins are divided by (1 + s^exponent) so the 60-point geometric sample
    reports on one scale; the entries at the largest point double as the
    asymptotic-ratio check.  s^exponent comes from ``power``, as in the
    laws, so a law equal to its envelope has a margin of exactly 0.  The
    margins stop before the first sample point where max(k, K) s^exponent
    overflows (1e6^exponent alone does above an exponent of about 51.4):
    past it the envelope terms are infinite and compare nothing, and
    inf - inf would read as a NaN violation.  ``KineticSpec`` refuses
    constants that are not finite, which would leave no point.
    """
    with np.errstate(over="ignore"):
        sa = power(sample, env.exponent)
        n = int(np.count_nonzero(np.isfinite(max(env.k, env.K) * sa)))
        sa, vals = sa[:n], law(sample[:n])
        scale = 1.0 + sa
        lower = (vals - (-env.k * sa - env.l)) / scale
        upper = ((-env.K * sa + env.L) - vals) / scale
    return lower, upper


def envelope_sample() -> np.ndarray:
    """Zero plus 59 geometrically spaced points from 1e-3 to 1e6."""
    return np.concatenate(([0.0], np.geomspace(1e-3, 1e6, 59)))


def validate_envelope(spec: KineticSpec) -> EnvelopeReport:
    """Check both envelope sandwiches on the geometric sample.

    Failure is a report outcome, never an exception; the worst (most
    negative) normalized slack and where it occurred are returned.  A
    non-finite slack (a NaN constant or law value) counts as -inf.
    """
    sample = envelope_sample()
    worst = math.inf
    worst_point = 0.0
    worst_check = ""
    for name in ENVELOPE_KEYS:
        law = getattr(spec, f"law_{name}")
        lower, upper = _envelope_margins(law, spec.envelope(name), sample)
        for side, margins in (("lower", lower), ("upper", upper)):
            margins = np.where(np.isfinite(margins), margins, -np.inf)
            i = int(np.argmin(margins))
            if margins[i] < worst:
                worst = float(margins[i])
                worst_point = float(sample[i])
                worst_check = f"{name}:{side}"
    return EnvelopeReport(holds=worst >= -ENVELOPE_TOL, worst_margin=worst,
                          worst_point=worst_point, worst_check=worst_check)


# the checks on an exponent threshold, the only ones a knife-edge concerns
EXPONENT_CHECKS = ("alpha_supercritical", "min_condition", "beta_supercritical")


@dataclass(frozen=True)
class GateResult:
    """A gate's hypotheses, each a strict inequality stated as its margin.

    One rule reads the table: a hypothesis holds exactly when its margin is
    positive, and the gate passes when every hypothesis holds.
    """

    margins: dict

    @property
    def checks(self) -> dict:
        return {name: bool(margin > 0) for name, margin in self.margins.items()}

    @property
    def passed(self) -> bool:
        return all(self.checks.values())

    @property
    def knife_edge(self) -> tuple:
        """The exponent checks whose margin is within KNIFE_EDGE of zero."""
        return tuple(name for name, margin in self.margins.items()
                     if name in EXPONENT_CHECKS and abs(margin) < KNIFE_EDGE)


def global_existence_gate(spec: KineticSpec) -> GateResult:
    """Global-existence hypotheses on the exponents (open, zero-tolerance)."""
    return GateResult({
        "alpha_supercritical": spec.alpha - ALPHA_CRITICAL,
        "min_condition": min(spec.alpha, spec.beta) - (spec.alpha + 1.0) / (spec.alpha - 1.0),
    })


def eventual_regularity_gate(spec: KineticSpec, params) -> GateResult:
    """Eventual-regularity hypotheses: the existence gate plus beta, mu > 0 and
    a time-integrable resupply.

    The resupply's time integral is amplitude / decay_lambda, finite exactly
    when the decay rate is positive, so that rate is the margin; a zero
    amplitude (no resupply) is integrable at any rate, with margin +inf.
    """
    r = params.resupply
    return GateResult(global_existence_gate(spec).margins | {
        "beta_supercritical": spec.beta - ALPHA_CRITICAL,
        "mu_positive": params.mu,
        "resupply_integrable": r.decay_lambda if r.amplitude > 0 else math.inf,
    })


@dataclass(frozen=True)
class ResupplySpec:
    """Nutrient resupply r(x, t) = spatial profile times temporal factor.

    Profiles: a nonnegative constant, or a Gaussian bump.  Temporal factor is
    either constant 1 or exp(-decay_lambda * t).  The all-time sup of the
    spatial max is the amplitude; its time integral is amplitude / decay_lambda
    (+inf without decay, unless the amplitude is 0).
    """

    profile: str = "constant"  # "constant" | "gaussian"
    amplitude: float = 0.0
    center: tuple[float, float] = (0.5, 0.5)
    width: float = 0.1
    decay_lambda: float = 0.0

    def __post_init__(self):
        if self.profile not in ("constant", "gaussian"):
            raise StructuralError(f"unknown resupply profile {self.profile!r}")
        if self.amplitude < 0:
            raise DomainError("resupply amplitude must be nonnegative")
        if self.profile == "gaussian" and not (self.width > 0):
            raise DomainError("gaussian resupply needs positive width")
        if self.decay_lambda < 0:
            raise DomainError("decay_lambda must be nonnegative")

    def factor(self, t: float) -> float:
        if t < 0:
            raise DomainError(f"resupply undefined for t < 0 (got {t})")
        if self.decay_lambda > 0:
            return math.exp(-self.decay_lambda * t)
        return 1.0

    def field(self, g: gridmod.Grid, t: float) -> float | np.ndarray:
        """r at the cell centres of g.

        Where r is flat in space at t (the constant profile, or a zero
        amplitude or temporal factor) this is the float linf(t), which
        broadcasts to every cell with the bits of linf(t) times a field of
        ones.  A Gaussian is linf(t) times the cached bump, a new writable
        array.
        """
        scale = self.linf(t)
        if self.profile == "constant" or scale == 0.0:
            return scale
        return scale * _profile_on(self, g)

    def linf(self, t: float) -> float:
        """Analytic sup over the whole domain at time t (dominates cell samples)."""
        return self.amplitude * self.factor(t)


@lru_cache(maxsize=16)
def _profile_on(spec: ResupplySpec, g: gridmod.Grid) -> np.ndarray:
    """Cached read-only Gaussian bump of a gaussian resupply at g's cells."""
    profile = gridmod.gaussian(g, *spec.center, spec.width)
    profile.setflags(write=False)
    return profile


@dataclass(frozen=True)
class InitialData:
    u0: np.ndarray
    v0: np.ndarray
    w0: np.ndarray

    def validate(self, g: gridmod.Grid) -> None:
        g.check_conforms(self.u0, self.v0, self.w0)
        for name, f0 in (("u0", self.u0), ("v0", self.v0), ("w0", self.w0)):
            if np.any(f0 < 0):
                raise DomainError(f"{name} must be nonnegative")
            if not np.all(np.isfinite(f0)):
                raise DomainError(f"{name} has non-finite entries")
        for name, f0 in (("u0", self.u0), ("v0", self.v0)):
            if gridmod.integrate(f0, g) <= 0:
                raise DomainError(f"{name} must have positive mass")
