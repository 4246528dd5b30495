import math
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs
from hypothesis.extra import numpy as hnp

from oracles import resupply_reference
from taxis_cascade import grid as G
from taxis_cascade import kinetics as K
from taxis_cascade import solver as S
from taxis_cascade.config import Config
from taxis_cascade.errors import DomainError, StructuralError


def spec_pp(alpha, beta, **kw):
    return K.KineticSpec.from_laws(K.PurePower(1.0, 1.0, alpha),
                                   K.PurePower(1.0, 1.0, beta), **kw)


def test_law_values():
    pp = K.PurePower(K=1.0, L=1.0, alpha=3.0)
    assert K.KineticSpec.from_laws(pp, pp).law_f(1.0) == 0.0
    allee = K.Allee()
    for s in (0.0, 1.0, 2.0):
        assert allee(s) == 0.0
    assert allee(3.0) == pytest.approx(3.0 * (-2.0) * 1.0, abs=1e-14)
    logi = K.Logistic(a=2.0, b=1.0, alpha=2.0)
    assert logi(2.0) == 0.0


# the presets' laws, plus fractional exponents and nondefault coefficients
SHIPPED_LAWS = (K.PurePower(1.0, 1.0, 3.0), K.PurePower(1.0, 1.0, 6.0),
                K.PurePower(1.0, 1.0, 1.8), K.PurePower(1.0, 1.0, 2.2),
                K.PurePower(0.5, 2.0, 2.5), K.Allee(), K.Logistic(),
                K.Logistic(a=1.5, b=0.8, alpha=2.5))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(law=hs.sampled_from(SHIPPED_LAWS), s=hs.floats(0.0, 50.0))
def test_law_derivative_matches_central_difference(law, s):
    h = 1e-6 * max(1.0, s)
    c = max(s, h)  # keeps both difference points in the domain s >= 0
    fd = (float(law(c + h)) - float(law(c - h))) / (2.0 * h)
    assert float(law.derivative(c)) == pytest.approx(fd, rel=1e-5, abs=1e-5)


def left_to_right_product(s, n):
    p = s * s
    for _ in range(n - 2):
        p = p * s
    return p


# zero or at least 1e-30, so that no product up to s^8 is subnormal
FIELDS = hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=2, max_side=9),
                    elements=hs.one_of(hs.just(0.0), hs.floats(1e-30, 1e3)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(s=FIELDS, n=hs.integers(2, K.POWER_PRODUCTS_MAX))
def test_power_of_a_whole_exponent_is_the_left_to_right_product(s, n):
    out = np.full_like(s, np.nan)
    assert K.power(s, float(n), out=out) is out
    assert out.tobytes() == left_to_right_product(s, n).tobytes()
    assert K.power(s, n).tobytes() == out.tobytes()
    # each product rounds once: within (n - 1) eps of libm's pow
    exact = np.power(s, float(n))
    assert np.all(np.abs(out - exact) <= (n - 1) * np.finfo(float).eps * exact)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(s=FIELDS, a=hs.one_of(
    hs.floats(1.0001, 12.0).filter(lambda a: not a.is_integer()),
    hs.sampled_from([1.0, 9.0, 10.0, 0.5, 1.5, 8.5])))
def test_power_of_any_other_exponent_is_numpys(s, a):
    out = np.full_like(s, np.nan)
    assert K.power(s, a, out=out) is out
    assert out.tobytes() == np.power(s, a).tobytes()


@settings(max_examples=100, deadline=None, derandomize=True)
@given(s=FIELDS, n=hs.integers(2, K.POWER_PRODUCTS_MAX))
def test_laws_of_a_whole_exponent_use_the_product(s, n):
    sn = left_to_right_product(s, n)
    pp, logi = K.PurePower(0.7, 1.3, float(n)), K.Logistic(1.5, 0.8, float(n))
    assert pp(s).tobytes() == (1.3 - 0.7 * sn).tobytes()
    assert logi(s).tobytes() == (1.5 * s - 0.8 * sn).tobytes()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(law=hs.sampled_from(SHIPPED_LAWS), s=hs.floats(0.0, 50.0))
def test_law_on_a_float_equals_the_law_on_a_one_element_array(law, s):
    assert float(law(s)) == law(np.array([s]))[0]


def test_laws_reject_negative_argument():
    with pytest.raises(DomainError):
        K.Allee()(-0.1)
    with pytest.raises(DomainError):
        K.PurePower()(np.array([0.5, -1.0]))
    # a NaN next to a negative entry does not hide it; NaN alone or an empty
    # field is not negative
    with pytest.raises(DomainError):
        K.PurePower()(np.array([np.nan, 0.5, -1.0]))
    assert np.isnan(K.PurePower()(np.array([np.nan, 0.5]))[0])
    assert K.PurePower()(np.zeros((0, 3))).shape == (0, 3)


def test_spec_structural_validation():
    with pytest.raises(DomainError):
        spec_pp(1.0, 3.0)  # alpha must exceed 1
    with pytest.raises(DomainError):
        K.KineticSpec.from_laws(K.PurePower(1.0, 1.0, 3.0),
                                K.PurePower(1.0, 1.0, 3.0), K_f=-1.0)
    with pytest.raises(DomainError):
        # a law without degradation, even when its envelope is overridden
        K.KineticSpec.from_laws(K.PurePower(0.0, 1.0, 3.0), K.PurePower(),
                                K_f=1e-13, k_f=1e-13)
    with pytest.raises(DomainError):
        # f(0) < 0 is inadmissible
        K.KineticSpec(law_f=K.PurePower(1.0, -0.5, 3.0), law_g=K.PurePower(),
                      alpha=3.0, beta=3.0, k_f=1.0, K_f=1.0, l_f=1.0, L_f=0.0,
                      k_g=1.0, K_g=1.0, l_g=0.0, L_g=1.0)
    with pytest.raises(DomainError):
        K.Logistic(a=-1.0, b=1.0, alpha=3.0)


def test_laws_table_rebuilds_every_law():
    for cls in K.GrowthLaw.__subclasses__():
        assert K.LAWS[cls.name] is cls
    for law in SHIPPED_LAWS:
        text = f"{law.name}({', '.join(repr(x) for x in astuple(law))})"
        assert Config().build_law(text, "kinetics.f_law") == law


def dense_scan_envelope(law, k, l, Kc, L, exponent, n=10**6, s_max=50.0):
    """Dense-scan oracle: minima of both polynomial differences on [0, s_max]."""
    s = np.linspace(0.0, s_max, n)
    vals = law(s)
    lower = vals - (-k * s**exponent - l)
    upper = (-Kc * s**exponent + L) - vals
    return float(lower.min()), float(upper.min())


def test_purepower_envelope_tight_upper():
    spec = spec_pp(3.0, 3.0)
    rep = K.validate_envelope(spec)
    assert rep.holds
    assert rep.worst_margin == 0.0  # law == upper envelope


def test_allee_default_envelope_validates():
    spec = K.KineticSpec.from_laws(K.Allee(), K.PurePower(1.0, 1.0, 3.0))
    assert K.validate_envelope(spec).holds
    lo, up = dense_scan_envelope(K.Allee(), spec.k_f, spec.l_f, spec.K_f,
                                 spec.L_f, spec.alpha)
    assert lo >= 0.0 and up >= 0.0
    # the scan pins the slack: min of 0.5 s^3 - 3 s^2 + 2 s is about -8.354,
    # so an upper offset of 9 leaves ~0.646 and 3 would be violated
    assert up == pytest.approx(9.0 - 8.3540, abs=2e-3)


def test_allee_small_upper_offset_fails():
    spec = K.KineticSpec.from_laws(K.Allee(), K.PurePower(1.0, 1.0, 3.0), L_f=3.0)
    rep = K.validate_envelope(spec)
    assert not rep.holds
    assert rep.worst_check == "f:upper"
    assert 1.7 < rep.worst_point < 4.5
    lo, up = dense_scan_envelope(K.Allee(), 2.0, 3.0, 0.5, 3.0, 3.0)
    assert up < 0.0


def test_logistic_default_envelope_validates():
    spec = K.KineticSpec.from_laws(K.Logistic(a=1.5, b=0.8, alpha=2.5),
                                   K.PurePower(1.0, 1.0, 3.0))
    assert K.validate_envelope(spec).holds
    lo, up = dense_scan_envelope(K.Logistic(a=1.5, b=0.8, alpha=2.5),
                                 spec.k_f, spec.l_f, spec.K_f, spec.L_f, spec.alpha)
    assert lo >= -1e-12 and up >= -1e-9


def test_nan_law_parameter_violates_the_envelope():
    # a NaN margin never compares below the worst one, yet it is no slack
    spec = K.KineticSpec.from_laws(K.Logistic(math.nan, 1.0, 4.0), K.PurePower())
    rep = K.validate_envelope(spec)
    assert not rep.holds
    assert rep.worst_check.startswith("f:")


def test_understated_exponent_fails_at_large_s():
    # law decays like s^4 but the declared envelope says alpha = 3
    spec = K.KineticSpec.from_laws(K.PurePower(1.0, 1.0, 4.0),
                                   K.PurePower(1.0, 1.0, 3.0),
                                   alpha=3.0, k_f=1.0, K_f=1.0, l_f=0.0, L_f=1.0)
    rep = K.validate_envelope(spec)
    assert not rep.holds
    assert rep.worst_point >= 1e3


def test_existence_gate_truth_table():
    assert K.global_existence_gate(spec_pp(4.0, 2.0)).passed
    assert not K.global_existence_gate(spec_pp(2.5, 2.0)).passed
    assert K.global_existence_gate(spec_pp(3.0, 3.0)).passed


def test_existence_gate_monotone_in_beta():
    # raising beta with a passing alpha never flips pass -> fail
    for alpha in (2.6, 3.0, 4.5, 7.0):
        passed_before = False
        for beta in np.linspace(1.05, 9.0, 40):
            ok = K.global_existence_gate(spec_pp(alpha, float(beta))).passed
            if passed_before:
                assert ok
            passed_before = passed_before or ok


def test_regularity_gate():
    decaying = K.ResupplySpec(profile="constant", amplitude=0.3, decay_lambda=1.0)
    steady = K.ResupplySpec(profile="constant", amplitude=0.3)

    def params(spec, mu, resupply):
        return S.ModelParams(mu=mu, epsilon=0.0, resupply=resupply, kinetics=spec)

    s33 = spec_pp(3.0, 3.0)
    assert K.eventual_regularity_gate(s33, params(s33, 0.5, decaying)).passed
    s32 = spec_pp(3.0, 2.0)
    assert not K.eventual_regularity_gate(s32, params(s32, 0.5, decaying)).passed
    assert not K.eventual_regularity_gate(s33, params(s33, 0.0, decaying)).passed
    assert not K.eventual_regularity_gate(s33, params(s33, 0.5, steady)).passed


def test_gate_knife_edge_flag():
    eps = 1e-10
    gate = K.global_existence_gate(spec_pp(1.0 + math.sqrt(2.0) + eps, 5.0))
    assert gate.knife_edge


def test_gate_verdicts_follow_the_margins():
    # one rule: a hypothesis holds exactly when its margin is positive
    def params(mu, **resupply):
        return S.ModelParams(mu=mu, epsilon=0.0, resupply=K.ResupplySpec(**resupply),
                             kinetics=spec_pp(3.0, 3.0))

    cases = {
        "steady": (params(0.0, amplitude=0.3), 0.0),
        "decaying": (params(0.5, amplitude=0.3, decay_lambda=2.0), 2.0),
        "none": (params(0.5, amplitude=0.0), math.inf),
    }
    for name, (prm, resupply_margin) in cases.items():
        gate = K.eventual_regularity_gate(prm.kinetics, prm)
        assert gate.margins["resupply_integrable"] == resupply_margin, name
        assert gate.margins["mu_positive"] == prm.mu, name
        assert gate.checks == {c: m > 0 for c, m in gate.margins.items()}, name
        assert gate.passed is all(m > 0 for m in gate.margins.values()), name
        # zero margins of mu_positive and resupply_integrable are no knife-edge
        assert gate.knife_edge == (), name
        # the regularity table extends the existence table
        assert gate.margins.items() >= K.global_existence_gate(prm.kinetics).margins.items()


def test_resupply_values_and_stars():
    r = K.ResupplySpec(profile="constant", amplitude=0.2)
    assert np.all(r.field(G.Grid(4, 4), 5.0) == 0.2) and r.linf(5.0) == 0.2
    assert r.r_star == 0.2

    bump = K.ResupplySpec(profile="gaussian", amplitude=1.0, center=(0.5, 0.5),
                          width=0.1, decay_lambda=1.0)
    assert bump.field(G.Grid(5, 5), 0.0)[2, 2] == 1.0  # the cell centred at (0.5, 0.5)

    decaying = K.ResupplySpec(profile="constant", amplitude=1.0, decay_lambda=2.0)
    # numerical time-quadrature cross-check of the sup-norm integral,
    # amplitude / decay_lambda
    ts = np.linspace(0.0, 60.0, 400001)
    quad = np.trapezoid([decaying.linf(t) for t in ts], ts)
    assert quad == pytest.approx(0.5, rel=1e-6)

    with pytest.raises(DomainError):
        r.linf(-0.5)
    with pytest.raises(DomainError):
        K.ResupplySpec(amplitude=-1.0)
    with pytest.raises(StructuralError):
        K.ResupplySpec(profile="striped")


@pytest.mark.parametrize("profile", ["constant", "gaussian"])
@pytest.mark.parametrize("decay_lambda", [0.0, 0.7])
def test_resupply_field_matches_the_reference_on_the_cell_centres(profile, decay_lambda):
    g = G.Grid(12, 9, 1.3, 0.8)
    r = K.ResupplySpec(profile=profile, amplitude=0.3, center=(0.4, 0.55),
                       width=0.15, decay_lambda=decay_lambda)
    X, Y = g.cell_centers()
    for t in (0.0, 0.37, 2.5):
        field = r.field(g, t)
        assert field.flags.writeable  # a new array, not the cached profile
        assert field.tobytes() == resupply_reference(r, X, Y, t).tobytes()


def test_initial_data_validation():
    import taxis_cascade.grid as G
    g = G.Grid(6, 6)
    ones = np.ones(g.shape)
    K.InitialData(ones, ones, 0 * ones).validate(g)
    with pytest.raises(DomainError):
        K.InitialData(0 * ones, ones, ones).validate(g)  # u0 mass must be positive
    bad = ones.copy()
    bad[0, 0] = -0.5
    with pytest.raises(DomainError):
        K.InitialData(ones, bad, ones).validate(g)
