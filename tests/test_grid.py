import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from taxis_cascade import grid as G
from taxis_cascade import monitors as M
from taxis_cascade.errors import DomainError, StructuralError


def centers(g):
    return g.cell_centers()


def test_grid_invariants():
    g = G.Grid(8, 6, 2.0, 3.0)
    assert g.hx == 0.25 and g.hy == 0.5
    assert g.cell_volume * g.nx * g.ny == pytest.approx(6.0, abs=1e-12)
    with pytest.raises(StructuralError):
        G.Grid(3, 8)
    with pytest.raises(StructuralError):
        G.Grid(8, 8, -1.0, 1.0)


def test_grid_above_the_ceiling_is_refused_before_any_array():
    # far above 256^2, the largest grid that the tests, presets and bench use
    assert G.MAX_CELLS == 4096 * 4096
    G.Grid(4096, 4096)  # the ceiling itself is admitted
    tracemalloc.start()
    try:
        for nx, ny in ((10**8, 10**8), (4096, 4097), (4, G.MAX_CELLS)):
            with pytest.raises(StructuralError, match="exceeds the ceiling"):
                G.Grid(nx, ny)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**16


def test_conformance_error():
    g = G.Grid(6, 6)
    with pytest.raises(StructuralError):
        G.laplacian(np.zeros((5, 6)), g)
    with pytest.raises(StructuralError):
        G.integrate(np.zeros((6, 7)), g)


def test_laplacian_constant_is_harmonic():
    g = G.Grid(12, 9, 1.7, 0.9)
    assert np.all(G.laplacian(np.full(g.shape, 4.2), g) == 0.0)


def test_laplacian_exact_on_quadratics_away_from_boundary():
    g = G.Grid(16, 16)
    X, _ = centers(g)
    lap = G.laplacian(X**2, g)
    assert np.allclose(lap[2:-2, 2:-2], 2.0, atol=1e-10)


def test_laplacian_neumann_eigenfield():
    # half-sample cosine is an exact eigenvector of the mirror-ghost operator
    g = G.Grid(16, 16)
    X, _ = centers(g)
    for k in (1, 3):
        phi = np.cos(k * np.pi * X / g.Lx)
        lam = -(2.0 / g.hx**2) * (1.0 - np.cos(k * np.pi * g.hx / g.Lx))
        assert np.max(np.abs(G.laplacian(phi, g) - lam * phi)) < 1e-11 * abs(lam)


def test_laplacian_rotation_symmetry():
    g = G.Grid(10, 10)
    rng = np.random.default_rng(7)
    phi = rng.random(g.shape)
    assert np.allclose(G.laplacian(np.rot90(phi), g),
                       np.rot90(G.laplacian(phi, g)), atol=1e-14)


from oracles import (brute_force_taxis, log_gradient_reference, seminorm_w2p_reference,
                     taxis_divergence_divided_reference, taxis_divergence_reference)


def test_taxis_constant_potential_is_zero():
    g = G.Grid(8, 8)
    rng = np.random.default_rng(0)
    c = rng.random(g.shape)
    assert np.all(G.taxis_divergence(c, np.full(g.shape, 2.5), g) == 0.0)


def test_taxis_unit_carrier_equals_laplacian_bitwise():
    g = G.Grid(9, 7, 1.1, 0.6)
    rng = np.random.default_rng(1)
    phi = rng.random(g.shape)
    assert np.array_equal(G.taxis_divergence(np.ones(g.shape), phi, g),
                          G.laplacian(phi, g))


def test_taxis_constant_carrier_scales_laplacian():
    g = G.Grid(8, 8)
    rng = np.random.default_rng(2)
    phi = rng.random(g.shape)
    c = 3.25
    assert np.allclose(G.taxis_divergence(np.full(g.shape, c), phi, g),
                       c * G.laplacian(phi, g), rtol=1e-14, atol=1e-13)


def test_taxis_matches_brute_force_oracle():
    rng = np.random.default_rng(3)
    for nx in range(4, 9):
        for ny in range(4, 9):
            g = G.Grid(nx, ny, 1.0 + 0.1 * nx, 0.5 + 0.05 * ny)
            carrier = rng.random(g.shape)
            potential = rng.standard_normal(g.shape)
            got = G.taxis_divergence(carrier, potential, g)
            want = brute_force_taxis(carrier, potential, g)
            assert np.max(np.abs(got - want)) < 1e-13


def test_taxis_negative_carrier_rejected():
    g = G.Grid(6, 6)
    c = np.ones(g.shape)
    c[2, 2] = -1e-6
    with pytest.raises(DomainError):
        G.taxis_divergence(c, np.ones(g.shape), g)
    # dust above the floor passes
    c[2, 2] = -5e-13
    G.taxis_divergence(c, np.ones(g.shape), g)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(g=hs.builds(G.Grid, hs.integers(4, 32), hs.integers(4, 32),
                   hs.floats(0.5, 3.0), hs.floats(0.5, 3.0)),
       seed=hs.integers(0, 2**32 - 1), log_c=hs.floats(-3.0, 3.0),
       log_phi=hs.floats(-3.0, 3.0), vacant=hs.floats(0.0, 0.9))
def test_discrete_conservation(g, seed, log_c, log_phi, vacant):
    # any nonnegative carrier, empty cells included, and any potential
    rng = np.random.default_rng(seed)
    phi = rng.standard_normal(g.shape) * 10.0**log_phi
    c = rng.random(g.shape) * (rng.random(g.shape) >= vacant) * 10.0**log_c
    gx = np.abs(np.diff(phi, axis=1)) / g.hx
    gy = np.abs(np.diff(phi, axis=0)) / g.hy
    flux_scale = (gx.sum() / g.hx + gy.sum() / g.hy) * g.cell_volume
    tol = 10 * np.finfo(float).eps * flux_scale
    assert abs(G.integrate(G.laplacian(phi, g), g)) <= tol
    assert abs(G.integrate(G.taxis_divergence(c, phi, g), g)) <= tol * c.max()


GRIDS = hs.builds(G.Grid, hs.integers(4, 24), hs.integers(4, 24),
                  hs.floats(0.5, 3.0), hs.floats(0.5, 3.0))


def patchy_field(rng, shape, vacant, signed):
    """Random entries with exact zeros of both signs and one flat 3x3 patch."""
    phi = rng.random(shape) - (0.5 if signed else 0.0)
    zero = rng.random(shape) < vacant
    phi[zero] = np.where(rng.random(shape) < 0.5, 0.0, -0.0)[zero]
    j, i = rng.integers(0, shape[0] - 1), rng.integers(0, shape[1] - 1)
    phi[j:j + 3, i:i + 3] = phi[j, i]
    return phi


def same_bits(a, b):
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


@settings(max_examples=100, deadline=None, derandomize=True)
@given(g=GRIDS, seed=hs.integers(0, 2**32 - 1), vacant=hs.floats(0.0, 0.9),
       signed=hs.booleans())
def test_max_face_gradient_is_the_largest_face_gradient_bitwise(g, seed, vacant, signed):
    phi = patchy_field(np.random.default_rng(seed), g.shape, vacant, signed)
    gx, gy = G.face_gradients(phi, g)
    want = max(float(np.abs(gx).max()), float(np.abs(gy).max()))
    assert same_bits(G.max_face_gradient(phi, g), want)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(g=GRIDS, seed=hs.integers(0, 2**32 - 1), vacant=hs.floats(0.0, 0.9),
       signed=hs.booleans())
def test_log_gradient_integrand_is_the_plain_expression_bitwise(g, seed, vacant, signed):
    v = patchy_field(np.random.default_rng(seed), g.shape, vacant, signed)
    assert same_bits(M.log_gradient_integrand(v, g), log_gradient_reference(v, g))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(g=GRIDS, seed=hs.integers(0, 2**32 - 1), vacant=hs.floats(0.0, 0.9))
def test_taxis_divergence_is_the_undivided_flux_assembly_scaled_once_bitwise(g, seed, vacant):
    # vacant cells and flat patches make zero fluxes of both signs
    rng = np.random.default_rng(seed)
    carrier = patchy_field(rng, g.shape, vacant, signed=False)
    potential = patchy_field(rng, g.shape, vacant, signed=True)
    assert same_bits(G.taxis_divergence(carrier, potential, g),
                     taxis_divergence_reference(carrier, potential, g))


def cell_flux_scale(carrier, potential, g):
    """Per cell, the sum of |carrier_up * jump| / h^2 over its faces."""
    jx, jy = np.abs(np.diff(potential, axis=1)), np.abs(np.diff(potential, axis=0))
    ax = np.maximum(carrier[:, :-1], carrier[:, 1:]) * jx / g.hx**2
    ay = np.maximum(carrier[:-1, :], carrier[1:, :]) * jy / g.hy**2
    scale = np.zeros(g.shape)
    scale[:, :-1] += ax
    scale[:, 1:] += ax
    scale[:-1, :] += ay
    scale[1:, :] += ay
    return scale


# |kernel - divided kernel| over eps * cell_flux_scale peaked at 2.9 on 40^2
# and 2.0 on 24x17 over 200 draws each
DIVIDED_KERNEL_ULPS = 4.0


def test_taxis_divergence_keeps_the_divided_kernel_values_where_h_is_a_power_of_two():
    # dividing by h twice and multiplying by 1/h^2 round alike when h = 2^-k;
    # elsewhere the two orders differ by rounding alone
    exact = (G.Grid(16, 16), G.Grid(32, 64), G.Grid(128, 128), G.Grid(8, 16, 2.0, 4.0))
    for g in exact + (G.Grid(40, 40), G.Grid(24, 17, 1.3, 0.6)):
        rng = np.random.default_rng(g.nx * g.ny)
        for _ in range(3):
            carrier = patchy_field(rng, g.shape, 0.3, signed=False)
            potential = patchy_field(rng, g.shape, 0.3, signed=True)
            got = G.taxis_divergence(carrier, potential, g)
            want = taxis_divergence_divided_reference(carrier, potential, g)
            if g in exact:
                assert np.array_equal(got, want)
            else:
                scale = cell_flux_scale(carrier, potential, g)
                assert np.all(np.abs(got - want)
                              <= DIVIDED_KERNEL_ULPS * np.finfo(float).eps * scale)


# The kernels run the x-faces of all rows as one flat subtraction, whose
# entries at row ends (flat k = j*nx - 1) straddle two rows and lie on no
# face.  These cases put large or non-finite values exactly there.

SEAM_GRID = G.Grid(7, 5, 1.3, 0.6)  # nx != ny, Lx != Ly


def seam_potential(g, rng):
    """A steep ramp in x: each row-end jump is about nx-1 times any face jump."""
    return rng.random(g.shape) + 1e12 * np.arange(g.nx) / g.nx


def check_seam_kernels(carrier, potential, g):
    with np.errstate(over="ignore", invalid="ignore"):
        assert same_bits(G.taxis_divergence(carrier, potential, g),
                         taxis_divergence_reference(carrier, potential, g))
        assert same_bits(G.laplacian(potential, g),
                         taxis_divergence_reference(np.ones(g.shape), potential, g))
        gx, gy = G.face_gradients(potential, g)
        want = max(float(np.abs(gx).max()), float(np.abs(gy).max()))
        assert same_bits(G.max_face_gradient(potential, g), want)


@pytest.mark.parametrize("g", [SEAM_GRID, G.Grid(4, 9, 0.7, 2.1), G.Grid(16, 4)],
                         ids=["7x5", "4x9", "16x4"])
def test_flat_kernels_ignore_jumps_across_row_ends_bitwise(g):
    rng = np.random.default_rng(11)
    potential = seam_potential(g, rng)
    dx, dy = np.diff(potential, axis=1), np.diff(potential, axis=0)
    seams = np.diff(potential.ravel())[g.nx - 1::g.nx]
    assert np.abs(seams).min() > 2.0 * max(np.abs(dx).max(), np.abs(dy).max())
    check_seam_kernels(rng.random(g.shape), potential, g)
    check_seam_kernels(rng.random(g.shape), rng.standard_normal(g.shape), g)


@pytest.mark.parametrize("fill", [1e300, np.inf, np.nan])
@pytest.mark.parametrize("column", [0, -1, "both"])
def test_flat_taxis_keeps_extreme_carriers_where_the_rows_put_them(fill, column):
    # the carrier of a row-end or row-start cell meets a row-end jump in the
    # flat run; only its own interior faces may carry it into the result
    g = SEAM_GRID
    rng = np.random.default_rng(12)
    carrier = rng.random(g.shape)
    columns = [0, -1] if column == "both" else [column]
    carrier[:, columns] = fill
    for potential in (seam_potential(g, rng), rng.standard_normal(g.shape),
                      np.full(g.shape, 2.5)):
        check_seam_kernels(carrier, potential, g)
    with np.errstate(over="ignore", invalid="ignore"):
        div = G.taxis_divergence(carrier, np.full(g.shape, 2.5), g)
    # a flat potential makes zero jumps, whose faces take the right or upper
    # carrier: inf * 0 is NaN along a filled column's y-faces, and in the
    # last two cells of each row from a filled last column; the row-end
    # jumps of the flat run, multiplied by the same carriers, add none
    bad = np.zeros(g.shape, dtype=bool)
    if not np.isfinite(fill):
        bad[:, 0] = 0 in columns
        bad[:, -2] = bad[:, -1] = -1 in columns
    assert np.array_equal(np.isnan(div), bad)
    assert np.all(div[~bad] == 0.0)


def test_taxis_divergence_holds_at_most_three_fields():
    # each axis's jumps are freed once its flux holds them, before the next
    # axis's jumps exist: three field-sizes at the peak, four with both at once
    g = G.Grid(256, 256)
    X, Y = centers(g)
    carrier = 1.0 + 0.5 * np.sin(3.0 * X) * np.cos(2.0 * Y)
    potential = np.cos(4.0 * X) * np.sin(5.0 * Y) + X * Y
    G.taxis_divergence(carrier, potential, g)  # warm, as in the seminorm check
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        G.taxis_divergence(carrier, potential, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (peak - base) / carrier.nbytes <= 3.5


def layouts(a):
    """The same values as a Fortran-ordered, a transposed and a sliced array."""
    ny, nx = a.shape
    fortran = np.asfortranarray(a)
    transposed = np.ascontiguousarray(a.T).T
    wide = np.full((ny + 3, 2 * nx + 1), np.nan)
    wide[1:ny + 1, 1::2] = a
    sliced = wide[1:ny + 1, 1::2]
    return {"fortran": fortran, "transposed": transposed, "sliced": sliced}


@pytest.mark.parametrize("layout", ["fortran", "transposed", "sliced"])
def test_flat_kernels_on_non_c_ordered_inputs_bitwise(layout):
    g = SEAM_GRID
    rng = np.random.default_rng(13)
    carrier = patchy_field(rng, g.shape, 0.3, signed=False)
    potential = seam_potential(g, rng)
    c, p = layouts(carrier)[layout], layouts(potential)[layout]
    assert not (c.flags.c_contiguous or p.flags.c_contiguous)
    before = c.copy(), p.copy()
    check_seam_kernels(c, p, g)
    assert same_bits(G.taxis_divergence(c, p, g), G.taxis_divergence(carrier, potential, g))
    assert same_bits(G.max_face_gradient(p, g), G.max_face_gradient(potential, g))
    assert same_bits(c, before[0]) and same_bits(p, before[1])


@settings(max_examples=100, deadline=None, derandomize=True)
@given(g=GRIDS, seed=hs.integers(0, 2**32 - 1), vacant=hs.floats(0.0, 1.0),
       signed=hs.booleans())
def test_norm_linf_is_the_largest_magnitude_bitwise(g, seed, vacant, signed):
    # vacant = 1 gives a field of zeros of both signs only
    phi = patchy_field(np.random.default_rng(seed), g.shape, vacant, signed)
    assert same_bits(G.norm_linf(phi), np.abs(phi).max())


@pytest.mark.parametrize("fill", [-0.0, 0.0, -np.inf])
def test_norm_linf_of_a_flat_field_is_the_largest_magnitude_bitwise(fill):
    phi = np.full((6, 5), fill)
    assert same_bits(G.norm_linf(phi), np.abs(phi).max())


def test_norm_linf_propagates_nan():
    phi = np.ones((6, 5))
    phi[2, 3] = np.nan
    assert np.isnan(G.norm_linf(phi))


def test_integrate_examples():
    g = G.Grid(10, 10)
    assert G.integrate(np.ones(g.shape), g) == pytest.approx(1.0, abs=1e-14)
    g2 = G.Grid(12, 6, 2.0, 3.0)
    assert G.integrate(np.full(g2.shape, 2.0), g2) == pytest.approx(12.0, abs=1e-12)
    for nx in (5, 10, 23):
        g3 = G.Grid(nx, max(nx, 4))
        X, _ = g3.cell_centers()
        assert G.integrate(X, g3) == pytest.approx(0.5, abs=1e-13)


def test_norms():
    g = G.Grid(10, 10)
    ones = np.ones(g.shape)
    for p in (1.0, 2.0, 3.5):
        assert G.norm_lp(ones, g, p) == pytest.approx(1.0, abs=1e-12)
    X, _ = centers(g)
    assert G.norm_linf(X - 0.5) == pytest.approx(0.45, abs=1e-14)
    with pytest.raises(DomainError):
        G.norm_lp(ones, g, 0.5)


def test_seminorm_vanishes_on_linears():
    g = G.Grid(9, 12, 1.5, 0.7)
    X, Y = centers(g)
    phi = 0.3 + 1.7 * X - 0.9 * Y
    assert G.seminorm_w2p(phi, g, 2) < 1e-12
    assert G.seminorm_w2p(phi, g, 4) < 1e-12


@pytest.mark.parametrize("g", [G.Grid(9, 12, 1.5, 0.7), G.Grid(17, 33), G.Grid(40, 40),
                               G.Grid(4, 5, 0.3, 2.0)], ids=["9x12", "17x33", "40x40", "4x5"])
@pytest.mark.parametrize("p", [2, 4])
def test_seminorm_is_the_three_point_stencil(g, p):
    # differences of adjacent face gradients, edge cells copying their
    # neighbour, are the one-sided three-point stencil to rounding
    rng = np.random.default_rng(13)
    for phi in (rng.random(g.shape), rng.standard_normal(g.shape), G.gaussian(g, 0.4, 0.3, 0.2)):
        assert G.seminorm_w2p(phi, g, p) == pytest.approx(
            seminorm_w2p_reference(phi, g, p), rel=1e-12, abs=0.0)


def test_seminorm_holds_few_transient_fields():
    # the three powers go into one array, freeing each derivative once it is in
    g = G.Grid(256, 256)
    X, Y = centers(g)
    phi = np.sin(3.0 * X) * np.cos(2.0 * Y) + X * Y
    G.seminorm_w2p(phi, g, 4)  # warm, so no first-call allocation is counted
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        G.seminorm_w2p(phi, g, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (peak - base) / phi.nbytes <= 6.0


def test_seminorm_positive_on_quadratic():
    g = G.Grid(16, 16)
    X, Y = centers(g)
    val = G.seminorm_w2p(X**2 + X * Y, g, 2)
    # D_xx = 2, D_xy = 1, D_yy = 0: integrand (2^p + 1^p), |Omega| = 1
    assert val == pytest.approx((2.0**2 + 1.0) ** 0.5, rel=1e-10)


def test_fld1_round_trip(tmp_path):
    g = G.Grid(7, 5, 1.25, 0.75)
    rng = np.random.default_rng(5)
    phi = rng.standard_normal(g.shape)
    path = tmp_path / "field.fld"
    G.write_field(path, phi, g, t=0.62521)
    back, g2, t = G.read_field(path)
    assert g2 == g
    assert t == 0.62521
    assert np.array_equal(back, phi)


def test_fld1_rejects_garbage(tmp_path):
    path = tmp_path / "bad.fld"
    path.write_bytes(b"NOPE 1 2 3\n")
    with pytest.raises(StructuralError):
        G.read_field(path)
    path.write_bytes(b"FLD1 8 8 1.0 1.0 0.0\nshort")
    with pytest.raises(StructuralError):
        G.read_field(path)
    # corrupt headers: a non-integer size, a non-numeric time, non-ASCII
    # bytes, a payload far beyond the file (2^67 bytes) and a NaN time
    for header in (b"FLD1 x 8 1.0 1.0 0.0\n", b"FLD1 8 8 1.0 1.0 now\n",
                   b"FLD1 8 8 1.0 1.0 \xff\xfe\n", b"FLD1 \xd9\xa8 8 1.0 1.0 0.0\n",
                   b"FLD1 4294967296 4294967296 1.0 1.0 0.5\n", b"FLD1 8 8 1.0 1.0 nan\n"):
        path.write_bytes(header + bytes(8 * 64))
        with pytest.raises(StructuralError):
            G.read_field(path)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_fld1_refuses_a_non_finite_payload(tmp_path, value):
    # no run writes one (admission refuses non-finite fields), and a NaN
    # would pass the min-based checks of verify-weak
    g = G.Grid(8, 8)
    phi = np.ones(g.shape)
    phi[3, 5] = value
    path = tmp_path / "v_00000002.fld"
    G.write_field(path, phi, g, t=0.5)
    with pytest.raises(StructuralError) as err:
        G.read_field(path)
    assert str(err.value) == f"{path}: non-finite value in the payload"
