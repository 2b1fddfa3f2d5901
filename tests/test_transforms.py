"""Transform and Slepian-representation tests."""

import ast
import dataclasses
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import slepian_ball as sb
from slepian_ball import specfun, transforms
from oracles import (analysis_fl_dense, laguerre_K, spherical_bessel_j, spherical_harmonic,
                     synthesis_fb_per_degree, synthesis_fl_scalar, synthesis_separable_dense)
from slepian_ball.kernels import fb_k_weights

T1, T2 = math.pi / 8, 3 * math.pi / 8


def random_coeffs(band, rng):
    return sb.HarmonicCoeffs(
        rng.normal(size=band.size) + 1j * rng.normal(size=band.size), band)


# ---------------------------------------------------------------------------
# Fourier-Laguerre synthesis / analysis
# ---------------------------------------------------------------------------

def test_synthesis_single_coefficient():
    band = sb.FourierLaguerreBand(3, 3)
    vec = np.zeros(band.size, dtype=complex)
    vec[band.flat_index(0, 0, 0)] = 1.0
    c = sb.HarmonicCoeffs(vec, band)
    pts = [sb.BallPoint(2.0, 0.7, 1.1), sb.BallPoint(11.0, 2.0, 0.0)]
    vals = sb.synthesis_fl(c, pts)
    for p, v in zip(pts, vals):
        assert v == pytest.approx(
            laguerre_K(0, p.r) / math.sqrt(4 * math.pi), rel=1e-14)


def test_round_trip_random_band_limited(rng):
    for (P, L) in [(4, 4), (16, 8), (32, 12)]:
        band = sb.FourierLaguerreBand(P, L)
        c = random_coeffs(band, rng)
        grid = transforms.analysis_grid(band)
        vals = sb.synthesis_fl_grid(c, grid)
        back = sb.analysis_fl(vals, grid, band)
        assert np.abs(back.values - c.values).max() < 1e-10


def test_analysis_grid_round_trip_at_large_P(rng):
    # P = 256 puts the radial nodes past r = 1000, where the plain
    # Gauss-Laguerre weights w_i underflow; the scaled ones do not.  At
    # P = 400 (nodes to r = 1594) L_p^(2)(r) itself passes the float range
    for P in (256, 400):
        band = sb.FourierLaguerreBand(P, 2)
        grid = transforms.analysis_grid(band)
        assert grid.radial_nodes.size == band.P + 9
        c = random_coeffs(band, rng)
        back = sb.analysis_fl(sb.synthesis_fl_grid(c, grid), grid, band)
        assert np.abs(back.values - c.values).max() < 1e-10


def test_region_energy_grid_on_open_intervals(rng):
    # FL on [R1, inf) takes the exact scaled Gauss-Laguerre rule: the full
    # ball's energy is the coefficient norm; FB needs a bounded region
    band = sb.FourierLaguerreBand(6, 4)
    grid = transforms.region_energy_grid(sb.full_ball(), band)
    assert grid.radial_nodes.size == band.P + 1
    c = random_coeffs(band, rng)
    vals = sb.synthesis_fl_grid(c, grid).reshape(grid.radial_nodes.size, -1)
    energy = (np.abs(vals) ** 2 @ grid.angular_weights) @ grid.radial_weights
    assert energy == pytest.approx(c.norm() ** 2, rel=1e-13)
    with pytest.raises(ValueError, match="need a bounded region"):
        transforms.region_energy_grid(sb.full_ball(), sb.FourierBesselBand(1.0, 4, 10))


def test_parseval(rng):
    band = sb.FourierLaguerreBand(10, 8)
    c = random_coeffs(band, rng)
    grid = transforms.analysis_grid(band)
    vals = sb.synthesis_fl_grid(c, grid)
    n_r = grid.radial_nodes.size
    energy = float((np.sum(np.abs(vals.reshape(n_r, -1)) ** 2
                           * grid.angular_weights, axis=1) @ grid.radial_weights).real)
    assert energy == pytest.approx(c.norm() ** 2, rel=1e-10)


def test_synthesis_linearity(rng):
    band = sb.FourierLaguerreBand(4, 4)
    x = random_coeffs(band, rng)
    y = random_coeffs(band, rng)
    a, b = 1.7 - 0.3j, -0.4 + 2.2j
    pts = [sb.BallPoint(3.0, 1.0, 2.0), sb.BallPoint(17.0, 0.4, 5.0)]
    lhs = sb.synthesis_fl(
        sb.HarmonicCoeffs(a * x.values + b * y.values, band), pts)
    rhs = a * sb.synthesis_fl(x, pts) + b * sb.synthesis_fl(y, pts)
    assert np.abs(lhs - rhs).max() < 1e-13 * max(1.0, np.abs(rhs).max())


def test_analysis_constant_times_k0():
    band = sb.FourierLaguerreBand(4, 3)
    grid = transforms.analysis_grid(band)
    n_r, n_t, n_p = (grid.radial_nodes.size, grid.theta_nodes.size,
                     grid.phi_nodes.size)
    vals = np.empty((n_r, n_t, n_p), dtype=complex)
    K0 = specfun.laguerre_K_table(0, grid.radial_nodes)[0]
    vals[:] = (K0 / math.sqrt(4 * math.pi))[:, None, None]
    c = sb.analysis_fl(vals, grid, band)
    expect = np.zeros(band.size)
    expect[band.flat_index(0, 0, 0)] = 1.0
    assert np.abs(c.values - expect).max() < 1e-12


def test_analysis_grid_band_mismatch():
    band_small = sb.FourierLaguerreBand(4, 4)
    band_big = sb.FourierLaguerreBand(4, 8)
    grid = transforms.analysis_grid(band_small)
    vals = np.zeros((grid.radial_nodes.size,
                     grid.theta_nodes.size * grid.phi_nodes.size))
    with pytest.raises(ValueError):
        sb.analysis_fl(vals, grid, band_big)


@pytest.mark.parametrize("P, L", [(4, 3), (16, 8), (32, 32)])
def test_analysis_matches_dense_oracle(P, L, rng):
    # samples off the band: the sums must agree, not only round-trip
    band = sb.FourierLaguerreBand(P, L)
    grid = transforms.analysis_grid(band)
    shape = (grid.radial_nodes.size, grid.theta_nodes.size, grid.phi_nodes.size)
    vals = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    want = analysis_fl_dense(vals, grid, band)
    got = sb.analysis_fl(vals, grid, band).values
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
    flat = sb.analysis_fl(vals.reshape(shape[0], -1), grid, band).values
    assert np.array_equal(flat, got)


def test_analysis_memory_stays_below_the_harmonic_table():
    # the (L^2, 2 L^2) complex Y_lm table alone is 32 MB at this band
    band = sb.FourierLaguerreBand(32, 32)
    grid = transforms.analysis_grid(band)
    vals = np.ones((grid.radial_nodes.size, grid.angular_weights.size), dtype=complex)
    tracemalloc.start()
    try:
        sb.analysis_fl(vals, grid, band)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


def test_analysis_rejects_grids_the_fft_cannot_serve():
    band = sb.FourierLaguerreBand(4, 4)
    grid = transforms.analysis_grid(band)
    vals = np.ones((grid.radial_nodes.size, grid.angular_weights.size))
    shifted = dataclasses.replace(grid, phi_nodes=grid.phi_nodes + 0.1)
    with pytest.raises(ValueError, match="azimuths are not"):
        sb.analysis_fl(vals, shifted, band)
    n_t, n_p = grid.theta_nodes.size, 2 * band.L - 2
    coarse = dataclasses.replace(
        grid, phi_nodes=2 * math.pi * np.arange(n_p) / n_p,
        angular_weights=np.repeat(grid.angular_weights[::grid.phi_nodes.size],
                                  n_p) * grid.phi_nodes.size / n_p)
    with pytest.raises(ValueError, match="needs at least 7"):
        sb.analysis_fl(vals[:, :n_t * n_p], coarse, band)


# ---------------------------------------------------------------------------
# Fourier-Bessel synthesis
# ---------------------------------------------------------------------------

def test_fb_synthesis_single_coefficient():
    band = sb.FourierBesselBand(1.2, 3, 8)
    w = fb_k_weights(band)
    n = 4  # interior sample, weight dk
    vec = np.zeros(band.size, dtype=complex)
    vec[band.flat_index(1, 0, n)] = 1.0
    c = sb.HarmonicCoeffs(vec, band)
    p = sb.BallPoint(7.0, 0.9, 0.4)
    k = band.k_samples[n - 1]
    x_val = (math.sqrt(2 / math.pi) * k * spherical_bessel_j(1, k * p.r)
             * spherical_harmonic(1, 0, p.theta, p.phi))
    got = sb.synthesis_fb(c, [p])[0]
    assert got == pytest.approx(w[n - 1] * x_val, rel=1e-13)
    assert w[n - 1] == pytest.approx(band.dk)


def test_fb_synthesis_linearity(rng):
    band = sb.FourierBesselBand(1.0, 3, 6)
    x = random_coeffs(band, rng)
    y = random_coeffs(band, rng)
    pts = [sb.BallPoint(8.0, 1.2, 0.3)]
    a, b = 0.3 + 1.1j, -2.0
    lhs = sb.synthesis_fb(sb.HarmonicCoeffs(a * x.values + b * y.values, band), pts)
    rhs = a * sb.synthesis_fb(x, pts) + b * sb.synthesis_fb(y, pts)
    assert np.abs(lhs - rhs).max() < 1e-13 * max(1.0, np.abs(rhs).max())


def _azimuths(n_phi):
    return 2 * math.pi * np.arange(n_phi) / n_phi


def _grid_points(r, theta, n_phi):
    """(N, 3) points (r, theta, phi) of radii x colatitudes x uniform azimuths, C order."""
    R, T, Ph = np.meshgrid(r, theta, _azimuths(n_phi), indexing="ij")
    return np.column_stack([R.ravel(), T.ravel(), Ph.ravel()])


@pytest.mark.parametrize("band", [sb.FourierLaguerreBand(3, 3), sb.FourierBesselBand(1.2, 3, 5)],
                         ids=["fl", "fb"])
def test_synthesis_separable_matches_pointwise_oracles(band, rng):
    values = np.array([random_coeffs(band, rng).values for _ in range(3)])
    r = np.array([2.0, 7.5, 13.0, 21.0])
    theta, n_phi = np.linspace(0.1, 3.0, 5), 3
    got = transforms.synthesis_separable(values, band, r, theta, n_phi)
    assert got.shape == (3, r.size, theta.size, n_phi)
    fl = isinstance(band, sb.FourierLaguerreBand)
    oracle = synthesis_fl_scalar if fl else synthesis_fb_per_degree
    pointwise = sb.synthesis_fl if fl else sb.synthesis_fb
    pts = _grid_points(r, theta, n_phi)
    for c, vals in enumerate(values):
        want = oracle(sb.HarmonicCoeffs(vals, band), pts)
        tol = 1e-13 * np.abs(want).max()
        assert np.abs(got[c].ravel() - want).max() <= tol
        assert np.abs(pointwise(sb.HarmonicCoeffs(vals, band), pts) - want).max() <= tol
    # the pointwise path works through more points than one chunk
    theta = np.linspace(0.05, 3.1, 300)
    grid = transforms.synthesis_separable(values[:1], band, r[:2], theta, 2)[0]
    pts = _grid_points(r[:2], theta, 2)
    assert pts.shape[0] > 512
    got = pointwise(sb.HarmonicCoeffs(values[0], band), pts)
    assert np.abs(got - grid.ravel()).max() <= 1e-13 * np.abs(grid).max()
    assert transforms.synthesis_separable(values[:0], band, r, theta, 2).shape == (0, 4, 300, 2)
    with pytest.raises(ValueError, match="band needs"):
        transforms.synthesis_separable(values[:, 1:], band, r, theta, 2)
    with pytest.raises(ValueError, match="n_phi must be >= 1"):
        transforms.synthesis_separable(values, band, r, theta, 0)


@pytest.mark.parametrize("n_phi", [1, 3, 10], ids=["one", "folded", "2L"])
@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("band", [sb.FourierLaguerreBand(4, 5), sb.FourierBesselBand(1.2, 5, 6)],
                         ids=["fl", "fb"])
def test_synthesis_separable_matches_dense_route(band, dtype, n_phi, rng):
    # n_phi = 3 < 2L - 1 folds the orders +-3 and +-4 onto the bins of others
    values = rng.normal(size=(3, band.size)).astype(dtype)
    if dtype is complex:
        values += 1j * rng.normal(size=values.shape)
    r, theta = np.array([1.5, 6.0, 17.0]), np.linspace(0.05, 3.1, 7)
    T, Ph = np.meshgrid(theta, _azimuths(n_phi), indexing="ij")
    want = synthesis_separable_dense(values, band, r, T.ravel(), Ph.ravel())
    got = transforms.synthesis_separable(values, band, r, theta, n_phi)
    assert got.shape == (3, r.size, theta.size, n_phi)
    assert np.abs(got.reshape(want.shape) - want).max() <= 1e-13 * np.abs(want).max()
    empty = transforms.synthesis_separable(values[:0], band, r, theta, n_phi)
    assert empty.shape == (0, r.size, theta.size, n_phi)


def test_synthesis_fl_grid_folds_coarse_azimuths_and_rejects_others(rng):
    band = sb.FourierLaguerreBand(4, 4)
    c = random_coeffs(band, rng)
    grid = transforms.analysis_grid(band)
    n_p = 3
    coarse = dataclasses.replace(grid, phi_nodes=_azimuths(n_p))
    got = sb.synthesis_fl_grid(c, coarse)
    assert got.shape == (grid.radial_nodes.size, grid.theta_nodes.size, n_p)
    want = synthesis_fl_scalar(c, _grid_points(grid.radial_nodes[:2], grid.theta_nodes, n_p))
    assert np.abs(got[:2].ravel() - want).max() <= 1e-13 * np.abs(want).max()
    shifted = dataclasses.replace(grid, phi_nodes=grid.phi_nodes + 0.1)
    with pytest.raises(ValueError, match="azimuths are not"):
        sb.synthesis_fl_grid(c, shifted)


def test_scaled_grid_synthesis_bounded_memory_round_trip(rng):
    # P = L = 64: the dense Y_lm route traced about 526 MB here
    band = sb.FourierLaguerreBand(64, 64)
    c = random_coeffs(band, rng)
    grid = transforms.analysis_grid(band)
    tracemalloc.start()
    try:
        vals = sb.synthesis_fl_grid(c, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64e6
    back = sb.analysis_fl(vals, grid, band)
    assert np.abs(back.values - c.values).max() < 1e-10


def _order_vectors(band, orders):
    """Eigenvectors of the reference product region, the first of each azimuthal order."""
    solve = sb.solve_fl if isinstance(band, sb.FourierLaguerreBand) else sb.solve_fb
    res = solve(sb.ProductSymmetric(15.0, 25.0, T1, T2), band, keep=None)
    ranks = [int(np.flatnonzero(res.orders == m)[0]) for m in orders]
    return res._stack(np.array(ranks)).T


@pytest.mark.parametrize("band", [sb.FourierLaguerreBand(5, 8), sb.FourierBesselBand(1.0, 8, 10)],
                         ids=["fl", "fb"])
def test_synthesis_separable_of_one_order_builds_one_legendre_table(band, monkeypatch):
    values = _order_vectors(band, [2, -2])
    calls = []
    table = specfun.norm_alf_table
    monkeypatch.setattr(specfun, "norm_alf_table", lambda L, m, th: calls.append(m) or
                        table(L, m, th))
    transforms.synthesis_separable(values, band, np.array([16.0, 20.0]), np.linspace(0, 3, 4), 5)
    assert calls == [2]


@pytest.mark.parametrize("band", [sb.FourierLaguerreBand(5, 8), sb.FourierBesselBand(1.0, 8, 10)],
                         ids=["fl", "fb"])
def test_synthesis_separable_rows_do_not_depend_on_the_rest_of_the_stack(band):
    # guard: the orders another vector occupies add exact zeros to this one
    v2, v5 = _order_vectors(band, [2, 5])
    r, theta = np.array([16.0, 20.0, 24.0]), np.linspace(0.0, math.pi, 5)
    for n_phi in (1, 3, 16):
        both = transforms.synthesis_separable(np.array([v2, v5]), band, r, theta, n_phi)
        one = transforms.synthesis_separable(v2[None], band, r, theta, n_phi)
        assert both[0].tobytes() == one[0].tobytes()


@pytest.mark.parametrize("band", [sb.FourierLaguerreBand(5, 8), sb.FourierBesselBand(1.0, 8, 10)],
                         ids=["fl", "fb"])
def test_synthesis_separable_rows_do_not_depend_on_what_it_holds(band):
    # guard: one order-2 vector on 50 colatitudes and 40 copies of it give the
    # same bytes in every row, whatever the stack's size
    v2 = _order_vectors(band, [2])
    r, theta = np.array([16.0, 20.0, 24.0]), np.linspace(0.0, math.pi, 50)
    one = transforms.synthesis_separable(v2, band, r, theta, 3)
    many = transforms.synthesis_separable(np.repeat(v2, 40, axis=0), band, r, theta, 3)
    assert all(row.tobytes() == one[0].tobytes() for row in many)


@pytest.mark.parametrize("count", [1, 2])
def test_dense_stack_on_many_colatitudes_holds_one_table_at_a_time(rng, count):
    # dense vectors at L = 32 on 2,000 colatitudes: the tables of all 32
    # orders come to 528 x 2,000 doubles (8.4 MB); one order's table is held
    # at a time
    band = sb.FourierLaguerreBand(2, 32)
    values = rng.standard_normal((count, band.size))
    r, theta = np.linspace(1.0, 40.0, 4), np.linspace(0.0, math.pi, 2000)
    transforms.synthesis_separable(values, band, r, theta[:3], 1)
    tracemalloc.start()
    try:
        maps = transforms.synthesis_separable(values, band, r, theta, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert maps.shape == (count, 4, 2000, 1)
    assert peak <= 3e6


def test_dense_stack_holds_one_order_at_a_time(rng):
    # 4 dense vectors at P = 2, L = 64 on 64 radii x 64 colatitudes: the
    # tables of all 64 orders take 2,080 x 64 doubles (1.06 MB) and the
    # stack's radial sums 4 x 4,096 x 64 (8.4 MB); one order's sums and table
    # next to the 0.26 MB of output stay below either
    band = sb.FourierLaguerreBand(2, 64)
    values = rng.standard_normal((4, band.size))
    r, theta = np.linspace(1.0, 40.0, 64), np.linspace(0.0, math.pi, 64)
    transforms.synthesis_separable(values, band, r[:2], theta[:3], 1)
    tracemalloc.start()
    try:
        maps = transforms.synthesis_separable(values, band, r, theta, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert maps.shape == (4, 64, 64, 1)
    assert peak < 1.0e6


def test_reference_eigenfunction_maps_stay_below_the_whole_radial_sums(ref_region, ref_fl_band):
    # the 12 order-2 maps of `eigen --order 2 --grid 64,48`: the radial sums
    # of all 12 vectors' every row would be (12, 400, 64) doubles, 2.5 MB;
    # those of order 2's rows take 0.1 MB
    band = ref_fl_band
    res = sb.solve_fl(ref_region, band, keep=None)
    ranks = np.flatnonzero(res.orders == 2)[:12]
    rs, ts = np.linspace(50.0 / 64, 50.0, 64), np.linspace(0.0, math.pi, 48)
    tracemalloc.start()
    try:
        maps = transforms.synthesis_separable(res._stack(ranks).T, band, rs, ts, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert maps.shape == (12, 64, 48, 1)
    assert peak <= 3e6


def test_point_arrays_reject_other_shapes(rng):
    band = sb.FourierLaguerreBand(3, 3)
    c = random_coeffs(band, rng)
    region = sb.ProductSymmetric(15.0, 25.0, T1, T2)
    # a fourth column was dropped, and two columns raised IndexError
    for pts in (np.array([[2.0, 0.5, 0.5, 99.0]]), np.array([[2.0, 0.5]]), np.zeros((2, 3, 1)),
                np.array([2.0, 0.5])):
        with pytest.raises(ValueError, match=r"points need shape \(N, 3\) or \(3,\)"):
            sb.synthesis_fl(c, pts)
        with pytest.raises(ValueError, match=r"points need shape"):
            sb.space_limit(c, 0.5, region).evaluate(pts)
    one = np.array([2.0, 0.5, 0.5])
    assert np.array_equal(sb.synthesis_fl(c, one), sb.synthesis_fl(c, one[None]))


def test_point_lists_work_like_arrays(rng):
    # a nested list of coordinates used to be read as BallPoints: AttributeError
    c = random_coeffs(sb.FourierLaguerreBand(3, 3), rng)
    pts = [[2.0, 0.5, 0.5], [7.0, 1.5, 4.0]]
    want = sb.synthesis_fl(c, np.array(pts))
    assert np.array_equal(sb.synthesis_fl(c, pts), want)
    assert np.array_equal(sb.synthesis_fl(c, pts[0]), want[:1])
    balls = [sb.BallPoint(*p) for p in pts]
    assert np.array_equal(sb.synthesis_fl(c, balls), want)
    for bad in ([[2.0, 0.5, 0.5], [7.0, 1.5]], [balls[0], [7.0, 1.5, 4.0]]):
        with pytest.raises(ValueError, match=r"points need shape \(N, 3\) or \(3,\)"):
            sb.synthesis_fl(c, bad)


# ---------------------------------------------------------------------------
# one synthesis for both bands; points; module order
# ---------------------------------------------------------------------------

def test_band_named_synthesis_entry_points_are_one_function():
    assert transforms.synthesis_fl is transforms.synthesis_fb is transforms.synthesis
    assert sb.synthesis_fl is sb.synthesis_fb is transforms.synthesis


def test_fb_coefficients_through_fl_named_entry_points(rng):
    # synthesis_fl and synthesis_fl_grid take coefficients of either band
    band = sb.FourierBesselBand(1.0, 4, 8)
    c = random_coeffs(band, rng)
    grid = transforms.region_energy_grid(sb.ProductSymmetric(15.0, 25.0, T1, T2), band)
    pts = _grid_points(grid.radial_nodes, grid.theta_nodes, grid.phi_nodes.size)
    want = sb.synthesis_fb(c, pts)
    assert np.array_equal(sb.synthesis_fl(c, pts), want)
    got = sb.synthesis_fl_grid(c, grid)
    assert got.shape == (grid.radial_nodes.size, grid.theta_nodes.size, grid.phi_nodes.size)
    assert np.abs(got.ravel() - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("row", [(-1.0, 0.5, 0.5), (2.0, 4.0, 0.5), (2.0, -0.1, 0.5),
                                 (math.nan, 0.5, 0.5), (math.inf, 0.5, 0.5),
                                 (2.0, math.nan, 0.5), (2.0, 0.5, math.nan), (2.0, 0.5, -math.inf)],
                         ids=["r<0", "theta>pi", "theta<0", "r-nan", "r-inf", "theta-nan",
                              "phi-nan", "phi-inf"])
def test_point_arrays_reject_invalid_points(row, rng):
    band = sb.FourierLaguerreBand(3, 3)
    c = random_coeffs(band, rng)
    region = sb.ProductSymmetric(15.0, 25.0, T1, T2)
    pts = np.array([[2.0, 0.5, 0.5], row])
    with pytest.raises(ValueError, match="points need finite"):
        sb.synthesis_fl(c, pts)
    with pytest.raises(ValueError, match="points need finite"):
        sb.space_limit(c, 0.5, region).evaluate(pts)


@pytest.mark.parametrize("r, theta", [(-1.0, 0.5), (math.nan, 0.5), (math.inf, 0.5),
                                      (2.0, math.nan), (2.0, 4.0), (2.0, -0.1)],
                         ids=["r<0", "r-nan", "r-inf", "theta-nan", "theta>pi", "theta<0"])
@pytest.mark.parametrize("band", [sb.FourierLaguerreBand(3, 3), sb.FourierBesselBand(1.2, 3, 5)],
                         ids=["fl", "fb"])
def test_synthesis_separable_rejects_invalid_coordinates(band, r, theta, rng):
    # the grid route takes the radii and colatitudes that synthesis takes as points
    values = np.array([random_coeffs(band, rng).values])
    with pytest.raises(ValueError, match="points need finite"):
        transforms.synthesis_separable(values, band, np.array([2.0, r]),
                                       np.array([0.5, theta]), 3)


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, math.nan)])
@pytest.mark.parametrize("band", [sb.FourierLaguerreBand(3, 3), sb.FourierBesselBand(1.2, 3, 5)],
                         ids=["fl", "fb"])
def test_synthesis_separable_rejects_non_finite_coefficients(band, bad, rng):
    # as HarmonicCoeffs does for synthesis; the rest of the stack is finite
    values = np.array([random_coeffs(band, rng).values for _ in range(2)])
    values[1, band.size // 2] = bad
    with pytest.raises(ValueError, match="non-finite"):
        transforms.synthesis_separable(values, band, np.array([2.0, 7.0]),
                                       np.linspace(0.1, 3.0, 4), 3)


def test_point_arrays_take_any_finite_azimuth(rng):
    # the azimuth is periodic: phi outside [0, 2 pi) is the same point
    band = sb.FourierLaguerreBand(3, 3)
    c = random_coeffs(band, rng)
    got = sb.synthesis_fl(c, np.array([[2.0, 0.5, 0.5 + 2 * math.pi], [2.0, 0.5, -5.0]]))
    want = sb.synthesis_fl(c, np.array([[2.0, 0.5, 0.5], [2.0, 0.5, 2 * math.pi - 5.0]]))
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


_MODULE_ORDER = ["specfun", "regions", "kernels", "eigen", "transforms", "csvout", "cli"]


def _package_imports(tree):
    """Package modules named by the imports anywhere in `tree`, function bodies included."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if module.partition(".")[0] != "slepian_ball":
                    continue
                module = module.partition(".")[2]
            if module:
                yield module.partition(".")[0]
            else:
                yield from (a.name for a in node.names)
        elif isinstance(node, ast.Import):
            yield from (a.name.split(".")[1] for a in node.names
                        if a.name.startswith("slepian_ball."))


def test_modules_import_downward_only():
    # specfun <- regions <- kernels <- eigen <- transforms <- csvout <- cli, at every level
    src = Path(sb.__file__).parent
    assert {p.stem for p in src.glob("*.py")} - {"__init__", "__main__"} == set(_MODULE_ORDER)
    upward = [(name, target) for rank, name in enumerate(_MODULE_ORDER)
              for target in _package_imports(ast.parse((src / f"{name}.py").read_text()))
              if _MODULE_ORDER.index(target) >= rank]
    assert upward == []


# ---------------------------------------------------------------------------
# Slepian projection
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def small_basis():
    region = sb.ProductSymmetric(15.0, 25.0, T1, T2)
    band = sb.FourierLaguerreBand(6, 5)
    return sb.solve_fl(region, band)


def test_project_eigenfunction_gives_unit_vector(small_basis):
    h = small_basis.coeffs(7)
    h_alpha = sb.slepian_coeffs(h, small_basis)
    expect = np.zeros(len(small_basis))
    expect[7] = 1.0
    assert np.abs(h_alpha - expect).max() < 1e-12


def test_projection_energy_identity(small_basis, rng):
    h = random_coeffs(small_basis.band, rng)
    h_alpha = sb.slepian_coeffs(h, small_basis)
    assert np.sum(np.abs(h_alpha) ** 2) == pytest.approx(
        np.sum(np.abs(h.values) ** 2), rel=1e-12)


def test_truncate_full_count_is_exact(small_basis, rng):
    h = random_coeffs(small_basis.band, rng)
    h_alpha = sb.slepian_coeffs(h, small_basis)
    back = sb.truncate_reconstruct(h_alpha, small_basis, len(small_basis))
    assert np.abs(back.values - h.values).max() < 1e-12


def test_truncate_zero_gives_zero(small_basis, rng):
    h_alpha = sb.slepian_coeffs(random_coeffs(small_basis.band, rng), small_basis)
    back = sb.truncate_reconstruct(h_alpha, small_basis, 0)
    assert np.abs(back.values).max() == 0.0


def test_truncate_range_error(small_basis):
    with pytest.raises(ValueError):
        sb.truncate_reconstruct(np.ones(4), small_basis, 5)


def test_quality_full_is_one(small_basis, rng):
    h_alpha = sb.slepian_coeffs(random_coeffs(small_basis.band, rng), small_basis)
    assert sb.quality_measure(h_alpha, small_basis, h_alpha.size) == 1.0


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_quality_monotone(small_basis, seed):
    rng = np.random.default_rng(seed)
    h_alpha = rng.normal(size=len(small_basis)) + 1j * rng.normal(size=len(small_basis))
    qs = [sb.quality_measure(h_alpha, small_basis, j)
          for j in range(0, len(small_basis) + 1, 25)]
    assert all(b >= a - 1e-15 for a, b in zip(qs, qs[1:]))


def test_quality_zero_energy_guard(small_basis):
    with pytest.raises(ZeroDivisionError):
        sb.quality_measure(np.zeros(len(small_basis)), small_basis, 1)


def test_quality_closed_form_matches_spatial_definition(rng):
    # both sides of the identity by quadrature at P = L = 8
    region = sb.ProductSymmetric(15.0, 25.0, T1, T2)
    band = sb.FourierLaguerreBand(8, 8)
    basis = sb.solve_fl(region, band)
    h = random_coeffs(band, rng)
    h_alpha = sb.slepian_coeffs(h, basis)
    J = 40
    q_closed = sb.quality_measure(h_alpha, basis, J)
    grid = transforms.region_energy_grid(region, band)
    trunc = sb.truncate_reconstruct(h_alpha, basis, J)
    vals_J = sb.synthesis_fl_grid(trunc, grid).reshape(grid.radial_nodes.size, -1)
    vals_f = sb.synthesis_fl_grid(h, grid).reshape(grid.radial_nodes.size, -1)

    def region_energy(v):
        return float((np.sum(np.abs(v) ** 2 * grid.angular_weights, axis=1)
                      @ grid.radial_weights).real)

    q_spatial = region_energy(vals_J) / region_energy(vals_f)
    assert q_closed == pytest.approx(q_spatial, abs=1e-6)


def test_band_mismatch_error(small_basis, rng):
    other = sb.FourierLaguerreBand(3, 3)
    h = random_coeffs(other, rng)
    with pytest.raises(ValueError):
        sb.slepian_coeffs(h, small_basis)
