"""Eigen-solver tests: spectra, orthogonality, duals, rotation, ordering."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

import slepian_ball as sb
from oracles import (complex_vector_stack, dense_solve, mask_dense_angular,
                     padded_block_merge, rotate_jacobi, spectrum_sort_key)
from slepian_ball import cli, eigen, kernels, specfun, transforms

T1, T2 = math.pi / 8, 3 * math.pi / 8


def _sloped_band(n: int):
    """0.3 + 0.02 (r - 15) < theta < 1.2 on [15, 25], n x n nodes: an
    azimuthally symmetric region whose colatitudes depend on the radius."""
    return sb.AzimuthallySymmetric.from_indicator(
        lambda r, t: ((t > 0.3 + 0.02 * (r - 15.0)) & (t < 1.2)).astype(float),
        15.0, 25.0, n_r=n, n_theta=n)


def region_quadrature_inner(values_a, values_b, grid):
    """int_R f g* dv from samples on a region energy grid."""
    n_r = grid.radial_nodes.size
    va = values_a.reshape(n_r, -1)
    vb = values_b.reshape(n_r, -1)
    ang = np.sum(va * np.conj(vb) * grid.angular_weights, axis=1)
    return complex(ang @ grid.radial_weights)


# ---------------------------------------------------------------------------
# Fourier-Laguerre solve
# ---------------------------------------------------------------------------

def test_full_ball_identity_kernel():
    band = sb.FourierLaguerreBand(4, 4)
    res = sb.solve_fl(sb.full_ball(), band)
    assert len(res) == band.size
    assert np.abs(res.eigenvalues - 1.0).max() < 1e-10
    assert res.shannon == pytest.approx(band.size, rel=1e-12)


def test_full_ball_identity_kernel_at_large_P():
    # the half-line rule's outer nodes reach r = 1594 at P = 400
    band = sb.FourierLaguerreBand(400, 2)
    assert sb.shannon_fl(sb.full_ball(), band) == pytest.approx(1600.0, rel=1e-13)
    res = sb.solve_fl(sb.full_ball(), band)
    assert np.abs(res.eigenvalues - 1.0).max() < 1e-10


def test_product_eigenvalues_are_factor_products(ref_region):
    band = sb.FourierLaguerreBand(6, 5)
    res = sb.solve_fl(ref_region, band)
    for a in range(40):
        assert res.eigenvalues[a] == pytest.approx(
            res.lam_radial[a] * res.lam_angular[a], abs=1e-15)


def test_product_matches_dense_fixed_order_solve(ref_region):
    # dense oracle: assemble the m = 2 block from E and G entries and solve it
    band = sb.FourierLaguerreBand(6, 5)
    m = 2
    E = sb.E_matrix(band.P, ref_region.R1, ref_region.R2)
    G = sb.G_matrix(m, band.L, ref_region.theta1, ref_region.theta2)
    dense = np.kron(G, E)
    lam_dense = np.linalg.eigvalsh(dense)[::-1]
    res = sb.solve_fl(ref_region, band)
    lam_sep = np.sort(res.eigenvalues[res.orders == m])[::-1]
    assert np.abs(lam_dense - lam_sep).max() < 1e-8


def test_eigenvalue_sum_matches_shannon(ref_region):
    band = sb.FourierLaguerreBand(8, 6)
    res = sb.solve_fl(ref_region, band)
    assert res.eigenvalues.sum() == pytest.approx(res.shannon, rel=1e-6)


def test_degenerate_clusters_as_projectors(ref_region):
    # individual vectors inside a near-degenerate cluster are basis-dependent;
    # the spanned subspaces must agree between the separated solve and a
    # dense fixed-order solve
    band = sb.FourierLaguerreBand(6, 5)
    m = 2
    E = sb.E_matrix(band.P, ref_region.R1, ref_region.R2)
    G = sb.G_matrix(m, band.L, ref_region.theta1, ref_region.theta2)
    lam_dense, W = np.linalg.eigh(np.kron(G, E))
    lam_dense, W = lam_dense[::-1], W[:, ::-1]
    res = sb.solve_fl(ref_region, band)
    picks = [(res.eigenvalues[a], a) for a in np.flatnonzero(res.orders == m)]
    lam_sep = np.array([p[0] for p in picks])
    # cluster boundaries where the gap exceeds the degeneracy tolerance
    edges = [0]
    for i in range(1, lam_sep.size):
        if lam_sep[i - 1] - lam_sep[i] > 1e-8:
            edges.append(i)
    edges.append(lam_sep.size)
    P_band = band.P
    for lo, hi in zip(edges[:-1], edges[1:]):
        dense_block = W[:, lo:hi]
        sep_cols = []
        for _, a in picks[lo:hi]:
            full = res.coeffs(a).values
            block = np.concatenate([
                full[(l * l + l + m) * P_band:(l * l + l + m + 1) * P_band]
                for l in range(m, band.L)
            ])
            sep_cols.append(block.real)
        sep_block = np.column_stack(sep_cols)
        proj_dense = dense_block @ dense_block.T
        proj_sep = sep_block @ sep_block.T
        assert np.abs(proj_dense - proj_sep).max() < 1e-8


def test_reference_fl_spectrum(ref_fl):
    assert ref_fl.eigenvalues.sum() == pytest.approx(403.21, abs=0.5)
    assert ref_fl.eigenvalues.sum() == pytest.approx(ref_fl.shannon, rel=1e-6)
    lo, hi = ref_fl.raw_eigenvalue_range
    assert lo > -1e-9 and hi < 1 + 1e-9


def test_scaled_fl_spectrum_bounds(ref_region):
    # L = P = 64: the angular factors must stay inside the projection bounds
    res = sb.solve_fl(ref_region, sb.FourierLaguerreBand(64, 64), keep=1)
    lo, hi = res.raw_eigenvalue_range
    assert lo >= -1e-9 and hi <= 1 + 1e-9
    assert abs(res.eigenvalues.sum() - res.shannon) / res.shannon < 1e-6


def test_long_fl_interval_solves_as_the_half_line():
    # tr E(1000, inf) < 1e-16 at P = 31, so [15, 1000] takes the half-line
    # rule; it used to read N = 1992.148 and a top eigenvalue of 1.9995
    band = sb.FourierLaguerreBand(31, 20)
    region = sb.ProductSymmetric(15.0, 1000.0, 0.39, 1.18)
    n = sb.shannon_fl(region, band)
    assert round(n, 3) == 1992.587
    assert n == sb.shannon_fl(sb.ProductSymmetric(15.0, math.inf, 0.39, 1.18), band)
    lo, hi = sb.solve_fl(region, band, keep=0).raw_eigenvalue_range
    assert 0.0 <= lo and hi <= 1.0


def test_eigenvalue_transition_width(ref_fl):
    n_half = int((ref_fl.eigenvalues >= 0.5).sum())
    assert abs(n_half - ref_fl.shannon) < 0.05 * ref_fl.shannon


def test_fb_eigenvalue_transition_width(ref_fb):
    n_half = int((ref_fb.eigenvalues >= 0.5).sum())
    assert abs(n_half - ref_fb.shannon) < 0.05 * ref_fb.shannon


def test_fl_kernel_trace_matches_shannon(ref_region):
    # trace of the assembled kernel equals the independently computed
    # Shannon integral
    band = sb.FourierLaguerreBand(7, 6)
    E = sb.E_matrix(band.P, ref_region.R1, ref_region.R2)
    g_total = sum(
        (2.0 if m > 0 else 1.0)
        * np.trace(sb.G_matrix(m, band.L, ref_region.theta1, ref_region.theta2))
        for m in range(band.L))
    assert np.trace(E) * g_total == pytest.approx(
        sb.shannon_fl(ref_region, band), rel=1e-9)


def test_deterministic_ordering(ref_region):
    band = sb.FourierLaguerreBand(5, 4)
    r1 = sb.solve_fl(ref_region, band)
    r2 = sb.solve_fl(ref_region, band)
    assert np.array_equal(r1.eigenvalues, r2.eigenvalues)
    assert np.array_equal(r1.orders, r2.orders)
    # lam descending, m ascending within exact ties
    lams = r1.eigenvalues
    assert np.all(np.diff(lams) <= 1e-15)


def test_coefficient_orthonormality(ref_fl):
    F = ref_fl.vectors(20)
    gram = F.conj().T @ F
    assert np.abs(gram - np.eye(20)).max() < 1e-12


def test_full_domain_orthonormality_by_quadrature(ref_region):
    band = sb.FourierLaguerreBand(6, 5)
    res = sb.solve_fl(ref_region, band)
    grid = transforms.analysis_grid(band)
    n = 8
    vals = [transforms.synthesis_fl_grid(res.coeffs(a), grid).reshape(-1)
            for a in range(n)]
    n_r = grid.radial_nodes.size
    for a in range(n):
        for b in range(n):
            va = vals[a].reshape(n_r, -1)
            vb = vals[b].reshape(n_r, -1)
            ip = complex(np.sum(va * np.conj(vb) * grid.angular_weights, axis=1)
                         @ grid.radial_weights)
            assert abs(ip - (1.0 if a == b else 0.0)) < 1e-9


def test_region_orthogonality_by_quadrature(ref_region):
    band = sb.FourierLaguerreBand(6, 5)
    res = sb.solve_fl(ref_region, band)
    grid = transforms.region_energy_grid(ref_region, band)
    n = 8
    vals = [transforms.synthesis_fl_grid(res.coeffs(a), grid).reshape(-1)
            for a in range(n)]
    for a in range(n):
        for b in range(n):
            ip = region_quadrature_inner(vals[a], vals[b], grid)
            expect = res.eigenvalues[a] if a == b else 0.0
            assert abs(ip - expect) < 1e-8


def test_mask_solve_matches_band_mask(ref_region):
    # a band encoded as a pixel mask must reproduce the product-region spectrum
    band = sb.FourierLaguerreBand(5, 8)
    mask = sb.AngularMask.band(T1, T2, band.L)
    pm = sb.ProductMask(mask, ref_region.R1, ref_region.R2)
    res_mask = sb.solve_fl(pm, band)
    res_prod = sb.solve_fl(ref_region, band)
    assert np.abs(res_mask.eigenvalues - res_prod.eigenvalues).max() < 1e-9
    assert res_mask.shannon == pytest.approx(res_prod.shannon, rel=1e-10)


def test_azimuthally_symmetric_solve_matches_product(ref_region):
    band = sb.FourierLaguerreBand(4, 4)
    # full colatitude range, radial interval via the grid bounds
    reg = sb.AzimuthallySymmetric.from_indicator(
        lambda r, t: np.ones_like(r), ref_region.R1, ref_region.R2,
        n_r=40, n_theta=24)
    prod = sb.ProductSymmetric(ref_region.R1, ref_region.R2, 0.0, math.pi)
    res_a = sb.solve_fl(reg, band)
    res_p = sb.solve_fl(prod, band)
    assert np.abs(res_a.eigenvalues - res_p.eigenvalues).max() < 1e-9


def test_semi_infinite_radial_interval():
    reg = sb.ProductSymmetric(15.0, math.inf, T1, T2)
    band = sb.FourierLaguerreBand(6, 4)
    res = sb.solve_fl(reg, band)
    assert res.eigenvalues.sum() == pytest.approx(res.shannon, rel=1e-9)
    lo, hi = res.raw_eigenvalue_range
    assert lo > -1e-9 and hi < 1 + 1e-9


def test_union_solve_additive_shannon():
    band = sb.FourierLaguerreBand(4, 4)
    u = sb.RegionUnion((sb.ProductSymmetric(2, 5, 0.3, 1.0),
                        sb.ProductSymmetric(8, 12, 0.3, 1.0)))
    res = sb.solve_fl(u, band)
    assert res.shannon == pytest.approx(
        sb.shannon_fl(u.members[0], band) + sb.shannon_fl(u.members[1], band),
        rel=1e-12)
    assert res.eigenvalues.sum() == pytest.approx(res.shannon, rel=1e-6)


def test_solver_rejects_oriented_region():
    band = sb.FourierLaguerreBand(3, 3)
    reg = sb.ProductSymmetric(1, 2, 0.2, 0.9, orientation=(0.4, 0.1))
    with pytest.raises(ValueError):
        sb.solve_fl(reg, band)


@pytest.mark.parametrize("solve, band", [(sb.solve_fl, sb.FourierLaguerreBand(3, 3)),
                                         (sb.solve_fb, sb.FourierBesselBand(1.0, 3, 5))],
                         ids=["solve_fl-band0", "solve_fb-band1"])  # one function, two names
def test_solver_rejects_unsupported_region(solve, band):
    with pytest.raises(TypeError, match="class 'object'"):
        solve(object(), band)


@pytest.mark.parametrize("solve, band", [(sb.solve_fl, sb.FourierLaguerreBand(3, 3)),
                                         (sb.solve_fb, sb.FourierBesselBand(1.0, 3, 6))],
                         ids=["solve_fl-band0", "solve_fb-band1"])  # one function, two names
def test_solvers_reject_bad_keep(solve, band):
    # a negative keep used to drop each block's last vector (stored == -1)
    region = sb.ProductSymmetric(15, 16, 0.1, 0.2)
    with pytest.raises(ValueError, match="keep must be >= 0"):
        solve(region, band, keep=-1)
    for keep in (True, 2.0, "3", np.float64(1.0)):
        with pytest.raises(TypeError, match="keep must be None or an integer"):
            solve(region, band, keep=keep)
    assert solve(region, band, keep=np.int64(2)).stored == 2
    assert solve(region, band, keep=0).stored == 0


def test_keep_limits_materialization(ref_region):
    band = sb.FourierLaguerreBand(4, 4)
    res = sb.solve_fl(ref_region, band, keep=5)
    res.coeffs(4)
    assert res.vectors(0).shape == (band.size, 0)
    with pytest.raises(IndexError):
        res.coeffs(5)


NEGATIVE_RANK_CASES = {
    "fl": lambda ref: sb.solve_fl(ref, sb.FourierLaguerreBand(4, 4)),
    "fl-keep": lambda ref: sb.solve_fl(ref, sb.FourierLaguerreBand(4, 4), keep=5),
    "fb": lambda ref: sb.solve_fb(ref, sb.FourierBesselBand(1.0, 3, 8)),
}


@pytest.mark.parametrize("name", list(NEGATIVE_RANK_CASES))
def test_ranks_outside_the_spectrum_raise(name, ref_region):
    res = NEGATIVE_RANK_CASES[name](ref_region)
    for alpha in (-1, -len(res), len(res)):
        with pytest.raises(IndexError, match="outside the spectrum"):
            res.coeffs(alpha)
    with pytest.raises(IndexError, match="outside the spectrum"):
        res.vectors(-1)
    with pytest.raises(IndexError, match="outside the spectrum"):
        res.project(np.zeros(res.band.size), -1)


@pytest.mark.parametrize("name", list(NEGATIVE_RANK_CASES))
def test_project_rejects_values_of_another_length(name, ref_region):
    res = NEGATIVE_RANK_CASES[name](ref_region)
    n = res.band.size
    for length in (n - 1, n + 1):
        with pytest.raises(ValueError, match=f"length {length}, band needs {n}"):
            res.project(np.zeros(length))


VECTOR_STACK_CASES = {
    "fb-product": (lambda ref: sb.solve_fb(ref, sb.FourierBesselBand(1.0, 4, 10), keep=7),
                   np.float64),
    "fl-product": (lambda ref: sb.solve_fl(ref, sb.FourierLaguerreBand(4, 4), keep=7),
                   np.float64),
    "fl-azimuthal": (lambda ref: sb.solve_fl(sb.AzimuthallySymmetric.from_indicator(
        lambda r, t: ((t > T1) & (t < T2)).astype(float), 15.0, 25.0, n_r=16, n_theta=8),
        sb.FourierLaguerreBand(4, 4), keep=7), np.float64),
    "fl-mask": (lambda ref: sb.solve_fl(sb.ProductMask(sb.AngularMask.full_sphere_grid(
        4, indicator=lambda t, p: ((t < 1.2) & (p < 2.0)).astype(float)), 15.0, 25.0),
        sb.FourierLaguerreBand(4, 4), keep=7), np.complex128),
    "fb-union": (lambda ref: sb.solve_fb(sb.RegionUnion((
        sb.ProductSymmetric(15.0, 19.0, T1, T2), sb.ProductSymmetric(21.0, 25.0, 0.2, 0.9))),
        sb.FourierBesselBand(1.0, 4, 25), keep=7), np.float64),
    "fb-azimuthal": (lambda ref: sb.solve_fb(_sloped_band(16), sb.FourierBesselBand(1.0, 4, 25),
                                             keep=7), np.float64),
}


@pytest.mark.parametrize("name", list(VECTOR_STACK_CASES))
def test_vector_stack_is_row_major_in_the_blocks_dtype(name, ref_region, rng):
    solve, dtype = VECTOR_STACK_CASES[name]
    res = solve(ref_region)
    assert res.stored == 7
    F = res.vectors(7)
    assert F.dtype == dtype and F.flags.c_contiguous
    assert np.array_equal(F, complex_vector_stack(res, 7))
    # one gather serves any set of ranks, in any order
    ranks = np.array([6, 2, 3, 0])
    assert np.array_equal(res._stack(ranks), F[:, ranks])
    assert np.array_equal(res.coeffs(5).values, F[:, 5])
    _check_projector(res, rng)


@pytest.mark.parametrize("name", list(VECTOR_STACK_CASES))
def test_band_row_accessor_feeds_synthesis_as_the_stack_does(name, ref_region):
    # the first stored ranks (`eigen --grid`) and those of one order
    # (`--order 1`, where the region has orders), in any order: each band row
    # and each block of rows read from the reader equals the stack's, and the
    # maps synthesized from the reader equal those of the stack, bit for bit
    res = VECTOR_STACK_CASES[name][0](ref_region)
    rank_sets = [np.arange(res.stored), np.array([6, 2, 3, 0])]
    if res.orders is not None:
        rank_sets.append(np.flatnonzero(res.orders[:res.stored] == 1))
    band, L = res.band, res.band.L
    r, theta = np.array([15.5, 19.0, 24.0]), np.linspace(0.0, math.pi, 7)
    for ranks in rank_sets:
        assert ranks.size
        take, F = res._rows(ranks), res._stack(ranks)
        assert take([]).shape == (0, band.size // (L * L), ranks.size)
        assert take([]).dtype == F.dtype
        per_row = F.reshape(L * L, -1, ranks.size)
        for index in range(L * L):
            row = take([index])[0]
            assert row.flags.c_contiguous and np.array_equal(row, per_row[index])
        for m in range(L):
            for _, index, _ in specfun._signed_orders(L, m):
                block = take(index).transpose(2, 0, 1)
                gather = F.T.reshape(ranks.size, L * L, -1)[:, index]
                assert np.array_equal(block, gather)
                # the same memory layout, up to the strides of length-1 axes
                assert all(a == b for a, b, n in zip(block.strides, gather.strides, block.shape)
                           if n > 1)
        for n_phi in (1, 4):
            want = transforms.synthesis_separable(F.T, band, r, theta, n_phi)
            got = transforms.synthesis_separable(take, band, r, theta, n_phi)
            assert got.tobytes() == want.tobytes()


def test_band_row_accessor_is_checked_against_the_band(ref_region):
    res = sb.solve_fl(ref_region, sb.FourierLaguerreBand(4, 4), keep=3)
    with pytest.raises(ValueError, match="length 64, band needs 80"):
        transforms.synthesis_separable(res._rows([0]), sb.FourierLaguerreBand(5, 4),
                                       [16.0], [0.5], 1)
    with pytest.raises(IndexError, match="eigenvector 3 was not retained"):
        res._rows([3])


@pytest.mark.parametrize("name", ["reference", "fb-union", "fb-azimuthal"])
def test_fixed_order_blocks_store_radial_basis_coefficients(name, ref_region, ref_fb):
    # a block keeps its vectors over (l, radial mode), q modes per degree,
    # never lifted to the band's (l, k sample) rows
    res = ref_fb if name == "reference" else VECTOR_STACK_CASES[name][0](ref_region)
    n = res.band.size // res.band.L ** 2
    for block in res._blocks:
        nl, n_rad, q = block.Q.shape
        assert (nl, n_rad) == (block.rows.size, n) and q < n
        assert block.C.shape[0] == nl * q


def _check_projector(res, rng):
    # the block-matmul projector agrees with the materialized vectors, in the
    # band's inner product: FB weights the k samples by w_n
    h = rng.normal(size=res.band.size) + 1j * rng.normal(size=res.band.size)
    n = res.stored
    assert n > 0
    w = 1.0 if res.k_weights is None else np.tile(res.k_weights, res.band.L ** 2)
    assert np.abs(res.project(h)[:n] - res.vectors(n).conj().T @ (w * h)).max() < 1e-12


# ---------------------------------------------------------------------------
# Fourier-Bessel solve
# ---------------------------------------------------------------------------

def test_fb_solve_small(ref_region):
    band = sb.FourierBesselBand(1.0, 6, 25)
    res = sb.solve_fb(ref_region, band)
    lo, hi = res.raw_eigenvalue_range
    assert lo > -1e-6 and hi < 1 + 1e-6
    assert res.eigenvalues.sum() == pytest.approx(res.shannon, rel=0.01)


def test_fb_discretization_independence(ref_region):
    band1 = sb.FourierBesselBand(1.0, 6, 30)
    band2 = sb.FourierBesselBand(1.0, 6, 60)
    s1 = sb.solve_fb(ref_region, band1, keep=1).eigenvalues.sum()
    s2 = sb.solve_fb(ref_region, band2, keep=1).eigenvalues.sum()
    assert abs(s2 - s1) / s1 < 0.002


@pytest.mark.parametrize("band, R2, n_r", [
    (sb.FourierLaguerreBand(31, 20), 300.0, 64), (sb.FourierBesselBand(1.4, 20, 70), 25.0, 8)],
    ids=["fl", "fb"])
def test_azimuthal_region_needs_radial_nodes_for_the_band(band, R2, n_r, monkeypatch):
    # too few radial nodes for the band let the solve find eigenvalues above
    # one (1.0070 FL, 1.0008 FB) and raise ArithmeticError; now each degree's
    # radial Gram over the active radii is checked first, and one ValueError
    # names n_r before any eigensolve
    solve = sb.solve_fl if isinstance(band, sb.FourierLaguerreBand) else sb.solve_fb

    def cap(R2, n_r):
        return sb.AzimuthallySymmetric.from_indicator(
            lambda r, t: (t < 1.0).astype(float), 15.0, R2, n_r=n_r, n_theta=32)
    with monkeypatch.context() as patch:
        patch.setattr(np.linalg, "eigh", lambda *a, **k: pytest.fail("eigensolve ran"))
        with pytest.raises(ValueError, match=f"n_r = {n_r} radial nodes"):
            solve(cap(R2, n_r), band, keep=0)
        with pytest.raises(ValueError, match="raise n_r"):
            kernels.kernel_fixed_order(2, band, cap(R2, n_r))
    # a grid that resolves the band passes and solves within the bounds
    lo, hi = solve(cap(25.0, 12), band, keep=0).raw_eigenvalue_range
    assert -1e-9 <= lo and hi <= 1 + 1e-9


def test_fb_coefficient_normalization(ref_region):
    # discrete quadrature of sum_lm int |f_lm(k)|^2 dk equals one
    band = sb.FourierBesselBand(1.0, 5, 20)
    res = sb.solve_fb(ref_region, band)
    w = res.k_weights
    for a in (0, 3, 11):
        c = res.coeffs(a).values.reshape(band.L * band.L, band.M)
        total = float(np.sum(np.abs(c) ** 2 * w))
        assert total == pytest.approx(1.0, abs=1e-12)


def test_fb_project_takes_the_band_inner_product(ref_region, rng):
    # FB vectors are orthonormal under the k weights, so projecting one gives
    # a unit vector (the plain sum gave about 1/dk = 20.003 at rank 0), and
    # truncation at `stored` returns any signal in the stored span
    band = sb.FourierBesselBand(1.0, 4, 20)
    res = sb.solve_fb(ref_region, band)
    n = res.stored
    for a in (0, 1, 7, n // 2, n - 1):
        assert np.abs(res.project(res.coeffs(a).values) - np.eye(n)[a]).max() < 1e-12, a
    h = sb.HarmonicCoeffs(res.vectors(n) @ (rng.normal(size=n) + 1j * rng.normal(size=n)), band)
    back = sb.truncate_reconstruct(sb.slepian_coeffs(h, res), res, n)
    assert np.abs(back.values - h.values).max() < 1e-12 * np.abs(h.values).max()


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, -math.inf)],
                         ids=["nan", "inf", "imag-inf"])
def test_harmonic_coeffs_reject_non_finite_values(bad):
    # a NaN vector used to construct, and project gave all-NaN Slepian coefficients
    band = sb.FourierLaguerreBand(3, 3)
    values = np.ones(band.size, dtype=complex)
    values[band.size // 2] = bad
    with pytest.raises(ValueError, match="non-finite"):
        sb.HarmonicCoeffs(values, band)


def test_fb_region_energy_equals_eigenvalue(ref_region):
    band = sb.FourierBesselBand(1.0, 5, 20)
    res = sb.solve_fb(ref_region, band)
    grid = transforms.region_energy_grid(ref_region, band)
    T, P = np.meshgrid(grid.theta_nodes, grid.phi_nodes, indexing="ij")
    pts = np.column_stack([
        np.repeat(grid.radial_nodes, T.size),
        np.tile(T.ravel(), grid.radial_nodes.size),
        np.tile(P.ravel(), grid.radial_nodes.size),
    ])
    for a in (0, 2):
        vals = transforms.synthesis_fb(res.coeffs(a), pts)
        energy = region_quadrature_inner(vals, vals, grid).real
        assert energy == pytest.approx(res.eigenvalues[a], abs=1e-3)


def test_fb_azimuthally_symmetric_matches_product(ref_region):
    band = sb.FourierBesselBand(1.0, 4, 15)
    # encode the same radial shell x full colatitude both ways
    reg_a = sb.AzimuthallySymmetric.from_indicator(
        lambda r, t: np.ones_like(r), ref_region.R1, ref_region.R2,
        n_r=64, n_theta=16)
    prod = sb.ProductSymmetric(ref_region.R1, ref_region.R2, 0.0, math.pi)
    res_a = sb.solve_fb(reg_a, band)
    res_p = sb.solve_fb(prod, band)
    assert np.abs(res_a.eigenvalues - res_p.eigenvalues).max() < 1e-8


def test_fb_empty_azimuthal_region():
    region = sb.AzimuthallySymmetric.from_indicator(
        lambda r, t: np.zeros_like(r), 15.0, 25.0, n_r=8, n_theta=6)
    band = sb.FourierBesselBand(1.0, 3, 5)
    res = sb.solve_fb(region, band)
    assert len(res) == band.size and not res.eigenvalues.any()
    assert res.raw_eigenvalue_range == (0.0, 0.0)


def test_fb_reference_solve_builds_no_padding(ref_region):
    # the acceptance FB solve at M = 140, keep = 25, once a first solve has
    # cached its radial modes: 51,853 of its 56,000 entries are padding,
    # never built as arrays, so the merge sorts 4,147 entries
    band = sb.FourierBesselBand(1.4, 20, 140)
    sb.solve_fb(ref_region, band, keep=0)
    tracemalloc.start()
    try:
        res = sb.solve_fb(ref_region, band, keep=25)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(b.lam.size for b in res._blocks) < 0.1 * len(res)
    assert peak < 3.5e6


def test_fb_raw_range_counts_padded_zeros(ref_region):
    # a 2-degree band: every block is solved on its Gram side and padded
    res = sb.solve_fb(ref_region, sb.FourierBesselBand(1.0, 2, 40))
    lo, hi = res.raw_eigenvalue_range
    assert -1e-15 <= lo <= 0.0 < hi < 1.0
    assert len(res) == res.band.size


def test_fb_m_independence_to_560(ref_region, ref_fb_fine):
    s140 = ref_fb_fine.eigenvalues.sum()
    s560 = sb.solve_fb(ref_region, sb.FourierBesselBand(1.4, 20, 560),
                       keep=1).eigenvalues.sum()
    assert abs(s560 - s140) / s140 < 0.002


def _weighted_gram(res, ranks):
    w = 1.0 if res.k_weights is None else np.tile(res.k_weights, res.band.L ** 2)[:, None]
    V = np.column_stack([res.coeffs(a).values for a in ranks])
    return (V * w).conj().T @ V


def test_fb_vector_floor_reference(ref_region):
    with warnings.catch_warnings(), np.errstate(invalid="raise", divide="raise"):
        warnings.simplefilter("error")
        res = sb.solve_fb(ref_region, sb.FourierBesselBand(1.4, 20, 70), keep=25)
    assert res.stored == 25
    assert np.abs(_weighted_gram(res, range(25)) - np.eye(25)).max() < 1e-10


def test_fb_vector_floor_marks_null_space(ref_region):
    # with no keep limit every vector down to the floor is built; FL union
    # blocks go through the same block solver and floor
    union = FB_TABLE_REGIONS["union"]()
    for res in (sb.solve_fb(ref_region, sb.FourierBesselBand(1.0, 6, 25)),
                sb.solve_fl(union, sb.FourierLaguerreBand(12, 6))):
        stored = list(range(res.stored))
        # the retained vectors are a prefix of the ranks
        assert res.vectors(res.stored).shape == (res.band.size, res.stored)
        assert res.eigenvalues[len(stored) - 1] >= res.vector_floor > 0.0
        assert res.eigenvalues[len(stored)] < res.vector_floor
        for m in range(res.band.L):
            ranks = [a for a in stored if res.orders[a] == m]
            gram = _weighted_gram(res, ranks)
            assert np.abs(gram - np.eye(len(ranks))).max() < 1e-10
        with pytest.raises(IndexError, match="null space"):
            res.coeffs(len(stored))


def _record_block_eighs(monkeypatch):
    """Record (eigh size, smaller side of K_m) for every eigensolve, and the
    width q of each solve's radial basis Q.  Building the factors runs no
    eigh (their rank cuts take SVDs), so each eigh is a block's."""
    sides, dims, qs = [], [], []
    eigh, order_factors = np.linalg.eigh, kernels._order_factors

    def recording_factors(band, region):
        Q, factor = order_factors(band, region)
        qs.append(Q.shape[2])

        def recording_factor(m):
            K = factor(m)
            sides.append(min(K.shape))
            return K
        return Q, recording_factor

    def recording_eigh(a, *args, **kwargs):
        dims.append((a.shape[0], sides[-1]))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(kernels, "_order_factors", recording_factors)
    monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
    return sides, dims, qs


def test_fl_block_solve_runs_no_eigensolve_larger_than_factor(monkeypatch):
    # every reference-band union block is eigensolved on the smaller side of
    # its factor (620 x 225 at m = 0), never as a dense (L - m) P block
    band = sb.FourierLaguerreBand(31, 20)
    sides, dims, _ = _record_block_eighs(monkeypatch)
    res = sb.solve_fl(FB_TABLE_REGIONS["union"](), band)
    assert len(dims) == band.L and sides[0] == 225
    assert all(dim <= side for dim, side in dims), dims
    assert len(res) == band.size


def test_fb_product_block_solve_runs_no_eigensolve_larger_than_q_r(monkeypatch, ref_region):
    # the m = 0 Gram side is q r_0 = 13 x 13: the rank cut of the radial
    # modes (13 of the Bessel table's) and of G^0 (13 of 20) shrinks it from
    # the 400 of full factors
    band = sb.FourierBesselBand(1.4, 20, 140)
    sides, dims, _ = _record_block_eighs(monkeypatch)
    res = sb.solve_fb(ref_region, band, keep=1)
    assert len(dims) == band.L and sides[0] == 169
    assert all(dim <= side for dim, side in dims), dims
    assert max(dim for dim, _ in dims) == 169
    assert res.stored == 1


def test_fb_azimuthal_block_solve_runs_no_eigensolve_wider_than_radial_basis(monkeypatch):
    # the sloped band on 64 x 64 nodes has 1,025 active nodes; its blocks are
    # solved on K_m, no wider than (L - m) q with q = 20 radial modes of the
    # Bessel table on its 64 radii, not on the 1,025-wide node Gram side
    band = sb.FourierBesselBand(1.4, 20, 140)
    sides, dims, qs = _record_block_eighs(monkeypatch)
    res = sb.solve_fb(_sloped_band(64), band, keep=1)
    (q,) = qs
    assert len(dims) == band.L and q < band.M
    assert all(dim <= (band.L - m) * q for m, (dim, _) in enumerate(dims)), dims
    assert all(dim <= side for dim, side in dims), dims
    assert res.stored == 1


def test_fl_union_solve_builds_each_members_E_once(monkeypatch):
    # a member's radial modes (T T^T = E) do not depend on the order: the
    # blocks build each member's once per solve (not once per order), and
    # neither they nor the Shannon number, which integrates the trace
    # density on the radial rule, build E itself
    modes, E_calls, radial_modes = [], [], kernels._radial_modes

    def counting(band, R1, R2):
        modes.append((R1, R2))
        return radial_modes(band, R1, R2)

    monkeypatch.setattr(kernels, "_radial_modes", counting)
    monkeypatch.setattr(kernels, "E_matrix", lambda *args: E_calls.append(args))
    for _ in range(2):  # the second solve reads the cache, through one call per member
        modes.clear()
        sb.solve_fl(FB_TABLE_REGIONS["union"](), sb.FourierLaguerreBand(8, 6))
        assert sorted(modes) == [(15.0, 19.0), (21.0, 25.0)]
    assert E_calls == []


# (region, band, keep): the small product band, the reference band, a band
# so small that every product block takes the direct side, an
# azimuthally symmetric shell whose m = 0 block takes the Gram side and the
# others the direct side, a sloped azimuthal band (its radial basis cut from
# the table on its radii), and an FB union; then FL blocks: an azimuthally
# symmetric band (Gram side up to m = 5, direct side above), a union (Gram
# side), a union with an open shell, whose E factors fill the direct side,
# and a small union with no null space, which stores every vector of every block
FB_ORACLE_CASES = {
    "product-small": (lambda ref: ref, sb.FourierBesselBand(1.0, 6, 25), None),
    "product-ref": (lambda ref: ref, sb.FourierBesselBand(1.4, 20, 70), 25),
    "product-direct": (lambda ref: ref, sb.FourierBesselBand(1.0, 3, 8), None),
    "shell": (lambda ref: sb.AzimuthallySymmetric.from_indicator(
        lambda r, t: np.ones_like(r), 15.0, 25.0, n_r=16, n_theta=8),
        sb.FourierBesselBand(1.0, 6, 25), None),
    "fb-azimuthal": (lambda ref: _sloped_band(16), sb.FourierBesselBand(1.0, 6, 25), None),
    "fb-union": (lambda ref: sb.RegionUnion((
        sb.ProductSymmetric(15.0, 19.0, T1, T2), sb.ProductSymmetric(21.0, 25.0, 0.2, 0.9))),
        sb.FourierBesselBand(1.0, 6, 25), None),
    "fl-azimuthal": (lambda ref: sb.AzimuthallySymmetric.from_indicator(
        lambda r, t: ((t > T1) & (t < T2)).astype(float), 15.0, 25.0,
        n_r=16, n_theta=8), sb.FourierLaguerreBand(12, 8), None),
    "fl-union": (lambda ref: sb.RegionUnion((
        sb.ProductSymmetric(15.0, 19.0, T1, T2), sb.ProductSymmetric(21.0, 25.0, 0.2, 0.9))),
        sb.FourierLaguerreBand(31, 10), None),
    "fl-open-union": (lambda ref: sb.RegionUnion((
        sb.ProductSymmetric(2.0, 5.0, T1, T2), sb.ProductSymmetric(15.0, math.inf, T1, T2))),
        sb.FourierLaguerreBand(31, 10), None),
    "fl-full-union": (lambda ref: sb.RegionUnion((
        sb.ProductSymmetric(0.0, 12.0, 0.0, 2.0), sb.ProductSymmetric(14.0, 30.0, 0.5, math.pi))),
        sb.FourierLaguerreBand(4, 4), None),
}


@pytest.fixture(scope="module", params=list(FB_ORACLE_CASES))
def fb_vs_dense(request, ref_region):
    make, band, keep = FB_ORACLE_CASES[request.param]
    region = make(ref_region)
    solve = sb.solve_fl if isinstance(band, sb.FourierLaguerreBand) else sb.solve_fb
    return solve(region, band, keep=keep), dense_solve(region, band)


def _fb_block_vectors(res, m):
    """Retained order-m eigenvectors in the block basis, W^{1/2}-weighted for FB."""
    band = res.band
    n = band.size // band.L ** 2
    sw = 1.0 if res.k_weights is None else np.sqrt(res.k_weights)
    cols = []
    for a in np.flatnonzero(res.orders[:res.stored] == m):
        c = res.coeffs(a).values
        cols.append(np.concatenate([
            c[(l * l + l + m) * n:(l * l + l + m + 1) * n] * sw
            for l in range(m, band.L)]).real)
    return np.column_stack(cols) if cols else np.zeros((0, 0))


def test_fb_blocks_match_dense_oracle(fb_vs_dense):
    res, (blocks, _) = fb_vs_dense
    for m, (lam_dense, _) in blocks.items():
        lam = np.sort(res.eigenvalues[res.orders == m])[::-1]
        assert lam.size == lam_dense.size
        assert np.abs(lam[:40] - lam_dense[:40]).max() < 1e-13
        assert abs(lam.sum() - np.clip(lam_dense, 0.0, 1.0).sum()) < 1e-12


def test_fb_projectors_match_dense_oracle(fb_vs_dense):
    res, (blocks, _) = fb_vs_dense
    # a dense FL block's own vectors drift like eps / gap inside the clusters
    # of E's spectrum near 1 (an open shell), so FL compares across wider gaps
    gap = 1e-8 if res.k_weights is not None else 1e-6
    for m, (lam_dense, Y_dense) in blocks.items():
        Y = _fb_block_vectors(res, m)
        for k in range(1, Y.shape[1] + 1):
            # with every vector of the block stored there is no gap below
            # the last one: the full projectors must agree
            if k == lam_dense.size or lam_dense[k - 1] - lam_dense[k] > gap:
                P_new = Y[:, :k] @ Y[:, :k].T
                P_dense = Y_dense[:, :k] @ Y_dense[:, :k].T
                assert np.abs(P_new - P_dense).max() < 1e-9, (m, k)


def test_fb_global_order_matches_dense_oracle(fb_vs_dense):
    res, (_, order) = fb_vs_dense
    lam_dense = np.array([e[0] for e in order[:41]])
    assert np.abs(res.eigenvalues[:40] - lam_dense[:40]).max() < 1e-13
    # ranks split where the dense gap exceeds the agreement tolerance; inside
    # a cluster (exact +-m ties, or orders degenerate to rounding) the orders
    # must agree as a set
    edges = [0] + [i for i in range(1, 41) if lam_dense[i - 1] - lam_dense[i] > 1e-13]
    m_new = res.orders.tolist()
    m_dense = [e[1] for e in order]
    for lo, hi in zip(edges[:-1], edges[1:]):
        assert sorted(m_new[lo:hi]) == sorted(m_dense[lo:hi]), (lo, hi)


FB_TABLE_REGIONS = {
    "product": lambda: sb.ProductSymmetric(15.0, 25.0, T1, T2),
    "azimuthal": lambda: sb.AzimuthallySymmetric.from_indicator(
        lambda r, t: ((t > T1) & (t < T2)).astype(float), 15.0, 25.0,
        n_r=32, n_theta=24),
    "union": lambda: sb.RegionUnion((sb.ProductSymmetric(15.0, 19.0, T1, T2),
                                     sb.ProductSymmetric(21.0, 25.0, 0.2, 0.9))),
    "mask": lambda: sb.ProductMask(sb.AngularMask.band(T1, T2, 5), 15.0, 25.0),
}


@pytest.mark.parametrize("name", list(FB_TABLE_REGIONS))
def test_fb_entry_points_by_region(name, rng):
    # every FB entry point either agrees with the others or raises TypeError
    band = sb.FourierBesselBand(1.0, 5, 25)
    region = FB_TABLE_REGIONS[name]()
    shannon = sb.shannon_fb(region, band)
    if name == "mask":
        assert shannon == pytest.approx(
            sb.shannon_fb(FB_TABLE_REGIONS["product"](), band), rel=1e-9)
        with pytest.raises(TypeError):
            sb.solve_fb(region, band)
        with pytest.raises(TypeError):
            sb.kernel_fb_fixed_order(0, band, region)
        return
    res = sb.solve_fb(region, band)
    trace = sum((2.0 if m else 1.0) * np.trace(sb.kernel_fb_fixed_order(m, band, region))
                for m in range(band.L))
    assert res.eigenvalues.sum() == pytest.approx(trace, rel=1e-10)
    assert res.eigenvalues.sum() == pytest.approx(shannon, rel=0.01)
    assert len(res) == band.size
    _check_projector(res, rng)


@pytest.mark.parametrize("name", list(FB_TABLE_REGIONS))
def test_fl_entry_points_by_region(name, rng):
    # the FL twin: the solver, the kernel builders and shannon_fl agree
    band = sb.FourierLaguerreBand(6, 5)
    region = FB_TABLE_REGIONS[name]()
    res = sb.solve_fl(region, band)
    if name == "mask":
        trace = (np.trace(sb.E_matrix(band.P, region.R1, region.R2))
                 * np.trace(sb.G_mask_matrix(region.mask, band.L)).real)
    else:
        trace = sum((2.0 if m else 1.0) * np.trace(kernels.kernel_fl_fixed_order(m, band, region))
                    for m in range(band.L))
    assert res.eigenvalues.sum() == pytest.approx(trace, rel=1e-10)
    assert res.eigenvalues.sum() == pytest.approx(sb.shannon_fl(region, band), rel=1e-9)
    assert len(res) == band.size
    _check_projector(res, rng)


# ---------------------------------------------------------------------------
# pixel-mask solve through the factor G_mask = A A^H
# ---------------------------------------------------------------------------

def _patch(t, p):
    """The sparsity-demo patch 0.9 < theta < 1.3, 0.6 < phi < 1.3."""
    return ((t > 0.9) & (t < 1.3) & (p > 0.6) & (p < 1.3)).astype(float)


MASK_L = 16
MASK_ORACLE_CASES = {
    # (mask, active pixels): A narrower than, as wide as and wider than L^2
    "patch": (lambda: sb.AngularMask.full_sphere_grid(MASK_L, indicator=_patch), 9),
    "cap": (lambda: sb.AngularMask.full_sphere_grid(
        MASK_L, indicator=lambda t, p: (t < 1.3).astype(float)), 224),
    "hemisphere": (lambda: sb.AngularMask.full_sphere_grid(
        MASK_L, indicator=lambda t, p: (t < math.pi / 2).astype(float)), MASK_L ** 2),
    "band": (lambda: sb.AngularMask.band(T1, T2, MASK_L), 2 * MASK_L ** 2),
}


def _mask_angular(mask, L):
    """The mask solve's angular eigenpairs: the thin SVD of the pixel factor."""
    return kernels._gram_eigh(kernels._mask_factor(mask, L))


@pytest.fixture(scope="module", params=list(MASK_ORACLE_CASES))
def mask_vs_dense(request):
    make, n_active = MASK_ORACLE_CASES[request.param]
    mask = make()
    assert mask.indicator.sum() == n_active
    return mask, _mask_angular(mask, MASK_L), mask_dense_angular(mask, MASK_L)


def test_mask_angular_spectrum_matches_dense_oracle(mask_vs_dense):
    _, (lam, _), (lam_dense, _) = mask_vs_dense
    assert lam.shape == lam_dense.shape == (MASK_L ** 2,)
    assert np.all(np.diff(lam) <= 0.0)
    assert np.abs(lam - lam_dense).max() < 1e-13


def test_mask_angular_basis_is_complete_and_orthonormal(mask_vs_dense):
    mask, (_, V), _ = mask_vs_dense
    assert V.shape == (MASK_L ** 2, min(int(mask.indicator.sum()), MASK_L ** 2))
    # the range columns, then the reflectors' completion, column by column
    Q = eigen._AngularBasis.complete(V).columns(np.arange(MASK_L ** 2))
    assert np.array_equal(Q[:, :V.shape[1]], V)
    assert np.abs(Q.conj().T @ Q - np.eye(MASK_L ** 2)).max() < 1e-12


def test_angular_basis_drops_identity_reflectors():
    # geqrf gives tau = 0 for a column already on e_k: that reflector is the
    # identity, and the completion still holds
    V = np.eye(8, 3, dtype=complex)
    V[3:, 2] = V[2, 2] = 0.6
    V[:, 2] /= np.linalg.norm(V[:, 2])
    basis = eigen._AngularBasis.complete(V)
    assert np.count_nonzero(np.linalg.qr(V, mode="raw")[1] == 0) == 2
    Q = basis.columns(np.arange(8))
    assert np.abs(Q.conj().T @ Q - np.eye(8)).max() < 1e-14
    assert np.array_equal(Q[:, :3], V)
    H = np.arange(16.0).reshape(8, 2) + 1j
    assert np.abs(basis.adjoint(H) - Q.conj().T @ H).max() < 1e-13


def test_mask_angular_projectors_match_dense_oracle(mask_vs_dense):
    # clusters split where the dense gap exceeds 1e-8; the null space of a
    # small mask is one cluster.  A cluster projector moves by up to
    # |dG| / gap under a rounding-level change dG of the matrix (Davis-Kahan),
    # so two dense eigensolves already differ by ~1e-8 at gaps near 1e-8:
    # 1e-9 is required where the gap exceeds 1e-6, error * gap < 1e-14 below.
    # V holds the range columns only; the last cluster, which holds the null
    # space, is compared as the complement I - V V^H of the ones before it
    _, (_, V), (lam_dense, V_dense) = mask_vs_dense
    n = lam_dense.size
    edges = [0] + [k for k in range(1, n) if lam_dense[k - 1] - lam_dense[k] > 1e-8] + [n]
    for lo, hi in zip(edges[:-1], edges[1:]):
        gap = min(lam_dense[lo - 1] - lam_dense[lo] if lo > 0 else math.inf,
                  lam_dense[hi - 1] - lam_dense[hi] if hi < n else math.inf)
        if hi < n:
            P_new = V[:, lo:hi] @ V[:, lo:hi].conj().T
        else:
            P_new = np.eye(n) - V[:, :lo] @ V[:, :lo].conj().T
        P_dense = V_dense[:, lo:hi] @ V_dense[:, lo:hi].conj().T
        err = np.abs(P_new - P_dense).max()
        assert err < (1e-9 if gap > 1e-6 else 1e-14 / gap), (lo, hi, gap)


def test_mask_solve_matches_dense_oracle(mask_vs_dense, rng):
    mask, _, (lam_dense, _) = mask_vs_dense
    band = sb.FourierLaguerreBand(6, MASK_L)
    res = sb.solve_fl(sb.ProductMask(mask, 15.0, 25.0), band)
    lam1 = np.linalg.eigvalsh(sb.E_matrix(band.P, 15.0, 25.0))
    expect = np.sort(np.outer(np.clip(lam1, 0, 1), np.clip(lam_dense, 0, 1)).ravel())[::-1]
    assert np.abs(res.eigenvalues - expect).max() < 1e-13
    lo, hi = res.raw_eigenvalue_range
    assert -1e-9 <= lo and hi <= 1.0 + 1e-9
    h = rng.normal(size=band.size) + 1j * rng.normal(size=band.size)
    h_alpha = res.project(h)
    assert h_alpha.size == band.size
    assert abs(np.linalg.norm(h_alpha) - np.linalg.norm(h)) < 1e-12 * np.linalg.norm(h)
    # the factored projector agrees with the materialized vectors
    assert np.abs(h_alpha[:20] - res.vectors(20).conj().T @ h).max() < 1e-12


@pytest.mark.parametrize("name", list(MASK_ORACLE_CASES))
def test_mask_project_matches_vectors_at_every_rank(name, rng):
    # the null ranks too: project applies the reflectors to the signal,
    # vectors builds their columns, and both must be the one basis
    mask = MASK_ORACLE_CASES[name][0]()
    band = sb.FourierLaguerreBand(3, MASK_L)
    res = sb.solve_fl(sb.ProductMask(mask, 15.0, 25.0), band)
    n_null = band.P * max(MASK_L ** 2 - int(mask.indicator.sum()), 0)
    assert np.count_nonzero(res.eigenvalues == 0.0) >= n_null
    h = rng.normal(size=band.size) + 1j * rng.normal(size=band.size)
    F = res.vectors(len(res))
    assert np.abs(F.conj().T @ F - np.eye(band.size)).max() < 1e-12
    assert np.abs(res.project(h) - F.conj().T @ h).max() < 1e-12


def test_mask_solve_and_project_stay_below_half_a_dense_basis(rng):
    # the sparsity patch at P = L = 64: 112 active pixels of 8192.  A complete
    # dense angular basis is one complex 4096 x 4096 matrix, 256 MiB; the
    # traced peak must stay below half of it
    L = 64
    mask = sb.AngularMask.full_sphere_grid(L, indicator=_patch)
    assert mask.indicator.sum() == 112
    band = sb.FourierLaguerreBand(L, L)
    h = rng.normal(size=band.size) + 1j * rng.normal(size=band.size)
    tracemalloc.start()
    try:
        h_alpha = sb.solve_fl(sb.ProductMask(mask, 15.0, 25.0), band).project(h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 128 * 2 ** 20
    assert abs(np.linalg.norm(h_alpha) - np.linalg.norm(h)) < 1e-12 * np.linalg.norm(h)


def test_mask_solve_at_benchmark_size_matches_dense_oracle():
    # the sparsity patch at P = L = 32: 28 active pixels of 2048
    L = 32
    mask = sb.AngularMask.full_sphere_grid(L, indicator=_patch)
    assert mask.indicator.sum() == 28
    lam, V = _mask_angular(mask, L)
    lam_dense, _ = mask_dense_angular(mask, L)
    assert np.abs(lam - lam_dense).max() < 1e-13
    assert np.count_nonzero(lam) <= 28
    res = sb.solve_fl(sb.ProductMask(mask, 15.0, 25.0), sb.FourierLaguerreBand(L, L))
    assert len(res) == 32 * L * L
    lo, hi = res.raw_eigenvalue_range
    assert -1e-9 <= lo and hi <= 1.0 + 1e-9
    assert abs(res.eigenvalues.sum() - res.shannon) < 1e-6 * res.shannon


def _record_separated_solve(monkeypatch, region, band):
    """Solve, recording the shape of every SVD; any eigh fails the test."""
    svd_shapes, svd = [], np.linalg.svd

    def recording_svd(a, *args, **kwargs):
        svd_shapes.append(a.shape)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", lambda *a, **k: pytest.fail("eigh ran"))
    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    return sb.solve_fl(region, band), svd_shapes


@pytest.mark.parametrize("name", ["patch", "band"])
def test_mask_solve_runs_no_eigensolve_larger_than_P(name, monkeypatch):
    # no eigensolve at all: one thin SVD of E's factor (P x 2P + 24 radial
    # nodes) and one of the pixel factor, so the raw spectrum is never negative
    band = sb.FourierLaguerreBand(8, MASK_L)
    mask = MASK_ORACLE_CASES[name][0]()
    res, svd_shapes = _record_separated_solve(
        monkeypatch, sb.ProductMask(mask, 15.0, 25.0), band)
    assert svd_shapes == [(band.P, 2 * band.P + 24), (MASK_L ** 2, int(mask.indicator.sum()))]
    assert len(res) == band.size
    assert res.raw_eigenvalue_range[0] >= 0.0


def test_product_solve_runs_no_eigensolve(monkeypatch, ref_region):
    # the reference product: one thin SVD of E's factor and one of each
    # G^m's, (L - m) x L; an eigh of the formed E reads a raw minimum of -3.2e-16
    band = sb.FourierLaguerreBand(31, 20)
    res, svd_shapes = _record_separated_solve(monkeypatch, ref_region, band)
    assert svd_shapes == [(31, 2 * 31 + 24)] + [(20 - m, 20) for m in range(20)]
    assert len(res) == band.size
    lo, hi = res.raw_eigenvalue_range
    assert lo >= 0.0 and hi == res.eigenvalues[0]


@pytest.mark.parametrize("M", [70, 140])
def test_fb_solve_runs_no_svd_taller_than_its_radial_rule(M, monkeypatch, ref_region):
    # the radial modes come from the SVD of the R of a per-degree QR of the
    # (L, M, n) Bessel factor, not from one of the (L M) x n stack, whose
    # tall U and copies set the cold solve's memory peak
    band = sb.FourierBesselBand(1.4, 20, M)
    n = kernels._radial_rule(band, ref_region.R1, ref_region.R2).nodes.size
    svd_shapes, svd = [], np.linalg.svd

    def recording_svd(a, *args, **kwargs):
        svd_shapes.append(a.shape)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    kernels._radial_modes.cache_clear()  # a cached build would take no SVD
    sb.solve_fb(ref_region, band, keep=1)
    assert (n, n) in svd_shapes  # the R of the stacked factor
    assert all(shape[-2] <= n for shape in svd_shapes), svd_shapes


def test_empty_mask_solves_to_zero_spectrum(rng):
    band = sb.FourierLaguerreBand(4, 6)
    mask = sb.AngularMask.full_sphere_grid(6, indicator=lambda t, p: np.zeros_like(t))
    lam, V = _mask_angular(mask, band.L)
    assert np.all(lam == 0.0) and V.shape == (band.L ** 2, 0)
    # no range columns and no reflectors: the basis is the identity
    basis = eigen._AngularBasis.complete(V)
    assert basis.W.shape == (band.L ** 2, 0)
    assert np.array_equal(basis.columns(np.arange(band.L ** 2)), np.eye(band.L ** 2))
    res = sb.solve_fl(sb.ProductMask(mask, 15.0, 25.0), band)
    assert len(res) == band.size and np.all(res.eigenvalues == 0.0)
    assert res.shannon == 0.0
    h = rng.normal(size=band.size) + 1j * rng.normal(size=band.size)
    assert abs(np.linalg.norm(res.project(h)) - np.linalg.norm(h)) < 1e-12 * np.linalg.norm(h)


def test_mask_solve_rejects_coarse_grid():
    mask = sb.AngularMask.full_sphere_grid(4)
    with pytest.raises(ValueError, match="below L"):
        sb.solve_fl(sb.ProductMask(mask, 1.0, 2.0), sb.FourierLaguerreBand(3, 6))


# ---------------------------------------------------------------------------
# spectrum ordering: one lexsort over arrays
# ---------------------------------------------------------------------------

ORDER_CASES = {
    "fl-reference": lambda ref: sb.solve_fl(ref, sb.FourierLaguerreBand(31, 20)),
    "mask-patch": lambda ref: sb.solve_fl(
        sb.ProductMask(MASK_ORACLE_CASES["patch"][0](), 15.0, 25.0),
        sb.FourierLaguerreBand(16, MASK_L)),
    "fb-m70": lambda ref: sb.solve_fb(ref, sb.FourierBesselBand(1.4, 20, 70)),
}


@pytest.mark.parametrize("name", list(ORDER_CASES))
def test_spectrum_order_equals_tuple_sort(name, ref_region, monkeypatch):
    # _spectrum_order sorts the computed entries only; a block's padding,
    # exact zeros with keys (lam.size, 0), (lam.size + 1, 0), ..., is rebuilt
    # here from its count, and the whole spectrum is held to the tuple sort
    calls = []
    order_fn = eigen._spectrum_order

    def recording_order(lam, m, i, j):
        order = order_fn(lam, m, i, j)
        calls.append((lam, m, i, j, order))
        return order

    monkeypatch.setattr(eigen, "_spectrum_order", recording_order)
    res = ORDER_CASES[name](ref_region)
    (lam, m, i, j, order), = calls
    entries = list(zip(lam.tolist(), m.tolist(), i.tolist(), j.tolist()))
    expect = sorted(range(len(entries)), key=lambda k: spectrum_sort_key(entries[k]))
    assert order.tolist() == expect
    for b in res._blocks:
        entries += [(0.0, b.m, k, 0) for k in range(b.lam.size, b.lam.size + b.pad)]
    assert len(entries) == len(res)
    if name == "fb-m70":
        assert len(res) > 5 * lam.size  # most of the FB spectrum is padding
    entries.sort(key=spectrum_sort_key)
    assert res.eigenvalues.tolist() == [e[0] for e in entries]
    if name == "mask-patch":
        assert res.orders is None
    else:
        assert res.orders.tolist() == [e[1] for e in entries]


def _computed_zeros_between_paddings(res, raw_spectra) -> bool:
    """Some order computes a raw eigenvalue <= 0 (one that clamps to zero),
    and orders below and above it pad: their raw spectra (`raw_spectra[|m|]`)
    hold fewer entries than their blocks have rows."""
    radial = res.band.size // res.band.L ** 2
    raw = {b.m: raw_spectra[abs(b.m)] for b in res._blocks}
    padded = [b.m for b in res._blocks if raw[b.m].size < b.rows.size * radial]
    return any(np.any(lam <= 0) and min(padded) < m < max(padded) for m, lam in raw.items())


# block solves that pad (FL pads where P exceeds the radial rank), each
# merged against the padded merge; keep as the solve takes it
PADDED_MERGE_CASES = {
    "fb-product": (lambda ref: ref, sb.FourierBesselBand(1.0, 4, 25), None),
    "fb-union": (lambda ref: sb.RegionUnion((sb.ProductSymmetric(15.0, 19.0, T1, T2),
                                             sb.ProductSymmetric(21.0, 25.0, 0.2, 0.9))),
                 sb.FourierBesselBand(1.0, 4, 25), 7),
    "fb-azimuthal": (lambda ref: _sloped_band(16), sb.FourierBesselBand(1.0, 4, 25), None),
    "fb-empty": (lambda ref: sb.AzimuthallySymmetric.from_indicator(
        lambda r, t: np.zeros_like(r), 15.0, 25.0, n_r=8, n_theta=6),
        sb.FourierBesselBand(1.0, 3, 5), None),
    "fl-union": (lambda ref: sb.RegionUnion((sb.ProductSymmetric(15.0, 19.0, T1, T2),
                                             sb.ProductSymmetric(21.0, 25.0, 0.2, 0.9))),
                 sb.FourierLaguerreBand(24, 4), None),
    "fl-azimuthal": (lambda ref: _sloped_band(16), sb.FourierLaguerreBand(24, 4), 5),
    "fb-computed-zeros": (lambda ref: ref, sb.FourierBesselBand(1.0, 6, 30), None),
}


@pytest.mark.parametrize("name", list(PADDED_MERGE_CASES))
def test_merge_places_padding_as_the_padded_merge_sorts_it(name, ref_region, monkeypatch):
    region_of, band, keep = PADDED_MERGE_CASES[name]
    raw_spectra, eigh = [], eigen._descending_eigh  # one call per order m = 0 .. L-1
    monkeypatch.setattr(eigen, "_descending_eigh",
                        lambda a: raw_spectra.append(eigh(a)[0]) or eigh(a))
    res = (sb.solve_fl if isinstance(band, sb.FourierLaguerreBand) else sb.solve_fb)(
        region_of(ref_region), band, keep=keep)
    assert len(raw_spectra) == band.L and any(b.pad for b in res._blocks)
    if name == "fb-computed-zeros":
        assert _computed_zeros_between_paddings(res, raw_spectra)
    expect = padded_block_merge(res, raw_spectra, keep)
    assert res.eigenvalues.tobytes() == expect.eigenvalues.tobytes()
    assert res.orders.tobytes() == expect.orders.tobytes()
    assert res.raw_eigenvalue_range == expect.raw_eigenvalue_range
    assert res.stored == expect.stored
    assert not expect.vectors.imag.any()
    assert res.vectors(res.stored).tobytes() == expect.vectors.real.tobytes()


@pytest.mark.parametrize("name", list(PADDED_MERGE_CASES))
def test_block_solve_holds_no_zero(name, ref_region):
    # a block's clamped zeros join its padding, so every zero of the
    # spectrum is padding, placed after every computed entry
    region_of, band, keep = PADDED_MERGE_CASES[name]
    res = eigen.solve(region_of(ref_region), band, keep=keep)
    assert all(b.C is not None and b.lam.all() for b in res._blocks)
    computed = sum(b.lam.size for b in res._blocks)
    assert res.eigenvalues[:computed].all() and not res.eigenvalues[computed:].any()


def test_negative_zero_merges_as_positive_zero(ref_region, tmp_path, monkeypatch):
    # np.clip keeps a raw -0.0, which eigenvalues.csv used to write as "-0"
    # rows ahead of the zero tail; folded into the padding, it is +0.0
    signed, eigh = [], eigen._descending_eigh

    def negative_zero_tail(a):
        lam, Z = eigh(a)
        lam = np.where(lam <= 0, -0.0, lam)
        signed.append(np.signbit(lam).any())
        return lam, Z

    monkeypatch.setattr(eigen, "_descending_eigh", negative_zero_tail)
    res = sb.solve_fb(ref_region, sb.FourierBesselBand(1.0, 6, 30))
    assert any(signed) and not np.signbit(res.eigenvalues).any()
    rc = cli.main(["eigen", "--domain", "fb", "--K", "1.0", "--L", "6", "--M", "30",
                   "--region", f"product:15,25,{T1},{T2}", "--out", str(tmp_path)])
    assert rc == 0
    rows = (tmp_path / "eigenvalues.csv").read_text().splitlines()[1:]
    assert len(rows) == len(res)
    assert not [row for row in rows if row.split(",")[1].startswith("-")]


@pytest.mark.parametrize("raw", [[0.5, math.nan], [1.1], [math.nan], [-2e-9, 0.5]])
def test_clamp_refuses_eigenvalues_outside_the_projection_bounds(raw):
    # a NaN min or max fails `<` and `>` tests alike, and np.clip keeps it
    with pytest.raises(ArithmeticError, match="outside projection bounds"):
        eigen._validate_and_clamp(np.array(raw))


def test_nan_eigenvalue_fails_the_block_solve(ref_region, tmp_path, monkeypatch):
    eigh = eigen._descending_eigh

    def nan_tail(a):
        lam, Z = eigh(a)
        lam[-1] = math.nan
        return lam, Z

    monkeypatch.setattr(eigen, "_descending_eigh", nan_tail)
    with pytest.raises(ArithmeticError, match="max=nan"):
        sb.solve_fb(ref_region, sb.FourierBesselBand(1.0, 6, 30))
    out = tmp_path / "o"
    rc = cli.main(["eigen", "--domain", "fb", "--K", "1.0", "--L", "6", "--M", "30",
                   "--region", f"product:15,25,{T1},{T2}", "--out", str(out)])
    assert rc == 1 and not out.exists()


# ---------------------------------------------------------------------------
# Shannon numbers
# ---------------------------------------------------------------------------

def test_shannon_fl_full_ball():
    band = sb.FourierLaguerreBand(7, 5)
    assert sb.shannon_fl(sb.full_ball(), band) == pytest.approx(band.size, rel=1e-12)


def test_shannon_fl_reference(ref_region, ref_fl_band):
    n = sb.shannon_fl(ref_region, ref_fl_band)
    assert n == pytest.approx(403.21, abs=0.5)


def test_shannon_fb_reference(ref_region, ref_fb_band):
    n = sb.shannon_fb(ref_region, ref_fb_band)
    assert n == pytest.approx(408.33, abs=0.5)


def test_shannon_fb_volume_scaling():
    # thin shells: doubling the radial thickness doubles the count
    band = sb.FourierBesselBand(1.4, 20, 10)
    thin = sb.ProductSymmetric(20.0, 20.1, T1, T2)
    thick = sb.ProductSymmetric(20.0, 20.2, T1, T2)
    n1 = sb.shannon_fb(thin, band)
    n2 = sb.shannon_fb(thick, band)
    assert n2 / n1 == pytest.approx(2.0, rel=0.05)


def test_shannon_fb_monotone_in_K(ref_region):
    values = [sb.shannon_fb(ref_region, sb.FourierBesselBand(k, 20, 10))
              for k in np.linspace(0.2, 2.0, 10)]
    assert np.all(np.diff(values) > 0)


def test_shannon_fl_monotone_in_P(ref_region):
    values = [sb.shannon_fl(ref_region, sb.FourierLaguerreBand(p, 20))
              for p in range(2, 42, 4)]
    assert np.all(np.diff(values) > 0)


def test_angular_shannon_closed_form():
    n = sb.angular_shannon(20, T1, T2)
    assert n == pytest.approx(200 * (math.cos(T1) - math.cos(T2)), abs=1e-9)


def test_angular_shannon_rejects_what_the_band_factor_rejects():
    # an inverted band gave -2.698; each case fails as `_band_factor` does
    for t1, t2 in [(1.0, 0.5), (0.5, 0.5), (-0.1, 1.0), (0.5, 3.2), (math.nan, 1.0)]:
        with pytest.raises(ValueError, match="0 <= theta1 < theta2 <= pi"):
            sb.angular_shannon(4, t1, t2)
        with pytest.raises(ValueError, match="0 <= theta1 < theta2 <= pi"):
            kernels._band_factor(0, 4, t1, t2)
    for L in (True, 4.0, "4"):
        with pytest.raises(TypeError, match="band limit L must be an integer"):
            sb.angular_shannon(L, 0.5, 1.0)
    with pytest.raises(ValueError, match="band limit L must be >= 1"):
        sb.angular_shannon(0, 0.5, 1.0)
    assert sb.angular_shannon(1, 0.0, math.pi) == 1.0


# ---------------------------------------------------------------------------
# space-limited duals
# ---------------------------------------------------------------------------

def test_space_limit_in_band_scaling(ref_region):
    band = sb.FourierLaguerreBand(6, 5)
    res = sb.solve_fl(ref_region, band)
    a = 1
    f = res.coeffs(a)
    lam = res.eigenvalues[a]
    g = sb.space_limit(f, lam, ref_region)
    assert np.abs(g.coeffs.values - math.sqrt(lam) * f.values).max() == 0.0
    # in-band spectral energy of the dual equals lam
    assert g.coeffs.norm() ** 2 == pytest.approx(lam, abs=1e-8)


def test_space_limit_in_band_coeffs_vs_quadrature(ref_region):
    # direct quadrature of int_R g Z* dv must reproduce sqrt(lam) f in-band
    band = sb.FourierLaguerreBand(5, 4)
    res = sb.solve_fl(ref_region, band)
    a = 0
    f = res.coeffs(a)
    lam = res.eigenvalues[a]
    grid = transforms.region_energy_grid(ref_region, band)
    vals = transforms.synthesis_fl_grid(f, grid) / math.sqrt(lam)
    n_r = grid.radial_nodes.size
    th, ph = grid.angular_points()
    Y = specfun.sph_harm_matrix(band.L, th, ph)
    ang = (Y.conj() * grid.angular_weights) @ vals.reshape(n_r, -1).T
    Kt = specfun.laguerre_K_table(band.P - 1, grid.radial_nodes)
    g_band = (ang @ (Kt * grid.radial_weights).T).reshape(-1)
    assert np.abs(g_band - math.sqrt(lam) * f.values).max() < 1e-8


def test_space_limit_unit_energy(ref_region):
    band = sb.FourierLaguerreBand(6, 5)
    res = sb.solve_fl(ref_region, band)
    a = 0
    g = sb.space_limit(res.coeffs(a), res.eigenvalues[a], ref_region)
    grid = transforms.region_energy_grid(ref_region, band)
    vals = transforms.synthesis_fl_grid(res.coeffs(a), grid).reshape(-1)
    energy = region_quadrature_inner(vals, vals, grid).real / res.eigenvalues[a]
    assert energy == pytest.approx(1.0, abs=1e-8)


def test_space_limit_pointwise_evaluation(ref_region):
    band = sb.FourierLaguerreBand(4, 4)
    res = sb.solve_fl(ref_region, band)
    g = sb.space_limit(res.coeffs(0), res.eigenvalues[0], ref_region)
    inside = sb.BallPoint(20.0, math.pi / 4, 0.3)
    outside = sb.BallPoint(5.0, math.pi / 4, 0.3)
    vals = g.evaluate([inside, outside])
    f_in = transforms.synthesis_fl(res.coeffs(0), [inside])[0]
    assert vals[0] == pytest.approx(f_in / math.sqrt(res.eigenvalues[0]), rel=1e-12)
    assert vals[1] == 0.0
    # the (N, 3) array form of the points gives the same values
    rows = np.array([[p.r, p.theta, p.phi] for p in (inside, outside)])
    assert np.array_equal(g.evaluate(rows), vals)


def test_space_limit_pointwise_evaluation_fb(ref_region):
    # a Fourier-Bessel dual is the FB synthesis cut to the region
    res = sb.solve_fb(ref_region, sb.FourierBesselBand(1.0, 3, 8))
    f, lam = res.coeffs(0), res.eigenvalues[0]
    points = np.array([[20.0, math.pi / 4, 0.3], [5.0, math.pi / 4, 0.3],
                       [24.0, 1.1, 5.0], [20.0, 2.0, 1.0]])
    inside = sb.contains_points(ref_region, *points.T)
    assert inside.tolist() == [True, False, True, False]
    expect = transforms.synthesis_fb(f, points) * inside / math.sqrt(lam)
    assert np.array_equal(sb.space_limit(f, lam, ref_region).evaluate(points), expect)
    assert np.abs(expect[0]) > 0.0


def test_space_limit_rejects_null_eigenvalue(ref_region):
    band = sb.FourierLaguerreBand(4, 4)
    res = sb.solve_fl(ref_region, band)
    with pytest.raises(ValueError):
        sb.space_limit(res.coeffs(0), 1e-13, ref_region)


@pytest.mark.parametrize("lam", [math.nan, math.inf, 2.0, 1.0 + 1e-12])
def test_space_limit_rejects_eigenvalues_above_one_or_not_finite(lam, ref_region):
    # a projection's eigenvalues lie in [0, 1]; the dual takes [1e-12, 1]
    f = sb.solve_fl(ref_region, sb.FourierLaguerreBand(4, 4)).coeffs(0)
    with pytest.raises(ValueError, match="outside"):
        sb.space_limit(f, lam, ref_region)
    assert sb.space_limit(f, 1.0, ref_region).coeffs.values.tolist() == f.values.tolist()


# ---------------------------------------------------------------------------
# rotation
# ---------------------------------------------------------------------------

def test_rotation_zero_is_identity(rng):
    band = sb.FourierLaguerreBand(5, 6)
    c = sb.HarmonicCoeffs(
        rng.normal(size=band.size) + 1j * rng.normal(size=band.size), band)
    out = sb.rotate_eigenfunction(c, 0.0, 0.0)
    assert np.abs(out.values - c.values).max() < 1e-14


def test_rotation_preserves_norm(rng):
    band = sb.FourierLaguerreBand(5, 6)
    c = sb.HarmonicCoeffs(
        rng.normal(size=band.size) + 1j * rng.normal(size=band.size), band)
    out = sb.rotate_eigenfunction(c, 0.8, 2.1)
    assert abs(out.norm() - c.norm()) < 1e-12


def test_rotation_concentration_covariance(ref_region):
    # energy of the rotated eigenfunction inside the rotated region is lam
    band = sb.FourierLaguerreBand(5, 5)
    res = sb.solve_fl(ref_region, band)
    a = 2
    lam = res.eigenvalues[a]
    th0, ph0 = 0.7, 1.3
    rot = sb.rotate_eigenfunction(res.coeffs(a), th0, ph0)
    grid = transforms.region_energy_grid(ref_region, band)
    # map base-region quadrature nodes through the rotation
    from slepian_ball.regions import _rotation_matrix
    R = _rotation_matrix(th0, ph0)
    th, ph = grid.angular_points()
    n_r = grid.radial_nodes.size
    st = np.sin(th)
    xyz = np.stack([st * np.cos(ph), st * np.sin(ph), np.cos(th)])
    rx = R @ xyz
    th_r = np.arccos(np.clip(rx[2], -1, 1))
    ph_r = np.mod(np.arctan2(rx[1], rx[0]), 2 * math.pi)
    pts = np.column_stack([
        np.repeat(grid.radial_nodes, th_r.size),
        np.tile(th_r, n_r),
        np.tile(ph_r, n_r),
    ])
    vals = transforms.synthesis_fl(rot, pts)
    energy = region_quadrature_inner(vals, vals, grid).real
    assert energy == pytest.approx(lam, abs=1e-6)


def _unit_complex_normal(rng, n):
    return (rng.normal(size=n) + 1j * rng.normal(size=n)) / math.sqrt(2.0)


@pytest.mark.parametrize("L", [20, 40])
def test_rotation_matches_jacobi_oracle(L, rng):
    # one J_y-eigendecomposition d^l per degree against the Jacobi-form
    # elements; the oracle's own rows are orthonormal only to ~1e-13 at l = 72
    band = sb.FourierLaguerreBand(3, L)
    c = sb.HarmonicCoeffs(_unit_complex_normal(rng, band.size), band)
    for th0, ph0 in [(0.8, 2.1), (2.9, -0.4)]:
        out = sb.rotate_eigenfunction(c, th0, ph0)
        assert np.abs(out.values - rotate_jacobi(c.values, band, th0, ph0)).max() < 1e-13


@pytest.mark.parametrize("angles", [(math.nan, 0.1), (0.2, math.inf)])
def test_rotation_rejects_non_finite_angles(angles):
    band = sb.FourierLaguerreBand(3, 3)
    c = sb.HarmonicCoeffs(np.ones(band.size), band)
    with pytest.raises(ValueError, match="finite"):
        sb.rotate_eigenfunction(c, *angles)


def test_fb_rotation_equals_fl_rotation(rng):
    # rotation acts on the angular index only: an FB vector rotates as the FL
    # vector with the same (L^2, radial) array
    fb, fl = sb.FourierBesselBand(1.0, 6, 5), sb.FourierLaguerreBand(5, 6)
    vals = _unit_complex_normal(rng, fb.size)
    out_fb = sb.rotate_eigenfunction(sb.HarmonicCoeffs(vals, fb), 0.8, 2.1)
    out_fl = sb.rotate_eigenfunction(sb.HarmonicCoeffs(vals, fl), 0.8, 2.1)
    assert out_fb.band == fb
    assert np.array_equal(out_fb.values, out_fl.values)
    assert abs(out_fb.norm() - np.linalg.norm(vals)) < 1e-13


# ---------------------------------------------------------------------------
# azimuthally symmetric regions and the colatitude grid
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("band", [
    sb.FourierLaguerreBand(8, 20), sb.FourierBesselBand(1.4, 20, 70)], ids=["fl", "fb"])
def test_azimuthal_region_needs_L_colatitude_nodes(band):
    # below L nodes the grid's Pbar_lm Gram over the sphere is not I: the top
    # eigenvalue was 1.4-2.35 and the solve raised ArithmeticError
    solve = sb.solve_fl if isinstance(band, sb.FourierLaguerreBand) else sb.solve_fb
    kernel = (kernels.kernel_fl_fixed_order if isinstance(band, sb.FourierLaguerreBand)
              else sb.kernel_fb_fixed_order)

    def indicator(r, t):
        return ((r < 20.0) & (t < 1.0)).astype(float)
    for n_theta in (8, 16):
        region = sb.AzimuthallySymmetric.from_indicator(indicator, 15.0, 25.0, n_r=16,
                                                        n_theta=n_theta)
        with pytest.raises(ValueError, match=f"{n_theta} colatitude nodes.*at least 20"):
            solve(region, band, keep=0)
        with pytest.raises(ValueError, match="at least 20"):
            kernel(3, band, region)
    for n_theta in (20, 24):
        region = sb.AzimuthallySymmetric.from_indicator(indicator, 15.0, 25.0, n_r=16,
                                                        n_theta=n_theta)
        lo, hi = solve(region, band, keep=0).raw_eigenvalue_range
        assert -1e-9 <= lo and hi <= 1 + 1e-9
