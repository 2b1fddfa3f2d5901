"""Kernel assembly tests.

The library assembles E, G and C by quadrature.  Each is checked against an
independent quadrature oracle built from the raw integral definitions and
against the analytic oracles in tests/oracles.py (E moments in extended
precision, G Wigner-3j sums, C Lommel closed forms).
"""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

import slepian_ball as sb
from oracles import (C_closed_form, E_matrix_mp, G_diag_sum_3j, G_mask_dense, G_matrix_3j,
                     _c_tensor, fb_dense_block, fl_dense_block)
from slepian_ball import kernels, specfun
from slepian_ball.kernels import fb_k_weights

T1, T2 = math.pi / 8, 3 * math.pi / 8


def test_public_names_resolve_once():
    # a removed export cannot linger in __all__
    assert len(set(sb.__all__)) == len(sb.__all__)
    for name in sb.__all__:
        assert getattr(sb, name) is not None, name


# ---------------------------------------------------------------------------
# quadrature oracles (independent of the library's analytic paths)
# ---------------------------------------------------------------------------

def e_quad_oracle(P, R1, R2, n=200):
    rule = specfun.gauss_legendre_rule(n, R1, R2)
    Kt = specfun.laguerre_K_table(P - 1, rule.nodes)
    return (Kt * (rule.weights * rule.nodes ** 2)) @ Kt.T


def g_quad_oracle(m, L, t1, t2, n=120):
    rule = specfun.gauss_legendre_rule(n, t1, t2)
    Pb = specfun.norm_alf_table(L, m, rule.nodes)
    return 2 * math.pi * (Pb * (rule.weights * np.sin(rule.nodes))) @ Pb.T


def c_quad_oracle(l, l2, k, k2, R1, R2, n=300):
    from scipy.special import spherical_jn
    rule = specfun.gauss_legendre_rule(n, R1, R2)
    r = rule.nodes
    return 2 / math.pi * k * k2 * float(
        np.sum(rule.weights * r ** 2 * spherical_jn(l, k * r) * spherical_jn(l2, k2 * r)))


# ---------------------------------------------------------------------------
# bands and index maps
# ---------------------------------------------------------------------------

def test_fl_index_map_bijective():
    # flat = (l*l + l + m) * P + p: the loop order l, m, p covers 0..size-1 once
    band = sb.FourierLaguerreBand(3, 4)
    flats = [band.flat_index(l, m, p)
             for l in range(4) for m in range(-l, l + 1) for p in range(3)]
    assert flats == list(range(band.size))
    assert band.size == 3 * 16


def test_fb_index_map():
    band = sb.FourierBesselBand(1.4, 3, 5)
    assert band.dk == pytest.approx(1.4 / 5)
    assert band.k_samples[0] == pytest.approx(band.dk)
    assert band.k_samples[-1] == pytest.approx(1.4)
    flats = [band.flat_index(l, m, n)
             for l in range(3) for m in range(-l, l + 1) for n in range(1, 6)]
    assert flats == list(range(band.size))
    assert band.flat_index(2, -1, 3) == (4 + 2 - 1) * 5 + 2
    assert band.size == 5 * 9


def test_index_map_errors():
    band = sb.FourierLaguerreBand(3, 4)
    with pytest.raises(IndexError):
        band.flat_index(4, 0, 0)
    with pytest.raises(IndexError):
        band.flat_index(2, 3, 0)
    with pytest.raises(IndexError):
        band.flat_index(2, 0, 3)
    fband = sb.FourierBesselBand(1.0, 3, 5)
    with pytest.raises(IndexError):
        fband.flat_index(0, 0, 0)  # k samples are 1-based
    with pytest.raises(IndexError):
        fband.flat_index(0, 0, 6)


@pytest.mark.parametrize("make", [
    lambda: sb.FourierLaguerreBand(2.5, 3),
    lambda: sb.FourierLaguerreBand(3, 4.0),
    lambda: sb.FourierLaguerreBand(True, 3),
    lambda: sb.FourierBesselBand(1.0, 3.5, 5),
    lambda: sb.FourierBesselBand(1.0, 3, 5.0),
    lambda: sb.FourierBesselBand(1.0, 3, False),
])
def test_band_limits_must_be_integers(make):
    with pytest.raises(TypeError):
        make()


def test_band_limits_accept_numpy_integers():
    assert sb.FourierLaguerreBand(np.int64(3), np.int32(4)).size == 48
    assert sb.FourierBesselBand(1.0, np.int64(3), np.int64(5)).size == 45


def test_fb_weights_trapezoid():
    band = sb.FourierBesselBand(1.0, 2, 10)
    w = fb_k_weights(band)
    assert w[0] == pytest.approx(band.dk)
    assert w[-1] == pytest.approx(band.dk / 2)
    # the rule integrates linear functions of k on [0, K] exactly
    assert float(w @ band.k_samples) == pytest.approx(0.5, rel=1e-14)


# ---------------------------------------------------------------------------
# E matrix
# ---------------------------------------------------------------------------

def test_e_matrix_full_line_identity():
    E = sb.E_matrix(12, 0.0, math.inf)
    assert np.abs(E - np.eye(12)).max() < 1e-12


def test_e_matrix_vs_quadrature_small():
    E = sb.E_matrix(8, 15.0, 25.0)
    assert np.abs(E - e_quad_oracle(8, 15.0, 25.0)).max() < 1e-10


def test_e_matrix_vs_quadrature_reference_degrees():
    # extended-precision analytic path at the degrees the float64 sum loses
    E = sb.E_matrix(31, 15.0, 25.0)
    assert np.abs(E - e_quad_oracle(31, 15.0, 25.0)).max() < 1e-10


def test_e_matrix_reference_trace():
    # radial Shannon number across degrees 0..30 on [15, 25]
    E = sb.E_matrix(31, 15.0, 25.0)
    assert np.trace(E) == pytest.approx(3.72, abs=0.01)


def test_e_matrix_spectrum_feasible():
    for (P, a, b) in [(31, 15.0, 25.0), (10, 0.0, 4.0), (20, 2.0, 80.0)]:
        ev = np.linalg.eigvalsh(sb.E_matrix(P, a, b))
        assert ev.min() > -1e-12
        assert ev.max() < 1.0 + 1e-12


@pytest.mark.parametrize("P, R1, R2", [
    (31, 15.0, 25.0), (20, 2.0, 80.0), (31, 15.0, math.inf)])
def test_e_matrix_vs_moment_oracle(P, R1, R2):
    # extended-precision exponential moments; R2 = inf covers I - E(0, R1)
    E = sb.E_matrix(P, R1, R2)
    assert np.abs(E - E_matrix_mp(P, R1, R2)).max() < 1e-13


@pytest.mark.parametrize("P, R1", [(31, 15.0), (31, 40.0), (64, 15.0)])
def test_e_matrix_open_interval_vs_moment_oracle(P, R1):
    # the shifted Gauss-Laguerre rule with P + 1 nodes is exact on [R1, inf)
    E = sb.E_matrix(P, R1, math.inf)
    assert np.abs(E - E_matrix_mp(P, R1, math.inf)).max() < 3e-15


@pytest.mark.parametrize("P", [4, 31, 64])
def test_e_matrix_half_line_is_identity_to_rounding(P):
    assert np.abs(sb.E_matrix(P, 0.0, math.inf) - np.eye(P)).max() < 2e-15


def test_e_matrix_open_interval_at_large_P():
    # P = 400 puts the shifted Laguerre nodes past r = 1594, where
    # L_p^(2)(r) alone overflows; the rescaled K table stays finite
    assert np.abs(sb.E_matrix(400, 0.0, math.inf) - np.eye(400)).max() < 5e-14
    E = sb.E_matrix(400, 15.0, math.inf)
    assert np.isfinite(E).all()
    lam = np.linalg.eigvalsh(E)
    assert lam.min() > -2e-15 and lam.max() < 1.0 + 1e-13


@pytest.mark.parametrize("P, R_c", [(4, 65.0), (31, 200.0), (64, 345.0)])
def test_e_matrix_on_long_intervals_stays_a_projection(P, R_c):
    # from R_c on, tr E(R2, inf) < 1e-16 and [15, R2] takes the exact
    # half-line rule; short of it the 2P + 24 Gauss-Legendre nodes resolve
    # e^{-r}.  Both rules used to meet only at R2 = inf: P = 31 read a top
    # eigenvalue of 1.9995 at R2 = 1000
    band, E_inf = sb.FourierLaguerreBand(P, 1), sb.E_matrix(P, 15.0, math.inf)
    for R2 in (30.0, 60.0, 100.0, 195.0, 250.0, 340.0, 500.0, 1000.0, 1e4, R_c - 5.0, R_c):
        E = sb.E_matrix(P, 15.0, R2)
        assert np.linalg.eigvalsh(E).max() <= 1.0 + 1e-12, R2
        half_line = kernels._radial_rule(band, 15.0, R2).nodes.size == P + 1
        assert half_line == (R2 >= R_c), R2
        if R2 >= 500.0:
            assert abs(np.trace(E) - np.trace(E_inf)) <= 1e-12, R2


def test_e_matrix_domain_error():
    with pytest.raises(ValueError):
        sb.E_matrix(5, 10.0, 10.0)
    with pytest.raises(ValueError):
        sb.E_matrix(5, -1.0, 10.0)


def test_e_matrix_quadrature_switch_consistent():
    # degrees past p + p' = 60, where float64 moment sums would be hopeless,
    # against an oracle with many more nodes
    E = sb.E_matrix(35, 10.0, 30.0)
    assert np.abs(E - e_quad_oracle(35, 10.0, 30.0)).max() < 1e-9


# ---------------------------------------------------------------------------
# G matrix
# ---------------------------------------------------------------------------

def test_g_full_sphere_one_by_one():
    G = sb.G_matrix(0, 1, 0.0, math.pi)
    assert G.shape == (1, 1)
    assert G[0, 0] == pytest.approx(1.0, abs=1e-13)


def test_g_constant_band_integral():
    G = sb.G_matrix(0, 1, T1, T2)
    assert G[0, 0] == pytest.approx((math.cos(T1) - math.cos(T2)) / 2, abs=1e-14)


def test_g_vs_quadrature():
    for m in (0, 1, 5, 12):
        Ga = sb.G_matrix(m, 20, T1, T2)
        assert np.abs(Ga - g_quad_oracle(m, 20, T1, T2)).max() < 1e-9


def test_g_reference_diagonal_sum():
    total = G_diag_sum_3j(20, T1, T2)
    closed = 20 ** 2 / 2 * (math.cos(T1) - math.cos(T2))
    assert total == pytest.approx(108.24, abs=0.01)
    assert total == pytest.approx(closed, abs=1e-9)


def test_g_vs_wigner_3j_oracle():
    for m in range(20):
        G3j = G_matrix_3j(m, 20, T1, T2)
        assert np.abs(sb.G_matrix(m, 20, T1, T2) - G3j).max() < 1e-12


@pytest.mark.parametrize("L", [32, 48, 64])
def test_g_spectrum_bounds_scaled(L):
    for m in range(L):
        ev = np.linalg.eigvalsh(sb.G_matrix(m, L, T1, T2))
        assert ev.min() >= -1e-14 and ev.max() <= 1 + 1e-14, m


def test_g_full_sphere_identity_scaled():
    # the L-node rule is exact: over the whole sphere G^m is the identity
    for m in range(64):
        G = sb.G_matrix(m, 64, 0.0, math.pi)
        assert np.abs(G - np.eye(64 - m)).max() < 1e-13, m


def test_g_negative_order_symmetry():
    for m in (1, 4):
        assert np.abs(sb.G_matrix(m, 12, T1, T2)
                      - sb.G_matrix(-m, 12, T1, T2)).max() == 0.0


def test_g_spectrum_feasible():
    for m in (0, 3):
        ev = np.linalg.eigvalsh(sb.G_matrix(m, 20, T1, T2))
        assert ev.min() > -1e-12 and ev.max() < 1 + 1e-12


def test_g_domain_errors():
    with pytest.raises(ValueError):
        sb.G_matrix(5, 4, T1, T2)
    with pytest.raises(ValueError):
        sb.G_matrix(0, 4, 1.0, 0.5)


# ---------------------------------------------------------------------------
# C kernel
# ---------------------------------------------------------------------------

def test_c_equal_degree_equal_k_elementary():
    # (2/pi) k^2 int r^2 j_0(kr)^2 dr has an elementary antiderivative
    for k in (0.4, 0.9, 1.3):
        expect = 2 / math.pi * ((25.0 - 15.0) / 2
                                - (math.sin(2 * k * 25) - math.sin(2 * k * 15)) / (4 * k))
        assert sb.C_kernel(0, 0, k, k, 15.0, 25.0) == pytest.approx(expect, abs=1e-12)


def test_c_closed_forms_vs_quadrature():
    # the library's quadrature against the Lommel closed forms (cross-k and
    # equal-k) and the independent quadrature oracle
    for l, k, k2 in [(2, 0.8, 1.1), (5, 1.3, 1.3)]:
        c = sb.C_kernel(l, l, k, k2, 15.0, 25.0)
        assert c == pytest.approx(C_closed_form(l, k, k2, 15.0, 25.0), abs=1e-12)
        assert c == pytest.approx(c_quad_oracle(l, l, k, k2, 15.0, 25.0), abs=1e-9)
    # mixed degrees have no closed form
    assert sb.C_kernel(1, 4, 0.7, 1.2, 15.0, 25.0) == pytest.approx(
        c_quad_oracle(1, 4, 0.7, 1.2, 15.0, 25.0), abs=1e-10)


@pytest.mark.parametrize("R1", [0.0, 15.0])
def test_c_tensor_same_degree_vs_closed_forms(R1):
    band = sb.FourierBesselBand(1.4, 6, 20)
    ks = band.k_samples
    C = _c_tensor(band, R1, 25.0)
    for l in (0, 1, 3, 5):
        for n, n2 in [(0, 0), (4, 11), (19, 19), (19, 2)]:
            closed = C_closed_form(l, ks[n], ks[n2], R1, 25.0)
            assert C[l, n, l, n2] == pytest.approx(closed, abs=1e-12)
            assert sb.C_kernel(l, l, ks[n], ks[n2], R1, 25.0) == pytest.approx(
                closed, abs=1e-12)


def test_c_empty_interval():
    assert sb.C_kernel(3, 3, 1.0, 1.0, 20.0, 20.0) == 0.0


def test_c_domain_errors():
    with pytest.raises(ValueError):
        sb.C_kernel(-1, 0, 1.0, 1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        sb.C_kernel(0, 0, 0.0, 1.0, 0.0, 1.0)


# ---------------------------------------------------------------------------
# assembled kernels
# ---------------------------------------------------------------------------

def test_kernel_fl_entry_full_ball_identity():
    # every fixed-order block of the full ball is the identity
    band = sb.FourierLaguerreBand(3, 3)
    for m in range(band.L):
        K = kernels.kernel_fl_fixed_order(m, band, sb.full_ball())
        assert np.abs(K - np.eye((band.L - m) * band.P)).max() < 1e-12


def test_kernel_fl_entry_azimuthal_orthogonality():
    # an azimuthally symmetric band couples no two different orders m, m'
    L = 4
    G = sb.G_mask_matrix(sb.AngularMask.band(T1, T2, L), L)
    m_of_row = np.concatenate([np.arange(-l, l + 1) for l in range(L)])
    cross = m_of_row[:, None] != m_of_row[None, :]
    assert np.abs(G[cross]).max() < 1e-15
    assert np.abs(G[2 * 2 + 2 + 1, 2 * 2 + 2 + 2]) < 1e-15


def test_kernel_fl_entry_vs_2d_quadrature():
    # entries of the fixed-order blocks against a tensor quadrature of
    # int_R Z_lmp Z*_l'mp' dv
    band = sb.FourierLaguerreBand(5, 5)
    region = sb.ProductSymmetric(15, 25, T1, T2)
    rrule = specfun.gauss_legendre_rule(60, 15.0, 25.0)
    trule = specfun.gauss_legendre_rule(60, T1, T2)
    for (idx1, idx2) in [((2, 1, 3), (4, 1, 0)), ((3, -2, 1), (2, -2, 4)),
                         ((0, 0, 0), (0, 0, 0))]:
        l, m, p = idx1
        l2, m2, p2 = idx2
        Kt = specfun.laguerre_K_table(max(p, p2), rrule.nodes)
        rad = float(np.sum(rrule.weights * rrule.nodes ** 2 * Kt[p] * Kt[p2]))
        Pb = specfun.norm_alf_table(5, abs(m), trule.nodes)
        ang = 2 * math.pi * float(np.sum(
            trule.weights * np.sin(trule.nodes)
            * Pb[l - abs(m)] * Pb[l2 - abs(m)]))
        expect = rad * ang
        K = kernels.kernel_fl_fixed_order(abs(m), band, region)
        got = K[(l - abs(m)) * band.P + p, (l2 - abs(m)) * band.P + p2]
        assert got == pytest.approx(expect, abs=1e-10)


def test_kernel_fl_entry_band_errors():
    band = sb.FourierLaguerreBand(3, 3)
    with pytest.raises(IndexError):
        band.flat_index(3, 0, 0)


def test_kernel_fb_fixed_order_symmetric_and_bounded(ref_region):
    band = sb.FourierBesselBand(1.0, 6, 20)
    B = sb.kernel_fb_fixed_order(2, band, ref_region)
    assert np.abs(B - B.T).max() < 1e-12 * np.abs(B).max()
    ev = np.linalg.eigvalsh(B)
    assert ev.min() > -1e-9
    assert ev.max() < 1 + 1e-9


def test_kernel_fb_trace_matches_shannon(ref_region):
    band = sb.FourierBesselBand(1.0, 8, 60)
    total = 0.0
    for m in range(band.L):
        B = sb.kernel_fb_fixed_order(m, band, ref_region)
        total += (2.0 if m > 0 else 1.0) * float(np.trace(B))
    analytic = sb.shannon_fb(ref_region, band)
    assert total == pytest.approx(analytic, rel=0.01)


def test_kernel_fb_fixed_order_matches_dense_oracle(ref_region):
    band = sb.FourierBesselBand(1.0, 6, 20)
    shell = sb.AzimuthallySymmetric.from_indicator(
        lambda r, t: (t < 1.0).astype(float), 15.0, 25.0, n_r=24, n_theta=12)
    for region in (ref_region, shell):
        for m in (0, 2, 5):
            B = sb.kernel_fb_fixed_order(m, band, region)
            assert np.abs(B - fb_dense_block(m, band, region)).max() < 1e-13


def test_kernel_fb_union_is_sum_of_members():
    band = sb.FourierBesselBand(1.0, 5, 15)
    a = sb.ProductSymmetric(15.0, 19.0, T1, T2)
    b = sb.ProductSymmetric(21.0, 25.0, 0.2, 0.9)
    for m in (0, 3):
        B = sb.kernel_fb_fixed_order(m, band, sb.RegionUnion((a, b)))
        parts = (sb.kernel_fb_fixed_order(m, band, a)
                 + sb.kernel_fb_fixed_order(m, band, b))
        assert np.abs(B - parts).max() < 1e-14


def test_kernel_fixed_order_peak_is_its_result(ref_region):
    # the block is one product F F^T: no temporary of its size rides along
    band = sb.FourierBesselBand(1.4, 20, 70)
    tracemalloc.start()
    try:
        B = kernels.kernel_fixed_order(0, band, ref_region)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert B.shape == (band.L * band.M,) * 2
    assert peak <= 1.25 * B.nbytes, (peak, B.nbytes)


def test_product_factor_gram_side_matches_dense_factor(ref_region):
    # F_m = (sum Q_l) K_m with orthonormal Q_l, against the dense product
    # factor D[(l, n), (a, b)] = T[l, n, a] A_m[l, b] of the radial modes T and
    # the rank cut A_m of G^m's factor: F_m is D, and K_m^T K_m is its Gram side
    band = sb.FourierBesselBand(1.4, 20, 140)
    Q, factor = kernels._order_factors(band, ref_region)
    T = kernels._radial_modes(band, ref_region.R1, ref_region.R2)
    assert Q.shape == T.shape
    gram_Q = Q.transpose(0, 2, 1) @ Q
    assert np.abs(gram_Q - np.eye(Q.shape[2])).max() < 1e-14
    for m in (0, 5, 19):
        A = kernels._rank_cut(kernels._band_factor(m, band.L, T1, T2))
        G = sb.G_matrix(m, band.L, T1, T2)
        assert np.abs(A @ A.T - G).max() < 1e-14
        # the cut keeps the rank of G^m's own eigenvalues
        assert A.shape[1] == np.count_nonzero(
            kernels._above_rank_floor(np.linalg.eigvalsh(G), band.L - m))
        D = (T[m:, :, :, None] * A[:, None, None, :]).reshape((band.L - m) * band.M, -1)
        K = factor(m)
        assert K.shape == ((band.L - m) * Q.shape[2], D.shape[1])
        F = kernels._lift(Q[m:], K)
        assert np.abs(F - D).max() < 1e-13 * np.abs(D).max(), m
        gram = D.T @ D
        assert np.abs(K.T @ K - gram).max() < 1e-13 * np.abs(gram).max(), m
    # the FB oracle case "product-direct" relies on every K_m of this band
    # being no wider than it is tall ((L - m) q <= q r_m)
    _, small = kernels._order_factors(sb.FourierBesselBand(1.0, 3, 8), ref_region)
    assert all(small(m).shape[1] >= small(m).shape[0] for m in range(3))


@pytest.mark.parametrize("R1, R2", [(15.0, 25.0), (5.0, 15.0), (20.0, 30.0), (15.0, math.inf)])
@pytest.mark.parametrize("P", [31, 64])
def test_fl_radial_modes_reproduce_E(P, R1, R2):
    # FL product members take their radial modes from the SVD of the K_p
    # table, as FB ones from the Bessel table: T T^T is E, and the rank, which
    # sets each FL union's Gram side, is that of E's own eigenvalues
    E = sb.E_matrix(P, R1, R2)
    T = kernels._radial_modes(sb.FourierLaguerreBand(P, 4), R1, R2)
    assert T.shape[:2] == (1, P)
    assert np.abs(T[0] @ T[0].T - E).max() < 1e-14 * np.linalg.norm(E, 2)
    assert T.shape[2] == np.count_nonzero(kernels._above_rank_floor(np.linalg.eigvalsh(E), P))


def test_grams_are_exactly_hermitian():
    # every Gram is formed as A A^H, which numpy builds from one triangle and
    # mirrors, so no entry may differ from its transpose by even one rounding
    # (a plain product F @ F.T.copy() leaves ~1e-17 skews at these sizes)
    sloped = sb.AzimuthallySymmetric.from_indicator(
        lambda r, t: ((t > 0.3 + 0.02 * (r - 15.0)) & (t < 1.2)).astype(float),
        15.0, 25.0, n_r=16, n_theta=16)
    union = sb.RegionUnion((sb.ProductSymmetric(15.0, 19.0, T1, T2),
                            sb.ProductSymmetric(21.0, 25.0, 0.2, 0.9)))
    grams = [(sb.E_matrix(31, 15.0, R2), R2) for R2 in (25.0, math.inf)]
    grams += [(sb.G_matrix(m, 20, T1, T2), m) for m in range(20)]
    mask = sb.AngularMask.full_sphere_grid(
        12, indicator=lambda t, p: ((t > 0.7) & (t < 1.9) & (p < 4.0)).astype(float))
    grams.append((sb.G_mask_matrix(mask, 10), "mask"))
    for band in (sb.FourierLaguerreBand(31, 8), sb.FourierBesselBand(1.0, 6, 20)):
        for region in (sb.ProductSymmetric(15.0, 25.0, T1, T2), union, sloped):
            grams += [(kernels.kernel_fixed_order(m, band, region), (band, region, m))
                      for m in range(band.L)]
    for K, case in grams:
        assert np.array_equal(K, K.conj().T), case


def test_kernel_fl_fixed_order_matches_dense_oracle(ref_region):
    # F F^T of the block factor against the kron-sum and grid assemblies
    band = sb.FourierLaguerreBand(31, 8)
    azim = sb.AzimuthallySymmetric.from_indicator(
        lambda r, t: ((t > T1) & (t < T2)).astype(float), 15.0, 25.0,
        n_r=24, n_theta=12)
    union = sb.RegionUnion((sb.ProductSymmetric(15.0, 19.0, T1, T2),
                            sb.ProductSymmetric(21.0, 25.0, 0.2, 0.9)))
    open_union = sb.RegionUnion((sb.ProductSymmetric(2.0, 5.0, T1, T2),
                                 sb.ProductSymmetric(15.0, math.inf, T1, T2)))
    for region in (ref_region, azim, union, open_union):
        for m in (0, 2, 5):
            K = kernels.kernel_fl_fixed_order(m, band, region)
            dense = fl_dense_block(m, band, region)
            assert np.abs(K - dense).max() < 1e-13 * np.abs(dense).max(), (region, m)


@pytest.mark.parametrize("kernel, band", [
    (kernels.kernel_fb_fixed_order, sb.FourierBesselBand(1.0, 4, 10)),
    (kernels.kernel_fl_fixed_order, sb.FourierLaguerreBand(6, 4)),
], ids=["fb", "fl"])
@pytest.mark.parametrize("name", ["product", "azimuthal"])
def test_fixed_order_kernels_reject_oriented_regions(kernel, band, name):
    # an oriented region has no fixed-order blocks in its rotated frame
    base = {"product": sb.ProductSymmetric(15.0, 25.0, T1, T2),
            "azimuthal": sb.AzimuthallySymmetric.from_indicator(
                lambda r, t: (t < 1.0).astype(float), 15.0, 25.0, n_r=8, n_theta=6)}[name]
    region = dataclasses.replace(base, orientation=(0.4, 0.1))
    with pytest.raises(ValueError, match="base frame"):
        kernel(1, band, region)


def test_kernel_fb_region_type_error():
    band = sb.FourierBesselBand(1.0, 4, 10)
    mask = sb.AngularMask.full_sphere_grid(4)
    with pytest.raises(TypeError):
        sb.kernel_fb_fixed_order(0, band, sb.ProductMask(mask, 1.0, 2.0))


def test_g_mask_full_sky_identity():
    mask = sb.AngularMask.full_sphere_grid(8)
    G = sb.G_mask_matrix(mask, 8)
    assert np.abs(G - np.eye(64)).max() < 1e-10


def test_g_mask_band_matches_g_matrix():
    L = 12
    mask = sb.AngularMask.band(T1, T2, L)
    G = sb.G_mask_matrix(mask, L)
    # block-diagonal over m: zero cross-order couplings
    for l in range(L):
        for l2 in range(L):
            blk = G[l * l:(l + 1) * (l + 1), l2 * l2:(l2 + 1) * (l2 + 1)]
            for i, m in enumerate(range(-l, l + 1)):
                for j, m2 in enumerate(range(-l2, l2 + 1)):
                    if m != m2:
                        assert abs(blk[i, j]) < 1e-10
    for m in (0, 3, 7):
        Gm = sb.G_matrix(m, L, T1, T2)
        rows = [l * l + l + m for l in range(m, L)]
        assert np.abs(G[np.ix_(rows, rows)] - Gm).max() < 1e-10


def test_kernel_fl_mask_factored_trace():
    L, P = 10, 6
    band = sb.FourierLaguerreBand(P, L)
    mask = sb.AngularMask.full_sphere_grid(
        L, indicator=lambda t, p: ((t > 0.7) & (t < 1.9) & (p < 4.0)).astype(float))
    region = sb.ProductMask(mask, 15.0, 25.0)
    E, G = sb.E_matrix(P, 15.0, 25.0), sb.G_mask_matrix(mask, L)
    # trace(E) * trace(G_mask) equals the radially-independent Shannon number
    trace = float(np.trace(E)) * float(np.trace(G).real)
    assert trace == pytest.approx(sb.shannon_fl(region, band), rel=1e-8)
    dense = np.kron(G, E)
    assert dense.shape == (band.size, band.size)
    assert np.trace(dense).real == pytest.approx(trace, rel=1e-12)


def test_g_mask_factor_matches_dense_oracle():
    L = 10
    mask = sb.AngularMask.full_sphere_grid(
        12, indicator=lambda t, p: ((t > 0.7) & (t < 1.9) & (p < 4.0)).astype(float))
    A = kernels._mask_factor(mask, L)
    assert A.shape == (L * L, int(mask.indicator.sum()))
    G = sb.G_mask_matrix(mask, L)
    assert np.abs(G - G_mask_dense(mask, L)).max() < 1e-14
    # A A^H is Hermitian without symmetrization
    assert np.abs(G - G.conj().T).max() < 1e-15
    # the dense FL mask kernel is E (x) G_mask over the band's index map
    band = sb.FourierLaguerreBand(3, L)
    E = sb.E_matrix(3, 15.0, 25.0)
    K = np.kron(G, E)
    for a, b in (((2, 1, 0), (2, 1, 0)), ((4, -3, 1), (7, 2, 2))):
        row, col = a[0] ** 2 + a[0] + a[1], b[0] ** 2 + b[0] + b[1]
        assert K[band.flat_index(*a), band.flat_index(*b)] == pytest.approx(
            E[a[2], b[2]] * G[row, col], abs=1e-15)


def test_kernel_fl_mask_grid_too_coarse():
    mask = sb.AngularMask.full_sphere_grid(4)
    with pytest.raises(ValueError, match="band-limit 4 is below L=8"):
        sb.G_mask_matrix(mask, 8)


def test_analytic_vs_quadrature_randomized(rng):
    # randomized sweep across the desk-scale parameter ranges
    for _ in range(20):
        R1 = float(rng.uniform(0.0, 20.0))
        R2 = R1 + float(rng.uniform(0.5, 20.0))
        p = int(rng.integers(0, 31))
        q = int(rng.integers(0, 31))
        E = sb.E_matrix(max(p, q) + 1, R1, R2)
        Eq = e_quad_oracle(max(p, q) + 1, R1, R2)
        assert abs(E[p, q] - Eq[p, q]) < 1e-9
        t1 = float(rng.uniform(0.0, 2.0))
        t2 = t1 + float(rng.uniform(0.1, math.pi - t1 - 0.01))
        m = int(rng.integers(0, 20))
        L = int(rng.integers(m + 1, 21))
        Ga = sb.G_matrix(m, L, t1, t2)
        Gq = g_quad_oracle(m, L, t1, t2)
        assert np.abs(Ga - Gq).max() < 1e-9
        k = float(rng.uniform(0.05, 2.0))
        k2 = float(rng.uniform(0.05, 2.0))
        l = int(rng.integers(0, 20))
        assert sb.C_kernel(l, l, k, k2, R1, R2) == pytest.approx(
            c_quad_oracle(l, l, k, k2, R1, R2), abs=1e-9)
