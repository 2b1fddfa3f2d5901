"""Special-function tests: every analytic value is checked against an
independent oracle (ascending series, binomial sums, adaptive quadrature,
sympy's exact Wigner symbols).

The library computes each function as a table; the scalar forms, the
Wigner-3j symbols, the Jacobi-polynomial Wigner d and the truncated
exponential moments live in tests/oracles.py, where they back the kernel
oracles; their tests stay here.
"""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from oracles import (radial_moment_integral, spherical_jn_per_degree, wigner_3j,
                     wigner_d_beta, wigner_d_jacobi)
from slepian_ball import kernels, regions, specfun, transforms
from slepian_ball.specfun import (QuadratureRule, gauss_legendre_rule, laguerre_K_table,
                                  sph_harm_matrix, spherical_jn_table, wigner_d_matrix)


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def bessel_series_oracle(l, x, terms=50):
    """Ascending series j_l(x) = sum_s (-1)^s x^{l+2s} / (2^s s! (2l+2s+1)!!)."""
    with mp.workdps(40):
        tot = mp.mpf(0)
        xm = mp.mpf(x)
        for s in range(terms):
            tot += ((-1) ** s * xm ** (l + 2 * s)
                    / (mp.mpf(2) ** s * mp.factorial(s) * mp.fac2(2 * l + 2 * s + 1)))
        return float(tot)


def bessel_mp_oracle(l, x):
    """j_l(x) = sqrt(pi / 2x) J_{l+1/2}(x) in 40-digit mpmath."""
    if x == 0.0:
        return 1.0 if l == 0 else 0.0
    with mp.workdps(40):
        return float(mp.sqrt(mp.pi / (2 * mp.mpf(x))) * mp.besselj(l + mp.mpf(1) / 2, x))


def naive_downward_table(lmax, x, top):
    """Unscaled Miller recurrence from `top`, normalised by the sum rule."""
    out = np.empty((lmax + 1, x.size))
    above, cur, norm = np.zeros_like(x), np.ones_like(x), (2 * top + 1) * np.ones_like(x)
    for l in range(top, 0, -1):
        if l <= lmax:
            out[l] = cur
        above, cur = cur, (2 * l + 1) / x * cur - above
        norm += (2 * l - 1) * cur * cur
    out[0] = cur
    return out / np.sqrt(norm)


def laguerre_binomial_oracle(p, r):
    """Direct alternating binomial sum; safe only at low degree."""
    L = sum(math.comb(p + 2, p - j) * (-r) ** j / math.factorial(j)
            for j in range(p + 1))
    return math.sqrt(math.factorial(p) / math.factorial(p + 2)) * math.exp(-r / 2) * L


# ---------------------------------------------------------------------------
# spherical Bessel
# ---------------------------------------------------------------------------

def test_bessel_series_limits():
    J = spherical_jn_table(1, np.array([0.0, math.pi]))
    assert J[0, 0] == 1.0
    assert J[1, 0] == 0.0
    assert abs(J[0, 1]) < 1e-15


def test_bessel_vs_series_oracle():
    # frozen from the 50-term ascending series: j_5(10) = -0.055534511621452181
    assert abs(spherical_jn_table(5, np.array([10.0]))[5, 0]
               - (-0.055534511621452181)) < 1e-12
    for l, x in [(0, 0.5), (3, 2.0), (5, 10.0), (12, 7.5), (20, 15.0)]:
        j = spherical_jn_table(l, np.array([x]))[l, 0]
        assert abs(j - bessel_series_oracle(l, x)) < 1e-12


def test_bessel_minus_one_convention():
    xs = np.array([0.3, 1.7, 25.0])
    assert np.allclose(specfun.spherical_j_minus1(xs), np.cos(xs) / xs, rtol=0, atol=1e-15)


def test_bessel_domain_errors():
    with pytest.raises(ValueError):
        spherical_jn_table(0, np.array([-0.5]))


def test_bessel_accuracy_large_orders():
    # spot checks against arbitrary-precision values over l <= 100, x <= 200,
    # each from a table that stops at its own degree: the recurrence's start
    # depends on lmax, unlike in test_bessel_table_accuracy_large_orders
    rng = np.random.default_rng(7)
    for _ in range(40):
        l = int(rng.integers(0, 101))
        x = float(rng.uniform(1e-3, 200.0))
        assert abs(spherical_jn_table(l, np.array([x]))[l, 0]
                   - bessel_mp_oracle(l, x)) < 1e-12


def test_bessel_recurrence_residual():
    # j_{l-1}(x) + j_{l+1}(x) = (2l+1)/x j_l(x)
    xs = np.linspace(0.1, 100.0, 57)
    J = specfun.spherical_jn_table(41, xs)
    scale = np.abs(J).max()
    for l in range(1, 40):
        resid = np.abs(J[l - 1] + J[l + 1] - (2 * l + 1) / xs * J[l])
        assert resid.max() <= 1e-10 * scale


def test_bessel_table_matches_scipy_and_mpmath():
    # within 1e-13 of the envelope min(1, 1/x) against the per-degree scipy
    # table on a dense grid and against 40-digit values at sampled points
    rng = np.random.default_rng(3)
    for lmax, xmax in ((20, 36.0), (64, 130.0)):
        xs = np.concatenate([[0.0, 1e-9, 1e-3, 0.5], np.linspace(0.0, xmax, 401),
                             rng.uniform(0.0, xmax, 8)])
        J = specfun.spherical_jn_table(lmax, xs)
        env = np.minimum(1.0, 1.0 / np.maximum(xs, 1e-300))
        assert (np.abs(J - spherical_jn_per_degree(lmax, xs)) / env).max() < 1e-13
        for i in (0, 1, 2, 3, *range(xs.size - 8, xs.size)):
            ref = np.array([bessel_mp_oracle(l, float(xs[i])) for l in range(lmax + 1)])
            assert np.abs(J[:, i] - ref).max() < 1e-13 * env[i], (lmax, xs[i])


def test_bessel_table_accuracy_large_orders():
    # the scalar's requirement, read off one table: l <= 100, x <= 200
    rng = np.random.default_rng(7)
    ls = rng.integers(0, 101, 40)
    xs = rng.uniform(1e-3, 200.0, 40)
    J = specfun.spherical_jn_table(100, xs)
    for i, (l, x) in enumerate(zip(ls, xs)):
        assert abs(J[l, i] - bessel_mp_oracle(int(l), float(x))) < 1e-12


def test_bessel_table_edge_arguments():
    # x = 0 and tiny x take the series limit x^l/(2l+1)!!, large x needs a
    # long recurrence; none may overflow, divide by zero or underflow
    xs = np.array([0.0, 1e-300, 1e-20, 5e3])
    with np.errstate(all="raise"):
        J = specfun.spherical_jn_table(30, xs)
    assert np.all(np.isfinite(J))
    assert J[0, 0] == 1.0 and not J[1:, 0].any()
    assert J[0, 1] == 1.0 and J[1, 1] == pytest.approx(1e-300 / 3, rel=1e-15)
    assert not J[2:, 1].any()
    ref = np.array([bessel_mp_oracle(l, 1e-20) for l in range(31)])
    assert np.allclose(J[:, 2], ref, rtol=1e-15, atol=1e-300)
    # rounding accumulates over the ~5200 recurrence steps: 2.4e-13 of the
    # envelope here, against 1.1e-14 at x <= 130
    ref = np.array([bessel_mp_oracle(l, 5e3) for l in range(31)])
    assert np.abs(J[:, 3] - ref).max() < 1e-12 / 5e3


def test_bessel_table_tiny_argument_breaks_naive_recurrence():
    # the series limit is needed: the plain recurrence overflows at tiny x
    x = np.array([1e-300])
    with np.errstate(all="raise"), pytest.raises(FloatingPointError):
        naive_downward_table(30, x, top=60)
    with np.errstate(all="raise"):
        J = specfun.spherical_jn_table(30, x)
    assert J[0, 0] == 1.0


def test_bessel_table_keeps_argument_shape():
    x = np.linspace(0.0, 30.0, 12).reshape(3, 4)
    J = specfun.spherical_jn_table(9, x)
    assert J.shape == (10, 3, 4)
    assert np.array_equal(J.reshape(10, -1), specfun.spherical_jn_table(9, x.ravel()))


def test_bessel_table_without_series_arguments_is_the_recurrence_table():
    # with no argument in the series range the recurrence's table is returned
    # as it is; the columns equal those of a call that also takes the series
    x = np.linspace(0.5, 40.0, 9)
    mixed = specfun.spherical_jn_table(12, np.append(x, 0.0))
    assert np.array_equal(specfun.spherical_jn_table(12, x), mixed[:, :-1])


@pytest.mark.parametrize("shape", [(0,), (0, 3)])
def test_radial_tables_of_no_arguments_are_empty(shape):
    # an empty argument array has no largest value to start a recurrence from
    x = np.empty(shape)
    assert specfun.spherical_jn_table(7, x).shape == (8,) + shape
    assert specfun.laguerre_K_table(7, x).shape == (8,) + shape


@pytest.mark.parametrize("bad", [-0.5, -1e-300, np.nan, np.inf, -np.inf])
def test_bessel_table_rejects_bad_arguments(bad):
    with pytest.raises(ValueError):
        specfun.spherical_jn_table(4, np.array([1.0, bad]))


# ---------------------------------------------------------------------------
# Laguerre radial functions
# ---------------------------------------------------------------------------

def test_laguerre_zero_degree():
    r = np.array([0.0, 1.0, 7.3, 40.0])
    assert np.allclose(laguerre_K_table(0, r)[0], np.exp(-r / 2) / math.sqrt(2),
                       rtol=1e-14, atol=0)


def test_laguerre_binomial_oracle_low_degree():
    # frozen binomial-sum value at (3, 2.5)
    assert abs(laguerre_K_table(3, np.array([2.5]))[3, 0] - (-0.12679416491170742)) < 1e-12
    rs = (0.4, 3.0, 11.0)
    K = laguerre_K_table(7, np.array(rs))
    for p in range(8):
        for i, r in enumerate(rs):
            assert K[p, i] == pytest.approx(laguerre_binomial_oracle(p, r), abs=1e-12)


def test_laguerre_orthonormality():
    # Gauss-Laguerre with >= 2P nodes: integrand e^{-r} poly(2p+2) is exact
    P = 41
    rule = specfun.gauss_laguerre_scaled_rule(2 * P, 0.0)
    Kt = specfun.laguerre_K_table(P - 1, rule.nodes)
    W = Kt * (rule.weights * rule.nodes ** 2)
    gram = W @ Kt.T
    assert np.abs(gram - np.eye(P)).max() < 1e-10


def test_laguerre_decay():
    K = laguerre_K_table(40, np.array([500.0]))
    for p in (0, 10, 40):
        assert abs(K[p, 0]) < 1e-50


@pytest.mark.parametrize("r", [900.0, 1594.4833371599432, 2700.0])
def test_laguerre_rescaled_at_large_radius_vs_mpmath(r):
    # L_p^(2)(r) passes the float range here; K_p(r) is of order 1e-5
    ps = [100, 200, 399, 600, 699]
    K = laguerre_K_table(699, np.array([r]))[:, 0]
    assert np.isfinite(K).all()
    with mp.workdps(60):
        ref = [float(mp.exp(-mp.mpf(r) / 2) * mp.laguerre(p, 2, mp.mpf(r))
                     / mp.sqrt((p + 1) * (p + 2))) for p in ps]
    assert K[ps] == pytest.approx(ref, rel=2e-14)


# ---------------------------------------------------------------------------
# spherical harmonics
# ---------------------------------------------------------------------------

def test_harmonic_constant():
    Y = sph_harm_matrix(1, np.array([0.1, 2.0, 3.0]), np.array([0.2, 4.0, 0.0]))
    assert np.allclose(Y[0], 1.0 / math.sqrt(4 * math.pi), rtol=1e-15, atol=0)


def test_harmonic_conjugate_symmetry(rng):
    L = 12
    th = rng.uniform(0, math.pi, 100)
    ph = rng.uniform(0, 2 * math.pi, 100)
    Y = sph_harm_matrix(L, th, ph)
    for l in range(L):
        for m in range(-l, l + 1):
            lhs = Y[l * l + l + m]
            rhs = (-1) ** m * np.conj(Y[l * l + l - m])
            assert np.abs(lhs - rhs).max() < 1e-13


def test_harmonic_quadrature_orthonormality():
    # Gauss-Legendre x uniform-phi oracle over the sphere, l, l' <= 20
    L = 21
    rule_x, rule_w = np.polynomial.legendre.leggauss(L)
    theta = np.arccos(rule_x)
    n_phi = 2 * L
    phi = 2 * math.pi * np.arange(n_phi) / n_phi
    T, P = np.meshgrid(theta, phi, indexing="ij")
    W = np.repeat(rule_w[:, None], n_phi, axis=1) * (2 * math.pi / n_phi)
    Y = specfun.sph_harm_matrix(L, T.ravel(), P.ravel())
    gram = (Y * W.ravel()) @ Y.conj().T
    assert np.abs(gram - np.eye(L * L)).max() < 1e-12


def test_harmonic_matches_scipy(rng):
    from scipy.special import sph_harm_y
    L = 15
    th = rng.uniform(0, math.pi, 30)
    ph = rng.uniform(0, 2 * math.pi, 30)
    Y = sph_harm_matrix(L, th, ph)
    for l in range(L):
        for m in range(-l, l + 1):
            ref = sph_harm_y(l, m, th, ph)
            assert np.abs(Y[l * l + l + m] - ref).max() < 1e-12


def test_harmonic_domain_errors():
    # the Legendre table serves orders 0 <= m < L only
    with pytest.raises(ValueError):
        specfun.norm_alf_table(3, 3, np.array([0.5]))
    with pytest.raises(ValueError):
        specfun.norm_alf_table(3, -1, np.array([0.5]))


# ---------------------------------------------------------------------------
# Wigner 3j
# ---------------------------------------------------------------------------

def test_wigner3j_reference_values():
    assert wigner_3j(0, 0, 0, 0, 0, 0) == pytest.approx(1.0, abs=1e-15)
    # Racah-formula hand evaluation
    assert wigner_3j(1, 1, 0, 0, 0, 0) == pytest.approx(-1 / math.sqrt(3), abs=1e-14)
    assert wigner_3j(1, 1, 1, 0, 0, 0) == 0.0  # odd-parity all-zero m


def test_wigner3j_selection_rules():
    assert wigner_3j(1, 1, 3, 0, 0, 0) == 0.0          # triangle violation
    assert wigner_3j(2, 2, 2, 1, 0, 0) == 0.0          # m-sum violation
    assert wigner_3j(2, 2, 2, 3, -3, 0) == 0.0         # |m| > l


def test_wigner3j_vs_sympy(rng):
    from sympy.physics.wigner import wigner_3j as sympy_3j
    for _ in range(25):
        l1 = int(rng.integers(0, 12))
        l2 = int(rng.integers(0, 12))
        l3 = int(rng.integers(abs(l1 - l2), l1 + l2 + 1))
        m1 = int(rng.integers(-l1, l1 + 1))
        m2 = int(rng.integers(-l2, l2 + 1))
        m3 = -m1 - m2
        if abs(m3) > l3:
            continue
        ref = float(sympy_3j(l1, l2, l3, m1, m2, m3).evalf(25))
        assert abs(wigner_3j(l1, l2, l3, m1, m2, m3) - ref) < 1e-13


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10), st.integers(0, 10), st.data())
def test_wigner3j_column_permutation(l1, l2, data):
    l3 = data.draw(st.integers(abs(l1 - l2), l1 + l2))
    m1 = data.draw(st.integers(-l1, l1))
    m2 = data.draw(st.integers(-l2, l2))
    m3 = -m1 - m2
    if abs(m3) > l3:
        return
    base = wigner_3j(l1, l2, l3, m1, m2, m3)
    even = wigner_3j(l2, l3, l1, m2, m3, m1)
    odd = wigner_3j(l2, l1, l3, m2, m1, m3)
    sign = (-1.0) ** (l1 + l2 + l3)
    assert even == pytest.approx(base, abs=1e-13)
    assert odd == pytest.approx(sign * base, abs=1e-13)


# ---------------------------------------------------------------------------
# Wigner d
# ---------------------------------------------------------------------------

def test_wigner_d_identity_rotation():
    for l in (0, 1, 3, 7, 40):
        assert np.abs(wigner_d_matrix(l, 0.0) - np.eye(2 * l + 1)).max() < 1e-14


def test_wigner_d_closed_forms():
    for beta in (0.3, 1.2, 2.8):
        d = wigner_d_matrix(1, beta)  # rows and columns m, n = -1, 0, 1
        assert d[1, 1] == pytest.approx(math.cos(beta), abs=1e-14)
        assert d[2, 1] == pytest.approx(-math.sin(beta) / math.sqrt(2), abs=1e-14)


def test_wigner_d_vs_sympy():
    from sympy import N as sN
    from sympy import re
    from sympy.physics.quantum.spin import Rotation
    cases = [(2, 2, -1, 1.1), (3, 1, -2, 0.4), (5, 4, 0, 2.2), (7, -3, 5, 0.9)]
    for (l, m, n, b) in cases:
        ref = float(re(sN(Rotation.d(l, m, n, b).doit(), 20)))
        assert abs(wigner_d_matrix(l, b)[m + l, n + l] - ref) < 1e-13
        assert abs(wigner_d_beta(l, m, n, b) - ref) < 1e-13


@pytest.mark.parametrize("beta", [0.7, 2.3])
def test_wigner_d_matrix_vs_jacobi_oracle(beta):
    for l in range(73):
        assert np.abs(wigner_d_matrix(l, beta) - wigner_d_jacobi(l, beta)).max() < 1e-13, l


def test_wigner_d_row_unitarity(rng):
    for _ in range(12):
        l = int(rng.integers(1, 30))
        beta = float(rng.uniform(0.01, math.pi - 0.01))
        d = wigner_d_matrix(l, beta)
        assert np.abs(np.einsum("mn,mn->m", d, d) - 1.0).max() < 1e-12


def test_wigner_d_orthonormal_rows_high_degree():
    l, beta = 72, 1.234
    D = wigner_d_matrix(l, beta)
    assert np.abs(D @ D.T - np.eye(2 * l + 1)).max() < 1e-12


def test_wigner_d_domain_error():
    with pytest.raises(ValueError):
        wigner_d_matrix(-1, 0.5)
    with pytest.raises(ValueError):  # the oracle's |m| <= ell check
        wigner_d_beta(2, 3, 0, 0.5)


# ---------------------------------------------------------------------------
# truncated exponential moments
# ---------------------------------------------------------------------------

def test_radial_moment_full_line():
    assert radial_moment_integral(0, 0.0, math.inf) == pytest.approx(1.0, rel=1e-14)
    assert radial_moment_integral(2, 0.0, math.inf) == pytest.approx(2.0, rel=1e-14)


def test_radial_moment_vs_adaptive_quadrature():
    # frozen adaptive-quadrature oracle value for (4, 15, 25)
    assert radial_moment_integral(4, 15.0, 25.0) == pytest.approx(
        0.020552983258387439, rel=1e-11)
    for j, a, b in [(1, 0.5, 3.0), (7, 2.0, 40.0), (60, 15.0, 25.0), (12, 0.0, 1.0)]:
        ref, _ = quad(lambda r: math.exp(-r) * r ** j, a, b, limit=200)
        assert radial_moment_integral(j, a, b) == pytest.approx(ref, rel=1e-11)


def test_radial_moment_large_degree():
    # intervals far left of the integrand peak: values representable only
    # through log-domain accumulation
    with mp.workdps(40):
        ref = float(mp.gammainc(301, 5, 10))
        ref2 = float(mp.gammainc(201, 20, 30))
    assert radial_moment_integral(300, 5.0, 10.0) == pytest.approx(ref, rel=1e-11)
    assert radial_moment_integral(200, 20.0, 30.0) == pytest.approx(ref2, rel=1e-11)


def test_radial_moment_unrepresentable_is_inf():
    # the peak r = j sits inside the interval, so the value exceeds 1e308
    assert radial_moment_integral(200, 150.0, 400.0) == math.inf


def test_radial_moment_domain_error():
    with pytest.raises(ValueError):
        radial_moment_integral(3, 5.0, 5.0)
    with pytest.raises(ValueError):
        radial_moment_integral(3, 5.0, 2.0)
    with pytest.raises(ValueError):
        radial_moment_integral(-1, 0.0, 1.0)


# ---------------------------------------------------------------------------
# quadrature rules
# ---------------------------------------------------------------------------

def test_gauss_legendre_polynomial_exactness():
    n, a, b = 17, -0.3, 2.7
    rule = gauss_legendre_rule(n, a, b)
    for deg in (0, 5, 2 * n - 1):
        exact = (b ** (deg + 1) - a ** (deg + 1)) / (deg + 1)
        got = rule.nodes ** deg @ rule.weights
        assert got == pytest.approx(exact, rel=1e-12)


def _leggauss_mpmath(n, x):
    """40-digit Gauss-Legendre nodes and weights of the nodes x < 0 and the
    middle one: one Newton step on P_n from the float nodes x, then the
    Christoffel weights 2 / ((1 - x^2) P_n'(x)^2)."""

    def newton_parts(t):
        prev, cur = mp.mpf(1), t  # P_0, P_1
        for j in range(2, n + 1):
            prev, cur = cur, ((2 * j - 1) * t * cur - (j - 1) * prev) / j
        if n == 1:
            prev = mp.mpf(1)
        return cur, n * (prev - t * cur) / (1 - t * t)

    nodes, weights = [], []
    with mp.workdps(40):
        for xi in x[:(n + 1) // 2]:
            t = mp.mpf(float(xi))
            p, d = newton_parts(t)
            t -= p / d
            p, d = newton_parts(t)
            nodes.append(t)
            weights.append(2 / ((1 - t * t) * d * d))
    return nodes, weights


@pytest.mark.parametrize("n", [1, 2, 3, 23, 61, 86, 128, 152, 300])
def test_gauss_legendre_standard_rule_matches_mpmath(n):
    # weights within 1e-13 relative up to n = 152 (2P + 24 at P = 64) and
    # 1e-12 at 300, where numpy's leggauss is off by 4.7e-12 and 6.3e-11; at
    # n = 128 the weights taken at the rounded nodes alone are off by 2.9e-13
    x, w = specfun._leggauss(n)
    nodes, weights = _leggauss_mpmath(n, x)
    with mp.workdps(40):
        node_err = max(abs(mp.mpf(float(a)) - t) for a, t in zip(x, nodes))
        weight_err = max(abs((mp.mpf(float(a)) - t) / t) for a, t in zip(w, weights))
    assert node_err <= 1e-16
    assert weight_err <= (1e-13 if n <= 152 else 1e-12)
    assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])


@pytest.mark.parametrize("n", [61, 152, 300])
def test_gauss_legendre_exact_to_degree_2n_minus_1_at_large_n(n):
    rule = gauss_legendre_rule(n, 0.0, 1.0)
    for deg in (0, 1, n, 2 * n - 2, 2 * n - 1):
        assert rule.nodes ** deg @ rule.weights == pytest.approx(1.0 / (deg + 1), rel=1e-12)


def test_gauss_legendre_nodes_match_numpy():
    # numpy's leggauss polishes the same Golub-Welsch nodes; they agree to 2
    # ulp of each node up to n = 100.  The first wider gaps (n = 110, 150)
    # are nodes within 0.015 of 0, where the mpmath reference puts numpy's
    # node 1.8-2.9 ulp off and this one 1.1-2.2 ulp, both below 1e-17
    for n in range(1, 101):
        x, _ = specfun._leggauss(n)
        ref, _ = np.polynomial.legendre.leggauss(n)
        assert np.all(np.abs(x - ref) <= 2 * np.spacing(np.abs(ref))), n


@pytest.mark.parametrize("build", [lambda n: gauss_legendre_rule(n, 0.0, 1.0),
                                   lambda n: specfun.gauss_laguerre_scaled_rule(n, 0.0)],
                         ids=["legendre", "laguerre"])
def test_standard_rules_check_their_node_count(build):
    for n in (True, False, 2.5, 3.0, "3", None):
        with pytest.raises(TypeError, match="node count n must be an integer"):
            build(n)
    for n in (0, -2):
        with pytest.raises(ValueError, match="node count n must be >= 1"):
            build(n)
    assert np.array_equal(build(np.int64(3)).nodes, build(3).nodes)


def test_gauss_legendre_standard_rule_cached(monkeypatch):
    # the rule runs one eigvalsh of its n x n Jacobi matrix: once per n,
    # whatever the interval and whichever module asks for the rule
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counting_eigvalsh(a, *args, **kwargs):
        calls.append(a.shape[0])
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
    specfun._leggauss.cache_clear()
    specfun._laggauss_scaled.cache_clear()
    rules = [gauss_legendre_rule(23, a, a + 1.5) for a in (-1.0, 0.0, 2.0)]
    kernels.G_matrix(0, 23, 0.3, 1.2)
    kernels.G_matrix(5, 23, 0.1, 2.2)
    # the mask, region and transform grids share the same cache
    regions.AngularMask.full_sphere_grid(23)
    regions.AngularMask.band(0.3, 1.2, 23)
    regions.AzimuthallySymmetric.from_indicator(
        lambda r, t: np.ones_like(r), 1.0, 2.0, n_r=23, n_theta=23)
    # radial rules add one eigensolve per n: the analysis grid's 12-node
    # Gauss-Laguerre rule, the energy grid's 2P + 24 = 30-node Legendre one
    # and the (P + 1)-node Gauss-Laguerre rule on which a finite FL interval
    # weighs its tail past R2, cached like the Legendre rules
    transforms.analysis_grid(kernels.FourierLaguerreBand(3, 23))
    for _ in range(2):
        transforms.region_energy_grid(
            regions.ProductSymmetric(1.0, 2.0, 0.3, 1.2), kernels.FourierLaguerreBand(3, 23))
    assert calls == [23, 12, 4, 30]
    x, w = specfun._leggauss(23)
    for a, rule in zip((-1.0, 0.0, 2.0), rules):
        assert np.array_equal(rule.nodes, (a + 0.75) + 0.75 * x)
        assert np.array_equal(rule.weights, 0.75 * w)
    # the cached standard rule is read-only; each rule owns its arrays
    with pytest.raises(ValueError):
        specfun._leggauss(23)[0][0] = 0.0
    rules[0].nodes[0] = 99.0
    assert gauss_legendre_rule(23, -1.0, 0.5).nodes[0] != 99.0
    laguerre = specfun.gauss_laguerre_scaled_rule(4, 0.0)
    with pytest.raises(ValueError):
        specfun._laggauss_scaled(4)[1][0] = 0.0
    laguerre.nodes[0] = laguerre.weights[0] = 99.0
    again = specfun.gauss_laguerre_scaled_rule(4, 0.0)
    assert again.nodes[0] != 99.0 and again.weights[0] != 99.0


@pytest.mark.parametrize("n", [1, 12, 65])
def test_gauss_laguerre_scaled_rule_matches_numpy(n):
    # the same nodes and weights as numpy's laggauss, where its weights are finite
    x, w = np.polynomial.laguerre.laggauss(n)
    rule = specfun.gauss_laguerre_scaled_rule(n, 2.5)
    assert np.abs(rule.nodes - 2.5 - x).max() < 1e-14 * x.max()
    assert np.abs(rule.weights * np.exp(-x) / w - 1.0)[w > 1e-250].max() < 1e-11


def test_gauss_laguerre_scaled_rule_is_exact_past_the_plain_weights():
    # at n = 400 the plain weights w_i underflow; W_i = w_i e^{x_i} integrate
    # e^{-r} r^j on [a, inf) to e^{-a} times a Poisson tail j! Q(j + 1, a)
    rule = specfun.gauss_laguerre_scaled_rule(400, 0.0)
    assert np.all(np.isfinite(rule.weights)) and rule.weights.min() > 0
    for j in (0, 1, 5, 40):
        assert np.exp(-rule.nodes) * rule.nodes ** j @ rule.weights == pytest.approx(
            math.factorial(j), rel=1e-13)


@pytest.mark.parametrize("a, b", [(0.0, math.inf), (-math.inf, 1.0), (0.0, math.nan)])
def test_gauss_legendre_rule_rejects_non_finite_bounds(a, b):
    with pytest.raises(ValueError, match="Gauss-Legendre needs finite bounds"):
        gauss_legendre_rule(8, a, b)


def test_quadrature_rule_validation():
    with pytest.raises(ValueError):
        QuadratureRule(np.array([1.0, 0.5]), np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        QuadratureRule(np.array([0.5, 1.0]), np.array([1.0, -1.0]))
