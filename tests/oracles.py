"""Analytic reference implementations of the kernel couplings.

The library assembles E, G^m and C by Gauss-Legendre quadrature only.  The
closed forms below compute the same quantities along independent routes and
serve the tests as oracles:

* E through truncated exponential moments, summed in 50-digit mpmath
  (the alternating binomial sum is hopeless in float64 at these degrees);
* G^m through Wigner-3j sums with Legendre differences;
* truncated exponential moments in float64 through Poisson probabilities;
* C on equal degrees through the Lommel closed forms (`C_closed_form`),
  against the library's quadrature;
* the scalar j_l (through scipy, with j_{-1} = cos(x)/x), K_p and Y_lm,
  one value at a time;
* Wigner d elements through Jacobi polynomials (`wigner_d_beta`), and
  rotation through them (`rotate_jacobi`), against the library's J_y
  eigendecomposition;
* a band's radial modes by one thin SVD of its whole stacked radial table
  (`radial_modes_svd`), against the library's SVD of a per-degree QR's R;
* the fixed-order kernels assembled densely, Fourier-Bessel as C o G and
  Fourier-Laguerre as a sum of G^m (x) E over union members (both also
  over the grid of an azimuthally symmetric region), with their dense
  per-order eigensolve;
* the pixel-mask angular coupling assembled densely over all (l, m), with
  its dense L^2 x L^2 eigensolve;
* the spectrum ordering rule as a Python sort key over entry tuples;
* the block merge that builds its padding (`padded_block_merge`): every
  order's raw spectrum padded with exact zeros to one entry per block row,
  then one np.lexsort over all entries, against the library's merge of the
  computed entries with the padding placed in closed form;
* the spherical Bessel table j_l(x), l = 0..lmax, one scipy spherical_jn
  call per degree (`spherical_jn_per_degree`), against the library's
  downward recurrence;
* synthesis at scattered points: Fourier-Laguerre one coefficient at a
  time through the scalar K_p and Y_lm, Fourier-Bessel one degree at a time
  through scipy's spherical_jn;
* Fourier-Laguerre analysis on a grid through the dense (L^2, n_theta n_phi)
  table of conj(Y_lm), against the library's FFT and per-order sums;
* synthesis of a stack of vectors on radial nodes x angular points through
  the dense (L^2, n_ang) table of Y_lm (`synthesis_separable_dense`),
  against the library's per-order sums and inverse FFT;
* the CLI's CSV writers as one f"{x:.17g}" per value;
* the CLI's binary matrix file as one bytes object, the way it was built
  before the writer streamed the array buffer (`matrix_file_bytes`);
* the eigenvector stack as a complex array built one rank at a time from
  the solve's blocks (`complex_vector_stack`);
* region membership one point at a time (`contains_per_point`), against
  the library's array form.
"""

from __future__ import annotations

import math
import struct
from functools import lru_cache
from types import SimpleNamespace

import mpmath as mp
import numpy as np
from scipy.special import gammaincc, gammaln, spherical_jn

from slepian_ball import specfun
from slepian_ball.kernels import FourierLaguerreBand, _c_quad_rule, fb_k_weights
from slepian_ball.regions import (AzimuthallySymmetric, ProductMask, ProductSymmetric,
                                  RegionUnion, _rotation_matrix)
from slepian_ball.transforms import _radial_sums

# float64 loses ~15 digits to cancellation in the alternating moment sum by
# p+p' ~ 58, so the analytic E path runs in fixed extended precision.
_E_ANALYTIC_DPS = 50
_E_ANALYTIC_MAX_PPSUM = 60


# ---------------------------------------------------------------------------
# Legendre polynomials and Wigner 3j symbols
# ---------------------------------------------------------------------------

def legendre_P_table(jmax: int, x: float) -> np.ndarray:
    """Legendre polynomials P_j(x) for j = 0..jmax (plain recurrence)."""
    P = np.empty(jmax + 1)
    P[0] = 1.0
    if jmax >= 1:
        P[1] = x
    for j in range(1, jmax):
        P[j + 1] = ((2 * j + 1) * x * P[j] - j * P[j - 1]) / (j + 1)
    return P


def _lnf(n: int) -> float:
    return gammaln(n + 1)


@lru_cache(maxsize=200_000)
def wigner_3j(l1: int, l2: int, l3: int, m1: int, m2: int, m3: int) -> float:
    """Wigner 3j symbol; returns 0 outside the selection rules.

    Racah single-sum formula with log-factorials, safe far beyond the
    degree range used by the angular kernels here.
    """
    if m1 + m2 + m3 != 0:
        return 0.0
    if l3 < abs(l1 - l2) or l3 > l1 + l2:
        return 0.0
    if abs(m1) > l1 or abs(m2) > l2 or abs(m3) > l3:
        return 0.0
    if min(l1, l2, l3) < 0:
        return 0.0
    t_min = max(0, l2 - l3 - m1, l1 - l3 + m2)
    t_max = min(l1 + l2 - l3, l1 - m1, l2 + m2)
    if t_max < t_min:
        return 0.0
    pre = 0.5 * (
        _lnf(l1 + l2 - l3) + _lnf(l1 - l2 + l3) + _lnf(-l1 + l2 + l3)
        - _lnf(l1 + l2 + l3 + 1)
        + _lnf(l1 + m1) + _lnf(l1 - m1)
        + _lnf(l2 + m2) + _lnf(l2 - m2)
        + _lnf(l3 + m3) + _lnf(l3 - m3)
    )
    total = 0.0
    for t in range(t_min, t_max + 1):
        lt = (
            _lnf(t) + _lnf(l3 - l2 + t + m1) + _lnf(l3 - l1 + t - m2)
            + _lnf(l1 + l2 - l3 - t) + _lnf(l1 - t - m1) + _lnf(l2 - t + m2)
        )
        total += (-1.0) ** t * math.exp(pre - lt)
    return (-1.0) ** (l1 - l2 - m3) * total


# ---------------------------------------------------------------------------
# angular coupling G by Wigner-3j sums
# ---------------------------------------------------------------------------

def G_matrix_3j(m: int, L: int, theta1: float, theta2: float) -> np.ndarray:
    """Angular coupling G^m_{l,l'} for l, l' in [m, L-1] over a colatitude band.

    Wigner-3j sum with Legendre differences; the convention P_{-1} == 1
    supplies the j = 0 term.  Symmetric, spectrum in [0, 1], and invariant
    under m -> -m.
    """
    m = abs(m)
    if not (0 <= m < L):
        raise ValueError(f"need 0 <= |m| < L, got m={m}, L={L}")
    if not (0.0 <= theta1 < theta2 <= math.pi):
        raise ValueError(f"need 0 <= theta1 < theta2 <= pi, got {theta1}, {theta2}")
    x1, x2 = math.cos(theta1), math.cos(theta2)
    jmax = 2 * (L - 1) + 1
    P1 = legendre_P_table(jmax, x1)
    P2 = legendre_P_table(jmax, x2)

    def pleg(j: int, tab: np.ndarray) -> float:
        return 1.0 if j == -1 else tab[j]

    n = L - m
    G = np.empty((n, n))
    for i, l in enumerate(range(m, L)):
        for i2 in range(i, n):
            l2 = m + i2
            total = 0.0
            for j in range(abs(l - l2), l + l2 + 1):
                c0 = wigner_3j(l, j, l2, 0, 0, 0)
                if c0 == 0.0:
                    continue
                cm = wigner_3j(l, j, l2, m, 0, -m)
                bracket = (pleg(j - 1, P2) + pleg(j + 1, P1)
                           - pleg(j + 1, P2) - pleg(j - 1, P1))
                total += c0 * cm * bracket
            val = (-1.0) ** m * math.sqrt((2 * l + 1) * (2 * l2 + 1)) / 2.0 * total
            G[i, i2] = G[i2, i] = val
    return G


def G_diag_sum_3j(L: int, theta1: float, theta2: float) -> float:
    """sum over all (l, m), |m| <= l < L, of G^m_{l,l} (the angular Shannon number)."""
    total = 0.0
    x1, x2 = math.cos(theta1), math.cos(theta2)
    jmax = 2 * (L - 1) + 1
    P1 = legendre_P_table(jmax, x1)
    P2 = legendre_P_table(jmax, x2)

    def pleg(j: int, tab: np.ndarray) -> float:
        return 1.0 if j == -1 else tab[j]

    for m in range(L):
        mult = 2.0 if m > 0 else 1.0
        for l in range(m, L):
            s = 0.0
            for j in range(0, 2 * l + 1):
                c0 = wigner_3j(l, j, l, 0, 0, 0)
                if c0 == 0.0:
                    continue
                cm = wigner_3j(l, j, l, m, 0, -m)
                bracket = (pleg(j - 1, P2) + pleg(j + 1, P1)
                           - pleg(j + 1, P2) - pleg(j - 1, P1))
                s += c0 * cm * bracket
            total += mult * (-1.0) ** m * (2 * l + 1) / 2.0 * s
    return total


# ---------------------------------------------------------------------------
# radial coupling E by exponential moments in extended precision
# ---------------------------------------------------------------------------

def _radial_moments_mp(nmax: int, R1: float, R2: float, dps: int) -> list:
    with mp.workdps(dps):
        b = mp.inf if math.isinf(R2) else mp.mpf(R2)
        return [mp.gammainc(n + 1, mp.mpf(R1), b) for n in range(nmax + 1)]


@lru_cache(maxsize=256)
def _laguerre_coeffs_mp(p: int, dps: int) -> tuple:
    """Signed coefficients of L_p^{(2)}: c_j = (-1)^j binom(p+2, p-j)/j! (exact)."""
    with mp.workdps(dps):
        return tuple(
            (-1) ** j * mp.mpf(math.comb(p + 2, p - j)) / mp.factorial(j)
            for j in range(p + 1)
        )


def _e_entry_analytic(p: int, q: int, moments: list, dps: int = _E_ANALYTIC_DPS) -> float:
    cp, cq = _laguerre_coeffs_mp(p, dps), _laguerre_coeffs_mp(q, dps)
    with mp.workdps(dps):
        acc = mp.mpf(0)
        for j in range(p + 1):
            cj = cp[j]
            for j2 in range(q + 1):
                acc += cj * cq[j2] * moments[j + j2 + 2]
        norm = mp.sqrt(mp.mpf((p + 1) * (p + 2)) * mp.mpf((q + 1) * (q + 2)))
        return float(acc / norm)


def _e_entry_quad(p: int, q: int, R1: float, R2: float) -> float:
    rule = specfun.gauss_legendre_rule(2 * max(p, q) + 18, R1, R2)
    Kt = specfun.laguerre_K_table(max(p, q), rule.nodes)
    return float(np.sum(rule.weights * rule.nodes ** 2 * Kt[p] * Kt[q]))


def E_matrix_mp(P: int, R1: float, R2: float) -> np.ndarray:
    """Radial coupling E_{p,p'} = int_{R1}^{R2} r^2 K_p K_{p'} dr, p, p' < P.

    Exact moment expansion (in extended precision, the alternating binomial
    sum is hopeless in float64 at these degrees) up to p+p' = 60; plain
    Gauss-Legendre quadrature above that.  Symmetric with spectrum in [0, 1].
    """
    if P < 1:
        raise ValueError("P must be >= 1")
    if not (R2 > R1 >= 0.0):
        raise ValueError(f"need 0 <= R1 < R2, got R1={R1}, R2={R2}")
    nmax = 2 * (P - 1) + 2
    # quadrature cannot reach an infinite endpoint; scale the working
    # precision with the degree instead (cancellation eats ~p+q/4 digits)
    analytic_all = math.isinf(R2) or 2 * (P - 1) <= _E_ANALYTIC_MAX_PPSUM
    dps = max(_E_ANALYTIC_DPS, 30 + nmax) if math.isinf(R2) else _E_ANALYTIC_DPS
    n_mom = nmax if analytic_all else _E_ANALYTIC_MAX_PPSUM + 2
    moments = _radial_moments_mp(n_mom, R1, R2, dps)
    E = np.empty((P, P))
    for p in range(P):
        q_end = P if analytic_all else min(P, _E_ANALYTIC_MAX_PPSUM - p + 1)
        for q in range(q_end, P):
            E[p, q] = _e_entry_quad(p, q, R1, R2)
        if p >= q_end:
            continue
        cp = _laguerre_coeffs_mp(p, dps)
        with mp.workdps(dps):
            # row p against every monomial r^{k+2}, then each q's coefficients:
            # O(P) per entry instead of the O(p q) double sum of `_e_entry_analytic`
            row = [mp.fsum(c * moments[j + k + 2] for j, c in enumerate(cp))
                   for k in range(q_end)]
            for q in range(q_end):
                acc = mp.fsum(c * row[k] for k, c in enumerate(_laguerre_coeffs_mp(q, dps)))
                norm = mp.sqrt(mp.mpf((p + 1) * (p + 2)) * mp.mpf((q + 1) * (q + 2)))
                E[p, q] = float(acc / norm)
    return np.triu(E) + np.triu(E, 1).T


def E_entry(p: int, q: int, R1: float, R2: float) -> float:
    """Single analytic E entry (moment expansion)."""
    dps = max(_E_ANALYTIC_DPS, 30 + p + q + 2)
    moments = _radial_moments_mp(p + q + 2, R1, R2, dps)
    return _e_entry_analytic(p, q, moments, dps)


# ---------------------------------------------------------------------------
# truncated exponential moments in float64
# ---------------------------------------------------------------------------

def _poisson_cdf(j: int, R: float) -> float:
    """P[Poisson(R) <= j] = Q(j+1, R), with the degenerate endpoints."""
    if R == 0.0:
        return 1.0
    if math.isinf(R):
        return 0.0
    return float(gammaincc(j + 1, R))


def _log_poisson_tail(j: int, R: float) -> float:
    """log P[Poisson(R) > j], summed directly in the log domain."""
    if R == 0.0:
        return -math.inf
    logs = []
    a = j + 1
    first = a * math.log(R) - R - _lnf(a)
    logs.append(first)
    while True:
        a += 1
        lt = a * math.log(R) - R - _lnf(a)
        logs.append(lt)
        if lt < first - 45.0 and a > R:
            break
        if a > j + 200000:
            break
    mx = max(logs)
    return mx + math.log(math.fsum(math.exp(t - mx) for t in logs))


def radial_moment_integral(j: int, R1: float, R2: float) -> float:
    """Truncated exponential moment  integral_{R1}^{R2} e^{-r} r^j dr.

    Equals j! * sum_{a<=j} (e^{-R1} R1^a - e^{-R2} R2^a)/a!, i.e. a
    difference of upper incomplete gamma functions.  Evaluated through
    Poisson cumulative probabilities, switching to a log-domain tail sum
    when both CDFs sit near 1 (interval far left of the integrand peak),
    which is where the plain difference cancels.
    """
    if j < 0:
        raise ValueError(f"moment degree must be >= 0, got {j}")
    if not (R2 > R1) or R1 < 0:
        raise ValueError(f"need 0 <= R1 < R2, got R1={R1}, R2={R2}")
    s1, s2 = _poisson_cdf(j, R1), _poisson_cdf(j, R2)
    if s2 > 0.99:
        lt1 = _log_poisson_tail(j, R1)
        lt2 = _log_poisson_tail(j, R2)
        log_d = lt2 + math.log1p(-math.exp(lt1 - lt2)) if lt1 > -math.inf else lt2
    else:
        log_d = math.log(s1 - s2)
    try:
        return math.exp(_lnf(j) + log_d)
    except OverflowError:
        return math.inf  # true value exceeds the float64 range


# ---------------------------------------------------------------------------
# spherical Bessel table
# ---------------------------------------------------------------------------

def spherical_jn_per_degree(lmax: int, x) -> np.ndarray:
    """j_l(x) for l = 0..lmax, shape (lmax+1,) + x.shape: one scipy
    spherical_jn call per degree."""
    x = np.asarray(x, dtype=float)
    out = np.empty((lmax + 1,) + x.shape)
    for l in range(lmax + 1):
        out[l] = spherical_jn(l, x)
    return out


# ---------------------------------------------------------------------------
# scalar special functions, one value at a time
# ---------------------------------------------------------------------------

def spherical_bessel_j(ell: int, x: float) -> float:
    """j_ell(x) through scipy, with j_{-1}(x) = cos(x)/x."""
    if ell == -1:
        return math.inf if x == 0.0 else math.cos(x) / x
    return float(spherical_jn(ell, x))


def laguerre_K(p: int, r) -> float | np.ndarray:
    """K_p(r) = sqrt(p!/(p+2)!) e^{-r/2} L_p^{(2)}(r), read off the table."""
    scalar = np.isscalar(r)
    val = specfun.laguerre_K_table(p, np.atleast_1d(np.asarray(r, dtype=float)))[p]
    return float(val[0]) if scalar else val


def spherical_harmonic(ell: int, m: int, theta: float, phi: float) -> complex:
    """Orthonormal Y_{ell m}(theta, phi), Condon-Shortley phase, with the
    m < 0 harmonic from Y_{l,-m} = (-1)^m conj(Y_{lm})."""
    ma = abs(m)
    pbar = float(specfun.norm_alf_table(ell + 1, ma, np.asarray(theta))[ell - ma])
    y = pbar * complex(math.cos(ma * phi), math.sin(ma * phi))
    return (-1) ** ma * y.conjugate() if m < 0 else y


# ---------------------------------------------------------------------------
# equal-degree radial Fourier-Bessel coupling C by Lommel closed forms
# ---------------------------------------------------------------------------

def C_closed_form(ell: int, k: float, k2: float, R1: float, R2: float) -> float:
    """C_{l,l}(k,k') = (2/pi) k k' int_{R1}^{R2} r^2 j_l(kr) j_l(k'r) dr.

    k = k': the antiderivative T(R) = R^3 (j_l^2 - j_{l-1} j_{l+1}) (kR);
    k != k': the Lommel cross product R^2 (k' j_{l-1}(k'R) j_l(kR)
    - k j_{l-1}(kR) j_l(k'R)).  Both vanish at R = 0, where j_{-1} diverges.
    """
    jl = spherical_bessel_j
    if k == k2:
        def T(R: float) -> float:
            if R == 0.0:
                return 0.0
            return R ** 3 * (jl(ell, k * R) ** 2 - jl(ell - 1, k * R) * jl(ell + 1, k * R))
        return k * k / math.pi * (T(R2) - T(R1))

    def bracket(R: float) -> float:
        if R == 0.0:
            return 0.0
        return R * R * (k2 * jl(ell - 1, k2 * R) * jl(ell, k * R)
                        - k * jl(ell - 1, k * R) * jl(ell, k2 * R))
    return 2.0 * k * k2 / (math.pi * (k * k - k2 * k2)) * (bracket(R2) - bracket(R1))


# ---------------------------------------------------------------------------
# Wigner d elements by Jacobi polynomials, and rotation through them
# ---------------------------------------------------------------------------

def _jacobi_poly(s, a, b, x: float) -> np.ndarray:
    """Jacobi polynomials P_s^{(a,b)}(x) by the three-term recurrence,
    elementwise over integer arrays s, a, b (each entry stops at its s)."""
    s, a, b = (np.asarray(v, dtype=float) for v in np.broadcast_arrays(s, a, b))
    p0 = np.ones_like(s)
    p1 = 0.5 * (a - b + (a + b + 2) * x)
    for k in range(1, int(s.max(initial=0))):
        c1 = 2.0 * (k + 1) * (k + a + b + 1) * (2 * k + a + b)
        c2 = (2 * k + a + b + 1) * (a * a - b * b)
        c3 = (2 * k + a + b) * (2 * k + a + b + 1) * (2 * k + a + b + 2)
        c4 = 2.0 * (k + a) * (k + b) * (2 * k + a + b + 2)
        p0, p1 = p1, np.where(k < s, ((c2 + c3 * x) * p1 - c4 * p0) / c1, p1)
    return np.where(s == 0, 1.0, p1)


def wigner_d_beta(ell: int, m, n, beta: float):
    """Real rotation matrix elements d^ell_{m n}(beta), elementwise over
    integer m and n (a float for scalar m and n).

    Jacobi-polynomial form: with mu = |m-n|, nu = |m+n|, s = ell-(mu+nu)/2,

        d = xi * sqrt(s!(s+mu+nu)!/((s+mu)!(s+nu)!))
              * sin(beta/2)^mu cos(beta/2)^nu * P_s^{(mu,nu)}(cos beta),

    xi = (-1)^{m-n} for n < m else 1.  No alternating factorial sums, so
    this stays accurate at large ell (rows orthonormal to ~1e-13 at ell=72).
    """
    m, n = np.broadcast_arrays(np.asarray(m), np.asarray(n))
    if np.any(np.abs(m) > ell) or np.any(np.abs(n) > ell):
        raise ValueError(f"need |m|,|n| <= ell; got ell={ell}, m={m}, n={n}")
    if beta == 0.0:
        d = (m == n).astype(float)
    else:
        mu, nu = np.abs(m - n), np.abs(m + n)
        s = ell - (mu + nu) // 2
        xi = np.where(n >= m, 1.0, (-1.0) ** (m - n))
        lg = 0.5 * (_lnf(s) + _lnf(s + mu + nu) - _lnf(s + mu) - _lnf(s + nu))
        d = (xi * np.exp(lg) * math.sin(beta / 2.0) ** mu * math.cos(beta / 2.0) ** nu
             * _jacobi_poly(s, mu, nu, math.cos(beta)))
    return float(d) if d.ndim == 0 else d


def wigner_d_jacobi(ell: int, beta: float) -> np.ndarray:
    """d^ell(beta) with rows m and columns n in -ell..ell, from `wigner_d_beta`."""
    idx = np.arange(-ell, ell + 1)
    return wigner_d_beta(ell, idx[:, None], idx[None, :], beta)


def rotate_jacobi(values, band, theta0: float, phi0: float) -> np.ndarray:
    """f'_{lm.} = sum_n e^{-i m phi0} d^l_{mn}(theta0) f_{ln.} over a flat
    coefficient vector of either band, with the Jacobi-form d^l."""
    L = band.L
    f = np.asarray(values, dtype=complex).reshape(L * L, -1)
    out = np.empty_like(f)
    for l in range(L):
        phase = np.exp(-1j * phi0 * np.arange(-l, l + 1))
        rows = slice(l * l, (l + 1) * (l + 1))
        out[rows] = (phase[:, None] * wigner_d_jacobi(l, theta0)) @ f[rows]
    return out.reshape(-1)


# ---------------------------------------------------------------------------
# radial modes by one thin SVD of the stacked table
# ---------------------------------------------------------------------------

def radial_modes_svd(A: np.ndarray, squared: bool = True) -> np.ndarray:
    """Radial modes of a stacked table A, (n_l, n_rows, n_nodes), from the
    thin SVD U S V^T of all its degrees as one (n_l n_rows, n_nodes) matrix:
    U S, reshaped per degree and cut to the values above max * n * eps, on
    s^2 with n = n_l n_rows (a product member's factor), or with squared
    False on s with n = max(n_l n_rows, n_nodes) (an azimuthal region's
    table on its radii)."""
    U, s, _ = np.linalg.svd(A.reshape(-1, A.shape[2]), full_matrices=False)
    lam, n = (s * s, U.shape[0]) if squared else (s, max(U.shape[0], A.shape[2]))
    q = int(np.count_nonzero(lam > lam.max() * n * np.finfo(float).eps))
    return (U[:, :q] * s[:q]).reshape(A.shape[:2] + (q,))


# ---------------------------------------------------------------------------
# dense fixed-order kernels and per-order solve
# ---------------------------------------------------------------------------

def _c_tensor(band, R1: float, R2: float) -> np.ndarray:
    """C[l, n, l', n'] over the full band at the k samples.

    One vectorized Gauss-Legendre contraction over r for all degree pairs.
    """
    L, M = band.L, band.M
    ks = band.k_samples
    rule = _c_quad_rule(band.K, R1, R2)
    r, w = rule.nodes, rule.weights
    J = spherical_jn_per_degree(L - 1, np.multiply.outer(ks, r))
    A = (J * ks[None, :, None] * (r * np.sqrt(w))).reshape(L * M, r.size)
    return (2.0 / math.pi) * (A @ A.T).reshape(L, M, L, M)


def _fb_fixed_order_azim(m: int, band, region) -> np.ndarray:
    """Unweighted fixed-order kernel over an (r, theta) indicator grid."""
    L, M = band.L, band.M
    ks = band.k_samples
    r, wr = region.r_nodes, region.r_weights
    th, wt = region.theta_nodes, region.theta_weights
    Jl = spherical_jn_per_degree(L - 1, np.multiply.outer(ks, r))[m:]
    Pb = specfun.norm_alf_table(L, m, th)
    rad = math.sqrt(2.0 / math.pi) * Jl * ks[None, :, None]
    A = np.einsum("inr,it->inrt", rad, Pb).reshape((L - m) * M, r.size * th.size)
    meas = 2.0 * math.pi * np.outer(wr * r ** 2, wt) * region.indicator
    return (A * meas.ravel()) @ A.T


def fb_dense_block(m: int, band, region) -> np.ndarray:
    """Symmetrized W^{1/2} (C o G) W^{1/2} over (l, n), l in [m, L-1], n fast;
    a union's is the sum of its members'."""
    from slepian_ball.kernels import G_matrix
    nl = band.L - m
    if isinstance(region, RegionUnion):
        return sum(fb_dense_block(m, band, s) for s in region.members)
    if isinstance(region, ProductSymmetric):
        C = _c_tensor(band, region.R1, region.R2)
        G = G_matrix(m, band.L, region.theta1, region.theta2)
        Kmat = (C[m:, :, m:, :] * G[:, None, :, None]).reshape(nl * band.M, -1)
    elif isinstance(region, AzimuthallySymmetric):
        Kmat = _fb_fixed_order_azim(m, band, region)
    else:
        raise TypeError(f"no dense FB oracle for {type(region)!r}")
    ws = np.sqrt(np.tile(fb_k_weights(band), nl))
    B = ws[:, None] * Kmat * ws[None, :]
    return 0.5 * (B + B.T)


def fl_dense_block(m: int, band, region) -> np.ndarray:
    """Fixed-order Fourier-Laguerre kernel over (l, p), l in [m, L-1], p fast:
    sum over members of kron(G^m, E), or the (r, theta) grid assembly."""
    from slepian_ball.kernels import E_matrix, G_matrix
    P, L = band.P, band.L
    if isinstance(region, (ProductSymmetric, RegionUnion)):
        members = region.members if isinstance(region, RegionUnion) else (region,)
        return sum(np.kron(G_matrix(m, L, s.theta1, s.theta2), E_matrix(P, s.R1, s.R2))
                   for s in members)
    if isinstance(region, AzimuthallySymmetric):
        r, wr = region.r_nodes, region.r_weights
        th, wt = region.theta_nodes, region.theta_weights
        Kt = specfun.laguerre_K_table(P - 1, r)      # (P, n_r)
        Pb = specfun.norm_alf_table(L, m, th)        # (L-m, n_theta)
        A = np.einsum("it,pr->iprt", Pb, Kt).reshape((L - m) * P, r.size * th.size)
        meas = 2.0 * math.pi * np.outer(wr * r ** 2, wt) * region.indicator
        return (A * meas.ravel()) @ A.T
    raise TypeError(f"no dense FL oracle for {type(region)!r}")


def dense_solve(region, band):
    """Dense per-order eigensolve of `fb_dense_block` or `fl_dense_block`.

    Returns (blocks, order): blocks[m] = (lam, Y) with lam descending and Y
    the matching eigenvector columns; order lists (lam, signed m) over the
    whole spectrum, sorted lam descending, then m ascending.
    """
    dense_block = (fl_dense_block if isinstance(band, FourierLaguerreBand)
                   else fb_dense_block)
    blocks, order = {}, []
    for m in range(band.L):
        lam, Y = np.linalg.eigh(dense_block(m, band, region))
        blocks[m] = (lam[::-1], Y[:, ::-1])
        order += [(x, ms) for x in lam for ms in ((m,) if m == 0 else (-m, m))]
    order.sort(key=lambda e: (-e[0], e[1]))
    return blocks, order


# ---------------------------------------------------------------------------
# dense pixel-mask angular coupling and its eigensolve
# ---------------------------------------------------------------------------

def G_mask_dense(mask, L: int) -> np.ndarray:
    """sum_pixels w_i I_i Y_lm(pix_i) Y*_l'm'(pix_i), symmetrized."""
    active = mask.indicator > 0
    Y = specfun.sph_harm_matrix(L, mask.theta[active], mask.phi[active])
    G = (Y * mask.weight[active]) @ Y.conj().T
    return 0.5 * (G + G.conj().T)


def mask_dense_angular(mask, L: int):
    """Dense eigh of `G_mask_dense`: (lam, V) with lam descending."""
    lam, V = np.linalg.eigh(G_mask_dense(mask, L))
    return lam[::-1], V[:, ::-1]


# ---------------------------------------------------------------------------
# spectrum ordering rule
# ---------------------------------------------------------------------------

def spectrum_sort_key(entry) -> tuple:
    """Sort key of a (lam, m, i_rad, i_ang) entry: lam descending, then
    signed order m ascending (None as 0), then radial, then angular index."""
    lam, m, i_rad, i_ang = entry
    return (-lam, 0 if m is None else m, i_rad, i_ang)


# ---------------------------------------------------------------------------
# CSV writers, one value at a time
# ---------------------------------------------------------------------------

def _fmt(x) -> str:
    return f"{x:.17g}"


def eigen_csv_per_value(res) -> str:
    """eigenvalues.csv of an EigenResult, formatted one value at a time."""
    def column(values, fmt=_fmt):
        return [""] * len(res) if values is None else [fmt(v) for v in values.tolist()]

    lines = ["rank,lambda,m,lambda_radial,lambda_angular"]
    for rank, row in enumerate(zip(column(res.eigenvalues), column(res.orders, str),
                                   column(res.lam_radial), column(res.lam_angular))):
        lines.append(f"{rank},{','.join(row)}")
    return "\n".join(lines) + "\n"


def csv_rows_per_value(*columns) -> str:
    """CSV lines of equal-length columns: _fmt per float, str per integer or
    string, an empty cell for a None column."""
    n = max(len(c) for c in columns if c is not None)

    def column(values):
        if values is None:
            return [""] * n
        return [_fmt(v) if isinstance(v, float) else str(v)
                for v in np.asarray(values).tolist()]

    return "".join(",".join(row) + "\n" for row in zip(*map(column, columns)))


# ---------------------------------------------------------------------------
# binary matrix files and eigenvector stacks
# ---------------------------------------------------------------------------

def matrix_file_bytes(arr) -> bytes:
    """The SLEPB001 file of a matrix: a real copy, `tobytes` and a joined header."""
    a = np.atleast_2d(np.asarray(arr))
    if np.iscomplexobj(a) and a.imag.any():
        tag, payload = 1, np.ascontiguousarray(a, dtype="<c16").tobytes()
    else:
        tag, payload = 0, np.ascontiguousarray(a.real, dtype="<f8").tobytes()
    return b"SLEPB001" + struct.pack("<IIB", a.shape[0], a.shape[1], tag) + payload


def complex_vector_stack(res, count: int, block_ranks=None) -> np.ndarray:
    """The first `count` eigenvectors of an EigenResult as complex columns,
    (band.size, count), one rank at a time: separated blocks as V_j (x) U_i,
    with V_j read off the angular basis one column at a time, fixed-order
    blocks lifted from their coefficient column C[:, k] through Q_l, degree
    by degree, and scaled by W^{-1/2} in FB.  `block_ranks` gives each
    block's entries their ranks (by default the result's own)."""
    L = res.band.L
    out = np.zeros((L * L, res.band.size // (L * L), count), dtype=complex)
    for block, ranks in zip(res._blocks, block_ranks or res._ranks):
        for k in np.flatnonzero(ranks < count).tolist():
            if block.C is None:
                i, j = divmod(k, block.angular.size)  # entry k = i * angular.size + j
                vec = np.outer(block.V.columns(np.array([j])), block.U[:, i])
            else:
                nl, _, q = block.Q.shape
                vec = (block.Q @ block.C[:, [k]].reshape(nl, q, 1))[:, :, 0]
                if res.k_weights is not None:
                    vec = vec / np.sqrt(res.k_weights)
            out[block.rows, :, ranks[k]] = vec
    return out.reshape(res.band.size, count)


def padded_block_merge(res, raw_spectra, keep) -> SimpleNamespace:
    """The spectrum of a block solve merged with its padding built: each
    block's raw eigenvalues (`raw_spectra[|m|]`, descending) padded with
    exact zeros to one entry per block row, its raw range read off the
    padded array, then clamped to [0, 1] and sorted, keys (lam descending,
    m, in-block index), with one np.lexsort over every entry.  Returns the
    eigenvalues, orders, raw_eigenvalue_range, stored and the first `stored`
    vectors (`complex_vector_stack` under these ranks)."""
    radial = res.band.size // res.band.L ** 2
    lam, m, raw = [], [], []
    for block in res._blocks:
        spectrum = raw_spectra[abs(block.m)]
        padded = np.concatenate([spectrum, np.zeros(block.rows.size * radial - spectrum.size)])
        raw.append((float(padded.min()), float(padded.max())))
        lam.append(np.clip(padded, 0.0, 1.0))
        m.append(np.full(padded.size, block.m))
    sizes = [a.size for a in lam]
    lam, m = np.concatenate(lam), np.concatenate(m)
    i = np.concatenate([np.arange(n) for n in sizes])
    order = np.lexsort((np.zeros_like(i), i, m, -lam))
    ranks = np.split(np.argsort(order), np.cumsum(sizes)[:-1])
    n_vectors = sum(block.C.shape[1] for block in res._blocks)
    stored = min(lam.size if keep is None else keep, n_vectors)
    return SimpleNamespace(
        eigenvalues=lam[order], orders=m[order], stored=stored,
        raw_eigenvalue_range=(min(r[0] for r in raw), max(r[1] for r in raw)),
        vectors=complex_vector_stack(res, stored, ranks))


# ---------------------------------------------------------------------------
# synthesis at scattered points
# ---------------------------------------------------------------------------

def synthesis_fl_scalar(coeffs, points) -> np.ndarray:
    """sum_{lmp} f_{lmp} K_p(r) Y_lm(theta, phi) at (N, 3) points, term by term."""
    band = coeffs.band
    # the flat index (l*l + l + m) * P + p runs in the loop order l, m, p
    lmp = [(l, m, p) for l in range(band.L) for m in range(-l, l + 1) for p in range(band.P)]
    out = np.zeros(len(points), dtype=complex)
    for k, (r, theta, phi) in enumerate(points):
        for c, (l, m, p) in zip(coeffs.values, lmp):
            out[k] += c * laguerre_K(p, r) * spherical_harmonic(l, m, theta, phi)
    return out


def analysis_fl_dense(values, grid, band) -> np.ndarray:
    """f_{lmp} = sum_{i,pix} w_i w_pix K_p(r_i) conj(Y_lm(pix)) f(r_i, pix), with
    the whole Y_lm table of the angular grid in memory; (L^2 P,) flat."""
    n_r = grid.radial_nodes.size
    vals = np.asarray(values, dtype=complex).reshape(n_r, -1)
    Y = specfun.sph_harm_matrix(band.L, *grid.angular_points())
    ang = (Y.conj() * grid.angular_weights) @ vals.T                   # (L^2, n_r)
    Kt = specfun.laguerre_K_table(band.P - 1, grid.radial_nodes)
    return (ang @ (Kt * grid.radial_weights).T).reshape(-1)


def synthesis_separable_dense(values, band, r, theta, phi) -> np.ndarray:
    """A stack of coefficient vectors on radial nodes x the angular points
    (theta[i], phi[i]), through the library's radial sums and the whole
    (L^2, n_ang) Y_lm table of the points; (count, r.size, theta.size)."""
    r = np.asarray(r, dtype=float).ravel()
    rad = np.array([_radial_sums(v, band, r) for v in values])  # (count, L^2, n_r)
    Y = specfun.sph_harm_matrix(band.L, theta, phi)          # (L^2, n_ang)
    out = rad.transpose(0, 2, 1).reshape(-1, band.L ** 2) @ Y
    return out.reshape(rad.shape[0], r.size, Y.shape[1])


def synthesis_fb_per_degree(coeffs, points) -> np.ndarray:
    """sqrt(2/pi) sum_{lmn} w_n k_n f_lm(k_n) j_l(k_n r) Y_lm at (N, 3) points,
    one spherical_jn call per degree."""
    band = coeffs.band
    r, th, ph = points[:, 0], points[:, 1], points[:, 2]
    L, M = band.L, band.M
    ks = band.k_samples
    C = coeffs.values.reshape(L * L, M) * fb_k_weights(band)
    kr = np.multiply.outer(ks, r)
    out = np.zeros(r.size, dtype=complex)
    Y = specfun.sph_harm_matrix(L, th, ph)
    pref = math.sqrt(2.0 / math.pi)
    for l in range(L):
        Jl = spherical_jn(l, kr) * ks[:, None]
        rad = C[l * l:(l + 1) * (l + 1), :] @ Jl
        out += pref * np.einsum("qn,qn->n", Y[l * l:(l + 1) * (l + 1), :], rad)
    return out


# ---------------------------------------------------------------------------
# region membership, one point at a time
# ---------------------------------------------------------------------------

def _base_frame_point(point, orientation) -> tuple[float, float]:
    """(r, theta) of a BallPoint in the unrotated frame of an oriented region."""
    if orientation is None:
        return point.r, point.theta
    st = math.sin(point.theta)
    xyz = _rotation_matrix(*orientation).T @ (point.r * np.array(
        [st * math.cos(point.phi), st * math.sin(point.phi), math.cos(point.theta)]))
    r = float(np.linalg.norm(xyz))
    if r == 0.0:
        return 0.0, 0.0
    return r, math.acos(min(1.0, max(-1.0, xyz[2] / r)))


def contains_per_point(region, point) -> bool:
    """Closed-set membership of one BallPoint, in scalar Python."""
    if isinstance(region, ProductSymmetric):
        r, theta = _base_frame_point(point, region.orientation)
        return region.R1 <= r <= region.R2 and region.theta1 <= theta <= region.theta2
    if isinstance(region, ProductMask):
        if not (region.R1 <= point.r <= region.R2):
            return False
        mask = region.mask
        # the grid's Gauss-Legendre weights per theta row add up to the
        # cos(theta) span of its band and have their centroid at its middle
        rows = [math.fsum(mask.weight[i * mask.n_phi:(i + 1) * mask.n_phi]) / (2 * math.pi)
                for i in range(mask.n_theta)]
        half = math.fsum(rows) / 2.0
        mid = math.fsum(w * math.cos(mask.theta[i * mask.n_phi])
                        for i, w in enumerate(rows)) / (2.0 * half)
        if abs(math.cos(point.theta) - mid) > half + 1e-12:
            return False
        th = mask.theta.reshape(mask.n_theta, mask.n_phi)
        ph = mask.phi.reshape(mask.n_theta, mask.n_phi)
        i = int(np.argmin(np.abs(th[:, 0] - point.theta)))
        dphi = np.abs((ph[0, :] - point.phi + math.pi) % (2.0 * math.pi) - math.pi)
        return bool(mask.indicator[i * mask.n_phi + int(np.argmin(dphi))] > 0)
    if isinstance(region, RegionUnion):
        return any(contains_per_point(m, point) for m in region.members)
    if isinstance(region, AzimuthallySymmetric):
        r, theta = _base_frame_point(point, region.orientation)
        if not (region.r_nodes[0] - 1e-12 <= r <= region.r_nodes[-1] + 1e-12):
            return False
        i = int(np.argmin(np.abs(region.r_nodes - r)))
        j = int(np.argmin(np.abs(region.theta_nodes - theta)))
        return bool(region.indicator[i, j] > 0)
    raise TypeError(f"unsupported region type {type(region)!r}")
