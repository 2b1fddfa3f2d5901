"""Special functions for concentration kernels on the ball.

Everything here is a pure function of its arguments. The conventions match
the rest of the package:

* spherical Bessel ``j_ell`` of the first kind, extended to ``ell = -1``
  by ``j_{-1}(x) = cos(x)/x`` (needed by the ell=0 term of the
  Fourier-Bessel Shannon number).
  Every value comes from one table, built by Miller's downward recurrence
  ``j_{l-1}(x) = (2l+1)/x j_l(x) - j_{l+1}(x)``: started from 0 and 1 at a
  degree past ``max(lmax, x)`` (where j_l is the recurrence's decaying
  solution), rescaled before it overflows, and normalised by the sum rule
  ``sum_l (2l+1) j_l(x)^2 = 1``.  At x = 0 the series limits
  ``j_0(0) = 1``, ``j_l(0) = 0`` apply, and below x = 1e-8 the leading
  term ``x^l/(2l+1)!!``, which is exact there to rounding (the recurrence
  would overflow at once);
* radial Laguerre functions ``K_p(r) = sqrt(p!/(p+2)!) e^{-r/2} L_p^{(2)}(r)``,
  orthonormal under the measure ``r^2 dr`` on the half line;
* orthonormal spherical harmonics, one order over all degrees at a time, with
  the Condon-Shortley phase carried by the associated Legendre recurrence;
* the real Wigner d-matrix of one degree, from the eigendecomposition of
  the angular-momentum component J_y;
* Gauss-Legendre and Gauss-Laguerre quadrature rules, the only integration
  route the kernels use; the one Gauss-Laguerre builder,
  `gauss_laguerre_scaled_rule`, has weights w_i e^{x_i}, which do not underflow.

Each quantity is computed as a table over all degrees (and all points) at
once; the scalar one-value-at-a-time forms serve the tests as oracles.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss


# ---------------------------------------------------------------------------
# quadrature rules
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and positive weights of a fixed quadrature rule, which applies to
    f as `f(nodes) @ weights`; its builders say what it integrates exactly."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        if nodes.ndim != 1 or nodes.shape != weights.shape:
            raise ValueError("nodes and weights must be 1-d arrays of equal length")
        if not np.all(np.diff(nodes) > 0):
            raise ValueError("quadrature nodes must be strictly increasing")
        if not np.all((weights > 0) & (weights < math.inf)):
            raise ValueError("quadrature weights must be positive and finite")


@functools.lru_cache(maxsize=64)
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Standard Gauss-Legendre nodes and weights on [-1, 1], read-only:
    `leggauss` runs an eigensolve, and the kernels and grids reuse a few n
    often."""
    x, w = leggauss(n)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def gauss_legendre_rule(n: int, a: float, b: float) -> QuadratureRule:
    """Gauss-Legendre rule with n nodes on [a, b], exact for polynomials of degree < 2n."""
    if n < 1:
        raise ValueError("need at least one node")
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError(f"Gauss-Legendre needs finite bounds, got [{a}, {b}]")
    if not (b > a):
        raise ValueError("interval must satisfy b > a")
    x, w = _leggauss(n)
    mid, half = 0.5 * (b + a), 0.5 * (b - a)
    return QuadratureRule(mid + half * x, half * w)


@functools.lru_cache(maxsize=64)
def _laggauss_scaled(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Standard Gauss-Laguerre nodes x_i and scaled weights W_i = w_i e^{x_i}
    on [0, inf), read-only: `gauss_laguerre_scaled_rule` shifts them.

    Golub-Welsch nodes after one Newton step, L_n' = n (L_n - L_{n-1}) / x,
    and Christoffel weights W_i = 1 / sum_{k<n} (e^{-x_i/2} L_k(x_i))^2.
    The recurrence runs on d_k = L_k - L_{k-1}, accurate near x = 0 where
    L_{k+1} - L_k cancels, and from e^{-x/4}: |e^{-x/2} L_k| <= 1 keeps every
    value below e^{x/4}, finite for nodes up to 2800 (n up to about 700).
    """
    off = np.arange(1.0, n)
    x = np.linalg.eigvalsh(np.diag(2.0 * np.arange(n) + 1.0) - np.diag(off, 1) - np.diag(off, -1))
    for newton in (True, False):  # polish the nodes, then weigh them
        q = np.exp(-x / 4.0)
        cur, diff, total = q.copy(), np.zeros_like(x), np.zeros_like(x)
        for k in range(n):
            total += (cur * q) ** 2
            diff = (k * diff - x * cur) / (k + 1)
            cur = cur + diff
        if newton:
            x = x - x * cur / (n * diff)
    w = 1.0 / total
    x.flags.writeable = w.flags.writeable = False
    return x, w


def gauss_laguerre_scaled_rule(n: int, a: float) -> QuadratureRule:
    """Gauss-Laguerre rule on [a, inf) with scaled weights W_i = w_i e^{x_i}:
    sum_i W_i f(a + x_i) = int_a^inf f dr for f = e^{-r} poly(2n - 1).  The
    standard rule (`_laggauss_scaled`) is cached per n and shifted by a."""
    if n < 1:
        raise ValueError("need at least one node")
    x, w = _laggauss_scaled(n)
    return QuadratureRule(a + x, w.copy())


# ---------------------------------------------------------------------------
# spherical Bessel functions
# ---------------------------------------------------------------------------

# below this argument x^l/(2l+1)!! is j_l(x) to rounding: the next series
# term is smaller by x^2/(4l+6) <= 2e-17
_BESSEL_SERIES_X = 1e-8
# the downward recurrence rescales a column once it exceeds this; one step
# grows it by at most (2l+1)/x, so its square stays finite
_BESSEL_RESCALE = 1e100


def spherical_jn_table(lmax: int, x: np.ndarray) -> np.ndarray:
    """j_l(x) for l = 0..lmax over an array of arguments, shape (lmax+1,) + x.shape.

    Miller's downward recurrence j_{l-1} = (2l+1)/x j_l - j_{l+1} (see the
    module docstring), vectorised over the arguments; it runs about
    max(lmax, max x) steps.  Rounding grows with that count: about 1e-14
    of min(1, 1/x) up to x = 130, 2.4e-13 of it at x = 5e3.  Values that fall
    below the float range round to 0 without an underflow error.
    """
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)) or np.any(x < 0):
        raise ValueError("arguments must be finite and >= 0")
    flat = x.ravel()
    out = np.empty((lmax + 1, flat.size))
    series = flat < _BESSEL_SERIES_X
    with np.errstate(under="ignore"):
        if series.any():
            term = np.ones(np.count_nonzero(series))
            for l in range(lmax + 1):
                out[l, series] = term
                term = term * flat[series] / (2 * l + 3)
        if not series.all():
            out[:, ~series] = _jn_downward(lmax, flat[~series])
    return out.reshape((lmax + 1,) + x.shape)


def _jn_downward(lmax: int, x: np.ndarray) -> np.ndarray:
    """Miller's recurrence for 1-d x >= _BESSEL_SERIES_X, normalised by the
    sum rule sum_l (2l+1) j_l(x)^2 = 1."""
    # start several transition widths n^{1/3} past the turning point l ~ x,
    # where j_top / y_top < 1e-17, so the growing solution y_l never shows
    n = max(lmax, math.ceil(x.max()))
    top = n + 16 + math.ceil(8.0 * n ** (1.0 / 3.0))
    inv = 1.0 / x
    out = np.empty((lmax + 1, x.size))
    above, cur = np.zeros_like(x), np.ones_like(x)  # f_{l+1}, f_l at l = top
    norm = (2 * top + 1) * cur * cur
    for l in range(top, 0, -1):
        if l <= lmax:
            out[l] = cur
        above, cur = cur, (2 * l + 1) * inv * cur - above
        norm += (2 * l - 1) * cur * cur
        big = np.abs(cur) > _BESSEL_RESCALE
        if big.any():
            cur[big] /= _BESSEL_RESCALE
            above[big] /= _BESSEL_RESCALE
            norm[big] /= _BESSEL_RESCALE ** 2
            out[l:, big] /= _BESSEL_RESCALE
    out[0] = cur
    return out / np.sqrt(norm)


def spherical_j_minus1(x: np.ndarray) -> np.ndarray:
    """j_{-1}(x) = cos(x)/x elementwise (x > 0)."""
    x = np.asarray(x, dtype=float)
    return np.cos(x) / x


# ---------------------------------------------------------------------------
# radial Laguerre basis functions
# ---------------------------------------------------------------------------

# the Laguerre recurrence divides a column past e^400 by that; one step grows
# it by about 2 + r / n, so it stays finite
_LAGUERRE_RESCALE = math.exp(400.0)


def laguerre_K_table(pmax: int, r: np.ndarray) -> np.ndarray:
    """Orthonormal radial functions K_p(r) for p = 0..pmax over an array.

    L_p^{(2)} comes from the three-term recurrence (n+1) L_{n+1} =
    (2n+3-r) L_n - (n+2) L_{n-1}, stable where the alternating binomial sum
    cancels badly (p beyond ~20).  A column past e^400 is divided by it, and
    400 joins its exponent of e^{-r/2}: K_p is finite at every p and r.
    """
    r = np.asarray(r, dtype=float)
    L = np.empty((pmax + 1,) + r.shape)
    shift = np.zeros(r.shape)  # the log of what each column was divided by
    L[0] = 1.0
    if pmax >= 1:
        L[1] = 3.0 - r
    for n in range(1, pmax):
        L[n + 1] = ((2 * n + 3 - r) * L[n] - (n + 2) * L[n - 1]) / (n + 1)
        big = np.abs(L[n + 1]) > _LAGUERRE_RESCALE
        if big.any():
            L[:n + 2, big] /= _LAGUERRE_RESCALE
            shift[big] += 400.0
    norms = 1.0 / np.sqrt([(p + 1) * (p + 2) for p in range(pmax + 1)])
    return L * np.exp(shift - r / 2.0) * norms[(slice(None),) + (None,) * r.ndim]


# ---------------------------------------------------------------------------
# spherical harmonics
# ---------------------------------------------------------------------------

def norm_alf_table(L: int, m: int, theta: np.ndarray) -> np.ndarray:
    """Fully-normalized associated Legendre values Pbar_{l m}(cos theta).

    Returns shape (L - m,) + theta.shape holding l = m..L-1, where
    Y_{l m}(theta, phi) = Pbar_{l m}(cos theta) e^{i m phi}.  Ascending
    recurrence in l with the normalization applied on the fly; the
    Condon-Shortley phase is carried by the sectoral seed.
    """
    if m < 0 or m >= L:
        raise ValueError(f"order must satisfy 0 <= m < L, got m={m}, L={L}")
    theta = np.asarray(theta, dtype=float)
    x, sx = np.cos(theta), np.sin(theta)
    out = np.empty((L - m,) + theta.shape)
    pmm = np.full(theta.shape, math.sqrt(1.0 / (4.0 * math.pi)))
    for mu in range(1, m + 1):
        pmm = -math.sqrt((2 * mu + 1) / (2.0 * mu)) * sx * pmm
    out[0] = pmm
    p_prev = np.zeros_like(pmm)
    p_cur = pmm
    for l in range(m + 1, L):
        a = math.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))
        b = math.sqrt(((l - 1) ** 2 - m * m) / (4.0 * (l - 1) ** 2 - 1.0))
        p_next = a * (x * p_cur - b * p_prev)
        p_prev, p_cur = p_cur, p_next
        out[l - m] = p_cur
    return out


def _signed_orders(L: int, m: int):
    """Yields (mu, rows, sign) for mu = m and, if m > 0, -m: the flat rows
    l*l + l + mu, l = m..L-1, and Y_{l mu} = sign Pbar_{l m} e^{i mu phi}."""
    ls = np.arange(m, L)
    yield m, ls * ls + ls + m, 1
    if m > 0:
        yield -m, ls * ls + ls - m, (-1) ** m


def sph_harm_matrix(L: int, theta: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """All Y_{l m} with l < L at given points; shape (L*L, npts).

    Row ordering is flat = l*l + l + m (the package-wide angular ordering);
    each order m fills the rows of all its degrees, and of -m, in one step.
    """
    theta = np.asarray(theta, dtype=float).ravel()
    phi = np.asarray(phi, dtype=float).ravel()
    out = np.empty((L * L, theta.size), dtype=complex)
    for m in range(L):
        pb = norm_alf_table(L, m, theta)
        e = np.exp(1j * m * phi)
        for mu, rows, sign in _signed_orders(L, m):
            out[rows] = sign * pb * (e if mu >= 0 else np.conj(e))
    return out


# ---------------------------------------------------------------------------
# Wigner rotation matrices
# ---------------------------------------------------------------------------

def wigner_d_matrix(ell: int, beta: float) -> np.ndarray:
    """Real rotation matrix d^ell(beta), rows m and columns n in -ell..ell.

    d^ell_{mn}(beta) = <ell m| exp(-i beta J_y) |ell n>, built from the
    eigendecomposition J_y = V diag(mu) V^H of the Hermitian tridiagonal
    <m+1|J_y|m> = -i/2 sqrt((ell-m)(ell+m+1)) as Re(V diag(e^{-i beta mu}) V^H)
    (Feng, Wang, Yang & Jin, Phys. Rev. E 92, 043307, 2015).  No factorial
    sums or recurrences in the degree, so it stays accurate at large ell
    (rows orthonormal to 2e-15 at ell = 72).
    """
    if ell < 0:
        raise ValueError(f"degree must be >= 0, got {ell}")
    m = np.arange(-ell, ell)
    Jy = np.zeros((2 * ell + 1, 2 * ell + 1), dtype=complex)
    below = -0.5j * np.sqrt((ell - m) * (ell + m + 1.0))
    Jy[m + ell + 1, m + ell] = below
    Jy[m + ell, m + ell + 1] = below.conj()
    mu, V = np.linalg.eigh(Jy)
    return ((V * np.exp(-1j * beta * mu)) @ V.conj().T).real
