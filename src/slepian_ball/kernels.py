"""Concentration-kernel assembly in the Fourier-Laguerre and Fourier-Bessel domains.

For a region R and a spectral band, the kernel entry is the inner product of
two band basis functions restricted to R.  For product regions the entries
factor into a radial coupling times an angular coupling:

* Fourier-Laguerre:  K_{lmp,l'm'p'} = delta_{mm'} E_{p,p'} G^m_{l,l'}
* Fourier-Bessel:    K_{lm,l'm'}(k,k') = delta_{mm'} C_{l,l'}(k,k') G^m_{l,l'}

with

    E_{p,p'}        = int_{R1}^{R2} r^2 K_p(r) K_{p'}(r) dr
    G^m_{l,l'}      = 2 pi int_{t1}^{t2} sin(t) Ybar_{lm}(t) Ybar_{l'm}(t) dt
    C_{l,l'}(k,k')  = (2/pi) k k' int_{R1}^{R2} r^2 j_l(kr) j_{l'}(k'r) dr.

All three are quadrature sums: G Gauss-Legendre in cos t, exact, and every
radial integral (E, the FB radial modes, the Shannon trace, energy grids)
on the band's one rule for [R1, R2], `_radial_rule`.  Each block is then a
Gram matrix A A^T of square-root-weighted node values.  The fixed-order
blocks of both bands are kept as such a factor, B_m = F_m F_m^T, and so is
the angular coupling of a pixel mask, G_mask = A A^H with A the
square-root-weighted Y_lm at the active pixels (`_mask_factor`).  Every
region's F_m has one form (`_order_factors`): F_m = (direct sum over l of
Q_l) K_m, with Q_l one orthonormal radial basis per degree, the QR of the
members' radial modes side by side, and K_m a small dense array over
(l, radial mode).  The radial modes are E's factor (FL) or the Bessel
table's thin SVD (FB) for a product member, and the thin SVD of the
radial table on the grid's radii for an azimuthally symmetric region; E,
G^m and these tables are cut to their numerical rank by one rule
(`_above_rank_floor`).  The block solver eigensolves the smaller side of
K_m, the mask solver takes the SVD of A.  The test suite checks each
against an analytic oracle (exponential moments in extended precision,
Wigner-3j sums, Lommel closed forms for C) or a dense assembly and
eigensolve.  `C_kernel` evaluates one entry of C through `_c_quad_rule`
at its own k.

The continuous Fourier-Bessel spectrum is discretized on uniform samples
k_n = n K / M; quadrature in k uses trapezoid weights (the k = 0 node
carries an identically zero integrand, so the composite trapezoid rule on
[0, K] reduces to weight dk on interior samples and dk/2 at k = K).  A
plain uniform weight dk would bias the spectrum sum at first order in dk
and fail the discretization-independence requirements.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import regions as reg_mod
from . import specfun
from .regions import (AngularMask, AzimuthallySymmetric, ProductMask,
                      ProductSymmetric)


# ---------------------------------------------------------------------------
# spectral bands and index maps
# ---------------------------------------------------------------------------

def _check_band_limits(**limits):
    for name, value in limits.items():
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise TypeError(f"band limit {name} must be an integer, got {value!r}")
        if value < 1:
            raise ValueError(f"band limit {name} must be >= 1, got {value}")


@dataclass(frozen=True)
class FourierLaguerreBand:
    """Band limit p < P, l < L; dimension P * L^2."""

    P: int
    L: int

    def __post_init__(self):
        _check_band_limits(P=self.P, L=self.L)

    @property
    def size(self) -> int:
        return self.P * self.L * self.L

    def flat_index(self, l: int, m: int, p: int) -> int:
        if not (0 <= l < self.L and abs(m) <= l and 0 <= p < self.P):
            raise IndexError(f"(l={l}, m={m}, p={p}) outside band P={self.P}, L={self.L}")
        return (l * l + l + m) * self.P + p

    def triple(self, flat: int) -> tuple[int, int, int]:
        lm, p = divmod(flat, self.P)
        l = int(math.isqrt(lm))
        return l, lm - l * l - l, p

    def triples(self):
        for l in range(self.L):
            for m in range(-l, l + 1):
                for p in range(self.P):
                    yield (l, m, p)


@dataclass(frozen=True)
class FourierBesselBand:
    """Band limit k <= K, l < L, with M uniform samples k_n = n K / M."""

    K: float
    L: int
    M: int

    def __post_init__(self):
        if not 0 < self.K < math.inf:
            raise ValueError(f"K must be positive and finite, got {self.K!r}")
        _check_band_limits(L=self.L, M=self.M)

    @property
    def dk(self) -> float:
        return self.K / self.M

    @property
    def k_samples(self) -> np.ndarray:
        return np.arange(1, self.M + 1) * self.dk

    @property
    def size(self) -> int:
        return self.M * self.L * self.L

    def flat_index(self, l: int, m: int, n: int) -> int:
        """n is the 1-based sample index of k_n = n K / M."""
        if not (0 <= l < self.L and abs(m) <= l and 1 <= n <= self.M):
            raise IndexError(f"(l={l}, m={m}, n={n}) outside band M={self.M}, L={self.L}")
        return (l * l + l + m) * self.M + (n - 1)

    def triple(self, flat: int) -> tuple[int, int, int]:
        lm, n0 = divmod(flat, self.M)
        l = int(math.isqrt(lm))
        return l, lm - l * l - l, n0 + 1


SpectralBand = FourierLaguerreBand | FourierBesselBand


def fb_k_weights(band: FourierBesselBand) -> np.ndarray:
    """Quadrature weights on the k samples: trapezoid on [0, K] with the
    zero-integrand k = 0 node dropped."""
    w = np.full(band.M, band.dk)
    w[-1] = band.dk / 2.0
    return w


def _check_hermitian(a: np.ndarray):
    """Raise ValueError unless a is Hermitian to 1e-12 of its largest entry."""
    a = np.asarray(a)
    herm = np.abs(a - a.conj().T).max()
    scale = max(np.abs(a).max(), 1e-300)
    if not herm <= 1e-12 * scale:  # a NaN entry fails too
        raise ValueError(f"kernel is not Hermitian: rel asymmetry {herm / scale:.2e}")


@dataclass(frozen=True)
class KernelMatrix:
    """Assembled Hermitian kernel (full band or one fixed order m)."""

    matrix: np.ndarray
    band: SpectralBand
    region: object
    domain: str                  # "FL" or "FB-discretized"
    order: int | None = None     # fixed azimuthal order, if block-assembled
    k_weights: np.ndarray | None = None  # FB symmetrization weights

    def __post_init__(self):
        _check_hermitian(self.matrix)

    @property
    def trace(self) -> float:
        return float(np.trace(self.matrix).real)


# ---------------------------------------------------------------------------
# radial coupling E
# ---------------------------------------------------------------------------

def _radial_rule(band: SpectralBand, R1: float, R2: float) -> specfun.QuadratureRule:
    """The rule for int_{R1}^{R2} f(r) dr behind every radial integral of a band.

    FL integrands are e^{-r} poly(2P): Gauss-Legendre with 2P + 24 nodes
    resolves them to rounding, and on [R1, inf) the scaled Gauss-Laguerre
    rule with P + 1 nodes is exact.  FB: `_c_quad_rule` at K, bounded only.
    """
    if isinstance(band, FourierBesselBand):
        if math.isinf(R2):
            raise ValueError("Fourier-Bessel kernels need a bounded region, got R2 = inf")
        return _c_quad_rule(band.K, R1, R2)
    if math.isinf(R2):
        return specfun.gauss_laguerre_scaled_rule(band.P + 1, R1)
    return specfun.gauss_legendre_rule(2 * band.P + 24, R1, R2)


def E_matrix(P: int, R1: float, R2: float) -> np.ndarray:
    """Radial coupling E_{p,p'} = int_{R1}^{R2} r^2 K_p K_{p'} dr, p, p' < P:
    A A^T of the square-root-weighted r K_p on the `_radial_rule` nodes, for
    R2 finite or not, so symmetric positive semidefinite, spectrum in [0, 1]."""
    if not (R2 > R1 >= 0.0):
        raise ValueError(f"need 0 <= R1 < R2, got R1={R1}, R2={R2}")
    rule = _radial_rule(FourierLaguerreBand(P, 1), R1, R2)
    A = specfun.laguerre_K_table(P - 1, rule.nodes) * (np.sqrt(rule.weights) * rule.nodes)
    return A @ A.T


# ---------------------------------------------------------------------------
# angular coupling G
# ---------------------------------------------------------------------------

def G_matrix(m: int, L: int, theta1: float, theta2: float) -> np.ndarray:
    """Angular coupling G^m_{l,l'} for l, l' in [m, L-1] over a colatitude band.

    Gauss-Legendre quadrature with L nodes in cos(theta) on
    [cos theta2, cos theta1].  Pbar_{lm} Pbar_{l'm} is a polynomial of
    degree <= 2L - 2 in cos(theta), so the rule is exact.  Assembled as
    A A^T from the square-root-weighted Pbar_{lm} at the nodes: symmetric,
    spectrum in [0, 1], and invariant under m -> -m.
    """
    m = abs(m)
    if not (0 <= m < L):
        raise ValueError(f"need 0 <= |m| < L, got m={m}, L={L}")
    if not (0.0 <= theta1 < theta2 <= math.pi):
        raise ValueError(f"need 0 <= theta1 < theta2 <= pi, got {theta1}, {theta2}")
    rule = specfun.gauss_legendre_rule(L, math.cos(theta2), math.cos(theta1))
    A = specfun.norm_alf_table(L, m, np.arccos(rule.nodes)) * np.sqrt(
        2.0 * math.pi * rule.weights)
    return A @ A.T


def _mask_factor(mask: AngularMask, L: int) -> np.ndarray:
    """Factor A of the mask coupling, G_mask = A A^H: sqrt(w_i) Y_{lm}(pix_i)
    over the active pixels, shape (L^2, n_active), rows l*l + l + m."""
    if mask.L_grid < L:
        raise ValueError(f"mask grid band-limit {mask.L_grid} is below L={L}")
    active = mask.indicator > 0
    Y = specfun.sph_harm_matrix(L, mask.theta[active], mask.phi[active])
    return Y * np.sqrt(mask.weight[active])


def G_mask_matrix(mask: AngularMask, L: int) -> np.ndarray:
    """Angular mask coupling over all (l, m): Hermitian L^2 x L^2 matrix.

    G_{(lm),(l'm')} = sum_pixels w_i I_i Y_{lm}(pix_i) Y*_{l'm'}(pix_i),
    exact for harmonic products when the mask grid band-limit covers L.
    Assembled as A A^H from `_mask_factor`.
    """
    A = _mask_factor(mask, L)
    return A @ A.conj().T


# ---------------------------------------------------------------------------
# radial Fourier-Bessel coupling C
# ---------------------------------------------------------------------------

def _c_quad_rule(K: float, R1: float, R2: float) -> specfun.QuadratureRule:
    n = max(32, math.ceil(4.0 * K * R2 / math.pi)) + 16
    return specfun.gauss_legendre_rule(n, R1, R2)


def C_kernel(ell: int, ell2: int, k: float, k2: float, R1: float, R2: float) -> float:
    """C_{l,l'}(k,k') = (2/pi) k k' int_{R1}^{R2} r^2 j_l(kr) j_{l'}(k'r) dr.

    Oscillation-resolving Gauss-Legendre (`_c_quad_rule`) over one
    `spherical_jn_table`, the rule the Fourier-Bessel factors use.
    """
    if ell < 0 or ell2 < 0:
        raise ValueError("degrees must be >= 0")
    if k <= 0 or k2 <= 0:
        raise ValueError("wavenumbers must be positive")
    if R1 < 0 or R2 < R1:
        raise ValueError(f"need 0 <= R1 <= R2, got R1={R1}, R2={R2}")
    if R1 == R2:
        return 0.0
    rule = _c_quad_rule(max(k, k2), R1, R2)
    r, w = rule.nodes, rule.weights
    J = specfun.spherical_jn_table(max(ell, ell2), np.array([k * r, k2 * r]))
    integ = np.sum(w * r ** 2 * J[ell, 0] * J[ell2, 1])
    return 2.0 / math.pi * k * k2 * float(integ)


def _fb_bessel_table(band: FourierBesselBand, r: np.ndarray) -> np.ndarray:
    """sqrt(2 w_n / pi) k_n j_l(k_n r) as (L, M, n_r): the Fourier-Bessel
    radial functions with the square-root k weights folded in."""
    ks = band.k_samples
    J = specfun.spherical_jn_table(band.L - 1, np.multiply.outer(ks, r))
    return J * (np.sqrt(2.0 / math.pi * fb_k_weights(band)) * ks)[:, None]


@functools.lru_cache(maxsize=8)
def _fb_radial_modes(band: FourierBesselBand, R1: float, R2: float) -> np.ndarray:
    """Radial factor T, (L, M, q), with W^{1/2} C W^{1/2} = T T^T: the thin SVD
    of the Bessel table X on the `_radial_rule` nodes, cut as `_rank_factor`
    cuts X X^T.  Read-only: it is cached."""
    rule = _radial_rule(band, R1, R2)
    X = (_fb_bessel_table(band, rule.nodes) * (rule.nodes * np.sqrt(rule.weights))
         ).reshape(band.L * band.M, -1)
    U, s, _ = np.linalg.svd(X, full_matrices=False)
    q = int(np.count_nonzero(_above_rank_floor(s * s, X.shape[0])))
    T = (U[:, :q] * s[:q]).reshape(band.L, band.M, q)
    T.flags.writeable = False
    return T


def _above_rank_floor(lam: np.ndarray, n: int) -> np.ndarray:
    """Values above numpy.linalg.matrix_rank's default tolerance lam_max n eps:
    the rank cut of the eigenvalues of E, G^m and the FB modes' Gram (n x n),
    and of the singular values of an azimuthal region's radial table."""
    return lam > lam.max() * n * np.finfo(float).eps


def _rank_factor(a: np.ndarray) -> np.ndarray:
    """Factor X of a symmetric positive semidefinite a = X X^T, (n, r): the
    eigenvectors of a above `_above_rank_floor`, scaled by sqrt(lam)."""
    _check_hermitian(a)  # eigh reads one triangle and would hide a skew
    lam, U = np.linalg.eigh(a)
    keep = _above_rank_floor(lam, a.shape[0])
    return U[:, keep] * np.sqrt(lam[keep])


def _require_base_frame(region):
    if getattr(region, "orientation", None) is not None:
        raise ValueError(
            "solvers work in the region's base frame; solve the unrotated region "
            "and apply rotate_eigenfunction for oriented results")


def _order_factors(band: SpectralBand, region):
    """The fixed-order kernel factors of either band: returns (Q, m -> K_m),
    with B_m = F_m F_m^T and F_m = (direct sum over l in [m, L-1] of Q_l) K_m.

    Rows of F_m run over (l, radial index), the radial index (p, or the k
    sample n) fast; FB rows carry the W^{1/2} weights.  Each member's own
    factor is T_l C_l per degree, radial modes T, (L, n_rad, q_i), times a
    coupling C_l:
    * product: T from `_fb_radial_modes` (FB) or the rank-cut E factor at
      every degree (FL), and C_l = I (x) a_l, a_l the rows of the rank-cut
      factor A_m of G^m (columns: radial mode, angular mode);
    * azimuthally symmetric: T = U S of the thin SVD U S V^T of the radial
      table on the grid's radii under the square root of their measure, cut
      by its singular values, and C_l one column per active (r, theta)
      node, V^T at r times Pbar_lm(theta) sqrt(theta weight).
    Q_l R_l is the QR of all members' T_l side by side, so Q, (L, n_rad, q),
    is one orthonormal radial basis per degree, and member i's columns of
    K_m, ((L - m) q, n_cols), are R_l^(i) C_l^(i).  Q, R and T do not depend
    on m: a solve over all orders builds them once.
    """
    fb = isinstance(band, FourierBesselBand)
    members = region.members if isinstance(region, reg_mod.RegionUnion) else (region,)
    parts = [_member_factors(band, s, fb) for s in members]
    if fb:
        _check_k_sampling(band, max(_outer_radius(s) for s in members))
    Q, R = np.linalg.qr(np.concatenate([T for T, _ in parts], axis=2))
    Rs = np.split(R, np.cumsum([T.shape[2] for T, _ in parts])[:-1], axis=2)

    def factor(m: int) -> np.ndarray:
        m = abs(m)
        if not (0 <= m < band.L):
            raise ValueError(f"need 0 <= |m| < L, got m={m}, L={band.L}")
        K = np.concatenate([columns(m, Ri[m:]) for Ri, (_, columns) in zip(Rs, parts)], axis=2)
        return K.reshape(K.shape[0] * K.shape[1], K.shape[2])
    return Q, factor


def _lift(Q: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """(direct sum over l of Q_l) Z: rows (l, c) of Z to rows (l, radial index)."""
    (nl, n, q), k = Q.shape, Z.shape[1]
    return (Q @ Z.reshape(nl, q, k)).reshape(nl * n, k)


def _outer_radius(region) -> float:
    """Largest radius of a product region, or of an azimuthal region's active nodes."""
    if isinstance(region, ProductSymmetric):
        return region.R2
    return float(region.r_nodes[region.indicator.any(axis=1)].max(initial=0.0))


def _check_k_sampling(band: FourierBesselBand, r_max: float):
    """Reject k samples too coarse for the region: past dk * r_max = pi the
    sampled k integral aliases radii r and 2 pi / dk - r, and the kernel is
    no longer a projection (eigenvalues above one)."""
    m_min = math.ceil(band.K * r_max / math.pi)
    if band.M < m_min:
        raise ValueError(
            f"Fourier-Bessel k sampling too coarse: dk * R_max = {band.dk * r_max:.4g} "
            f"exceeds pi (dk = K/M = {band.dk:.4g}, R_max = {r_max:g}); "
            f"use M >= {m_min}")


def _member_factors(band: SpectralBand, region, fb: bool):
    """One product or azimuthally symmetric region's part of `_order_factors`:
    its radial modes T, (L, n_rad, q_i), and the map (m, R) -> its columns of
    K_m as (L - m, q, n_cols), R being its columns of R_l, l in [m, L-1]."""
    _require_base_frame(region)
    L = band.L
    if isinstance(region, ProductSymmetric):
        if fb:
            T = _fb_radial_modes(band, region.R1, region.R2)
        else:  # the E factor, the same at every degree l
            T = _rank_factor(E_matrix(band.P, region.R1, region.R2))
            T = np.broadcast_to(T, (L,) + T.shape)

        def product(m: int, R: np.ndarray) -> np.ndarray:
            A = _rank_factor(G_matrix(m, L, region.theta1, region.theta2))
            return (R[:, :, :, None] * A[:, None, None, :]).reshape(
                R.shape[:2] + (R.shape[2] * A.shape[1],))
        return T, product
    if isinstance(region, AzimuthallySymmetric):
        # with fewer colatitude nodes than L the grid's Gram of the Pbar_lm
        # over the whole sphere is no longer I, and the region's can exceed it
        if region.theta_nodes.size < L:
            raise ValueError(
                f"azimuthally symmetric region has {region.theta_nodes.size} colatitude "
                f"nodes; the band L = {L} needs at least {L}")
        r = region.r_nodes
        sqrt_meas = r * np.sqrt(2.0 * math.pi * region.r_weights * region.indicator.any(axis=1))
        if fb:
            rad = _fb_bessel_table(band, r)
        else:  # K_p(r), the same at every degree l
            rad = specfun.laguerre_K_table(band.P - 1, r)[None]
        X = (rad * sqrt_meas).reshape(-1, r.size)
        U, s, Vt = np.linalg.svd(X, full_matrices=False)
        # node columns see the dropped modes at first order: cut s, not s^2
        q = int(np.count_nonzero(_above_rank_floor(s, max(X.shape))))
        T = np.broadcast_to((U[:, :q] * s[:q]).reshape(rad.shape[:2] + (q,)),
                            (L, rad.shape[1], q))
        ir, it = np.nonzero(region.indicator)
        V = Vt[:q, ir]
        sqrt_wt = np.sqrt(region.theta_weights[it])

        def azimuthal(m: int, R: np.ndarray) -> np.ndarray:
            Pb = specfun.norm_alf_table(L, m, region.theta_nodes)[:, it] * sqrt_wt
            return (R @ V) * Pb[:, None, :]
        return T, azimuthal
    raise TypeError(
        "fixed-order kernels need a ProductSymmetric, AzimuthallySymmetric "
        f"or RegionUnion region, got {type(region)!r}")


# ---------------------------------------------------------------------------
# assembled kernels
# ---------------------------------------------------------------------------

def _fixed_order_factor(m: int, band: SpectralBand, region) -> np.ndarray:
    """F_m = (direct sum over l of Q_l) K_m of `_order_factors`, as one array."""
    Q, factor = _order_factors(band, region)
    K = factor(m)
    return _lift(Q[abs(m):], K)


def kernel_fb_fixed_order(m: int, band: FourierBesselBand, region) -> KernelMatrix:
    """Symmetrized fixed-order Fourier-Bessel kernel B = W^{1/2} (C o G) W^{1/2}.

    Rows/columns run over (l, n) with l in [m, L-1] (fast index n).  W holds
    the k-sample quadrature weights, so B is symmetric positive semidefinite
    and its eigenvectors map back to coefficient samples via W^{-1/2}.
    Assembled as F F^T from `_fixed_order_factor`, so symmetric by construction.
    Raises ValueError when dk * R_max > pi (`_check_k_sampling`).
    """
    F = _fixed_order_factor(m, band, region)
    return KernelMatrix(F @ F.T, band, region, "FB-discretized", order=abs(m),
                        k_weights=fb_k_weights(band))


def kernel_fl_fixed_order(m: int, band: FourierLaguerreBand, region) -> KernelMatrix:
    """Fixed-order Fourier-Laguerre kernel over (l, p), l in [m, L-1] (fast index p).

    Assembled as F F^T from `_fixed_order_factor`, so symmetric by construction.
    A product member contributes G^m (x) E with E cut to its numerical rank.
    """
    F = _fixed_order_factor(m, band, region)
    return KernelMatrix(F @ F.T, band, region, "FL", order=abs(m))


@dataclass(frozen=True)
class FactoredKernelFL:
    """Radially independent FL kernel in factored form E (x) G_angular.

    The dense P L^2 x P L^2 product is only materialized on request.
    """

    E: np.ndarray          # (P, P) radial coupling
    G_angular: np.ndarray  # (L^2, L^2) Hermitian angular coupling
    band: FourierLaguerreBand
    region: ProductMask

    def __post_init__(self):
        _check_hermitian(self.E)
        _check_hermitian(self.G_angular)

    def dense(self) -> np.ndarray:
        return np.kron(self.G_angular, self.E)

    @property
    def trace(self) -> float:
        return float(np.trace(self.E).real * np.trace(self.G_angular).real)


def kernel_fl_mask(band: FourierLaguerreBand, region: ProductMask) -> FactoredKernelFL:
    """Factored FL kernel for an angular mask x radial interval region."""
    G = G_mask_matrix(region.mask, band.L)
    return FactoredKernelFL(E_matrix(band.P, region.R1, region.R2), G, band, region)
