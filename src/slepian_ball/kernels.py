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
radial integral (E, the radial modes, the Shannon trace, energy grids) on
the band's one rule for [R1, R2], `_radial_rule`.  So each coupling is one
factor A of square-root-weighted node values with Gram A A^H:
`_radial_factor` (E, or C per degree), `_band_factor` (G^m) and
`_mask_factor` (G_mask, the Y_lm at a pixel mask's active pixels).
`E_matrix`, `G_matrix` and `G_mask_matrix` return those Grams as plain
arrays; the solves never form them, and take every spectrum from the thin
SVD of a factor (`_gram_eigh`), cut to its numerical rank where a factor is
kept (`_rank_cut`).  The fixed-order blocks of both bands are kept as a
factor too, B_m = F_m F_m^T.  numpy forms each Gram A A^H with one
symmetric rank-k update and mirrors its triangle, so every Gram is exactly
Hermitian and none is checked at run time.

The bands differ only in their radial functions (`_radial_table`), radial
rule and k weights (`fb_k_weights`); all else runs one body.  Every region's
F_m has one form (`_order_factors`): F_m = (direct sum over l of Q_l) K_m,
Q_l one orthonormal radial basis per degree, the QR of the members' radial
modes side by side, and K_m a small dense array over (l, radial mode).  The
radial modes are the `_rank_cut` of the `_radial_factor` for a product
member (`_radial_modes`), and one thin SVD of the radial table on the
grid's radii for an azimuthally symmetric region; every cut, G^m's
included, is one rule (`_above_rank_floor`).  `kernel_fixed_order`
(alias `kernel_fl_fixed_order`, `kernel_fb_fixed_order`) returns the array
F_m F_m^T; the block solver eigensolves the smaller side of K_m, as an SVD
of K_m costs about five times more.  The test suite checks each against an
analytic oracle (exponential moments in extended precision, Wigner-3j sums,
Lommel closed forms for C) or a dense assembly and eigensolve.  `C_kernel`
evaluates one entry of C through `_c_quad_rule` at its own k.

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
from .regions import AngularMask, AzimuthallySymmetric, ProductSymmetric


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


SpectralBand = FourierLaguerreBand | FourierBesselBand


def fb_k_weights(band: SpectralBand) -> np.ndarray | None:
    """Quadrature weights on the k samples: trapezoid on [0, K] with the
    zero-integrand k = 0 node dropped.  None for a FL band, which has none."""
    if isinstance(band, FourierLaguerreBand):
        return None
    w = np.full(band.M, band.dk)
    w[-1] = band.dk / 2.0
    return w


_CLAMP_TOL = 1e-9  # how far rounding may take a Gram's spectrum past [0, 1]


# ---------------------------------------------------------------------------
# radial rules, tables and modes; radial coupling E
# ---------------------------------------------------------------------------

def _radial_rule(band: SpectralBand, R1: float, R2: float) -> specfun.QuadratureRule:
    """The rule for int_{R1}^{R2} f(r) dr behind every radial integral of a band.

    FL integrands are e^{-r} poly(2P): on [R1, inf) the scaled Gauss-Laguerre
    rule with P + 1 nodes is exact, and it stands for [R1, R2] too once the
    tail's trace tr E(R2, inf), on the same rule from R2, is below 1e-16, as
    that bounds the tail's norm.  Short of that, Gauss-Legendre with 2P + 24
    nodes resolves the integrands to rounding.  FB: `_c_quad_rule` at K,
    bounded only.
    """
    if isinstance(band, FourierBesselBand):
        if math.isinf(R2):
            raise ValueError("Fourier-Bessel kernels need a bounded region, got R2 = inf")
        return _c_quad_rule(band.K, R1, R2)
    if math.isfinite(R2):
        tail = specfun.gauss_laguerre_scaled_rule(band.P + 1, R2)
        rK = specfun.laguerre_K_table(band.P - 1, tail.nodes) * tail.nodes
        if np.sum(rK * rK, axis=0) @ tail.weights >= 1e-16:
            return specfun.gauss_legendre_rule(2 * band.P + 24, R1, R2)
    return specfun.gauss_laguerre_scaled_rule(band.P + 1, R1)


def _radial_table(band: SpectralBand, r: np.ndarray, k_rule=None) -> np.ndarray:
    """The band's radial functions at radii r per degree: K_p(r), (1, P, n_r),
    or sqrt(2 w_n / pi) k_n j_l(k_n r), (L, M, n_r), on the k samples and
    weights w_n or on the nodes and weights of `k_rule`."""
    if isinstance(band, FourierLaguerreBand):
        return specfun.laguerre_K_table(band.P - 1, r)[None]
    ks, w = ((band.k_samples, fb_k_weights(band)) if k_rule is None
             else (k_rule.nodes, k_rule.weights))
    J = specfun.spherical_jn_table(band.L - 1, np.multiply.outer(ks, r))
    return J * (np.sqrt(2.0 / math.pi * w) * ks)[:, None]


def _radial_factor(band: SpectralBand, R1: float, R2: float) -> np.ndarray:
    """The radial coupling's factor A, (1 or L, n_rad, n_nodes): the
    `_radial_table` on the `_radial_rule` nodes under sqrt(r^2 w), so that
    A_l A_l^T is E (FL) or W^{1/2} C_l W^{1/2} (FB) at each degree."""
    rule = _radial_rule(band, R1, R2)
    return _radial_table(band, rule.nodes) * (rule.nodes * np.sqrt(rule.weights))


@functools.lru_cache(maxsize=8)
def _radial_modes(band: SpectralBand, R1: float, R2: float) -> np.ndarray:
    """A product member's radial modes T, (1 or L, n_rad, q), T_l T_l^T = A_l A_l^T
    for the `_radial_factor` A: `_rank_cut` of A's degrees stacked.  Read-only:
    cached."""
    A = _radial_factor(band, R1, R2)
    T = _rank_cut(A.reshape(-1, A.shape[2]))
    T = T.reshape(A.shape[:2] + T.shape[1:])
    T.flags.writeable = False
    return T


def E_matrix(P: int, R1: float, R2: float) -> np.ndarray:
    """Radial coupling E_{p,p'} = int_{R1}^{R2} r^2 K_p K_{p'} dr, p, p' < P:
    the Gram A A^T of the FL `_radial_factor`, for R2 finite or not, so
    symmetric positive semidefinite, spectrum in [0, 1]."""
    if not (R2 > R1 >= 0.0):
        raise ValueError(f"need 0 <= R1 < R2, got R1={R1}, R2={R2}")
    A = _radial_factor(FourierLaguerreBand(P, 1), R1, R2)[0]
    return A @ A.T


# ---------------------------------------------------------------------------
# angular coupling G
# ---------------------------------------------------------------------------

def _band_factor(m: int, L: int, theta1: float, theta2: float) -> np.ndarray:
    """Factor A of the colatitude-band coupling G^m = A A^T, (L - |m|, L): the
    square-root-weighted Pbar_{lm}, l in [|m|, L-1], at L Gauss-Legendre nodes
    in cos(theta) on [cos theta2, cos theta1].  Pbar_{lm} Pbar_{l'm} is a
    polynomial of degree <= 2L - 2 in cos(theta), so the rule is exact."""
    m = abs(m)
    if not (0 <= m < L):
        raise ValueError(f"need 0 <= |m| < L, got m={m}, L={L}")
    if not (0.0 <= theta1 < theta2 <= math.pi):
        raise ValueError(f"need 0 <= theta1 < theta2 <= pi, got {theta1}, {theta2}")
    rule = specfun.gauss_legendre_rule(L, math.cos(theta2), math.cos(theta1))
    return specfun.norm_alf_table(L, m, np.arccos(rule.nodes)) * np.sqrt(
        2.0 * math.pi * rule.weights)


def G_matrix(m: int, L: int, theta1: float, theta2: float) -> np.ndarray:
    """Angular coupling G^m_{l,l'} for l, l' in [m, L-1] over a colatitude band:
    the Gram A A^T of `_band_factor`, so symmetric, spectrum in [0, 1], and
    invariant under m -> -m."""
    A = _band_factor(m, L, theta1, theta2)
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


def _above_rank_floor(lam: np.ndarray, n: int) -> np.ndarray:
    """Values above numpy.linalg.matrix_rank's default tolerance lam_max n eps:
    the rank cut of the squared singular values of a factor with n rows (its
    Gram is n x n; `_rank_cut`), and of the singular values of an azimuthal
    region's radial table."""
    return lam > lam.max() * n * np.finfo(float).eps


def _gram_eigh(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of the Gram A A^H from the thin SVD A = U S V^H: s^2,
    descending and padded with exact zeros to A's row count, and U, whose
    min(A.shape) columns are complete when A is wide, the range when narrow."""
    U, s, _ = np.linalg.svd(A, full_matrices=False)
    return np.concatenate([s * s, np.zeros(A.shape[0] - s.size)]), U


def _rank_cut(A: np.ndarray) -> np.ndarray:
    """Factor U S of A A^H, (n, q), cut to the q eigenvalues s^2 of
    `_gram_eigh` above `_above_rank_floor`."""
    lam, U = _gram_eigh(A)
    q = int(np.count_nonzero(_above_rank_floor(lam, A.shape[0])))
    return U[:, :q] * np.sqrt(lam[:q])


def _require_base_frame(region):
    if getattr(region, "orientation", None) is not None:
        raise ValueError(
            "solvers work in the region's base frame; solve the unrotated region "
            "and apply rotate_eigenfunction for oriented results")


def _order_factors(band: SpectralBand, region):
    """The fixed-order kernel factors: (Q, m -> K_m), with B_m = F_m F_m^T and
    F_m = (direct sum over l in [m, L-1] of Q_l) K_m, rows (l, radial index),
    the radial index (p, or the k sample n) fast; FB rows carry W^{1/2}.
    Member i's own factor is T_l C_l per degree, radial modes T, (L, n_rad,
    q_i), times a coupling C_l (`_member_factors`): for a product I (x) a_l,
    a_l the rows of the `_rank_cut` of G^m's `_band_factor`; for an azimuthal
    region one column per active (r, theta) node, V^T at r times
    Pbar_lm(theta) sqrt(theta weight), with T = U S the thin SVD U S V^T of
    its radial table.
    Q_l R_l is the QR of all members' T_l side by side, so Q, (L, n_rad, q),
    is one orthonormal radial basis per degree, and member i's columns of
    K_m, ((L - m) q, n_cols), are R_l^(i) C_l^(i).  Q, R and T do not depend
    on m: a solve over all orders builds them once.
    """
    members = region.members if isinstance(region, reg_mod.RegionUnion) else (region,)
    # checked before any member's factor, so coarse k is not blamed on n_r
    _check_k_sampling(band, max(_outer_radius(s) for s in members))
    parts = [_member_factors(band, s) for s in members]
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
    """Largest radius of a product region, or of an azimuthal region's active
    nodes; raises for a region with no fixed-order factor in its frame."""
    _require_base_frame(region)
    if isinstance(region, ProductSymmetric):
        return region.R2
    if isinstance(region, AzimuthallySymmetric):
        return float(region.r_nodes[region.indicator.any(axis=1)].max(initial=0.0))
    raise TypeError(
        "fixed-order kernels need a ProductSymmetric, AzimuthallySymmetric "
        f"or RegionUnion region, got {type(region)!r}")


def _check_k_sampling(band: SpectralBand, r_max: float):
    """Reject FB k samples too coarse for radii up to r_max (FL has none): past
    dk * r_max = pi the sampled k integral aliases radii r and 2 pi / dk - r,
    and the kernel is no longer a projection (eigenvalues above one).  An
    unbounded r_max passes, for `_radial_rule` to reject."""
    if isinstance(band, FourierBesselBand) and band.M < band.K * r_max / math.pi < math.inf:
        raise ValueError(
            f"Fourier-Bessel k sampling too coarse: dk * R_max = {band.dk * r_max:.4g} "
            f"exceeds pi (dk = K/M = {band.dk:.4g}, R_max = {r_max:g}); "
            f"use M >= {math.ceil(band.K * r_max / math.pi)}")


def _top_radial_gram(G: np.ndarray) -> float:
    """Largest eigenvalue over degrees of G_l G_l^T / (2 pi), G (L, rows, n_r)."""
    return float(np.linalg.svd(G, compute_uv=False)[:, 0].max()) ** 2 / (2.0 * math.pi)


def _member_factors(band: SpectralBand, region):
    """One product or azimuthally symmetric region's part of `_order_factors`,
    past `_outer_radius`: its radial modes T, (L, n_rad, q_i), and the map
    (m, R) -> its columns of K_m as (L - m, q, n_cols), R being its columns
    of R_l, l in [m, L-1]."""
    L = band.L
    if isinstance(region, ProductSymmetric):
        T = _radial_modes(band, region.R1, region.R2)

        def columns(m: int, R: np.ndarray) -> np.ndarray:
            A = _rank_cut(_band_factor(m, L, region.theta1, region.theta2))
            return (R[:, :, :, None] * A[:, None, None, :]).reshape(
                R.shape[:2] + (R.shape[2] * A.shape[1],))
    else:
        # with fewer colatitude nodes than L the grid's Gram of the Pbar_lm
        # over the whole sphere is no longer I, and the region's can exceed it
        if region.theta_nodes.size < L:
            raise ValueError(
                f"azimuthally symmetric region has {region.theta_nodes.size} colatitude "
                f"nodes; the band L = {L} needs at least {L}")
        r, fb = region.r_nodes, isinstance(band, FourierBesselBand)
        sqrt_meas = r * np.sqrt(2.0 * math.pi * region.r_weights * region.indicator.any(axis=1))
        # radially, each degree's Gram over the active radii, over 2 pi, is at
        # most I if they resolve the band; FB takes k exactly (`_c_quad_rule`,
        # k and r swapped), as its samples exceed I near dk R_max = pi
        X = _radial_table(band, r) * sqrt_meas
        G = _radial_table(band, r, _c_quad_rule(r.max(), 0.0, band.K)) * sqrt_meas if fb else X
        peak = _top_radial_gram(G)
        if peak > 1.0 + _CLAMP_TOL:
            raise ValueError(
                f"azimuthally symmetric region has n_r = {r.size} radial nodes, too few for "
                f"the band: its radial Gram on them reaches {peak:.6f} > 1; raise n_r")
        # the k samples can alias radii short of the pi / dk of `_check_k_sampling`
        if fb and (peak := _top_radial_gram(X)) > 1.0 + _CLAMP_TOL:
            raise ValueError(
                f"Fourier-Bessel k sampling too coarse for the region: its radial Gram on "
                f"the M = {band.M} k samples reaches {peak:.6f} > 1; raise M")
        U, s, Vt = np.linalg.svd(X.reshape(-1, r.size), full_matrices=False)
        # node columns see the dropped modes at first order: cut s, not s^2
        q = int(np.count_nonzero(_above_rank_floor(s, max(U.shape[0], r.size))))
        T = (U[:, :q] * s[:q]).reshape(X.shape[:2] + (q,))
        ir, it = np.nonzero(region.indicator)
        V = Vt[:q, ir]
        sqrt_wt = np.sqrt(region.theta_weights[it])

        def columns(m: int, R: np.ndarray) -> np.ndarray:
            Pb = specfun.norm_alf_table(L, m, region.theta_nodes)[:, it] * sqrt_wt
            return (R @ V) * Pb[:, None, :]
    return np.broadcast_to(T, (L,) + T.shape[1:]), columns


# ---------------------------------------------------------------------------
# assembled kernels
# ---------------------------------------------------------------------------

def kernel_fixed_order(m: int, band: SpectralBand, region) -> np.ndarray:
    """Fixed-order kernel F_m F_m^T of `_order_factors` as a plain array,
    exactly symmetric (see the module docstring).  A FL product member
    contributes G^m (x) E, E cut to its rank; FB gives B = W^{1/2} (C o G)
    W^{1/2}, W the k-sample weights, whose eigenvectors map back to
    coefficient samples via W^{-1/2}, and raises ValueError when
    dk * R_max > pi (`_check_k_sampling`)."""
    Q, factor = _order_factors(band, region)
    F = _lift(Q[abs(m):], factor(m))
    return F @ F.T


kernel_fl_fixed_order = kernel_fb_fixed_order = kernel_fixed_order  # band-named
