"""Concentration eigenproblems: solve, order, normalize; Shannon numbers; duals.

Eigenfunctions are returned in spectral form (coefficient vectors over the
band's index map).  For product regions the Fourier-Laguerre problem
separates into a radial eigenproblem on E and per-order angular problems on
G^m; a combined eigenvalue is the product lam = lam_radial * lam_angular
and the eigenvector is the outer product of the factors, so the full
spectrum is available without ever forming the dense P L^2 kernel.

Eigenvalues are validated against the projection-operator bounds
[-1e-9, 1 + 1e-9] before being clamped to [0, 1]; anything outside fails
the solve.  Ordering is deterministic: lam descending, then signed order m
ascending, then radial index, then angular index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels as ker
from . import specfun
from .kernels import FourierBesselBand, FourierLaguerreBand, SpectralBand, fb_k_weights
from .regions import (AzimuthallySymmetric, ProductMask, ProductSymmetric,
                      RegionUnion, solid_angle)

_CLAMP_TOL = 1e-9
_SPACE_LIMIT_MIN_LAM = 1e-12
# A Gram-side FB eigenvector F z / sqrt(mu) loses orthonormality like
# eps / mu; at or above this floor the residual stays below 1e-10.
_FB_VECTOR_FLOOR = 1e-5


@dataclass(frozen=True)
class HarmonicCoeffs:
    """Flat complex coefficient vector over a band's index map."""

    values: np.ndarray
    band: SpectralBand

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        object.__setattr__(self, "values", v)
        if v.shape != (self.band.size,):
            raise ValueError(
                f"coefficient vector has length {v.shape}, band needs {self.band.size}")

    def norm(self) -> float:
        return float(np.linalg.norm(self.values))

    def inner(self, other: "HarmonicCoeffs") -> complex:
        if self.band != other.band:
            raise ValueError("bands differ")
        return complex(np.vdot(other.values, self.values))


@dataclass(frozen=True)
class EigenFunctionInfo:
    lam: float
    m: int | None              # fixed azimuthal order, when the problem has one
    lam_radial: float | None = None
    lam_angular: float | None = None
    block: tuple = field(default=(), repr=False)  # internal factor pointers


class EigenResult:
    """Sorted concentration spectrum plus lazily materialized eigenvectors."""

    def __init__(self, eigenvalues, infos, band, region, shannon,
                 raw_range, materialize, k_weights=None, projector=None,
                 vector_floor=0.0):
        self.eigenvalues = np.asarray(eigenvalues, dtype=float)
        self.infos = list(infos)
        self.band = band
        self.region = region
        self.shannon = float(shannon)
        self.raw_eigenvalue_range = raw_range
        self._materialize = materialize
        self._projector = projector
        self.k_weights = k_weights
        self.vector_floor = vector_floor

    def __len__(self) -> int:
        return self.eigenvalues.size

    @property
    def stored(self) -> int:
        """Number of eigenvectors that can be materialized."""
        return sum(1 for info in self.infos if info.block)

    def coeffs(self, alpha: int) -> HarmonicCoeffs:
        """Coefficient vector of the alpha-th eigenfunction (0-based rank)."""
        info = self.infos[alpha]
        if not info.block:
            why = (f"eigenvalue {info.lam:.1e} is in the numerical null space"
                   if info.lam < self.vector_floor else "keep= too small")
            raise IndexError(f"eigenvector {alpha} was not retained ({why})")
        return HarmonicCoeffs(self._materialize(info), self.band)

    def vectors(self, count: int) -> np.ndarray:
        """First `count` eigenvector columns as a (band.size, count) matrix."""
        return np.column_stack([self.coeffs(a).values for a in range(count)])

    def project(self, values: np.ndarray, count: int | None = None) -> np.ndarray:
        """Inner products <values, f^alpha> for alpha = 0..count-1.

        Factored bases (product and mask regions) project the whole spectrum
        with a couple of small matrix products; block bases fall back to the
        retained eigenvectors.
        """
        values = np.asarray(values, dtype=complex)
        if count is None:
            count = len(self) if self._projector is not None else self.stored
        if self._projector is not None:
            return self._projector(values)[:count]
        return np.array([np.vdot(self.coeffs(a).values, values) for a in range(count)])


def _validate_and_clamp(raw: np.ndarray) -> tuple[np.ndarray, tuple[float, float]]:
    mn, mx = float(raw.min()), float(raw.max())
    if mn < -_CLAMP_TOL or mx > 1.0 + _CLAMP_TOL:
        raise ArithmeticError(
            f"eigenvalue outside projection bounds [-1e-9, 1+1e-9]: min={mn}, max={mx}")
    return np.clip(raw, 0.0, 1.0), (mn, mx)


def _spectrum_order(lam, m, i, j) -> np.ndarray:
    """Permutation that sorts spectrum entries by the ordering rule: lam
    descending, then signed order m ascending, then radial index i, then
    angular index j."""
    return np.lexsort((j, i, m, -lam))


def _descending_eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    lam, V = np.linalg.eigh(a)
    return lam[::-1], V[:, ::-1]


def _factor_entries(lam1: np.ndarray, lam2: np.ndarray):
    """Products lam2[j] * lam1[i] flattened with j slow, and their (i, j)."""
    lam = np.outer(lam2, lam1).ravel()
    j, i = np.divmod(np.arange(lam.size), lam1.size)
    return lam, i, j


def _mask_angular(mask, L: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of G_mask = A A^H, descending, from the SVD A = V S W^H of
    the pixel factor: lam = s^2, padded with exact zeros when the mask has
    fewer active pixels than L^2.  V is a complete unitary L^2 x L^2 basis:
    a narrow A asks for the full SVD to complete it, a wide A has it already
    and skips the n_active x n_active right factor.
    """
    A = ker._mask_factor(mask, L)
    V, s, _ = np.linalg.svd(A, full_matrices=A.shape[1] < A.shape[0])
    return np.concatenate([s * s, np.zeros(A.shape[0] - s.size)]), V


def _require_base_frame(region):
    if getattr(region, "orientation", None) is not None:
        raise ValueError(
            "solvers work in the region's base frame; solve the unrotated region "
            "and apply rotate_eigenfunction for oriented results")


# ---------------------------------------------------------------------------
# Fourier-Laguerre solve
# ---------------------------------------------------------------------------

def solve_fl(region, band: FourierLaguerreBand, keep: int | None = None) -> EigenResult:
    """Concentration spectrum of the Fourier-Laguerre kernel for `region`.

    ProductSymmetric regions use the separated E / G^m subproblems
    (eigenvalues are exact products lam_radial * lam_angular).  ProductMask
    regions use the E / G_mask factorization, with the angular eigenbasis
    read off the SVD of the pixel factor A, G_mask = A A^H
    (`_mask_angular`), so the largest eigensolve is the P x P one of E.
    Azimuthally symmetric and union regions solve dense fixed-order blocks.
    Orders m > 0 are replicated to -m.
    """
    _require_base_frame(region)
    P, L = band.P, band.L
    if isinstance(region, ProductSymmetric):
        lam1_raw, U = _descending_eigh(ker.E_matrix(P, region.R1, region.R2))
        lam1, _ = _validate_and_clamp(lam1_raw)
        angular = {}
        raw_lo, raw_hi = math.inf, -math.inf
        parts = []
        for m in range(L):
            lam2_raw, V = _descending_eigh(
                ker.G_matrix(m, L, region.theta1, region.theta2))
            lam2, _ = _validate_and_clamp(lam2_raw)
            angular[m] = (lam2, V)
            prods = np.outer(lam1_raw, lam2_raw)
            raw_lo = min(raw_lo, float(prods.min()))
            raw_hi = max(raw_hi, float(prods.max()))
            lam, i, j = _factor_entries(lam1, lam2)
            parts += [(lam, np.full(lam.size, ms), i, j)
                      for ms in ((m,) if m == 0 else (-m, m))]
        lam, ms, i, j = (np.concatenate(c) for c in zip(*parts))
        order = _spectrum_order(lam, ms, i, j)
        lam, ms, i, j = lam[order], ms[order], i[order], j[order]
        if keep is None:
            keep = lam.size
        infos = [
            EigenFunctionInfo(x, s, lam1[a], angular[abs(s)][0][b],
                              block=("prod", s, a, b) if rank < keep else ())
            for rank, (x, s, a, b) in enumerate(
                zip(lam.tolist(), ms.tolist(), i.tolist(), j.tolist()))
        ]

        def materialize(info: EigenFunctionInfo) -> np.ndarray:
            _, ms, i, j = info.block
            m_abs = abs(ms)
            vec = np.zeros(band.size, dtype=complex)
            V = angular[m_abs][1]
            for l in range(m_abs, L):
                base = (l * l + l + ms) * P
                vec[base:base + P] = V[l - m_abs, j] * U[:, i]
            return vec

        def projector(values: np.ndarray) -> np.ndarray:
            # factors are real, so <h, f^alpha> is a plain sandwich V^T H U,
            # stacked over signed orders as S[ms + L - 1, j, i]
            H = values.reshape(L * L, P)
            S = np.zeros((2 * L - 1, L, P), dtype=complex)
            for m in range(L):
                ls = np.arange(m, L)
                for sm in ((m,) if m == 0 else (-m, m)):
                    S[sm + L - 1, :L - m] = angular[m][1].T @ H[ls * ls + ls + sm] @ U
            return S[ms + L - 1, j, i]

        return EigenResult(lam, infos, band, region, shannon_fl(region, band),
                           (raw_lo, raw_hi), materialize, projector=projector)

    if isinstance(region, ProductMask):
        lam1_raw, U = _descending_eigh(ker.E_matrix(P, region.R1, region.R2))
        lam1, _ = _validate_and_clamp(lam1_raw)
        lam2_raw, V = _mask_angular(region.mask, L)
        lam2, _ = _validate_and_clamp(lam2_raw)
        prods = np.outer(lam1_raw, lam2_raw)
        raw_range = (float(prods.min()), float(prods.max()))
        lam, i, j = _factor_entries(lam1, lam2)
        order = _spectrum_order(lam, np.zeros_like(i), i, j)
        lam, i, j = lam[order], i[order], j[order]
        if keep is None:
            keep = lam.size
        infos = [
            EigenFunctionInfo(x, None, lam1[a], lam2[b],
                              block=("mask", a, b) if rank < keep else ())
            for rank, (x, a, b) in enumerate(zip(lam.tolist(), i.tolist(), j.tolist()))
        ]

        def materialize(info: EigenFunctionInfo) -> np.ndarray:
            _, i, j = info.block
            return np.kron(V[:, j], U[:, i])

        def projector(values: np.ndarray) -> np.ndarray:
            # <h, kron(V_j, U_i)> = (V^H H U)[j, i] with H = values as (L^2, P)
            return (V.conj().T @ values.reshape(L * L, P) @ U)[j, i]

        return EigenResult(lam, infos, band, region, shannon_fl(region, band),
                           raw_range, materialize, projector=projector)

    if isinstance(region, (AzimuthallySymmetric, RegionUnion)):
        return _solve_fl_blocks(region, band, keep)
    raise TypeError(f"unsupported region type {type(region)!r}")


def _block_result(band, region, blocks, keep, raw_range, shannon, scale=1.0,
                  **extra) -> EigenResult:
    """Merge per-order spectra into one sorted EigenResult.

    blocks[m] = (lam, Y): the order's clamped eigenvalues, descending, and
    its retained vector columns over (l, radial index), divided by `scale`
    on output.  Rank alpha keeps its vector if alpha < keep and Y has it.
    """
    L = band.L
    stride = band.size // (L * L)
    parts = [(lam, np.full(lam.size, ms), np.arange(lam.size))
             for m, (lam, _) in blocks.items() for ms in ((m,) if m == 0 else (-m, m))]
    lam, ms, i = (np.concatenate(c) for c in zip(*parts))
    order = _spectrum_order(lam, ms, i, np.zeros_like(i))
    lam, ms, i = lam[order], ms[order], i[order]
    if keep is None:
        keep = lam.size
    n_vec = {m: Y.shape[1] for m, (_, Y) in blocks.items()}
    infos = [
        EigenFunctionInfo(x, s, None, None, block=(
            ("blk", s, a) if rank < keep and a < n_vec[abs(s)] else ()))
        for rank, (x, s, a) in enumerate(zip(lam.tolist(), ms.tolist(), i.tolist()))
    ]

    def materialize(info: EigenFunctionInfo) -> np.ndarray:
        _, ms, i = info.block
        ls = np.arange(abs(ms), L)
        vec = np.zeros((L * L, stride), dtype=complex)
        vec[ls * ls + ls + ms] = blocks[abs(ms)][1][:, i].reshape(-1, stride) / scale
        return vec.ravel()

    return EigenResult(lam, infos, band, region, shannon, raw_range, materialize,
                       **extra)


def _solve_fl_blocks(region, band: FourierLaguerreBand, keep) -> EigenResult:
    """Dense fixed-order FL solve (azimuthally symmetric / union regions)."""
    blocks = {}
    raw_lo, raw_hi = math.inf, -math.inf
    for m in range(band.L):
        lam_raw, W = _descending_eigh(ker.kernel_fl_fixed_order(m, band, region).matrix)
        raw_lo = min(raw_lo, float(lam_raw.min()))
        raw_hi = max(raw_hi, float(lam_raw.max()))
        blocks[m] = (_validate_and_clamp(lam_raw)[0], W)
    return _block_result(band, region, blocks, keep, (raw_lo, raw_hi),
                         shannon_fl(region, band))


# ---------------------------------------------------------------------------
# Fourier-Bessel solve
# ---------------------------------------------------------------------------

def solve_fb(region, band: FourierBesselBand, keep: int | None = None) -> EigenResult:
    """Concentration spectrum of the discretized Fourier-Bessel kernel.

    Each order solves the W-symmetrized block B_m = F_m F_m^T through the
    smaller side of its factor (`kernels._fb_factor`).  On the Gram side
    F_m^T F_m the nonzero spectrum is the same, eigenvectors are
    F_m z / sqrt(mu), and the rest of the block is padded with exact zeros,
    so the spectrum keeps M L^2 entries.  `raw_eigenvalue_range` reports
    the eigenvalues actually computed, and 0 when a block was padded.
    Eigenvectors are built for the first `keep` ranks whose eigenvalue is at
    least _FB_VECTOR_FLOOR; below it lies the numerical null space.  Vector
    entries are mapped back to coefficient samples f_{lm}(k_n) through
    W^{-1/2}, so the discrete quadrature of sum_lm int |f_lm(k)|^2 dk is one.
    """
    _require_base_frame(region)
    w = fb_k_weights(band)
    blocks = {}
    raw_lo, raw_hi = math.inf, -math.inf
    for m in range(band.L):
        F = ker._fb_factor(m, band, region)
        gram = 0 < F.shape[1] < F.shape[0]  # an empty region solves its zero block
        lam_raw, Z = _descending_eigh(F.T @ F if gram else F @ F.T)
        raw_lo = min(raw_lo, float(lam_raw.min()), 0.0 if gram else math.inf)
        raw_hi = max(raw_hi, float(lam_raw.max()))
        lam, _ = _validate_and_clamp(lam_raw)
        n_vec = min(int(np.count_nonzero(lam_raw >= _FB_VECTOR_FLOOR)),
                    lam.size if keep is None else keep)
        Z = Z[:, :n_vec]
        blocks[m] = (np.concatenate([lam, np.zeros(F.shape[0] - lam.size)]),
                     F @ (Z / np.sqrt(lam_raw[:n_vec])) if gram else Z.copy())
    return _block_result(band, region, blocks, keep, (raw_lo, raw_hi),
                         shannon_fb(region, band), scale=np.sqrt(w), k_weights=w,
                         vector_floor=_FB_VECTOR_FLOOR)


# ---------------------------------------------------------------------------
# Shannon numbers (trace integrals, no eigen-solve)
# ---------------------------------------------------------------------------

def shannon_fl(region, band: FourierLaguerreBand) -> float:
    """Fourier-Laguerre Shannon number N = L^2/(4 pi) sum_p int_R K_p^2 dv."""
    P, L = band.P, band.L
    if isinstance(region, (ProductSymmetric, ProductMask)):
        radial = float(np.trace(ker.E_matrix(P, region.R1, region.R2)))
        return radial * L * L / (4.0 * math.pi) * solid_angle(region)
    if isinstance(region, RegionUnion):
        return sum(shannon_fl(m, band) for m in region.members)
    if isinstance(region, AzimuthallySymmetric):
        Kt = specfun.laguerre_K_table(P - 1, region.r_nodes)
        rad = np.sum(Kt ** 2, axis=0) * region.r_weights * region.r_nodes ** 2
        vol_int = 2.0 * math.pi * float(rad @ region.indicator @ region.theta_weights)
        return L * L / (4.0 * math.pi) * vol_int
    raise TypeError(f"unsupported region type {type(region)!r}")


def _fb_trace_radial(K: float, L: int, r: np.ndarray) -> np.ndarray:
    """sum_l (2l+1) [j_l(Kr)^2 - j_{l-1}(Kr) j_{l+1}(Kr)] at the given radii."""
    x = K * r
    J = specfun.spherical_jn_table(L, x)
    Jm1 = specfun.spherical_j_minus1(x)
    out = np.zeros_like(x)
    for l in range(L):
        lower = Jm1 if l == 0 else J[l - 1]
        out += (2 * l + 1) * (J[l] ** 2 - lower * J[l + 1])
    return out


def shannon_fb(region, band: FourierBesselBand) -> float:
    """Fourier-Bessel Shannon number from the analytic k-integrated trace.

    N = K^3/(4 pi^2) int_R dv sum_l (2l+1)(j_l(Kr)^2 - j_{l-1} j_{l+1}),
    with j_{-1}(x) = cos(x)/x supplying the l = 0 term.  No spectral
    discretization enters.
    """
    K, L = band.K, band.L
    pref = K ** 3 / (4.0 * math.pi ** 2)
    if isinstance(region, (ProductSymmetric, ProductMask)):
        R1, R2 = region.R1, region.R2
        if math.isinf(R2):
            return math.inf
        n = max(64, math.ceil(4.0 * K * R2 / math.pi) + 32)
        rule = specfun.gauss_legendre_rule(n, R1, R2)
        integ = np.sum(rule.weights * rule.nodes ** 2
                       * _fb_trace_radial(K, L, rule.nodes))
        return pref * solid_angle(region) * float(integ)
    if isinstance(region, AzimuthallySymmetric):
        rad = (_fb_trace_radial(K, L, region.r_nodes)
               * region.r_weights * region.r_nodes ** 2)
        return pref * 2.0 * math.pi * float(
            rad @ region.indicator @ region.theta_weights)
    if isinstance(region, RegionUnion):
        return sum(shannon_fb(m, band) for m in region.members)
    raise TypeError(f"unsupported region type {type(region)!r}")


def angular_shannon(L: int, theta1: float, theta2: float) -> float:
    """N_L = sum over l < L, |m| <= l of G^m_{l,l} = L^2/2 (cos t1 - cos t2).

    The trace of the band projection: sum_{m,l} |Ybar_lm|^2 = L^2 / (4 pi)
    at every point, integrated over the band's solid angle.
    """
    return L * L / 2.0 * (math.cos(theta1) - math.cos(theta2))


# ---------------------------------------------------------------------------
# space-limited duals and rotation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpaceLimited:
    """Space-limited dual g = S_R f / sqrt(lam) of a band-limited eigenfunction.

    `coeffs` holds the in-band spectral coefficients sqrt(lam) * f (valid on
    the band only; g itself is band-unlimited).  `evaluate` gives pointwise
    spatial values.
    """

    source: HarmonicCoeffs
    lam: float
    region: object

    @property
    def coeffs(self) -> HarmonicCoeffs:
        return HarmonicCoeffs(math.sqrt(self.lam) * self.source.values,
                              self.source.band)

    def evaluate(self, points) -> np.ndarray:
        from . import transforms
        from .regions import contains
        if isinstance(self.source.band, FourierLaguerreBand):
            vals = transforms.synthesis_fl(self.source, points)
        else:
            raise NotImplementedError("pointwise duals are provided for the "
                                      "Fourier-Laguerre band")
        mask = np.array([contains(self.region, p) for p in points], dtype=float)
        return vals * mask / math.sqrt(self.lam)


def space_limit(f: HarmonicCoeffs, lam: float, region) -> SpaceLimited:
    """Unit-energy space-limited dual of eigenfunction f with eigenvalue lam."""
    if lam < _SPACE_LIMIT_MIN_LAM:
        raise ValueError(f"eigenvalue {lam} below {_SPACE_LIMIT_MIN_LAM}; "
                         "the space-limited dual is not defined")
    return SpaceLimited(f, float(lam), region)


def rotate_eigenfunction(f: HarmonicCoeffs, theta0: float, phi0: float) -> HarmonicCoeffs:
    """Rotate a Fourier-Laguerre coefficient vector by R_z(phi0) R_y(theta0).

    Degree-by-degree Wigner rotation of the angular indices,
    f'_{lmp} = sum_n e^{-i m phi0} d^l_{mn}(theta0) f_{lnp}; the radial
    index is untouched.
    """
    band = f.band
    if not isinstance(band, FourierLaguerreBand):
        raise TypeError("rotation acts on Fourier-Laguerre coefficients")
    P, L = band.P, band.L
    out = np.empty_like(f.values)
    for l in range(L):
        dim = 2 * l + 1
        base = l * l * P
        block = f.values[base:base + dim * P].reshape(dim, P)
        D = np.empty((dim, dim), dtype=complex)
        for im, m in enumerate(range(-l, l + 1)):
            phase = np.exp(-1j * m * phi0)
            for i_n, n in enumerate(range(-l, l + 1)):
                D[im, i_n] = phase * specfun.wigner_d_beta(l, m, n, theta0)
        out[base:base + dim * P] = (D @ block).reshape(dim * P)
    return HarmonicCoeffs(out, band)
