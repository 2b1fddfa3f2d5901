"""Transforms on the ball and Slepian-basis representation.

The Fourier-Laguerre analysis/synthesis pair here is exact for band-limited
signals: radially the scaled Gauss-Laguerre rule samples f K_p r^2, e^{-r}
poly(2P), as it is; angularly Gauss-Legendre in cos(theta) times uniform phi.

Synthesis in both bands first sums each coefficient vector against a
radial table (K_p(r) for Fourier-Laguerre, the k-weighted j_l(k_n r) of
`kernels._fb_bessel_table` for Fourier-Bessel), then against Y_lm.  On a
separable grid, radial nodes x colatitudes x uniform azimuths,
`synthesis_separable` is the analysis route below run backwards for a whole
stack of vectors: the radial sums, one degree at a time in the stack's own
dtype, one Pbar_lm(cos theta) table per order m contracting the degrees
into azimuthal bin m mod n_phi, and one inverse FFT over the bins.  No Y_lm
table of the grid is built.  `synthesis_fl_grid` and the CLI's eigenfunction maps and
`synth` grids go through it.  `synthesis_fl` and `synthesis_fb` evaluate
one vector at scattered points with the same radial tables.

Fourier-Laguerre analysis takes the quadrature sum one axis at a time and
never holds a Y_lm table of the grid: the weighted K_p(r) table contracts
the radii, an FFT over the uniform azimuths gives every order m at once,
and one Pbar_lm(cos theta) table per order contracts the colatitudes.

Slepian projection: for a band-limited signal h with coefficient vector
h_band and a concentration eigenbasis {f^alpha}, the Slepian coefficients
are h_alpha = <h_band, f^alpha>; truncating the expansion at the Shannon
number keeps a fraction Q(J) of the region energy, with

    Q(J) = sum_{alpha<=J} lam_alpha |h_alpha|^2
         / sum_alpha     lam_alpha |h_alpha|^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import specfun
from .eigen import EigenResult, HarmonicCoeffs
from .kernels import (FourierBesselBand, FourierLaguerreBand, _fb_bessel_table,
                      _radial_rule, fb_k_weights)
from .regions import AngularMask, BallPoint, ProductSymmetric


@dataclass(frozen=True)
class SpatialGrid:
    """Separable ball grid: radial nodes x (theta x phi) angular grid.

    radial_weights integrate f -> int f(r) r^2 dr over the radial support;
    angular_weights integrate over solid angle.  `angular_band` records what
    the angular rule is exact for; the transforms check the band against it.
    """

    radial_nodes: np.ndarray
    radial_weights: np.ndarray
    theta_nodes: np.ndarray
    phi_nodes: np.ndarray
    angular_weights: np.ndarray   # per (theta, phi) pixel, flattened C-order
    angular_band: int             # exact for harmonic products below this L

    def angular_points(self) -> tuple[np.ndarray, np.ndarray]:
        T, P = np.meshgrid(self.theta_nodes, self.phi_nodes, indexing="ij")
        return T.ravel(), P.ravel()


def _separable_grid(rule, theta1: float, theta2: float, L: int) -> SpatialGrid:
    """The radial `rule` (weights w_i r_i^2) times `AngularMask.band`: L
    Gauss-Legendre colatitudes in cos(theta) on the band x 2L azimuths."""
    mask = AngularMask.band(theta1, theta2, L)
    return SpatialGrid(rule.nodes, rule.weights * rule.nodes ** 2, mask.theta_nodes,
                       mask.phi_nodes, mask.weight, L)


def analysis_grid(band: FourierLaguerreBand) -> SpatialGrid:
    """Exact analysis grid for the given band: L Gauss-Legendre colatitudes x
    2L azimuths, and radially the scaled Gauss-Laguerre rule with weights
    W_i r_i^2 on n_r = P + 9 nodes.  K_p K_q r^2 is e^{-r} poly(2P), so P + 1
    nodes would be exact; n_r stays P + 9, the row count of `project`'s
    sampled-signal files.
    """
    return _separable_grid(specfun.gauss_laguerre_scaled_rule(band.P + 9, 0.0), 0.0, math.pi,
                           band.L)


def region_energy_grid(region, band) -> SpatialGrid:
    """Grid whose weighted sums give int_R |f|^2 dv for band-limited f, on an
    unrotated ProductSymmetric region: the band's `kernels._radial_rule`
    (FB rejects R2 = inf) with weights w_i r_i^2, times `AngularMask.band`.
    """
    if not isinstance(region, ProductSymmetric) or region.orientation is not None:
        raise TypeError("energy grids are built for unrotated ProductSymmetric regions")
    return _separable_grid(_radial_rule(band, region.R1, region.R2), region.theta1,
                           region.theta2, band.L)


# ---------------------------------------------------------------------------
# Fourier-Laguerre synthesis / analysis
# ---------------------------------------------------------------------------

def _points_arrays(points) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    if isinstance(points, np.ndarray):
        pts = np.atleast_2d(points)
        return pts[:, 0], pts[:, 1], pts[:, 2]
    r = np.array([p.r for p in points])
    th = np.array([p.theta for p in points])
    ph = np.array([p.phi for p in points])
    return r, th, ph


def _radial_sums(values, band, r) -> np.ndarray:
    """Radial sums of a stack of coefficient vectors at radii r, (count, L^2, n_r).

    Fourier-Laguerre: sum_p f_{lmp} K_p(r).  Fourier-Bessel: the discretized
    k integral sqrt(2/pi) sum_n w_n k_n f_{lm}(k_n) j_l(k_n r).  `values`,
    (count, band.size), is read one degree at a time, each degree's rows
    made contiguous in the stack's own dtype: a transposed stack is not
    copied whole, and the products (and their rounding) do not depend on
    its layout.
    """
    L = band.L
    C = np.asarray(values).reshape(-1, L * L, band.size // (L * L))
    if isinstance(band, FourierLaguerreBand):
        T = np.broadcast_to(specfun.laguerre_K_table(band.P - 1, r), (L, band.P, r.size))
    else:
        T = _fb_bessel_table(band, r) * np.sqrt(fb_k_weights(band))[:, None]  # (L, M, n_r)
    dtype = np.result_type(C, float)
    out = np.empty((C.shape[0], L * L, r.size), dtype)
    for l in range(L):
        rows = slice(l * l, (l + 1) ** 2)
        out[:, rows] = np.ascontiguousarray(C[:, rows], dtype=dtype) @ T[l]
    return out


def _fft_azimuths(phi) -> int:
    """The count n_phi of azimuths phi_j = 2 pi j / n_phi; other azimuths,
    which an FFT over phi cannot serve, raise ValueError."""
    n = phi.size
    if n < 1 or np.abs(phi - 2.0 * math.pi * np.arange(n) / n).max() > 1e-12:
        raise ValueError("grid azimuths are not 2 pi j / n_phi, as the FFT needs")
    return n


def synthesis_separable(values, band, r, theta, n_phi: int) -> np.ndarray:
    """Evaluate a stack of coefficient vectors on radii x colatitudes x azimuths.

    `values` is (count, band.size) in either band; the azimuths are
    phi_j = 2 pi j / n_phi.  Returns (count, r.size, theta.size, n_phi).  After
    the radial sums, in the stack's dtype, one table Pbar_{lm}(cos theta) per
    order m contracts the degrees of +m into azimuthal bin m mod n_phi and,
    times (-1)^m, those of -m into bin -m mod n_phi; an unnormalized inverse
    FFT over the bins gives sum_m e^{i m phi_j}, exact at any n_phi >= 1.
    """
    if np.shape(values)[-1] != band.size:
        raise ValueError(f"coefficient vectors have length {np.shape(values)[-1]}, "
                         f"band needs {band.size}")
    if n_phi < 1:
        raise ValueError(f"n_phi must be >= 1, got {n_phi}")
    L, theta = band.L, np.asarray(theta, dtype=float).ravel()
    rad = _radial_sums(values, band, np.asarray(r, dtype=float).ravel())  # (count, L^2, n_r)
    out = np.zeros((rad.shape[0], rad.shape[2], theta.size, n_phi), dtype=complex)
    for m in range(L):
        pb = specfun.norm_alf_table(L, m, theta)                 # (L - m, n_theta)
        ls = np.arange(m, L)
        out[..., m % n_phi] += rad[:, ls * ls + ls + m].transpose(0, 2, 1) @ pb
        if m > 0:
            out[..., -m % n_phi] += (-1) ** m * (rad[:, ls * ls + ls - m].transpose(0, 2, 1) @ pb)
    return np.fft.ifft(out, axis=-1, norm="forward")


def _synthesis_points(coeffs: HarmonicCoeffs, points) -> np.ndarray:
    r, th, ph = _points_arrays(points)
    out = np.empty(r.size, dtype=complex)
    # chunks bound the Fourier-Bessel radial table, L * M * 8 bytes per point
    for c in (slice(s, s + 512) for s in range(0, r.size, 512)):
        Y = specfun.sph_harm_matrix(coeffs.band.L, th[c], ph[c])
        out[c] = np.einsum("qn,qn->n", Y, _radial_sums(coeffs.values, coeffs.band, r[c])[0])
    return out


def synthesis_fl(coeffs: HarmonicCoeffs, points) -> np.ndarray:
    """Evaluate f(r) = sum f_{lmp} K_p(r) Y_{lm}(theta, phi) at points.

    `points` is a list of BallPoint or an (N, 3) array of (r, theta, phi).
    """
    if not isinstance(coeffs.band, FourierLaguerreBand):
        raise TypeError("synthesis_fl needs Fourier-Laguerre coefficients")
    return _synthesis_points(coeffs, points)


def synthesis_fl_grid(coeffs: HarmonicCoeffs, grid: SpatialGrid) -> np.ndarray:
    """Synthesis on a separable grid whose azimuths are 2 pi j / n_phi (others
    raise ValueError); returns (n_r, n_theta, n_phi) values."""
    if not isinstance(coeffs.band, FourierLaguerreBand):
        raise TypeError("synthesis_fl_grid needs Fourier-Laguerre coefficients")
    if grid.angular_band < coeffs.band.L:
        raise ValueError("grid angular band below coefficient band")
    return synthesis_separable(coeffs.values[None], coeffs.band, grid.radial_nodes,
                               grid.theta_nodes, _fft_azimuths(grid.phi_nodes))[0]


def analysis_fl(values: np.ndarray, grid: SpatialGrid,
                band: FourierLaguerreBand) -> HarmonicCoeffs:
    """Fourier-Laguerre coefficients f_{lmp} = <f, K_p Y_lm> from grid samples.

    `values` holds the samples as (n_r, n_theta * n_phi) or (n_r, n_theta,
    n_phi).  The quadrature sum is taken one axis at a time: the weighted
    radial table K_p(r_i) contracts the radii, the angular weights scale
    each pixel, an FFT over phi gives sum_j f e^{-i m phi_j} for every m,
    and for each order m one table Pbar_{lm}(cos theta) contracts the
    colatitudes, for +m and (with the factor (-1)^m) for -m.  The FFT needs
    the azimuths phi_j = 2 pi j / n_phi with n_phi >= 2L - 1; other grids
    raise ValueError.  Exact when `values` samples a signal band-limited
    within `band` and the grid's exactness covers it.
    """
    P, L = band.P, band.L
    if grid.angular_band < L:
        raise ValueError(f"grid angular band {grid.angular_band} below L={L}")
    if grid.radial_nodes.size <= P:  # a Gauss-Laguerre rule needs P + 1 nodes
        raise ValueError("grid radial rule is not exact for this band")
    n_r, n_t, n_p = grid.radial_nodes.size, grid.theta_nodes.size, _fft_azimuths(grid.phi_nodes)
    if n_p < 2 * L - 1:
        raise ValueError(f"grid has {n_p} azimuths, L={L} needs at least {2 * L - 1}")
    vals = np.asarray(values, dtype=complex).reshape(n_r, n_t * n_p)
    Kt = specfun.laguerre_K_table(P - 1, grid.radial_nodes) * grid.radial_weights
    F = Kt @ vals                                             # (P, n_theta n_phi)
    F *= grid.angular_weights
    F = np.fft.fft(F.reshape(P, n_t, n_p), axis=2)            # (P, n_theta, m)
    C = np.empty((L * L, P), dtype=complex)
    for m in range(L):
        pb = specfun.norm_alf_table(L, m, grid.theta_nodes)   # (L - m, n_theta)
        ls = np.arange(m, L)
        C[ls * ls + ls + m] = pb @ F[:, :, m].T
        if m > 0:
            C[ls * ls + ls - m] = (-1) ** m * (pb @ F[:, :, -m].T)
    return HarmonicCoeffs(C.reshape(-1), band)


# ---------------------------------------------------------------------------
# Fourier-Bessel synthesis
# ---------------------------------------------------------------------------

def synthesis_fb(coeffs: HarmonicCoeffs, points) -> np.ndarray:
    """Riemann-sum synthesis of discretized Fourier-Bessel coefficients.

    f(r) = sum_{l,m,n} w_n f_{lm}(k_n) X_{lm}(k_n, r), with the same k
    weights used in kernel symmetrization so energy identities transfer to
    the discrete setting.
    """
    if not isinstance(coeffs.band, FourierBesselBand):
        raise TypeError("synthesis_fb needs Fourier-Bessel coefficients")
    return _synthesis_points(coeffs, points)


# ---------------------------------------------------------------------------
# Slepian representation
# ---------------------------------------------------------------------------

def slepian_coeffs(h: HarmonicCoeffs, basis: EigenResult,
                   count: int | None = None) -> np.ndarray:
    """Slepian coefficients h_alpha = <h, f^alpha> in coefficient space."""
    if h.band != basis.band:
        raise ValueError("signal and basis bands differ")
    return basis.project(h.values, count)


def truncate_reconstruct(h_alpha: np.ndarray, basis: EigenResult,
                         J: int) -> HarmonicCoeffs:
    """Band coefficients of the rank-J truncated Slepian expansion."""
    h_alpha = np.asarray(h_alpha)
    if J < 0 or J > h_alpha.size:
        raise ValueError(f"truncation rank {J} out of range 0..{h_alpha.size}")
    return HarmonicCoeffs(basis.vectors(J) @ h_alpha[:J], basis.band)


def quality_measure(h_alpha: np.ndarray, basis: EigenResult, J: int) -> float:
    """Region-energy fraction Q(J) captured by the rank-J truncation."""
    h_alpha = np.asarray(h_alpha)
    if J < 0 or J > h_alpha.size:
        raise ValueError(f"truncation rank {J} out of range 0..{h_alpha.size}")
    lam = basis.eigenvalues[:h_alpha.size]
    weights = lam * np.abs(h_alpha) ** 2
    denom = float(weights.sum())
    if denom < 1e-30:
        raise ZeroDivisionError("signal carries no energy inside the region")
    return float(weights[:J].sum()) / denom
