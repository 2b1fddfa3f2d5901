"""Transforms on the ball, space-limited duals and Slepian-basis representation.

The Fourier-Laguerre analysis/synthesis pair here is exact for band-limited
signals: radially the scaled Gauss-Laguerre rule samples f K_p r^2, e^{-r}
poly(2P), as it is; angularly Gauss-Legendre in cos(theta) x n_phi azimuths.

Synthesis in both bands first sums each coefficient vector against one
radial table (`_synthesis_table`: K_p(r) for Fourier-Laguerre, the
k-weighted j_l(k_n r) for Fourier-Bessel), then against Y_lm = Pbar_lm(cos
theta) e^{i m phi}.  On a separable grid, radial nodes x colatitudes x
uniform azimuths, `synthesis_separable` is the analysis route below run
backwards, one order m at a time: the radial sums of the stack's rows of
orders +-m, the order's one Pbar_lm(cos theta) table contracting them into
azimuthal bins, and after the last order an inverse FFT over the bins.  It
holds no Y_lm table of the grid; `synthesis_fl_grid` (either band) and the
CLI's eigenfunction maps and `synth` grids go through it.  `synthesis`
(alias `synthesis_fl`, `synthesis_fb`) evaluates one vector of either band
at scattered points; the duals of `space_limit` evaluate through it, so the
modules import downward only: specfun, regions, kernels, eigen, transforms, cli.

Fourier-Laguerre analysis takes the quadrature sum one axis at a time and
never holds a Y_lm table of the grid: the weighted K_p(r) table contracts
the radii, an FFT over the azimuths 2 pi j / n_phi gives every order m at
once, and one Pbar_lm(cos theta) table per order contracts the colatitudes.

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
from .kernels import FourierLaguerreBand, _radial_rule, _radial_table, fb_k_weights
from .regions import AngularMask, BallPoint, ProductSymmetric, _azimuths, contains_points

_SPACE_LIMIT_MIN_LAM = 1e-12


@dataclass(frozen=True)
class SpatialGrid:
    """Separable ball grid: radial nodes x colatitudes x n_phi uniform azimuths.

    radial_weights integrate f -> int f(r) r^2 dr over the radial support;
    angular_weights integrate over solid angle.  `angular_band` records what
    the angular rule is exact for; the transforms check the band against it.
    """

    radial_nodes: np.ndarray
    radial_weights: np.ndarray
    theta_nodes: np.ndarray
    n_phi: int                    # azimuths 2 pi j / n_phi (`phi_nodes`) per colatitude
    angular_weights: np.ndarray   # per (theta, phi) pixel, flattened C-order
    angular_band: int             # exact for harmonic products below this L

    @property
    def phi_nodes(self) -> np.ndarray:
        return _azimuths(self.n_phi)

    def angular_points(self) -> tuple[np.ndarray, np.ndarray]:
        T, P = np.meshgrid(self.theta_nodes, self.phi_nodes, indexing="ij")
        return T.ravel(), P.ravel()


def _separable_grid(rule, theta1: float, theta2: float, L: int) -> SpatialGrid:
    """The radial `rule` (weights w_i r_i^2) times `AngularMask.band`: L
    Gauss-Legendre colatitudes in cos(theta) on the band x 2L azimuths."""
    mask = AngularMask.band(theta1, theta2, L)
    return SpatialGrid(rule.nodes, rule.weights * rule.nodes ** 2, mask.theta_nodes,
                       mask.n_phi, mask.weight, L)


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
# synthesis in either band, Fourier-Laguerre analysis
# ---------------------------------------------------------------------------

def _points_arrays(points) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(r, theta, phi) of BallPoints or of an (N, 3) or (3,) array or list, whose
    values `_check_coordinates` admits."""
    if not isinstance(points, np.ndarray):
        points = list(points)
        if all(isinstance(p, BallPoint) for p in points):
            points = np.array([(p.r, p.theta, p.phi) for p in points]).reshape(-1, 3)
    try:
        points = np.asarray(points, dtype=float)
    except (TypeError, ValueError) as err:  # ragged nesting, or items that are not numbers
        raise ValueError(f"points need shape (N, 3) or (3,): {err}") from None
    pts = np.atleast_2d(points)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"points need shape (N, 3) or (3,), got {points.shape}")
    _check_coordinates(*pts.T)
    return pts[:, 0], pts[:, 1], pts[:, 2]


def _check_coordinates(r, theta, phi=0.0) -> None:
    """ValueError unless the coordinates are finite with r >= 0 and
    0 <= theta <= pi (any finite phi: the azimuth is periodic)."""
    if not (((r >= 0) & (r < math.inf)).all() and ((theta >= 0) & (theta <= math.pi)).all()
            and np.isfinite(phi).all()):
        raise ValueError("points need finite (r, theta, phi), r >= 0 and 0 <= theta <= pi")


def _synthesis_table(band, r) -> np.ndarray:
    """The band's radial table at radii r, (1 or L, K, n_r), that synthesis sums
    over: `_radial_table` with Fourier-Bessel's k weights w_n in full."""
    T, w = _radial_table(band, r), fb_k_weights(band)
    return T if w is None else T * np.sqrt(w)[:, None]


def _radial_sums(values, band, r) -> np.ndarray:
    """Radial sums of one coefficient vector at radii r, (L^2, n_r), one
    degree at a time.

    Fourier-Laguerre: sum_p f_{lmp} K_p(r).  Fourier-Bessel: the discretized
    k integral sqrt(2/pi) sum_n w_n k_n f_{lm}(k_n) j_l(k_n r).
    """
    L = band.L
    c = np.asarray(values).reshape(L * L, -1)
    T = _synthesis_table(band, r)
    T = np.broadcast_to(T, (L,) + T.shape[1:])
    out = np.empty((L * L, r.size), complex)
    for l in range(L):
        rows = slice(l * l, (l + 1) ** 2)
        out[rows] = c[rows] @ T[l]
    return out


def synthesis_separable(values, band, r, theta, n_phi: int) -> np.ndarray:
    """Evaluate a stack of coefficient vectors on radii x colatitudes x azimuths.

    `values` is (count, band.size) in either band, or the band-row reader
    of count eigenvectors (`EigenResult._rows`); its values must be finite.
    The radii and colatitudes obey `synthesis`'s rule for points, and the
    azimuths are phi_j = 2 pi j / n_phi.  Returns (count, r.size,
    theta.size, n_phi).  An array is wrapped as a reader over its
    fancy-index gather, whose memory layout the reader's blocks share; a
    zero-row read gives the count and radial size.  One order m at a time,
    outermost: the (count, L - m, K) rows of order +m, and of -m, read from
    the reader, so only one order's rows of the stack are held; their
    radial sums, then the order's one table Pbar_{lm}(cos theta)
    contracting their degrees into azimuthal bin m mod n_phi and, times
    (-1)^m, -m mod n_phi.  An order whose coefficients are all zero gets no
    table (it would add exact zeros).  An unnormalized inverse FFT over the
    bins, one vector at a time, gives sum_m e^{i m phi_j}, exact at any
    n_phi >= 1.
    """
    L, take = band.L, values
    size = take([]).shape[1] * L * L if callable(take) else np.shape(values)[-1]
    if size != band.size:
        raise ValueError(f"coefficient vectors have length {size}, band needs {band.size}")
    if n_phi < 1:
        raise ValueError(f"n_phi must be >= 1, got {n_phi}")
    if not callable(take):  # an array: a reader over its fancy-index gather
        C = np.asarray(values).reshape(-1, L * L, size // (L * L))
        take = lambda rows: C[:, rows].transpose(1, 2, 0)
    count = take([]).shape[2]
    theta, r = np.asarray(theta, dtype=float).ravel(), np.asarray(r, dtype=float).ravel()
    _check_coordinates(r, theta)
    T = _synthesis_table(band, r)
    out = np.zeros((count, r.size, theta.size, n_phi), dtype=complex)
    for m in range(L):
        signed = [(mu, sign, c) for mu, rows, sign in specfun._signed_orders(L, m)
                  if (c := take(rows).transpose(2, 0, 1)).any()]     # (count, L - m, K)
        if not signed:
            continue
        pb = specfun.norm_alf_table(L, m, theta)                    # (L - m, n_theta)
        for mu, sign, c in signed:
            if not np.isfinite(c).all():
                raise ValueError("coefficient vectors hold non-finite values")
            rad = (c @ T[0] if T.shape[0] == 1                       # one K_p(r) table
                   else (c[:, :, None] @ T[m:])[:, :, 0])            # j_l(k r) of each degree
            # negation is exact, so sign * pb gives the bits of sign * (rad^T pb)
            out[..., mu % n_phi] += np.swapaxes(rad, -1, -2) @ (sign * pb)
    for o in out:  # one vector's copy at a time, not a second whole output
        o[...] = np.fft.ifft(o, axis=-1, norm="forward")
    return out


def synthesis(coeffs: HarmonicCoeffs, points) -> np.ndarray:
    """Evaluate coefficients of either band at BallPoints or (N, 3) (r, theta, phi).

    The radial sums (`_radial_sums`) times Y_lm, 512 points at a time:
    f = sum f_{lmp} K_p(r) Y_lm in Fourier-Laguerre, and in Fourier-Bessel the
    Riemann sum f = sum w_n f_{lm}(k_n) X_{lm}(k_n, r) over the kernels' k weights.
    """
    r, th, ph = _points_arrays(points)
    out = np.empty(r.size, dtype=complex)
    # chunks bound the Fourier-Bessel radial table, L * M * 8 bytes per point
    for c in (slice(s, s + 512) for s in range(0, r.size, 512)):
        Y = specfun.sph_harm_matrix(coeffs.band.L, th[c], ph[c])
        out[c] = np.einsum("qn,qn->n", Y, _radial_sums(coeffs.values, coeffs.band, r[c]))
    return out


synthesis_fl = synthesis_fb = synthesis  # the band-named entry points


def synthesis_fl_grid(coeffs: HarmonicCoeffs, grid: SpatialGrid) -> np.ndarray:
    """Synthesis on a separable grid, at its azimuths 2 pi j / n_phi, in
    either band; returns (n_r, n_theta, n_phi) values."""
    if grid.angular_band < coeffs.band.L:
        raise ValueError("grid angular band below coefficient band")
    return synthesis_separable(coeffs.values[None], coeffs.band, grid.radial_nodes,
                               grid.theta_nodes, grid.n_phi)[0]


def analysis_fl(values: np.ndarray, grid: SpatialGrid,
                band: FourierLaguerreBand) -> HarmonicCoeffs:
    """Fourier-Laguerre coefficients f_{lmp} = <f, K_p Y_lm> from grid samples.

    `values` holds the samples as (n_r, n_theta * n_phi) or (n_r, n_theta,
    n_phi).  The quadrature sum is taken one axis at a time: the weighted
    radial table K_p(r_i) contracts the radii, the angular weights scale
    each pixel, an FFT over phi gives sum_j f e^{-i m phi_j} for every m,
    and for each order m one table Pbar_{lm}(cos theta) contracts the
    colatitudes, for +m and (with the factor (-1)^m) for -m.  The FFT needs
    n_phi >= 2L - 1 of the grid's azimuths phi_j = 2 pi j / n_phi; fewer
    raise ValueError.  Exact when `values` samples a signal band-limited
    within `band` and the grid's exactness covers it.
    """
    P, L = band.P, band.L
    if grid.angular_band < L:
        raise ValueError(f"grid angular band {grid.angular_band} below L={L}")
    if grid.radial_nodes.size <= P:  # a Gauss-Laguerre rule needs P + 1 nodes
        raise ValueError("grid radial rule is not exact for this band")
    n_r, n_t, n_p = grid.radial_nodes.size, grid.theta_nodes.size, grid.n_phi
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
        for mu, rows, sign in specfun._signed_orders(L, m):
            C[rows] = sign * (pb @ F[:, :, mu].T)
    return HarmonicCoeffs(C.reshape(-1), band)


# ---------------------------------------------------------------------------
# space-limited duals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpaceLimited:
    """Space-limited dual g = S_R f / sqrt(lam) of a band-limited eigenfunction.

    `coeffs` holds the in-band spectral coefficients sqrt(lam) * f (valid on
    the band only; g itself is band-unlimited).  `evaluate` gives pointwise
    spatial values in either band.
    """

    source: HarmonicCoeffs
    lam: float
    region: object

    @property
    def coeffs(self) -> HarmonicCoeffs:
        return HarmonicCoeffs(math.sqrt(self.lam) * self.source.values,
                              self.source.band)

    def evaluate(self, points) -> np.ndarray:
        inside = contains_points(self.region, *_points_arrays(points))
        return synthesis(self.source, points) * inside / math.sqrt(self.lam)


def space_limit(f: HarmonicCoeffs, lam: float, region) -> SpaceLimited:
    """Unit-energy space-limited dual of eigenfunction f, eigenvalue lam in [1e-12, 1]."""
    if not _SPACE_LIMIT_MIN_LAM <= lam <= 1.0:
        raise ValueError(f"eigenvalue {lam} outside [{_SPACE_LIMIT_MIN_LAM}, 1]; "
                         "the space-limited dual is not defined")
    return SpaceLimited(f, float(lam), region)


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
