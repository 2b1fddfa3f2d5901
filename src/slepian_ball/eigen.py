"""Concentration eigenproblems: solve, order, normalize; Shannon numbers; rotation.

Eigenfunctions are returned in spectral form (coefficient vectors over the
band's index map) by one solve, `solve` (alias `solve_fl`, `solve_fb`).
For product and mask regions the Fourier-Laguerre problem separates into a
radial eigenproblem on E and angular ones on G^m (or G_mask), each solved
by the thin SVD of the coupling's quadrature factor, so no Gram is formed;
a combined eigenvalue is the product lam = lam_radial * lam_angular and the
eigenvector is the outer product of the factors, so the full spectrum is
available without ever forming the dense P L^2 kernel.

Every other case, in either band, solves per-order blocks B_m = F_m F_m^T
through one block solver, `_solve_blocks`.  Every region's factor has one
form, F_m = (direct sum over l of Q_l) K_m, with Q_l an orthonormal radial
basis per degree and K_m a small dense array (`kernels._order_factors`),
so each block is eigensolved on the smaller side of K_m and keeps its
vectors as coefficients over the Q_l, lifted only for the ranks read.  The
rest of a block's spectrum is exact zeros, kept as a padding count and never
built: 51,853 of the 56,000 entries at the FB reference.

Both routes hand their per-order blocks (a mask's one block spans the band)
to one merge, `EigenResult`, whose per-rank state is arrays: `eigenvalues`,
`orders` (signed m; None for a mask, whose eigenfunctions have no order), and
`lam_radial`, `lam_angular` (None unless the solve separates).  A block
solve's clamped zeros join its padding, so the merge sorts the computed
entries and places the padding in closed form: every clamped eigenvalue is
>= 0, so the padding is the tail of the ranks, one order after another by
signed m.  The first `stored` ranks have eigenvectors, gathered one band
row (l, m) at a time, as the (radial, n) rows of the row-major
(band.size, n) stack, by the one band-row reader of a rank set
(`EigenResult._rows`), in the blocks' dtype: real for every region but a
pixel mask.  Maps read one signed order's rows from it at a time, so no
whole stack is gathered for them.  Fourier-Bessel vectors are coefficient
samples f(k_n) with sum_n w_n |f(k_n)|^2 = 1 over the k weights, and
`project` takes inner products under the same weights.

Eigenvalues are validated against the projection-operator bounds
[-1e-9, 1 + 1e-9] before being clamped to [0, 1]; anything outside fails
the solve.  Ordering is deterministic: lam descending, then signed order m
ascending, then radial index i, then angular index j.  The merge realizes
it by layout: blocks in ascending signed m, each listing its entries in key
order, entry k = i * angular.size + j (a fixed-order block's k = i), so one
stable sort of -lam gives the order and each key follows from a position.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import kernels as ker
from . import specfun
from .kernels import _CLAMP_TOL, FourierBesselBand, FourierLaguerreBand, SpectralBand
from .regions import (AzimuthallySymmetric, ProductMask, ProductSymmetric,
                      RegionUnion, _check_band, _orientation, solid_angle)

# A Gram-side block eigenvector F z / sqrt(mu) loses orthonormality like
# eps / mu; at or above this floor the residual stays below 1e-10.
_VECTOR_FLOOR = 1e-5


@dataclass(frozen=True)
class HarmonicCoeffs:
    """Flat complex coefficient vector over a band's index map; its values
    must be finite."""

    values: np.ndarray
    band: SpectralBand

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        object.__setattr__(self, "values", v)
        if v.shape != (self.band.size,):
            raise ValueError(
                f"coefficient vector has length {v.shape}, band needs {self.band.size}")
        if not np.isfinite(v).all():
            raise ValueError("coefficient vector holds non-finite values")

    def norm(self) -> float:
        return float(np.linalg.norm(self.values))


@dataclass(frozen=True)
class _AngularBasis:
    """Unitary n x n basis: its r range columns V, then Q[:, r:] for the
    Householder QR V = Q R, with Q = I - W T W^H in compact WY form and only
    the columns asked for built.  A complete V (r = n) has empty W and T."""

    V: np.ndarray
    W: np.ndarray
    T: np.ndarray

    @classmethod
    def complete(cls, V: np.ndarray) -> _AngularBasis:
        n, r = V.shape
        if r == n:
            return cls(V, np.zeros((n, 0), V.dtype), np.zeros((0, 0), V.dtype))
        h, tau = np.linalg.qr(V, mode="raw")
        W = np.tril(h.T, -1)
        W[np.arange(r), np.arange(r)] = tau != 0  # tau = 0: an identity reflector
        # T^{-1} = diag(1/tau) + the strict upper triangle of W^H W
        inv_tau = np.divide(1.0, tau, out=np.ones_like(tau), where=tau != 0)
        return cls(V, W, np.linalg.inv(np.triu(W.conj().T @ W, 1) + np.diag(inv_tau)))

    def columns(self, j: np.ndarray) -> np.ndarray:
        """Basis columns j, (n, j.size)."""
        null = j >= self.V.shape[1]
        out = np.zeros((self.V.shape[0], j.size), np.result_type(self.V, self.W))
        out[:, ~null] = self.V[:, j[~null]]
        out[:, null] = -self.W @ (self.T @ self.W[j[null]].conj().T)
        out[j[null], np.flatnonzero(null)] += 1.0
        return out

    def adjoint(self, H: np.ndarray) -> np.ndarray:
        """Basis^H H: V^H H on the range rows, (Q^H H)[r:] on the null rows."""
        Hh, r = H.conj().T, self.V.shape[1]  # (H^H V)^H: no conjugate copy of V or W
        return np.concatenate([(Hh @ self.V).conj().T,
                               H[r:] - self.W[r:] @ (Hh @ self.W @ self.T).conj().T])


@dataclass(frozen=True)
class _Block:
    """One signed order's spectrum on band rows l^2 + l + m (a mask: every row).

    Computed entries are listed in key order (i, j), the merge's layout:
    entry k = i * angular.size + j has eigenvalue lam[k].  `pad` exact zeros
    with keys (lam.size, 0), (lam.size + 1, 0), ... follow them, kept as a
    count; a fixed-order block's lam holds no zero.  Separated blocks hold
    eigenpairs (radial, U), (angular, V), V an `_AngularBasis` (reflectors
    complete a narrow mask's); entry (i, j) is V_j (x) U_i.  Fixed-order
    blocks hold coefficients C: entry k has keys (k, 0) and vector W^{-1/2}
    (sum_l Q_l) C[:, k], W = I in FL, scaled when read.
    """

    m: int | None
    rows: np.ndarray
    lam: np.ndarray
    raw: tuple[float, float]  # (lo, hi) of lam before clamping, padding counted
    pad: int = 0
    U: np.ndarray | None = None
    V: _AngularBasis | None = None
    radial: np.ndarray | None = None
    angular: np.ndarray | None = None
    C: np.ndarray | None = None
    Q: np.ndarray | None = None

    def vectors(self, k: np.ndarray):
        """Vectors of entries k as a function of a position among the block's
        rows, (radial, k.size), unscaled by W^{-1/2}.  A separated block's
        angular columns, a fixed-order one's lifted ones, are built once, here."""
        if self.C is None:
            i, j = np.divmod(k, self.angular.size)
            ang = self.V.columns(j)
            rad = self.U[:, i].astype(ang.dtype)  # the cast each product would make
            return lambda at: ang[at] * rad
        C = np.ascontiguousarray(self.C[:, k].T).reshape(k.size, len(self.Q), -1, 1)
        Y = (self.Q @ C)[..., 0].transpose(1, 2, 0)  # per column: bits independent of k
        return lambda at: Y[at]


def _order_blocks(m: int | None, L: int, lam, **fields) -> list[_Block]:
    """Blocks of orders m and -m (all rows if m is None) sharing lam,
    padding, raw range and vectors."""
    if m is None:
        return [_Block(None, np.arange(L * L), lam, **fields)]
    return [_Block(mu, rows, lam, **fields)
            for mu, rows, _ in specfun._signed_orders(L, m)]


class EigenResult:
    """Sorted spectrum merged from blocks: computed entries, then padding by signed m."""

    def __init__(self, blocks, band, shannon, keep):
        # the computed entries in (m, i, j) order, so a stable sort of -lam
        # ranks them by the module's rule; the padding is placed below
        blocks = sorted(blocks, key=lambda b: b.m or 0)
        lam = np.concatenate([b.lam for b in blocks])
        order = np.argsort(-lam, kind="stable")
        rank = np.empty_like(order)
        rank[order] = np.arange(order.size)  # the inverse permutation
        self._blocks = blocks
        self._ranks = np.split(rank, np.cumsum([b.lam.size for b in blocks])[:-1])
        self.eigenvalues = np.zeros(lam.size + sum(b.pad for b in blocks))
        self.eigenvalues[rank] = lam
        self.orders = self.lam_radial = self.lam_angular = None
        if blocks[0].m is not None:  # the narrowest signed type holding -L, so +-(L - 1)
            self.orders = np.empty(len(self), np.min_scalar_type(-band.L))
            # no clamped eigenvalue is < 0 and no padded block computes a zero, so the
            # padding is the tail, by signed m, filled in place (no temporary to raise RSS)
            t = lam.size
            for b, r in zip(blocks, self._ranks):
                self.orders[r] = b.m
                self.orders[t:t + b.pad] = b.m
                t += b.pad
        if blocks[0].C is None:  # separated blocks have no padding
            self.lam_radial, self.lam_angular = np.empty(lam.size), np.empty(lam.size)
            for b, r in zip(blocks, self._ranks):
                self.lam_radial[r] = np.repeat(b.radial, b.angular.size)
                self.lam_angular[r] = np.tile(b.angular, b.radial.size)
        # each block's vectors belong to its largest eigenvalues, so the
        # retained vectors are a prefix of the ranks
        n_vectors = sum(b.lam.size if b.C is None else b.C.shape[1] for b in blocks)
        self.stored = min(len(self) if keep is None else keep, n_vectors)
        self.band = band
        self.shannon = float(shannon)
        # the range of the eigenvalues the solve computed, before clamping
        self.raw_eigenvalue_range = (min(b.raw[0] for b in blocks),
                                     max(b.raw[1] for b in blocks))
        self.k_weights = ker.fb_k_weights(band)  # of the band's inner product
        # block solves store vectors down to a floor, separated ones all
        self.vector_floor = 0.0 if blocks[0].C is None else _VECTOR_FLOOR

    def __len__(self) -> int:
        return self.eigenvalues.size

    def _require_stored(self, alpha: int):
        if not 0 <= alpha < len(self):
            raise IndexError(f"rank {alpha} is outside the spectrum 0..{len(self) - 1}")
        if alpha >= self.stored:
            lam = self.eigenvalues[alpha]
            why = (f"eigenvalue {lam:.1e} is in the numerical null space"
                   if lam < self.vector_floor else "keep= too small")
            raise IndexError(f"eigenvector {alpha} was not retained ({why})")

    def _rows(self, ranks):
        """The one reader of the stored eigenvectors of `ranks`: `take(rows)`
        gives band rows `rows` (l^2 + l + m), the (radial, ranks.size) slices
        of the row-major (band.size, ranks.size) stack, as a zero-filled,
        C-contiguous (len(rows), radial, ranks.size) array in the blocks'
        dtype (complex128 for a pixel mask, else float64), Fourier-Bessel
        rows scaled by W^{-1/2} (`k_weights`) as they are read.

        Each block's vectors for the requested ranks are built once
        (`_Block.vectors`), here, and every band row is mapped once to them.
        """
        ranks = np.asarray(ranks)
        if ranks.size:
            self._require_stored(int(ranks.min()))
            self._require_stored(int(ranks.max()))
        column = np.full(self.stored, -1)
        column[ranks] = np.arange(ranks.size)
        n_rows = self.band.L ** 2
        reads = [None] * n_rows  # per band row: (columns, vectors, position among block rows)
        for block, rank in zip(self._blocks, self._ranks):
            k = np.flatnonzero(rank < self.stored)
            col = column[rank[k]]
            k, col = k[col >= 0], col[col >= 0]
            if k.size:
                by_col = np.argsort(col)
                k, col = k[by_col], col[by_col]
                if col[-1] - col[0] == col.size - 1:  # one run of columns
                    col = slice(col[0], col[-1] + 1)
                vectors = block.vectors(k)
                for at, row in enumerate(block.rows.tolist()):
                    reads[row] = (col, vectors, at)
        # U (radial) and Q are real in every solve; V or C sets the dtype
        dtype = np.result_type(*{(b.V.V if b.C is None else b.C).dtype for b in self._blocks})
        shape = (self.band.size // n_rows, ranks.size)
        scale = None if self.k_weights is None else np.sqrt(self.k_weights)[:, None]

        def take(rows) -> np.ndarray:
            out = np.zeros((len(rows),) + shape, dtype)
            for index, buf in zip(np.asarray(rows).tolist(), out):
                if reads[index]:
                    col, vectors, at = reads[index]
                    buf[:, col] = vectors(at)
            if scale is not None:
                out /= scale
            return out
        return take

    def _stack(self, ranks) -> np.ndarray:
        """Eigenvectors of `ranks` as the columns of a C-contiguous (band.size,
        ranks.size) array, every band row read at once (`_rows`): row-major,
        the matrix `cli.write_matrix` writes without a copy."""
        F = self._rows(ranks)(range(self.band.L ** 2))
        return F.reshape(self.band.size, F.shape[-1])

    def coeffs(self, alpha: int) -> HarmonicCoeffs:
        """Coefficient vector of the alpha-th eigenfunction (0-based rank)."""
        return HarmonicCoeffs(self._stack([alpha])[:, 0], self.band)

    def vectors(self, count: int) -> np.ndarray:
        """First `count` eigenvectors as the columns of a (band.size, count) matrix.

        C-contiguous, float64 unless the region is a pixel mask (complex128);
        see `_stack`.
        """
        if count < 0:
            raise IndexError(f"count {count} is outside the spectrum 0..{len(self)}")
        return self._stack(np.arange(count))

    def project(self, values: np.ndarray, count: int | None = None) -> np.ndarray:
        """Inner products <values, f^alpha> for alpha = 0..count-1 in the
        band's inner product, weighting FB k samples by w_n.

        One product per block, V^H H_rows U (separated) or C^T (Q_l^T h_l) per
        degree (fixed-order, unlifted), H = W^{1/2} values as (L^2, radial).
        A narrow mask's V^H applies its reflectors' Q^H once; coefficients with
        lam = 0 depend on that completion, those with lam > 0 do not.  By default
        separated bases project the whole spectrum, block bases the `stored`
        ranks.  `values` of another length than band.size raise ValueError, a
        negative `count` IndexError.
        """
        H = np.asarray(values, dtype=complex)
        if H.size != self.band.size:
            raise ValueError(f"values have length {H.size}, band needs {self.band.size}")
        H = H.reshape(self.band.L ** 2, -1)
        if self.k_weights is not None:  # FB solves are never separated
            H = H * np.sqrt(self.k_weights)
        limit = self.stored if self.lam_radial is None else len(self)
        count = limit if count is None else count
        if count < 0:
            raise IndexError(f"count {count} is outside the spectrum 0..{len(self)}")
        if count > limit:
            self._require_stored(count - 1)
        out = np.zeros(len(self), dtype=complex)
        for block, ranks in zip(self._blocks, self._ranks):
            if block.C is None:
                out[ranks] = (block.V.adjoint(H[block.rows]) @ block.U).T.ravel()
            else:
                out[ranks[:block.C.shape[1]]] = block.C.T @ (H[block.rows, None] @ block.Q).ravel()
        return out[:count]


def _check_keep(keep):
    if keep is None:
        return
    if isinstance(keep, bool) or not isinstance(keep, numbers.Integral):
        raise TypeError(f"keep must be None or an integer, got {keep!r}")
    if keep < 0:
        raise ValueError(f"keep must be >= 0, got {keep}")


def _validate_and_clamp(raw: np.ndarray) -> np.ndarray:
    """`raw` clamped to [0, 1] once it lies within the projection bounds; it
    may be empty."""
    mn, mx = (float(raw.min()), float(raw.max())) if raw.size else (0.0, 0.0)
    if not (mn >= -_CLAMP_TOL and mx <= 1.0 + _CLAMP_TOL):  # NaN fails
        raise ArithmeticError(
            f"eigenvalue outside projection bounds [-1e-9, 1+1e-9]: min={mn}, max={mx}")
    return np.clip(raw, 0.0, 1.0)


def _descending_eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    lam, V = np.linalg.eigh(a)
    return lam[::-1], V[:, ::-1]


def _solve_blocks(region, band: SpectralBand, keep) -> list[_Block]:
    """Solve every fixed-order block B_m = F_m F_m^T, F_m = (sum Q_l) K_m
    (`kernels._order_factors`).

    The Q_l are orthonormal, so the nonzero spectrum of B_m is that of the
    smaller side of K_m: on K_m K_m^T the eigenvectors are Q_l z, on the
    Gram side K_m^T K_m they are Q_l (K_m z) / sqrt(mu).  The rest of the
    block is exact zeros, kept as the block's padding count (`_Block.pad`)
    and never built, so the spectrum keeps one entry per row; the raw range
    counts those zeros.  The eigenvalues that clamp to zero join the
    padding, so no block holds a zero.  A K_m with no columns is all
    padding.  Vectors are kept for the first `keep` eigenvalues of at least
    _VECTOR_FLOOR, above the numerical null space, as coefficients over the
    Q_l, lifted when read (`_Block`).
    """
    blocks = []
    Q, factor = ker._order_factors(band, region)
    for m in range(band.L):
        K = factor(m)
        gram = K.shape[1] < K.shape[0]
        lam_raw, Z = _descending_eigh(K.T @ K if gram else K @ K.T)
        n_vec = min(int(np.count_nonzero(lam_raw >= _VECTOR_FLOOR)),
                    lam_raw.size if keep is None else keep)
        C = K @ (Z[:, :n_vec] / np.sqrt(lam_raw[:n_vec])) if gram else Z[:, :n_vec].copy()
        pad = (band.L - m) * Q.shape[1] - lam_raw.size
        ends = np.append(lam_raw, np.zeros(min(pad, 1)))  # one zero stands for the padding
        lam = _validate_and_clamp(lam_raw)
        nz = np.count_nonzero(lam)  # the zeros are a suffix: lam_raw descends
        blocks += _order_blocks(m, band.L, lam[:nz], pad=pad + lam.size - nz,
                                raw=(float(ends.min()), float(ends.max())), C=C, Q=Q[m:])
    return blocks


# ---------------------------------------------------------------------------
# the solve
# ---------------------------------------------------------------------------

def _solve_separated(region, band: FourierLaguerreBand) -> list[_Block]:
    """Blocks of a FL product or mask region: the eigenpairs of E times those
    of each G^m or of G_mask, each from the thin SVD of its factor
    (`kernels._gram_eigh`), so no Gram is formed or eigensolved.  A narrow
    mask factor gives its range columns, which Householder reflectors
    complete (one completion of many; `_AngularBasis.complete`)."""
    lam1_raw, U = ker._gram_eigh(ker._radial_factor(band, region.R1, region.R2)[0])
    lam1 = _validate_and_clamp(lam1_raw)
    if isinstance(region, ProductMask):
        factors = {None: ker._mask_factor(region.mask, band.L)}
    else:
        factors = {m: ker._band_factor(m, band.L, region.theta1, region.theta2)
                   for m in range(band.L)}
    blocks = []
    for m, A in factors.items():
        lam2_raw, V = ker._gram_eigh(A)
        # every s^2 >= 0, so the extremes of the products are those of the factors
        raw = (float(lam1_raw.min() * lam2_raw.min()), float(lam1_raw.max() * lam2_raw.max()))
        lam2 = _validate_and_clamp(lam2_raw)
        # entry i * lam2.size + j pairs radial vector i with angular vector j
        blocks += _order_blocks(m, band.L, np.outer(lam1, lam2).ravel(), raw=raw, U=U,
                                V=_AngularBasis.complete(V), radial=lam1, angular=lam2)
    return blocks


def solve(region, band: SpectralBand, keep: int | None = None) -> EigenResult:
    """Concentration spectrum of `region` in either band.

    FL ProductSymmetric and ProductMask regions separate (`_solve_separated`;
    every vector stored), all else solves fixed-order blocks (`_solve_blocks`;
    vectors down to _VECTOR_FLOOR).  Orders m > 0 are replicated to -m.
    `keep` caps the stored eigenvectors: None or an integer >= 0, anything
    else raises TypeError or ValueError.  FB raises ValueError when
    dk * R_max > pi (`kernels._check_k_sampling`).
    """
    _check_keep(keep)
    ker._require_base_frame(region)
    if isinstance(band, FourierLaguerreBand) and isinstance(region, (ProductSymmetric,
                                                                     ProductMask)):
        blocks = _solve_separated(region, band)
    else:  # the block factor rejects other region types
        blocks = _solve_blocks(region, band, keep)
    # shannon_fl is shannon, in either band; perfbench's span wraps that name
    return EigenResult(blocks, band, shannon_fl(region, band), keep)


solve_fl = solve_fb = solve  # the band-named entry points


# ---------------------------------------------------------------------------
# Shannon numbers (trace integrals, no eigen-solve)
# ---------------------------------------------------------------------------

def _trace_density(band: SpectralBand, r: np.ndarray) -> np.ndarray:
    """The band's kernel diagonal at radii r, the same at every angle:
    L^2/(4 pi) sum_p K_p(r)^2 (FL), or the k-integrated Bessel sum
    K^3/(4 pi^2) sum_l (2l+1)(j_l^2 - j_{l-1} j_{l+1})(Kr) (FB), with
    j_{-1}(x) = cos(x)/x supplying the l = 0 term."""
    if isinstance(band, FourierLaguerreBand):
        K2 = specfun.laguerre_K_table(band.P - 1, r) ** 2
        return band.L ** 2 / (4.0 * math.pi) * np.sum(K2, axis=0)
    x = band.K * r
    J = specfun.spherical_jn_table(band.L, x)
    out = np.zeros_like(x)
    for l in range(band.L):
        lower = specfun.spherical_j_minus1(x) if l == 0 else J[l - 1]
        out += (2 * l + 1) * (J[l] ** 2 - lower * J[l + 1])
    return band.K ** 3 / (4.0 * math.pi ** 2) * out


def shannon(region, band: SpectralBand) -> float:
    """Shannon number N = int_R rho dv (`_trace_density`) in either band:
    product and mask regions on `kernels._radial_rule` times their solid
    angle, azimuthal ones on their grid; in FB, N = inf for R2 = inf."""
    if isinstance(region, RegionUnion):
        return sum(shannon(m, band) for m in region.members)
    if isinstance(region, (ProductSymmetric, ProductMask)):
        if isinstance(band, FourierBesselBand) and math.isinf(region.R2):
            return math.inf
        rule = ker._radial_rule(band, region.R1, region.R2)
        radial = rule.weights * rule.nodes ** 2 @ _trace_density(band, rule.nodes)
        return solid_angle(region) * float(radial)
    if isinstance(region, AzimuthallySymmetric):
        rad = _trace_density(band, region.r_nodes) * region.r_weights * region.r_nodes ** 2
        return 2.0 * math.pi * float(rad @ region.indicator @ region.theta_weights)
    raise TypeError(f"unsupported region type {type(region)!r}")


shannon_fl = shannon_fb = shannon  # the band-named entry points


def angular_shannon(L: int, theta1: float, theta2: float) -> float:
    """N_L = sum over l < L, |m| <= l of G^m_{l,l} = L^2/2 (cos t1 - cos t2).

    The trace of the band projection: sum_{m,l} |Ybar_lm|^2 = L^2 / (4 pi)
    at every point, integrated over the band's solid angle.  L must be an
    integer >= 1 and 0 <= theta1 < theta2 <= pi (TypeError, ValueError), as
    for the band's G^m.
    """
    specfun._check_counts("band limit", L=L)
    _check_band(theta1, theta2)
    return L * L / 2.0 * (math.cos(theta1) - math.cos(theta2))


# ---------------------------------------------------------------------------
# rotation
# ---------------------------------------------------------------------------

def rotate_eigenfunction(f: HarmonicCoeffs, theta0: float, phi0: float) -> HarmonicCoeffs:
    """Rotate a coefficient vector of either band by R_z(phi0) R_y(theta0).

    Degree-by-degree Wigner rotation of the angular indices,
    f'_{lm.} = sum_n e^{-i m phi0} d^l_{mn}(theta0) f_{ln.}, with one
    d^l matrix per degree (`specfun.wigner_d_matrix`); the radial index
    (p in Fourier-Laguerre, the k sample in Fourier-Bessel) is untouched.
    Angles that are not finite raise ValueError (`regions._orientation`).
    """
    theta0, phi0 = _orientation((theta0, phi0))
    L = f.band.L
    blocks = f.values.reshape(L * L, -1)  # rows l*l + l + m, radial index fast
    out = np.empty_like(blocks)
    for l in range(L):
        phase = np.exp(-1j * phi0 * np.arange(-l, l + 1))
        D = phase[:, None] * specfun.wigner_d_matrix(l, theta0)
        out[l * l:(l + 1) * (l + 1)] = D @ blocks[l * l:(l + 1) * (l + 1)]
    return HarmonicCoeffs(out.reshape(-1), f.band)
