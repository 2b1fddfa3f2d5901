"""Spatial concentration regions on the ball.

A region is a (measurable) subset of the ball used to build concentration
kernels.  Supported shapes:

* ProductSymmetric: radial interval x colatitude band, azimuthally
  symmetric about the z-axis, optionally rotated to a new center;
* AzimuthallySymmetric: an (r, theta) indicator sampled on a quadrature
  grid, for shapes with radial-angular coupling;
* ProductMask: arbitrary angular pixel mask x radial interval;
* RegionUnion: disjoint union of unrotated ProductSymmetric members.

Regions are closed sets (boundary points count as inside) and immutable.
Angular masks live on exact-quadrature pixel grids so kernel entries over
masks are computed by exact quadrature of band-limited integrands rather
than approximate pixel sums; a mask holds that grid once, as rows.  An
`orientation` is two finite floats (theta0, phi0) or None.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, fields

import numpy as np

from .specfun import gauss_legendre_rule


@dataclass(frozen=True)
class BallPoint:
    """Point on the ball in spherical coordinates (r, theta, phi)."""

    r: float
    theta: float
    phi: float

    def __post_init__(self):
        if not (0.0 <= self.r < math.inf):
            raise ValueError(f"radius must be finite and >= 0, got {self.r}")
        if not (0.0 <= self.theta <= math.pi):
            raise ValueError(f"colatitude must be in [0, pi], got {self.theta}")
        if not (0.0 <= self.phi < 2.0 * math.pi):
            raise ValueError(f"azimuth must be in [0, 2pi), got {self.phi}")


def _rotation_matrix(theta0: float, phi0: float) -> np.ndarray:
    """R_z(phi0) @ R_y(theta0): carries the +z axis to (theta0, phi0)."""
    ct, st = math.cos(theta0), math.sin(theta0)
    cp, sp = math.cos(phi0), math.sin(phi0)
    ry = np.array([[ct, 0.0, st], [0.0, 1.0, 0.0], [-st, 0.0, ct]])
    rz = np.array([[cp, -sp, 0.0], [sp, cp, 0.0], [0.0, 0.0, 1.0]])
    return rz @ ry


def _orientation(value) -> tuple[float, float] | None:
    """A region's `orientation` as two finite floats (theta0, phi0), or None."""
    if value is None:
        return None
    try:
        angles = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        angles = np.empty(0)
    if angles.shape != (2,) or not np.all(np.isfinite(angles)):
        raise ValueError(f"orientation must be two finite angles (theta0, phi0), got {value!r}")
    return float(angles[0]), float(angles[1])


def _check_rule(name: str, nodes: np.ndarray, weights: np.ndarray, hi: float):
    """ValueError unless finite `nodes` ascend strictly within [0, hi], one
    positive finite weight each."""
    if nodes.ndim != 1 or nodes.size == 0 or weights.shape != nodes.shape:
        raise ValueError(f"{name} grid needs one weight per node")
    if not (0.0 <= nodes[0] and nodes[-1] <= hi and math.isfinite(nodes[-1])
            and np.all(np.diff(nodes) > 0)):
        raise ValueError(f"{name} nodes must be finite and ascend strictly within [0, {hi:.6g}]")
    if not np.all((weights > 0) & (weights < math.inf)):
        raise ValueError(f"{name} weights must be positive and finite")


def _value_eq(self, other):
    """Dataclass equality that compares array fields by value."""
    if type(other) is not type(self):
        return NotImplemented
    return all(np.array_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(self))


def _base_frame(r, theta, phi, orientation):
    """(r, theta) of points in the unrotated frame of an oriented region."""
    if orientation is None:
        return r, theta
    st = np.sin(theta)
    xyz = (r[..., None] * np.stack([st * np.cos(phi), st * np.sin(phi), np.cos(theta)],
                                   axis=-1)) @ _rotation_matrix(*orientation)
    rb = np.linalg.norm(xyz, axis=-1)
    z = np.divide(xyz[..., 2], rb, out=np.ones_like(rb), where=rb > 0.0)
    return rb, np.arccos(np.clip(z, -1.0, 1.0))


# ---------------------------------------------------------------------------
# angular masks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AngularMask:
    """Pixelized angular region on a Gauss-Legendre x uniform-azimuth grid.

    Each Gauss-Legendre row (in cos theta) holds n_phi pixels at the
    azimuths 2 pi j / n_phi.  The rule integrates harmonic products below
    degree L_grid = min(n_theta, (n_phi + 1) // 2) exactly (the rows are
    exact to degree 2 n_theta - 1 in cos theta, the azimuths for orders
    m - m' below n_phi), so kernel entries over the mask are exact.
    """

    theta_nodes: np.ndarray     # ascending pixel-row colatitudes
    theta_weights: np.ndarray   # Gauss-Legendre weights of the rows in cos(theta)
    n_phi: int                  # uniform azimuths per row
    indicator: np.ndarray       # 0/1 per pixel, flat, theta-slow

    def __post_init__(self):
        for name in ("theta_nodes", "theta_weights", "indicator"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        _check_rule("mask colatitude", self.theta_nodes, self.theta_weights, math.pi)
        object.__setattr__(self, "n_phi", operator.index(self.n_phi))
        if self.n_phi < 1 or self.indicator.shape != (self.n_theta * self.n_phi,):
            raise ValueError("mask needs n_phi >= 1 and one flat indicator entry per pixel")
        if not np.all((self.indicator == 0.0) | (self.indicator == 1.0)):
            raise ValueError("mask indicator must be binary")

    __eq__ = _value_eq

    @property
    def n_theta(self) -> int:
        return self.theta_nodes.size

    @property
    def phi_nodes(self) -> np.ndarray:
        return 2.0 * math.pi * np.arange(self.n_phi) / self.n_phi

    @property
    def L_grid(self) -> int:
        return min(self.n_theta, (self.n_phi + 1) // 2)

    @property
    def theta(self) -> np.ndarray:
        """Pixel colatitudes, flat."""
        return np.repeat(self.theta_nodes, self.n_phi)

    @property
    def phi(self) -> np.ndarray:
        """Pixel azimuths, flat."""
        return np.tile(self.phi_nodes, self.n_theta)

    @property
    def weight(self) -> np.ndarray:
        """Quadrature weight per pixel (solid-angle measure), flat."""
        return np.repeat(self.theta_weights, self.n_phi) * (2.0 * math.pi / self.n_phi)

    @property
    def solid_angle(self) -> float:
        return float(self.weight @ self.indicator)

    @staticmethod
    def full_sphere_grid(L_grid: int, indicator=None) -> "AngularMask":
        """Sphere-wide exact grid; optional indicator(theta, phi) callable or array."""
        grid = AngularMask.band(0.0, math.pi, L_grid)
        return grid if indicator is None else grid.with_indicator(indicator)

    @staticmethod
    def band(theta1: float, theta2: float, L_grid: int) -> "AngularMask":
        """Colatitude band encoded as pixels, with weights exact on the band.

        L_grid Gauss-Legendre nodes in cos(theta) on [cos t2, cos t1] x
        2 L_grid azimuths, so sums over the mask reproduce band integrals
        of harmonic products exactly (the band-as-mask oracle for G matrices).
        """
        if not (0.0 <= theta1 < theta2 <= math.pi):
            raise ValueError(f"need 0 <= theta1 < theta2 <= pi, got {theta1}, {theta2}")
        rule = gauss_legendre_rule(L_grid, math.cos(theta2), math.cos(theta1))
        return AngularMask(np.arccos(rule.nodes[::-1]), rule.weights[::-1], 2 * L_grid,
                           np.ones(2 * L_grid * L_grid))

    def with_indicator(self, indicator) -> "AngularMask":
        if callable(indicator):
            indicator = indicator(*np.meshgrid(self.theta_nodes, self.phi_nodes, indexing="ij"))
        return AngularMask(self.theta_nodes, self.theta_weights, self.n_phi, np.ravel(indicator))

    def nearest_pixel(self, theta, phi):
        """Flat index of the pixel nearest (theta, phi), elementwise over arrays."""
        theta, phi = np.asarray(theta, dtype=float), np.asarray(phi, dtype=float)
        i = np.argmin(np.abs(self.theta_nodes - theta[..., None]), axis=-1)
        dphi = np.abs((self.phi_nodes - phi[..., None] + math.pi) % (2.0 * math.pi) - math.pi)
        return i * self.n_phi + np.argmin(dphi, axis=-1)

    def covers(self, theta):
        """Whether colatitudes lie in the band the grid spans, elementwise.

        The Gauss-Legendre weights of the rows add up to the cos(theta)
        span of the band and have their centroid at its middle.
        """
        w = self.theta_weights
        mid = w @ np.cos(self.theta_nodes) / w.sum()
        return np.abs(np.cos(theta) - mid) <= 0.5 * w.sum() + 1e-12

    def to_text(self, path):
        rows = np.column_stack([self.theta, self.phi, self.indicator])
        header = f"L_grid={self.L_grid} n_theta={self.n_theta} n_phi={self.n_phi}"
        np.savetxt(path, rows, fmt="%.17g %.17g %d", header=header)

    @staticmethod
    def from_text(path) -> "AngularMask":
        """Load a `theta phi indicator` pixel list written against a known grid.

        Sorted by (theta, phi), the pixels must form full rows of one
        colatitude each, at the azimuths 2 pi j / n_phi, and the row
        colatitudes must be Gauss-Legendre nodes in cos(theta) on some
        interval (both to 1e-9).  The rows take the weights of that rule by
        position; any other layout fails to load with ValueError.
        """
        data = np.loadtxt(path, ndmin=2)
        if data.shape[1] != 3:
            raise ValueError("mask pixel list needs the three columns theta phi indicator")
        theta, phi, ind = np.ascontiguousarray(data[np.lexsort((data[:, 1], data[:, 0]))].T)
        starts = np.flatnonzero(np.concatenate(([True], theta[1:] != theta[:-1])))
        n_theta = starts.size
        n_phi = theta.size // n_theta
        if n_phi * n_theta != theta.size or not np.array_equal(starts, n_phi * np.arange(n_theta)):
            raise ValueError("mask pixel list is not a full theta x phi grid")
        if np.abs(phi.reshape(n_theta, n_phi) - 2.0 * math.pi * np.arange(n_phi) / n_phi).max() > 1e-9:
            raise ValueError("mask azimuths are not 2 pi j / n_phi in every theta row")
        if n_theta < 2:
            raise ValueError("one theta row cannot fix the Gauss-Legendre grid of a mask")
        # the cos(theta) interval the rows were generated on: cos(theta)
        # descends over the ascending rows, the standard nodes x ascend
        rule = gauss_legendre_rule(n_theta, -1.0, 1.0)
        x, w = rule.nodes, rule.weights
        xs = np.cos(theta[starts])[::-1]
        span = (xs[-1] - xs[0]) / (x[-1] - x[0])
        if not np.allclose(xs[0] + span * (x - x[0]), xs, atol=1e-9):
            raise ValueError("mask theta rows do not match a Gauss-Legendre grid")
        return AngularMask(theta[starts], (span * w)[::-1], n_phi, ind)


# ---------------------------------------------------------------------------
# regions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProductSymmetric:
    """R = {R1 <= r <= R2} x {theta1 <= theta <= theta2}, all azimuths.

    orientation (theta0, phi0), when set, rotates the region so its
    symmetry axis points along (theta0, phi0).
    """

    R1: float
    R2: float
    theta1: float
    theta2: float
    orientation: tuple[float, float] | None = None

    def __post_init__(self):
        if not (0.0 <= self.R1 < self.R2):
            raise ValueError(f"need 0 <= R1 < R2, got R1={self.R1}, R2={self.R2}")
        if not (0.0 <= self.theta1 < self.theta2 <= math.pi):
            raise ValueError(
                f"need 0 <= theta1 < theta2 <= pi, got {self.theta1}, {self.theta2}")
        object.__setattr__(self, "orientation", _orientation(self.orientation))


@dataclass(frozen=True)
class AzimuthallySymmetric:
    """Region with sampled (r, theta) indicator on a quadrature grid.

    r_weights integrate in dr over [r_nodes[0] neighborhood]; theta weights
    are Gauss-Legendre in cos(theta) (i.e. they integrate sin theta d theta).
    """

    r_nodes: np.ndarray
    r_weights: np.ndarray
    theta_nodes: np.ndarray
    theta_weights: np.ndarray
    indicator: np.ndarray  # shape (n_r, n_theta), binary
    orientation: tuple[float, float] | None = None

    def __post_init__(self):
        for name in ("r_nodes", "r_weights", "theta_nodes", "theta_weights", "indicator"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        _check_rule("radial", self.r_nodes, self.r_weights, math.inf)
        _check_rule("colatitude", self.theta_nodes, self.theta_weights, math.pi)
        if self.indicator.shape != (self.r_nodes.size, self.theta_nodes.size):
            raise ValueError("indicator shape must be (n_r, n_theta)")
        if not np.all((self.indicator == 0.0) | (self.indicator == 1.0)):
            raise ValueError("indicator must be binary")
        object.__setattr__(self, "orientation", _orientation(self.orientation))

    __eq__ = _value_eq

    @staticmethod
    def from_indicator(fn, R1: float, R2: float, n_r: int = 64,
                       n_theta: int = 64) -> "AzimuthallySymmetric":
        """Sample indicator fn(r, theta) on a GL(r) x GL(cos theta) grid."""
        radial = gauss_legendre_rule(n_r, R1, R2)
        ct = gauss_legendre_rule(n_theta, -1.0, 1.0)
        theta = np.arccos(ct.nodes[::-1])
        Rg, Tg = np.meshgrid(radial.nodes, theta, indexing="ij")
        return AzimuthallySymmetric(radial.nodes, radial.weights, theta, ct.weights[::-1],
                                    fn(Rg, Tg))


@dataclass(frozen=True)
class ProductMask:
    """Radially independent region: angular pixel mask x radial interval."""

    mask: AngularMask
    R1: float
    R2: float

    def __post_init__(self):
        if not (0.0 <= self.R1 < self.R2):
            raise ValueError(f"need 0 <= R1 < R2, got R1={self.R1}, R2={self.R2}")


@dataclass(frozen=True)
class RegionUnion:
    """Disjoint union of unrotated ProductSymmetric members."""

    members: tuple[ProductSymmetric, ...]

    def __post_init__(self):
        object.__setattr__(self, "members", tuple(self.members))
        if not self.members:
            raise ValueError("union needs at least one member")
        for reg in self.members:
            if not isinstance(reg, ProductSymmetric):
                raise TypeError("union members must be ProductSymmetric regions")
            if reg.orientation is not None:
                raise ValueError("union members must be unrotated")
        for i, a in enumerate(self.members):
            for b in self.members[i + 1:]:
                radial = a.R1 < b.R2 and b.R1 < a.R2
                angular = a.theta1 < b.theta2 and b.theta1 < a.theta2
                if radial and angular:
                    raise ValueError(f"union members overlap: {a} and {b}")


def full_ball() -> ProductSymmetric:
    return ProductSymmetric(0.0, math.inf, 0.0, math.pi)


# ---------------------------------------------------------------------------
# measure queries
# ---------------------------------------------------------------------------

def solid_angle(region_or_mask) -> float:
    """Solid angle (steradians) of the angular footprint."""
    if isinstance(region_or_mask, AngularMask):
        return region_or_mask.solid_angle
    if isinstance(region_or_mask, ProductMask):
        return region_or_mask.mask.solid_angle
    if isinstance(region_or_mask, ProductSymmetric):
        return 2.0 * math.pi * (math.cos(region_or_mask.theta1)
                                - math.cos(region_or_mask.theta2))
    if isinstance(region_or_mask, RegionUnion):
        return sum(solid_angle(m) for m in region_or_mask.members)
    if isinstance(region_or_mask, AzimuthallySymmetric):
        covered = region_or_mask.indicator.max(axis=0) > 0
        return 2.0 * math.pi * float(region_or_mask.theta_weights @ covered)
    raise TypeError(f"unsupported region type {type(region_or_mask)!r}")


def volume(region) -> float:
    """Region volume under the measure r^2 sin(theta) dr dtheta dphi."""
    if isinstance(region, (ProductSymmetric, ProductMask)):
        return (region.R2 ** 3 - region.R1 ** 3) / 3.0 * solid_angle(region)
    if isinstance(region, RegionUnion):
        return sum(volume(m) for m in region.members)
    if isinstance(region, AzimuthallySymmetric):
        rad = region.r_weights * region.r_nodes ** 2
        return 2.0 * math.pi * float(rad @ region.indicator @ region.theta_weights)
    raise TypeError(f"unsupported region type {type(region)!r}")


def contains(region, point: BallPoint) -> bool:
    """Closed-set membership test of one point (`contains_points`)."""
    return bool(contains_points(region, point.r, point.theta, point.phi))


def contains_points(region, r, theta, phi) -> np.ndarray:
    """Closed-set membership of the points (r, theta, phi), elementwise over
    arrays of one shape.  Masks and sampled regions answer from the nearest
    pixel or grid node; a mask holds no point outside the colatitude band
    its grid spans."""
    r, theta, phi = np.broadcast_arrays(*(np.asarray(x, dtype=float)
                                          for x in (r, theta, phi)))
    if isinstance(region, ProductSymmetric):
        r, theta = _base_frame(r, theta, phi, region.orientation)
        return ((region.R1 <= r) & (r <= region.R2)
                & (region.theta1 <= theta) & (theta <= region.theta2))
    if isinstance(region, ProductMask):
        idx = region.mask.nearest_pixel(theta, phi)
        return ((region.R1 <= r) & (r <= region.R2) & region.mask.covers(theta)
                & (region.mask.indicator[idx] > 0))
    if isinstance(region, RegionUnion):
        return np.logical_or.reduce([contains_points(m, r, theta, phi)
                                     for m in region.members])
    if isinstance(region, AzimuthallySymmetric):
        r, theta = _base_frame(r, theta, phi, region.orientation)
        i = np.argmin(np.abs(region.r_nodes - r[..., None]), axis=-1)
        j = np.argmin(np.abs(region.theta_nodes - theta[..., None]), axis=-1)
        return ((region.r_nodes[0] - 1e-12 <= r) & (r <= region.r_nodes[-1] + 1e-12)
                & (region.indicator[i, j] > 0))
    raise TypeError(f"unsupported region type {type(region)!r}")
