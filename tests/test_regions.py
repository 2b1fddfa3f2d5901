"""Region measure and membership tests, with Monte-Carlo volume oracles."""

import dataclasses
import math
import subprocess
import sys

import numpy as np
import pytest

import slepian_ball as sb
from oracles import contains_per_point
from slepian_ball import kernels
from slepian_ball.regions import _rotation_matrix

T1, T2 = math.pi / 8, 3 * math.pi / 8
BAND_OMEGA = 2 * math.pi * (math.cos(T1) - math.cos(T2))


def test_ballpoint_validation():
    sb.BallPoint(1.0, 0.5, 0.5)
    with pytest.raises(ValueError):
        sb.BallPoint(-1.0, 0.5, 0.5)
    with pytest.raises(ValueError):
        sb.BallPoint(1.0, 4.0, 0.5)
    with pytest.raises(ValueError):
        sb.BallPoint(1.0, 0.5, 7.0)


@pytest.mark.parametrize("r", [math.nan, math.inf])
def test_ballpoint_rejects_non_finite_radius(r):
    with pytest.raises(ValueError, match="radius must be finite"):
        sb.BallPoint(r, 0.5, 0.5)


def test_solid_angle_full_sphere():
    mask = sb.AngularMask.full_sphere_grid(8)
    assert mask.solid_angle == pytest.approx(4 * math.pi, abs=1e-10)
    assert sb.solid_angle(sb.ProductSymmetric(0, 1, 0, math.pi)) == pytest.approx(
        4 * math.pi, rel=1e-15)


def test_solid_angle_band_closed_form():
    reg = sb.ProductSymmetric(15, 25, T1, T2)
    assert sb.solid_angle(reg) == pytest.approx(BAND_OMEGA, rel=1e-15)


def test_band_as_mask_solid_angle():
    # band encoded as pixels reproduces the analytic band area
    mask = sb.AngularMask.band(T1, T2, 20)
    assert mask.solid_angle == pytest.approx(BAND_OMEGA, abs=1e-10)


def test_partial_mask_solid_angle(rng):
    # indicator zeroing half the pixels: sum w*I is the defining measure
    mask = sb.AngularMask.full_sphere_grid(12)
    ind = (rng.uniform(size=mask.indicator.size) < 0.5).astype(float)
    m2 = mask.with_indicator(ind)
    assert m2.solid_angle == pytest.approx(float(mask.weight @ ind), rel=1e-14)


def test_volume_closed_form_and_monte_carlo(rng):
    reg = sb.ProductSymmetric(15, 25, T1, T2)
    vol = sb.volume(reg)
    assert vol == pytest.approx((25 ** 3 - 15 ** 3) / 3 * BAND_OMEGA, rel=1e-13)
    # Monte-Carlo oracle: uniform samples in the bounding ball r <= 25
    n = 1_000_000
    u = rng.uniform(size=n)
    r = 25.0 * u ** (1.0 / 3.0)
    ct = rng.uniform(-1.0, 1.0, size=n)
    inside = (r >= 15.0) & (ct >= math.cos(T2)) & (ct <= math.cos(T1))
    ball_vol = 4.0 / 3.0 * math.pi * 25.0 ** 3
    p = inside.mean()
    est = ball_vol * p
    se = ball_vol * math.sqrt(p * (1 - p) / n)
    assert abs(est - vol) < 3 * se


def test_volume_trivia():
    assert sb.volume(sb.ProductSymmetric(0, 1, 0, math.pi)) == pytest.approx(
        4 * math.pi / 3, rel=1e-14)
    # an empty radial interval is not a region
    with pytest.raises(ValueError):
        sb.ProductSymmetric(2.0, 2.0, 0, math.pi)


def test_contains_product_region():
    reg = sb.ProductSymmetric(15, 25, T1, T2)
    assert sb.contains(reg, sb.BallPoint(20, math.pi / 4, 1.0))
    assert not sb.contains(reg, sb.BallPoint(5, math.pi / 4, 1.0))
    # closed-region convention at the boundary
    assert sb.contains(reg, sb.BallPoint(15.0, math.pi / 4, 1.0))
    assert sb.contains(reg, sb.BallPoint(25.0, T1, 0.0))


CONTAINS_REGIONS = {
    "product": lambda: sb.ProductSymmetric(15, 25, T1, T2),
    "oriented-product": lambda: sb.ProductSymmetric(10, 25, 0.2, 1.1, orientation=(1.0, 2.5)),
    "oriented-cap": lambda: sb.ProductSymmetric(0, 12, 0, 0.8, orientation=(1.2, 4.0)),
    "mask": lambda: sb.ProductMask(sb.AngularMask.full_sphere_grid(
        12, indicator=lambda t, p: ((t > 0.5) & (t < 1.8) & (p < 2.0)).astype(float)),
        12.0, 24.0),
    "azimuthal": lambda: sb.AzimuthallySymmetric.from_indicator(
        lambda r, t: ((t > 0.3 + r / 40) & (t < 2.0)).astype(float), 10.0, 25.0,
        n_r=16, n_theta=12),
    "oriented-azimuthal": lambda: dataclasses.replace(
        CONTAINS_REGIONS["azimuthal"](), orientation=(2.0, 0.7)),
    "union": lambda: sb.RegionUnion((sb.ProductSymmetric(5, 12, 0.2, 1.0),
                                     sb.ProductSymmetric(14, 28, 1.0, 2.5))),
}


@pytest.mark.parametrize("name", list(CONTAINS_REGIONS))
def test_contains_points_matches_scalar_form(name, rng):
    region = CONTAINS_REGIONS[name]()
    r = np.append(rng.uniform(0, 30, 599), 0.0)  # the origin sits in a cap's base frame
    theta = rng.uniform(0, math.pi, 600)
    phi = rng.uniform(0, 2 * math.pi, 600)
    inside = sb.contains_points(region, r, theta, phi)
    points = [sb.BallPoint(*p) for p in zip(r, theta, phi)]
    assert inside.dtype == bool and inside.shape == (600,)
    assert inside.tolist() == [contains_per_point(region, p) for p in points]
    assert inside.tolist() == [sb.contains(region, p) for p in points]
    assert 20 < inside.sum() < 580  # both outcomes occur
    grid = sb.contains_points(region, *(x.reshape(20, 30) for x in (r, theta, phi)))
    assert np.array_equal(grid.ravel(), inside)


def test_mask_holds_no_point_outside_its_grid_band():
    band_mask = sb.ProductMask(sb.AngularMask.band(T1, T2, 16), 15, 25)
    band_region = sb.ProductSymmetric(15, 25, T1, T2)
    for theta in (math.pi / 2, 3.0, 0.2, T1, T2, 0.9):
        p = sb.BallPoint(20.0, theta, 0.3)
        want = sb.contains(band_region, p)
        assert sb.contains(band_mask, p) == want
        assert contains_per_point(band_mask, p) == want
    # a full-sphere grid still answers every pixel centre, and both poles
    full = CONTAINS_REGIONS["mask"]()
    mask = full.mask
    inside = sb.contains_points(full, np.full(mask.theta.size, 20.0), mask.theta, mask.phi)
    assert np.array_equal(inside, mask.indicator > 0)
    whole = sb.ProductMask(sb.AngularMask.full_sphere_grid(12), 12.0, 24.0)
    assert sb.contains_points(whole, 20.0, np.array([0.0, math.pi]), 0.0).all()
    assert all(contains_per_point(whole, sb.BallPoint(20.0, t, 0.0)) for t in (0.0, math.pi))


def test_zero_rotation_is_identity(rng):
    base = sb.ProductSymmetric(15, 25, T1, T2)
    rot = sb.ProductSymmetric(15, 25, T1, T2, orientation=(0.0, 0.0))
    for _ in range(200):
        p = sb.BallPoint(float(rng.uniform(0, 30)), float(rng.uniform(0, math.pi)),
                         float(rng.uniform(0, 2 * math.pi)))
        assert sb.contains(base, p) == sb.contains(rot, p)


def test_rotated_region_membership():
    # a polar cap rotated to the x-axis contains points near the x-axis
    cap = sb.ProductSymmetric(1, 2, 0, 0.3, orientation=(math.pi / 2, 0.0))
    assert sb.contains(cap, sb.BallPoint(1.5, math.pi / 2, 0.0))
    assert not sb.contains(cap, sb.BallPoint(1.5, 0.0, 0.0))


def test_rotation_matrix_moves_pole():
    th0, ph0 = 1.1, 2.3
    z = np.array([0.0, 0.0, 1.0])
    v = _rotation_matrix(th0, ph0) @ z
    expect = np.array([math.sin(th0) * math.cos(ph0),
                       math.sin(th0) * math.sin(ph0), math.cos(th0)])
    assert np.abs(v - expect).max() < 1e-15


def test_azimuthally_symmetric_matches_product():
    reg = sb.AzimuthallySymmetric.from_indicator(
        lambda r, t: np.ones_like(r), 15.0, 25.0, n_r=48, n_theta=32)
    # restrict the colatitude via the indicator instead
    reg2 = sb.AzimuthallySymmetric.from_indicator(
        lambda r, t: ((t >= T1) & (t <= T2)).astype(float),
        15.0, 25.0, n_r=48, n_theta=400)
    prod_full = sb.ProductSymmetric(15, 25, 0, math.pi)
    assert sb.volume(reg) == pytest.approx(sb.volume(prod_full), rel=1e-12)
    # indicator sampling of a hard band is approximate in theta
    prod_band = sb.ProductSymmetric(15, 25, T1, T2)
    assert sb.volume(reg2) == pytest.approx(sb.volume(prod_band), rel=2e-2)


def test_union_disjoint_and_overlap():
    a = sb.ProductSymmetric(1, 2, 0.2, 0.8)
    b = sb.ProductSymmetric(3, 4, 0.2, 0.8)     # radially disjoint
    c = sb.ProductSymmetric(1.5, 2.5, 0.2, 0.8)  # overlaps a
    d = sb.ProductSymmetric(1, 2, 1.0, 1.5)      # angularly disjoint from a
    u = sb.RegionUnion((a, b, d))
    assert sb.volume(u) == pytest.approx(
        sb.volume(a) + sb.volume(b) + sb.volume(d), rel=1e-14)
    with pytest.raises(ValueError):
        sb.RegionUnion((a, c))
    # touching boundaries do not count as overlap
    sb.RegionUnion((a, sb.ProductSymmetric(2, 3, 0.2, 0.8)))


def test_union_contains():
    u = sb.RegionUnion((sb.ProductSymmetric(1, 2, 0.2, 0.8),
                        sb.ProductSymmetric(3, 4, 0.2, 0.8)))
    assert sb.contains(u, sb.BallPoint(1.5, 0.5, 0.0))
    assert sb.contains(u, sb.BallPoint(3.5, 0.5, 0.0))
    assert not sb.contains(u, sb.BallPoint(2.5, 0.5, 0.0))


def test_mask_text_round_trip(tmp_path):
    mask = sb.AngularMask.full_sphere_grid(
        6, indicator=lambda t, p: (t < 1.0).astype(float))
    path = tmp_path / "mask.txt"
    mask.to_text(path)
    back = sb.AngularMask.from_text(path)
    assert back.L_grid == mask.L_grid
    assert back.solid_angle == pytest.approx(mask.solid_angle, rel=1e-12)
    order = np.lexsort((mask.phi, mask.theta))
    assert np.abs(back.indicator - mask.indicator[order]).max() == 0.0
    assert np.abs(back.weight - mask.weight[order]).max() < 1e-12


def test_band_mask_text_round_trip(tmp_path):
    # grids restricted to a band reconstruct their on-band weights too
    mask = sb.AngularMask.band(T1, T2, 10)
    path = tmp_path / "band.txt"
    mask.to_text(path)
    back = sb.AngularMask.from_text(path)
    assert back.solid_angle == pytest.approx(BAND_OMEGA, abs=1e-10)


def test_mask_from_text_leaves_numpy_ma_unimported(tmp_path):
    # np.unique imports numpy.ma on its first call, about 10 ms of a mask load
    path = tmp_path / "mask.txt"
    sb.AngularMask.band(T1, T2, 6).to_text(path)
    code = ("import sys; import slepian_ball as sb; sb.AngularMask.from_text(sys.argv[1]); "
            "sys.exit('numpy.ma' in sys.modules)")
    assert subprocess.run([sys.executable, "-c", code, str(path)]).returncode == 0


def test_mask_from_text_rejects_non_grid(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("0.1 0.0 1\n0.2 0.0 1\n0.3 0.0 1\n")
    with pytest.raises(ValueError):
        sb.AngularMask.from_text(path)


def _pixel_file(path, theta_rows, phi_row, fmt="%.17g"):
    """Write a `theta phi indicator` list of the grid theta_rows x phi_row."""
    T, P = np.meshgrid(theta_rows, phi_row, indexing="ij")
    np.savetxt(path, np.column_stack([T.ravel(), P.ravel(), np.ones(T.size)]), fmt=fmt)


@pytest.mark.parametrize("name", ["band", "full", "indicator"])
def test_mask_text_round_trip_keeps_every_field(tmp_path, name):
    mask = {"band": lambda: sb.AngularMask.band(T1, T2, 7),
            "full": lambda: sb.AngularMask.full_sphere_grid(5),
            "indicator": lambda: sb.AngularMask.full_sphere_grid(
                6, indicator=lambda t, p: ((t < 1.2) & (p > 0.5)).astype(float))}[name]()
    path = tmp_path / "mask.txt"
    mask.to_text(path)
    back = sb.AngularMask.from_text(path)
    assert (back.n_theta, back.n_phi, back.L_grid) == (mask.n_theta, mask.n_phi, mask.L_grid)
    for field in ("theta", "phi", "indicator"):
        assert np.array_equal(getattr(back, field), getattr(mask, field)), field
    assert np.abs(back.weight - mask.weight).max() <= 1e-14 * mask.weight.max()
    assert back.solid_angle == pytest.approx(mask.solid_angle, rel=1e-13)


def test_mask_text_at_eleven_digits_loads(tmp_path):
    # rounded colatitudes still fit the Gauss-Legendre rule to 1e-9, and
    # each row takes its weight by position, not by its printed value
    mask = sb.AngularMask.band(T1, T2, 10)
    rows = {}
    for digits in (11, 17):
        _pixel_file(tmp_path / f"m{digits}.txt", mask.theta[::mask.n_phi],
                    mask.phi[:mask.n_phi], fmt=f"%.{digits}g")
        rows[digits] = sb.AngularMask.from_text(tmp_path / f"m{digits}.txt")
    assert np.abs(rows[11].weight - rows[17].weight).max() < 1e-9
    assert np.array_equal(rows[11].phi, rows[17].phi)
    assert rows[11].solid_angle == pytest.approx(BAND_OMEGA, abs=1e-9)


@pytest.mark.parametrize("phi_row", [[0.0, 1.0, 2.0, 4.0],
                                     0.1 + 2 * math.pi * np.arange(4) / 4])
def test_mask_from_text_rejects_uneven_azimuths(tmp_path, phi_row):
    path = tmp_path / "uneven.txt"
    _pixel_file(path, sb.AngularMask.band(T1, T2, 4).theta[::8], phi_row)
    with pytest.raises(ValueError, match="azimuths"):
        sb.AngularMask.from_text(path)


@pytest.mark.parametrize("n_theta, n_phi, L_grid", [(12, 6, 3), (12, 7, 4), (4, 20, 4),
                                                    (5, 10, 5)])
def test_mask_band_limit_follows_both_axes(tmp_path, n_theta, n_phi, L_grid):
    # n_phi uniform azimuths separate orders m - m' below n_phi only, so a
    # grid with few azimuths is exact to a lower degree than its rows allow
    path = tmp_path / "grid.txt"
    band = sb.AngularMask.band(0.0, math.pi, n_theta)
    _pixel_file(path, band.theta[::band.n_phi], 2 * math.pi * np.arange(n_phi) / n_phi)
    mask = sb.AngularMask.from_text(path)
    assert (mask.n_theta, mask.n_phi, mask.L_grid) == (n_theta, n_phi, L_grid)
    assert dataclasses.replace(band, n_phi=n_phi, indicator=mask.indicator).L_grid == L_grid
    # the pixel factor is exact below L_grid: its Gram matrix is the identity
    A = kernels._mask_factor(mask, L_grid)
    assert np.abs(A @ A.conj().T - np.eye(L_grid ** 2)).max() < 1e-12


def test_mask_rows_checked_at_construction():
    band = sb.AngularMask.band(T1, T2, 4)
    rows = dict(theta_nodes=band.theta_nodes, theta_weights=band.theta_weights, n_phi=8,
                indicator=band.indicator)
    assert sb.AngularMask(**rows).solid_angle == pytest.approx(BAND_OMEGA, rel=1e-12)
    for bad in [dict(theta_nodes=band.theta_nodes[::-1]), dict(theta_weights=-band.theta_weights),
                dict(theta_weights=band.theta_weights[:3]), dict(n_phi=0), dict(n_phi=7),
                dict(indicator=band.indicator[:-1]), dict(indicator=2 * band.indicator),
                dict(theta_nodes=band.theta_nodes + 3.0)]:
        with pytest.raises(ValueError):
            sb.AngularMask(**{**rows, **bad})
    with pytest.raises(TypeError):
        sb.AngularMask(**{**rows, "n_phi": 8.0})


@pytest.mark.parametrize("make", [
    lambda o: sb.ProductSymmetric(15, 25, 0.1, 0.9, orientation=o),
    lambda o: dataclasses.replace(sb.AzimuthallySymmetric.from_indicator(
        lambda r, t: np.ones_like(r), 15.0, 25.0, n_r=4, n_theta=4), orientation=o),
], ids=["product", "azimuthal"])
def test_orientation_checked_at_construction(make):
    for bad in [(0.7,), (math.nan, 0.0), (0.1, math.inf), (1.0, 2.0, 3.0), "12", 0.7,
                [[0.1, 0.2]], ("a", 0.1)]:
        with pytest.raises(ValueError, match="orientation"):
            make(bad)
    region = make([np.float32(0.5), 1])
    assert region.orientation == (float(np.float32(0.5)), 1.0)
    assert all(type(a) is float for a in region.orientation)
    assert make(None).orientation is None


def test_product_mask_region():
    mask = sb.AngularMask.band(T1, T2, 16)
    pm = sb.ProductMask(mask, 15.0, 25.0)
    assert sb.volume(pm) == pytest.approx(
        sb.volume(sb.ProductSymmetric(15, 25, T1, T2)), rel=1e-10)
    assert sb.contains(pm, sb.BallPoint(20.0, math.pi / 4, 0.1))
    assert not sb.contains(pm, sb.BallPoint(5.0, math.pi / 4, 0.1))


AZIMUTHAL = sb.AzimuthallySymmetric.from_indicator(
    lambda r, t: ((r < 20.0) & (t < 1.0)).astype(float), 15.0, 25.0, n_r=4, n_theta=4)
MASK_BAND = sb.AngularMask.band(T1, T2, 4)


@pytest.mark.parametrize("bad", [
    dict(r_weights=-AZIMUTHAL.r_weights), dict(theta_weights=-AZIMUTHAL.theta_weights),
    dict(r_weights=AZIMUTHAL.r_weights[:3]), dict(theta_weights=AZIMUTHAL.theta_weights[:, None]),
    dict(r_nodes=AZIMUTHAL.r_nodes[::-1]), dict(r_nodes=AZIMUTHAL.r_nodes - 16.0),
    dict(theta_nodes=AZIMUTHAL.theta_nodes[::-1]), dict(theta_nodes=AZIMUTHAL.theta_nodes + 1.0),
], ids=["neg-r-weights", "neg-theta-weights", "short-r-weights", "2d-theta-weights",
        "reversed-r", "negative-r", "reversed-theta", "theta-past-pi"])
def test_azimuthal_grid_checked_at_construction(bad):
    # negative r_weights gave a negative volume, reversed r_nodes a region
    # holding no point; both now fail where the region is made
    assert sb.volume(AZIMUTHAL) > 0
    with pytest.raises(ValueError):
        dataclasses.replace(AZIMUTHAL, **bad)


def _inf_at_end(a):
    a = a.copy()
    a[-1] = math.inf
    return a


@pytest.mark.parametrize("make, match", [
    (lambda: dataclasses.replace(AZIMUTHAL, r_nodes=_inf_at_end(AZIMUTHAL.r_nodes)),
     "radial nodes must be finite"),
    (lambda: dataclasses.replace(AZIMUTHAL, r_weights=_inf_at_end(AZIMUTHAL.r_weights)),
     "radial weights must be positive and finite"),
    (lambda: dataclasses.replace(AZIMUTHAL, theta_weights=_inf_at_end(AZIMUTHAL.theta_weights)),
     "colatitude weights must be positive and finite"),
    (lambda: dataclasses.replace(MASK_BAND, theta_weights=_inf_at_end(MASK_BAND.theta_weights)),
     "mask colatitude weights must be positive and finite"),
], ids=["inf-r-node", "inf-r-weight", "inf-theta-weight", "inf-mask-row-weight"])
def test_non_finite_grid_rejected_at_construction(make, match):
    # once accepted: volume and shannon_fl then read nan or inf, and solve_fl's
    # SVD did not converge for three of the four
    with pytest.raises(ValueError, match=match):
        make()


def test_masks_and_sampled_regions_compare_by_value():
    mask = sb.AngularMask.band(0.3, 1.2, 4)
    other = mask.with_indicator(np.r_[0.0, mask.indicator[1:]])
    assert mask == sb.AngularMask.band(0.3, 1.2, 4)
    assert mask != other
    assert sb.ProductMask(mask, 15, 25) == sb.ProductMask(sb.AngularMask.band(0.3, 1.2, 4), 15, 25)
    assert sb.ProductMask(mask, 15, 25) != sb.ProductMask(other, 15, 25)
    twin = sb.AzimuthallySymmetric.from_indicator(
        lambda r, t: ((r < 20.0) & (t < 1.0)).astype(float), 15.0, 25.0, n_r=4, n_theta=4)
    assert AZIMUTHAL == twin
    assert AZIMUTHAL != dataclasses.replace(twin, indicator=1.0 - twin.indicator)
    assert AZIMUTHAL != dataclasses.replace(twin, orientation=(0.1, 0.2))
