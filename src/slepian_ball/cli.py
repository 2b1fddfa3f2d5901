"""Command-line surface: kernel / eigen / shannon / project / synth.

Persistence formats
-------------------
Binary matrices (.mat): 8-byte magic "SLEPB001", then u32 rows, u32 cols,
u8 scalar tag (0 = float64, 1 = complex as interleaved float64), all
little-endian, followed by the row-major payload.  A complex matrix whose
imaginary parts are all zero is written as float64 (tag 0).  The payload is
written in row blocks, each from its own buffer: a C-contiguous float64 or
complex128 block is written with no copy, any other block is copied once.
`write_matrix` writes a whole array as one block.  `eigen` writes
`eigenvectors.mat` one band row (l, m) at a time, its (radial, count) rows
read from the result's band-row reader (`EigenResult._rows`), so no whole
eigenvector stack is held; `_complex_tag` decides the tag from the rows
before the header is written (a real first row settles it; a pixel mask's
complex rows are scanned).  Reading checks the payload length against the
header and fills the array in one read.  CSV files are formatted and
written in chunks of rows by `csvout`.  All files are written atomically
(temp file + rename) with mode 0o666 less the umask, as `open` would create
them.

Region descriptors: ``product:R1,R2,theta1,theta2`` (radians),
``mask:<path>,R1,R2`` (pixel list ``theta phi indicator``), ``fullball``,
or ``json:<path>``, a file holding one object whose ``type`` is
``product`` (keys ``R1``, ``R2``, ``theta1``, ``theta2`` and an optional
``orientation`` ``[theta0, phi0]``), ``mask`` (keys ``path``, ``R1``,
``R2``) or ``fullball``.  Every form becomes one descriptor dict, checked in
`parse_region`: the file must hold an object, each radius and angle must be
a real number and not a bool, and ``path`` a string; anything else is a
ValueError naming the file and the key.

Options: every `RunConfig` field after ``command`` is both a flag
``--<name>`` and a config-file key ``<name>``, parsed as the type its
annotation names, with the field's default as the built-in default.
Precedence: flags > config file (``--config``, ``key = value`` lines) >
defaults; the effective configuration, defaults included, is echoed into
meta.json.  ``J`` must be >= 0.

JSON outputs are strict JSON: `shannon` rejects an infinite (FB, R2 = inf)
Shannon number with exit code 2 before writing anything.

Exit codes: 0 success, 2 configuration/validation error, 1 numerical
failure (an ArithmeticError or numpy.linalg.LinAlgError).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import struct
import sys
import tempfile
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import eigen, kernels, specfun, transforms
from .csvout import _Gathered, _csv, _eigen_csv
from .kernels import FourierBesselBand, FourierLaguerreBand
from .regions import AngularMask, ProductMask, ProductSymmetric, _azimuths, full_ball

MAGIC = b"SLEPB001"


@dataclass
class RunConfig:
    """One run's options: each field after `command` is the flag ``--<name>``
    and the config-file key ``<name>``, with its default as built-in default."""

    command: str
    domain: str = "fl"
    P: int = 16
    L: int = 16
    K: float = 1.0
    M: int = 50
    region: str = "fullball"
    out: str = "."
    order: int | None = None
    count: int = 12
    grid: str | None = None
    J: int | None = None
    signal: str | None = None

    def validate(self):
        """The checks no library type makes; the band checks K and M."""
        if self.domain not in ("fl", "fb"):
            raise ValueError(f"domain must be 'fl' or 'fb', got {self.domain!r}")
        specfun._check_counts("band limit", P=self.P, L=self.L)
        if self.count < 0:
            raise ValueError(f"count must be >= 0, got {self.count}")
        if self.J is not None and self.J < 0:
            raise ValueError(f"J must be >= 0, got {self.J}")
        if self.order is not None and abs(self.order) >= self.L:
            raise ValueError(f"order must satisfy |order| < L = {self.L}, got {self.order}")


# the value parser of each option, from the type its RunConfig annotation names
_OPTIONS = {f.name: {"int": int, "float": float}.get(f.type.split(" |")[0], str)
            for f in fields(RunConfig) if f.name != "command"}


# ---------------------------------------------------------------------------
# atomic IO and the binary matrix format
# ---------------------------------------------------------------------------

def _atomic_write(path: str, chunks):
    """Write the buffers of the iterable `chunks` in turn to `path`, through a
    temp file and a rename, creating missing parent directories first.  The
    file gets mode 0o666 less the umask, not the temp file's 0o600."""
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-")
    try:
        with os.fdopen(fd, "wb") as fh:
            umask = os.umask(0)
            os.umask(umask)
            os.fchmod(fh.fileno(), 0o666 & ~umask)
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _complex_tag(blocks) -> int:
    """The scalar tag of a matrix given as row blocks: 1 if some imaginary
    part is nonzero, else 0.  The first block's dtype settles a real matrix,
    a complex one stops at its first block with a nonzero imaginary part."""
    for b in blocks:
        if not np.iscomplexobj(b):
            return 0
        if b.imag.any():
            return 1
    return 0


def _matrix_chunks(rows: int, cols: int, blocks, tag: int):
    """The SLEPB001 header of a rows x cols matrix, then the payload of each
    of its row blocks in turn, as scalars of `tag`."""
    yield MAGIC + struct.pack("<IIB", rows, cols, tag)
    for b in blocks:
        yield np.ascontiguousarray(b, dtype="<c16") if tag else \
            np.ascontiguousarray(b.real, dtype="<f8")


def write_matrix(path: str, arr):
    """Write a matrix or vector to `path`, creating missing parent directories."""
    a = np.atleast_2d(np.asarray(arr))
    if a.ndim != 2:
        raise ValueError("only matrices and vectors are supported")
    _atomic_write(path, _matrix_chunks(*a.shape, [a], _complex_tag([a])))


def read_matrix(path: str):
    with open(path, "rb") as fh:
        header = fh.read(17)
        if header[:8] != MAGIC:
            raise ValueError(f"{path}: bad magic, not a SLEPB001 matrix")
        if len(header) < 17:
            raise ValueError(f"{path}: truncated SLEPB001 header")
        rows, cols, tag = struct.unpack("<IIB", header[8:])
        if tag not in (0, 1):
            raise ValueError(f"{path}: scalar tag {tag} is neither 0 (float64) "
                             "nor 1 (complex128)")
        dtype = np.dtype("<c16" if tag == 1 else "<f8")
        # checked before the array is allocated, so a corrupt header allocates nothing
        if os.fstat(fh.fileno()).st_size - 17 != dtype.itemsize * rows * cols:
            raise ValueError(f"{path}: payload is not {rows} x {cols} values of {dtype}")
        out = np.empty((rows, cols), dtype=dtype)
        fh.readinto(out)
    return out


def _write_meta(path: str, cfg: RunConfig, **results):
    """The effective configuration and a run's results, as sorted strict JSON
    (a non-finite float raises ValueError)."""
    text = json.dumps({"config": asdict(cfg), **results}, indent=2, sort_keys=True,
                      allow_nan=False) + "\n"
    _atomic_write(path, [text.encode()])


# ---------------------------------------------------------------------------
# region and config parsing
# ---------------------------------------------------------------------------

_REGION_KEYS = {"fullball": (), "product": ("R1", "R2", "theta1", "theta2"),
                "mask": ("path", "R1", "R2")}


def parse_region(spec: str):
    """The region of a descriptor (module docstring): each form becomes one
    descriptor dict, checked and constructed here."""
    kind, _, rest = spec.partition(":")
    if kind == "json":
        with open(rest) as fh:
            desc = json.load(fh)
    elif spec == "fullball" or kind in ("product", "mask"):
        keys = _REGION_KEYS[kind]  # split from the right: a mask path may hold commas
        desc = {key: v if key == "path" else float(v)
                for key, v in zip(keys, rest.rsplit(",", len(keys) - 1))}
        desc["type"] = kind
    else:
        raise ValueError(f"unknown region descriptor {spec!r} "
                         "(expected product:..., mask:..., json:..., or fullball)")
    # `in` a tuple compares an unhashable type without hashing it
    if type(desc) is not dict or desc.get("type") not in tuple(_REGION_KEYS):
        raise ValueError(f"{spec}: not an object of type product, mask or fullball")
    kind = desc["type"]
    for key in _REGION_KEYS[kind]:  # numbers are int or float (not bool), a path str
        if type(desc.get(key)) not in ((str,) if key == "path" else (int, float)):
            raise ValueError(f"{spec}: region key {key!r} is missing or of the wrong "
                             f"type: {desc.get(key)!r}")
    if kind == "fullball":
        return full_ball()
    if kind == "product":
        return ProductSymmetric(*map(desc.get, _REGION_KEYS[kind]), desc.get("orientation"))
    return ProductMask(AngularMask.from_text(desc["path"]), desc["R1"], desc["R2"])


def _read_config_file(path: str) -> dict:
    """The options of a ``key = value`` config file, parsed."""
    out = {}
    with open(path) as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            key, eq, val = (part.strip() for part in line.partition("="))
            if not eq:
                raise ValueError(f"bad config line (need key = value): {line!r}")
            if key not in _OPTIONS:
                raise ValueError(f"unknown config key {key!r}")
            out[key] = _OPTIONS[key](val)
    return out


def _merge_config(args: argparse.Namespace) -> RunConfig:
    """Flags over config file over the RunConfig defaults, parsed alike and validated."""
    values = _read_config_file(args.config) if args.config else {}
    values.update((k, _OPTIONS[k](v)) for k in _OPTIONS if (v := getattr(args, k)) is not None)
    cfg = RunConfig(args.command, **values)
    cfg.validate()
    return cfg


def _grid_counts(grid: str, names: str) -> list[int]:
    """The positive point counts of a `--grid` value, one per name in `names`."""
    try:
        counts = [int(v) for v in grid.split(",")]
    except ValueError:
        counts = []
    if len(counts) != len(names.split(",")) or min(counts) < 1:
        raise ValueError(f"--grid needs positive integers '{names}', got {grid!r}")
    return counts


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_shannon(cfg: RunConfig, region, band) -> int:
    n = eigen.shannon(region, band)
    if math.isinf(n):  # FB, R2 = inf
        raise ValueError("the Fourier-Bessel Shannon number of an unbounded region is "
                         "infinite; need a bounded region")
    _write_meta(os.path.join(cfg.out, "shannon.json"), cfg, shannon=n)
    print(f"shannon {cfg.domain}: {n:.17g}")
    return 0


def cmd_kernel(cfg: RunConfig, region, band) -> int:
    kernels._require_base_frame(region)
    traces, orders = {}, (range(band.L) if cfg.order is None else [cfg.order])
    if cfg.domain == "fl":
        # every Gram is formed before the first write, so a rejected mask grid writes none
        E = kernels.E_matrix(band.P, region.R1, region.R2)
        traces["E"] = float(np.trace(E))
        if isinstance(region, ProductMask):
            G = {"G_mask": kernels.G_mask_matrix(region.mask, band.L)}
            traces["G_mask"] = float(np.trace(G["G_mask"]).real)
            traces["kernel"] = traces["E"] * traces["G_mask"]
        else:
            G = {f"G_m{m}": kernels.G_matrix(m, band.L, region.theta1, region.theta2)
                 for m in orders}
            if cfg.order is None:
                traces["G_all_orders"] = sum((2.0 if m > 0 else 1.0) * float(np.trace(g))
                                             for m, g in zip(orders, G.values()))
                traces["kernel"] = traces["E"] * traces["G_all_orders"]
        for name, a in {"E": E, **G}.items():
            write_matrix(os.path.join(cfg.out, f"{name}.mat"), a)
    else:
        total = 0.0
        for m in orders:
            B = kernels.kernel_fb_fixed_order(m, band, region)
            write_matrix(os.path.join(cfg.out, f"B_m{m}.mat"), B)
            total += (2.0 if m > 0 else 1.0) * float(np.trace(B))
        if cfg.order is None:
            traces["kernel"] = total
    traces["shannon"] = eigen.shannon(region, band)
    _write_meta(os.path.join(cfg.out, "meta.json"), cfg, traces=traces)
    return 0


def cmd_eigen(cfg: RunConfig, region, band) -> int:
    if cfg.grid:
        n_r, n_t = _grid_counts(cfg.grid, "nr,ntheta")
    # an order filter needs ranks beyond the first `count`, so retain all
    keep = None if (cfg.grid and cfg.order is not None) else cfg.count
    solve = eigen.solve_fl if cfg.domain == "fl" else eigen.solve_fb
    res = solve(region, band, keep=keep)
    _atomic_write(os.path.join(cfg.out, "eigenvalues.csv"), _eigen_csv(res))
    # the first `count` eigenvectors, written one band row (l, m) at a time
    vec_ranks = np.arange(min(cfg.count, res.stored))
    take = res._rows(vec_ranks)
    slabs = lambda: (take([index])[0] for index in range(band.L ** 2))
    _atomic_write(os.path.join(cfg.out, "eigenvectors.mat"), _matrix_chunks(
        band.size, vec_ranks.size, slabs(), _complex_tag(slabs())))
    _write_meta(os.path.join(cfg.out, "shannon.json"), cfg, shannon=res.shannon,
                eigenvalue_sum=float(res.eigenvalues.sum()),
                raw_eigenvalue_range=list(res.raw_eigenvalue_range))
    if cfg.grid:
        # the maps of the written vectors, or of the first `count` of order `cfg.order`
        ranks = vec_ranks
        if cfg.order is not None:
            ranks = np.flatnonzero(res.orders[:res.stored] == cfg.order)[:cfg.count]
            take = res._rows(ranks)
        r_max = 50.0 if math.isinf(region.R2) else 2.0 * region.R2
        rs = np.linspace(r_max / n_r, r_max, n_r)
        ts = np.linspace(0.0, math.pi, n_t)
        # the r, theta columns of every map
        coords = [_Gathered(g) for g in np.meshgrid(rs, ts, indexing="ij")]
        # fed one signed order's rows at a time; no whole vector stack is held
        maps = transforms.synthesis_separable(take, band, rs, ts, 1)
        for rank, vals in zip(ranks.tolist(), maps):
            _atomic_write(os.path.join(cfg.out, f"eigenfunction_{rank:04d}.csv"),
                          _csv("r,theta,value", *coords, vals.real.ravel()))
    return 0


def cmd_project(cfg: RunConfig, region, band) -> int:
    if cfg.domain != "fl":
        raise ValueError("projection is provided for the Fourier-Laguerre domain")
    if not cfg.signal:
        raise ValueError("project needs --signal <coefficient .mat file>")
    raw = read_matrix(cfg.signal)
    if raw.size == band.size:
        h = eigen.HarmonicCoeffs(raw.reshape(-1), band)
    else:
        # sampled-signal file: rows are radial nodes of the band's analysis
        # grid, columns the flattened angular grid
        grid = transforms.analysis_grid(band)
        n_ang = grid.theta_nodes.size * grid.n_phi
        if raw.shape != (grid.radial_nodes.size, n_ang):
            raise ValueError(
                f"signal file shape {raw.shape} matches neither the band size "
                f"{band.size} nor the analysis grid "
                f"({grid.radial_nodes.size}, {n_ang})")
        h = transforms.analysis_fl(raw, grid, band)
    del raw  # not alive through the solve
    res = eigen.solve_fl(region, band)
    h_alpha = transforms.slepian_coeffs(h, res)
    J = cfg.J if cfg.J is not None else int(math.floor(res.shannon))
    J = min(J, h_alpha.size)
    # before any write: a signal with no energy in the region raises here
    q_rows = {str(j): transforms.quality_measure(h_alpha, res, j)
              for j in sorted({J, h_alpha.size, max(J // 2, 1)})}
    fl_sorted = np.sort(np.abs(h.values))[::-1]
    sl_sorted = np.sort(np.abs(h_alpha))[::-1]
    _atomic_write(os.path.join(cfg.out, "decay.csv"), _csv(
        "index,abs_fl_sorted,abs_slepian_sorted",
        np.arange(1, fl_sorted.size + 1), fl_sorted, sl_sorted))
    _write_meta(os.path.join(cfg.out, "q.json"), cfg, J=J, shannon=res.shannon, Q=q_rows)
    print(f"Q({J}) = {q_rows[str(J)]:.17g}")
    return 0


def cmd_synth(cfg: RunConfig, region, band) -> int:
    if not cfg.signal:
        raise ValueError("synth needs --signal <coefficient .mat file>")
    if not cfg.grid:
        raise ValueError("synth needs --grid nr,ntheta,nphi")
    n_r, n_t, n_p = _grid_counts(cfg.grid, "nr,ntheta,nphi")
    h = eigen.HarmonicCoeffs(read_matrix(cfg.signal).reshape(-1), band)
    rs = np.linspace(50.0 / n_r, 50.0, n_r)
    ts = np.linspace(0.0, math.pi, n_t)
    vals = transforms.synthesis_separable(h.values[None], band, rs, ts, n_p)
    grid = [_Gathered(g) for g in np.meshgrid(rs, ts, _azimuths(n_p), indexing="ij")]
    _atomic_write(os.path.join(cfg.out, "values.csv"), _csv(
        "r,theta,phi,re,im", *grid, vals.real.ravel(), vals.imag.ravel()))
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slepian-ball",
        description="Spatial-spectral concentration on the ball",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in _COMMANDS.items():
        p = sub.add_parser(name, help=fn.__doc__)
        p.add_argument("--config", help="key = value config file")
        for key in _OPTIONS:
            p.add_argument(f"--{key}")
    return parser


_COMMANDS = {
    "kernel": cmd_kernel,
    "eigen": cmd_eigen,
    "shannon": cmd_shannon,
    "project": cmd_project,
    "synth": cmd_synth,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _merge_config(args)
        region = parse_region(cfg.region)
        if cfg.order is not None and isinstance(region, ProductMask):
            raise ValueError("--order selects an azimuthal order; mask regions have none")
        band = FourierLaguerreBand(cfg.P, cfg.L) if cfg.domain == "fl" \
            else FourierBesselBand(cfg.K, cfg.L, cfg.M)
        return _COMMANDS[cfg.command](cfg, region, band)
    except (np.linalg.LinAlgError, ArithmeticError) as exc:
        # before ValueError, of which LinAlgError is a subclass
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1
    except (ValueError, TypeError, OSError, KeyError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
