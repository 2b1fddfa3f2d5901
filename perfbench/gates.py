"""Output gates: each returns the list of problems found in one CLI run's output.

An empty list means the run passed.  The expected values are the acceptance
suite's reference numbers; the row counts follow from the band sizes.
"""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path

RANGE_TOL = 1e-9


def _rows(path: Path) -> int:
    """Data rows of a CSV file with one header line."""
    with open(path, "rb") as fh:
        return sum(1 for _ in fh) - 1


def _mat_shape(path: Path) -> tuple[int, int]:
    with open(path, "rb") as fh:
        head = fh.read(17)
    if len(head) < 17 or head[:8] != b"SLEPB001":
        raise ValueError("not a SLEPB001 matrix")
    rows, cols, _ = struct.unpack("<IIB", head[8:])
    return rows, cols


def check_files(out: Path, names) -> list[str]:
    return [f"missing {name}" for name in names if not (out / name).is_file()]


def check_eigen(out: Path, shannon: float, shannon_tol: float, sum_rel: float,
                rows: int, vectors: tuple[int, int],
                maps: tuple[int, int] | None = None) -> list[str]:
    """Gate an `eigen` run: Shannon number, spectrum sum and range, file shapes.

    `maps` is (number of eigenfunction grid files, rows in each), when the
    run asked for them.
    """
    out = Path(out)
    problems = check_files(out, ("shannon.json", "eigenvalues.csv",
                                 "eigenvectors.mat"))
    if problems:
        return problems
    with open(out / "shannon.json") as fh:
        rec = json.load(fh)
    n, total = rec["shannon"], rec["eigenvalue_sum"]
    lo, hi = rec["raw_eigenvalue_range"]
    if not abs(n - shannon) <= shannon_tol:
        problems.append(f"shannon {n} not within {shannon_tol} of {shannon}")
    if not abs(total - n) / n < sum_rel:
        problems.append(f"|sum(lambda) - N| / N = {abs(total - n) / n:.3e} "
                        f">= {sum_rel}")
    if not (-RANGE_TOL <= lo and hi <= 1.0 + RANGE_TOL):
        problems.append(f"raw eigenvalue range [{lo}, {hi}] outside "
                        f"[-{RANGE_TOL}, 1+{RANGE_TOL}]")
    got = _rows(out / "eigenvalues.csv")
    if got != rows:
        problems.append(f"eigenvalues.csv has {got} rows, expected {rows}")
    try:
        shape = _mat_shape(out / "eigenvectors.mat")
    except ValueError as exc:
        shape = str(exc)
    if shape != tuple(vectors):
        problems.append(f"eigenvectors.mat is {shape}, expected {tuple(vectors)}")
    if maps is not None:
        files = sorted(out.glob("eigenfunction_*.csv"))
        if len(files) != maps[0]:
            problems.append(f"{len(files)} eigenfunction maps, expected {maps[0]}")
        problems += [f"{f.name} has {_rows(f)} rows, expected {maps[1]}"
                     for f in files if _rows(f) != maps[1]]
    return problems


def check_project(out: Path, q_min: float, rows: int) -> list[str]:
    """Gate a `project` run: Q(floor(N)) and the decay table length."""
    out = Path(out)
    problems = check_files(out, ("q.json", "decay.csv"))
    if problems:
        return problems
    with open(out / "q.json") as fh:
        rec = json.load(fh)
    J = rec["J"]
    if J != math.floor(rec["shannon"]):
        problems.append(f"J = {J} is not floor(N) = {math.floor(rec['shannon'])}")
    q = rec["Q"].get(str(J))
    if q is None or not q >= q_min:
        problems.append(f"Q({J}) = {q} below {q_min}")
    got = _rows(out / "decay.csv")
    if got != rows:
        problems.append(f"decay.csv has {got} rows, expected {rows}")
    return problems
