"""CLI surface tests: formats, exit codes, golden parity with the library."""

import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import slepian_ball as sb
from oracles import csv_rows_per_value, eigen_csv_per_value, matrix_file_bytes
from slepian_ball import cli, csvout, eigen, transforms
from slepian_ball.cli import (RunConfig, _complex_tag, _matrix_chunks, main, parse_region,
                              read_matrix, write_matrix)
from slepian_ball.csvout import _Gathered, _csv_rows, _eigen_csv

T1, T2 = math.pi / 8, 3 * math.pi / 8
REGION = f"product:15,25,{T1},{T2}"


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "slepian_ball", *args],
        capture_output=True, text=True, cwd=cwd,
    )


# ---------------------------------------------------------------------------
# binary matrix format
# ---------------------------------------------------------------------------

def test_matrix_round_trip_real(tmp_path, rng):
    a = rng.normal(size=(7, 3))
    path = tmp_path / "a.mat"
    write_matrix(path, a)
    back = read_matrix(path)
    assert back.dtype == np.float64
    assert np.array_equal(back, a)


def test_matrix_round_trip_complex(tmp_path, rng):
    a = rng.normal(size=(4, 5)) + 1j * rng.normal(size=(4, 5))
    path = tmp_path / "a.mat"
    write_matrix(path, a)
    back = read_matrix(path)
    assert back.dtype == np.complex128
    assert np.array_equal(back, a)


def test_matrix_header_layout(tmp_path):
    path = tmp_path / "m.mat"
    write_matrix(path, np.zeros((2, 3)))
    blob = path.read_bytes()
    assert blob[:8] == b"SLEPB001"
    assert blob[8:12] == (2).to_bytes(4, "little")
    assert blob[12:16] == (3).to_bytes(4, "little")
    assert blob[16] == 0
    assert len(blob) == 17 + 2 * 3 * 8


def test_matrix_bad_magic(tmp_path):
    path = tmp_path / "m.mat"
    path.write_bytes(b"NOTSLEPB" + b"\0" * 32)
    with pytest.raises(ValueError):
        read_matrix(path)


MATRIX_CASES = {
    "real": lambda rng: rng.normal(size=(7, 3)),
    "complex": lambda rng: rng.normal(size=(4, 5)) + 1j * rng.normal(size=(4, 5)),
    "complex-zero-imag": lambda rng: rng.normal(size=(4, 5)).astype(complex),
    "fortran-real": lambda rng: np.asfortranarray(rng.normal(size=(6, 4))),
    "fortran-complex": lambda rng: (rng.normal(size=(3, 6)) + 1j * rng.normal(size=(3, 6))).T,
    "zero-columns": lambda rng: np.zeros((27, 0)),
    "vector": lambda rng: rng.normal(size=5),
}


@pytest.mark.parametrize("case", list(MATRIX_CASES))
def test_matrix_file_bytes_match_oracle(tmp_path, rng, case):
    a = MATRIX_CASES[case](rng)
    path = tmp_path / "a.mat"
    write_matrix(path, a)
    assert path.read_bytes() == matrix_file_bytes(a)
    assert np.array_equal(read_matrix(path), np.atleast_2d(a))


def _late_imaginary(rng):
    a = rng.normal(size=(6, 3)).astype(complex)
    a[5, 1] += 1e-300j  # only the last row block is complex
    return a


@pytest.mark.parametrize("case", [*MATRIX_CASES, "late-imaginary"])
def test_matrix_row_blocks_match_whole_array_file(rng, case):
    # a matrix written in uneven row blocks, some of them empty, is the
    # whole-array file; the tag comes from the blocks
    a = np.atleast_2d(_late_imaginary(rng) if case == "late-imaginary"
                      else MATRIX_CASES[case](rng))
    blocks = np.split(a, [1, 1, 4], axis=0)
    blob = b"".join(_matrix_chunks(*a.shape, blocks, _complex_tag(blocks)))
    assert blob == matrix_file_bytes(a)


def test_matrix_payload_length_checked(tmp_path, rng):
    path = tmp_path / "a.mat"
    write_matrix(path, rng.normal(size=(3, 2)))
    blob = path.read_bytes()
    for bad in (blob[:-8], blob[:-1], blob[:17], blob + b"\0", blob + bytes(8)):
        path.write_bytes(bad)
        with pytest.raises(ValueError, match="payload is not 3 x 2 values"):
            read_matrix(path)
    path.write_bytes(blob[:12])
    with pytest.raises(ValueError, match="truncated"):
        read_matrix(path)


def test_matrix_unknown_scalar_tag_rejected(tmp_path, capsys):
    # tag 2 over a payload that fits 3 x 1 float64 values: neither float64
    # nor complex128, so it is refused, not read as float64
    path = tmp_path / "c.mat"
    write_matrix(path, np.ones((3, 1)))
    blob = bytearray(path.read_bytes())
    blob[16] = 2
    path.write_bytes(bytes(blob))
    with pytest.raises(ValueError, match="scalar tag 2"):
        read_matrix(path)
    rc = main(["synth", "--domain", "fl", "--P", "3", "--L", "1", "--signal", str(path),
               "--grid", "2,2,2", "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "scalar tag 2" in capsys.readouterr().err


def test_fb_reference_vectors_write_and_read_hold_one_payload(tmp_path, ref_region):
    # the acceptance FB solve at M = 140: the real row-major stack is the
    # file's payload, written from its buffer and read back in one array
    res = sb.solve_fb(ref_region, sb.FourierBesselBand(1.4, 20, 140), keep=25)
    payload = res.band.size * 25 * 8
    path = tmp_path / "v.mat"
    tracemalloc.start()
    try:
        vecs = res.vectors(25)
        stack_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        write_matrix(path, vecs)
        write_peak = tracemalloc.get_traced_memory()[1] - base
        tracemalloc.reset_peak()
        back = read_matrix(path)
        read_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert stack_peak <= 1.05 * payload
    assert write_peak < 1e6
    assert read_peak <= 1.05 * payload
    assert path.stat().st_size == 17 + payload
    assert np.array_equal(back, vecs)


# ---------------------------------------------------------------------------
# region grammar
# ---------------------------------------------------------------------------

def test_parse_region_grammar(tmp_path):
    reg = parse_region("product:15,25,0.3927,1.1781")
    assert isinstance(reg, sb.ProductSymmetric)
    assert reg.R1 == 15.0 and reg.R2 == 25.0
    assert isinstance(parse_region("fullball"), sb.ProductSymmetric)
    mask = sb.AngularMask.band(T1, T2, 6)
    mpath = tmp_path / "m.txt"
    mask.to_text(mpath)
    reg2 = parse_region(f"mask:{mpath},15,25")
    assert isinstance(reg2, sb.ProductMask)
    desc = tmp_path / "r.json"
    desc.write_text(json.dumps(
        {"type": "product", "R1": 1, "R2": 2, "theta1": 0.1, "theta2": 0.9}))
    reg3 = parse_region(f"json:{desc}")
    assert isinstance(reg3, sb.ProductSymmetric)
    with pytest.raises(ValueError):
        parse_region("sphere:1,2")


def test_json_product_orientation(tmp_path, capsys):
    # the descriptor's orientation reaches the region: shannon serves the
    # oriented region, the solvers and the kernel export refuse it
    desc = tmp_path / "r.json"
    desc.write_text(json.dumps({"type": "product", "R1": 15, "R2": 25, "theta1": T1,
                                "theta2": T2, "orientation": [0.7, 1.3]}))
    region = parse_region(f"json:{desc}")
    assert region == sb.ProductSymmetric(15, 25, T1, T2, orientation=(0.7, 1.3))
    band = sb.FourierLaguerreBand(4, 3)
    args = ["--domain", "fl", "--P", "4", "--L", "3", "--region", f"json:{desc}"]
    assert main(["shannon", *args, "--out", str(tmp_path / "s")]) == 0
    data = json.loads((tmp_path / "s" / "shannon.json").read_text())
    assert data["shannon"] == sb.shannon_fl(region, band)
    sig = tmp_path / "c.mat"
    write_matrix(sig, np.ones((band.size, 1)))
    capsys.readouterr()
    for command in ("eigen", "project", "kernel"):
        rc = main([command, *args, "--signal", str(sig), "--out", str(tmp_path / command)])
        assert rc == 2, command
        assert "base frame" in capsys.readouterr().err


@pytest.mark.parametrize("orientation", [[0.7], [math.nan, 0.0], [0.1, 0.2, 0.3]])
def test_json_product_orientation_checked_by_the_region(tmp_path, capsys, orientation):
    desc = tmp_path / "r.json"
    desc.write_text(json.dumps({"type": "product", "R1": 15, "R2": 25, "theta1": T1,
                                "theta2": T2, "orientation": orientation}))
    rc = main(["shannon", "--domain", "fl", "--P", "4", "--L", "3",
               "--region", f"json:{desc}", "--out", str(tmp_path / "s")])
    assert rc == 2
    assert "orientation must be two finite angles" in capsys.readouterr().err


_PRODUCT = {"type": "product", "R1": 15, "R2": 25, "theta1": T1, "theta2": T2}


@pytest.mark.parametrize("desc, key", [
    ([1, 2], "not an object"), (3, "not an object"), ("product", "not an object"),
    ({**_PRODUCT, "R1": True}, "'R1'"), ({**_PRODUCT, "R2": "25"}, "'R2'"),
    ({**_PRODUCT, "theta1": None}, "'theta1'"), ({**_PRODUCT, "theta2": [T2]}, "'theta2'"),
    ({"type": "product", "R2": 25, "theta1": T1, "theta2": T2}, "'R1'"),
    ({"type": "mask", "path": 3, "R1": 15, "R2": 25}, "'path'"),
    ({"type": "mask", "path": "m.txt", "R1": False, "R2": 25}, "'R1'"),
    ({"type": ["product"]}, "not an object of type"),
], ids=["list", "number", "string", "bool-radius", "string-radius", "null-angle",
        "list-angle", "missing-radius", "number-path", "bool-mask-radius", "list-type"])
def test_malformed_json_region_exits_2_naming_file_and_key(tmp_path, capsys, desc, key):
    path, out = tmp_path / "r.json", tmp_path / "o"
    path.write_text(json.dumps(desc))
    rc = main(["shannon", "--domain", "fl", "--P", "4", "--L", "3",
               "--region", f"json:{path}", "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert len(err.strip().splitlines()) == 1
    assert str(path) in err and key in err
    assert not out.exists()


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def test_shannon_command_matches_library(tmp_path):
    out = tmp_path / "o"   # left uncreated: the command must make it
    rc = run_cli("shannon", "--domain", "fl", "--P", "8", "--L", "6",
                 "--region", REGION, "--out", str(out))
    assert rc.returncode == 0, rc.stderr
    data = json.loads((out / "shannon.json").read_text())
    expect = sb.shannon_fl(sb.ProductSymmetric(15, 25, T1, T2),
                           sb.FourierLaguerreBand(8, 6))
    assert data["shannon"] == pytest.approx(expect, rel=1e-15)
    assert data["config"]["P"] == 8
    # defaults are echoed too
    assert "M" in data["config"]


def test_invalid_region_exit_code_and_message(tmp_path):
    rc = run_cli("shannon", "--domain", "fl", "--region", "product:25,15,0.1,0.2",
                 "--out", str(tmp_path))
    assert rc.returncode == 2
    assert "R1" in rc.stderr or "R2" in rc.stderr


def test_invalid_domain_exit_code(tmp_path):
    rc = run_cli("shannon", "--domain", "fl", "--P", "0",
                 "--region", "fullball", "--out", str(tmp_path))
    assert rc.returncode == 2
    assert "P" in rc.stderr


def test_kernel_command_writes_factors(tmp_path):
    out = tmp_path / "k"
    rc = run_cli("kernel", "--domain", "fl", "--P", "6", "--L", "4",
                 "--region", REGION, "--out", str(out))
    assert rc.returncode == 0, rc.stderr
    E = read_matrix(out / "E.mat")
    assert E.shape == (6, 6)
    assert np.abs(E - sb.E_matrix(6, 15.0, 25.0)).max() == 0.0
    for m in range(4):
        G = read_matrix(out / f"G_m{m}.mat")
        assert G.shape == (4 - m, 4 - m)
    meta = json.loads((out / "meta.json").read_text())
    assert meta["traces"]["kernel"] == pytest.approx(meta["traces"]["shannon"],
                                                     rel=1e-9)


def test_kernel_command_mask_writes_the_grams(tmp_path):
    # one E.mat for both FL region kinds: with G_mask.mat, the bytes of
    # E_matrix and G_mask_matrix on the mask as the CLI reads it
    mpath = tmp_path / "patch.txt"
    sb.AngularMask.full_sphere_grid(
        6, indicator=lambda t, p: ((t < 1.0) & (p < 2.0)).astype(float)).to_text(mpath)
    spec, out = f"mask:{mpath},15,25", tmp_path / "k"
    assert main(["kernel", "--domain", "fl", "--P", "5", "--L", "6", "--region", spec,
                 "--out", str(out)]) == 0
    region = cli.parse_region(spec)
    E, G = sb.E_matrix(5, 15.0, 25.0), sb.G_mask_matrix(region.mask, 6)
    assert (out / "E.mat").read_bytes() == matrix_file_bytes(E)
    assert (out / "G_mask.mat").read_bytes() == matrix_file_bytes(G)
    assert sorted(p.name for p in out.iterdir()) == ["E.mat", "G_mask.mat", "meta.json"]
    traces = json.loads((out / "meta.json").read_text())["traces"]
    assert traces["kernel"] == traces["E"] * traces["G_mask"]
    assert traces["kernel"] == pytest.approx(traces["shannon"], rel=1e-9)
    # every Gram is formed before the first write: a grid too coarse writes none
    coarse = tmp_path / "coarse"
    assert main(["kernel", "--domain", "fl", "--P", "5", "--L", "7", "--region", spec,
                 "--out", str(coarse)]) == 2
    assert list(coarse.glob("*.mat")) == []


def test_kernel_command_fb_blocks(tmp_path):
    out = tmp_path / "kb"
    rc = run_cli("kernel", "--domain", "fb", "--K", "1.0", "--L", "3", "--M", "8",
                 "--region", REGION, "--order", "1", "--out", str(out))
    assert rc.returncode == 0, rc.stderr
    B = read_matrix(out / "B_m1.mat")
    expect = sb.kernel_fb_fixed_order(1, sb.FourierBesselBand(1.0, 3, 8),
                                      sb.ProductSymmetric(15, 25, T1, T2))
    assert np.array_equal(B, expect)


def test_eigen_command_csv_and_vectors(tmp_path):
    out = tmp_path / "e"
    rc = run_cli("eigen", "--domain", "fl", "--P", "5", "--L", "4",
                 "--region", REGION, "--count", "6", "--out", str(out))
    assert rc.returncode == 0, rc.stderr
    lines = (out / "eigenvalues.csv").read_text().strip().splitlines()
    assert lines[0] == "rank,lambda,m,lambda_radial,lambda_angular"
    lams = np.array([float(l.split(",")[1]) for l in lines[1:]])
    res = sb.solve_fl(sb.ProductSymmetric(15, 25, T1, T2),
                      sb.FourierLaguerreBand(5, 4))
    assert np.abs(lams - res.eigenvalues).max() == 0.0
    shan = json.loads((out / "shannon.json").read_text())
    assert shan["eigenvalue_sum"] == pytest.approx(shan["shannon"], rel=1e-6)
    vecs = read_matrix(out / "eigenvectors.mat")
    assert vecs.shape == (sb.FourierLaguerreBand(5, 4).size, 6)
    gram = vecs.conj().T @ vecs
    assert np.abs(gram - np.eye(6)).max() < 1e-12


def test_eigen_command_deterministic_rerun(tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    for out in (out1, out2):
        rc = run_cli("eigen", "--domain", "fl", "--P", "4", "--L", "3",
                     "--region", REGION, "--count", "4", "--out", str(out))
        assert rc.returncode == 0, rc.stderr
    assert (out1 / "eigenvalues.csv").read_bytes() == \
        (out2 / "eigenvalues.csv").read_bytes()
    assert (out1 / "eigenvectors.mat").read_bytes() == \
        (out2 / "eigenvectors.mat").read_bytes()


def test_eigen_command_grid_output(tmp_path):
    out = tmp_path / "g"
    rc = run_cli("eigen", "--domain", "fl", "--P", "4", "--L", "4",
                 "--region", REGION, "--count", "3", "--order", "2",
                 "--grid", "10,8", "--out", str(out))
    assert rc.returncode == 0, rc.stderr
    files = sorted(out.glob("eigenfunction_*.csv"))
    assert len(files) == 3
    header = files[0].read_text().splitlines()[0]
    assert header == "r,theta,value"
    assert len(files[0].read_text().strip().splitlines()) == 1 + 10 * 8


def test_eigen_command_fb_count_beyond_null_space(tmp_path):
    # ranks in the numerical null space have no vector: they are left out
    band = sb.FourierBesselBand(1.0, 3, 8)
    res = sb.solve_fb(sb.ProductSymmetric(15, 25, T1, T2), band)
    n_live = int(np.count_nonzero(res.eigenvalues >= res.vector_floor))
    assert 0 < n_live < band.size
    out = tmp_path / "fb"
    rc = run_cli("eigen", "--domain", "fb", "--K", "1.0", "--L", "3", "--M", "8",
                 "--region", REGION, "--count", str(band.size), "--out", str(out))
    assert rc.returncode == 0, rc.stderr
    assert read_matrix(out / "eigenvectors.mat").shape == (band.size, n_live)
    rc = run_cli("eigen", "--domain", "fb", "--K", "1.0", "--L", "3", "--M", "8",
                 "--region", REGION, "--count", str(band.size), "--order", "1",
                 "--grid", "4,3", "--out", str(out))
    assert rc.returncode == 0, rc.stderr
    n_order = int(np.count_nonzero(res.orders[:res.stored] == 1))
    assert len(list(out.glob("eigenfunction_*.csv"))) == n_order


def test_project_command_eigenfunction(tmp_path):
    band = sb.FourierLaguerreBand(5, 4)
    region = sb.ProductSymmetric(15, 25, T1, T2)
    res = sb.solve_fl(region, band)
    sig = tmp_path / "h.mat"
    write_matrix(sig, res.coeffs(3).values.reshape(-1, 1))
    out = tmp_path / "p"
    rc = run_cli("project", "--domain", "fl", "--P", "5", "--L", "4",
                 "--region", REGION, "--signal", str(sig), "--out", str(out))
    assert rc.returncode == 0, rc.stderr
    rows = (out / "decay.csv").read_text().strip().splitlines()[1:]
    slepian = np.array([float(r.split(",")[2]) for r in rows])
    assert slepian[0] == pytest.approx(1.0, abs=1e-12)
    assert slepian[1] < 1e-10
    q = json.loads((out / "q.json").read_text())
    assert 0.0 <= q["Q"][str(q["J"])] <= 1.0 + 1e-12


def test_project_command_sampled_signal(tmp_path, rng):
    from slepian_ball import transforms
    band = sb.FourierLaguerreBand(5, 4)
    c = sb.HarmonicCoeffs(
        rng.normal(size=band.size) + 1j * rng.normal(size=band.size), band)
    grid = transforms.analysis_grid(band)
    vals = sb.synthesis_fl_grid(c, grid).reshape(grid.radial_nodes.size, -1)
    sig = tmp_path / "samples.mat"
    write_matrix(sig, vals)
    out = tmp_path / "p"
    rc = run_cli("project", "--domain", "fl", "--P", "5", "--L", "4",
                 "--region", REGION, "--signal", str(sig), "--out", str(out))
    assert rc.returncode == 0, rc.stderr
    rows = (out / "decay.csv").read_text().strip().splitlines()[1:]
    fl_from_cli = np.array(sorted((float(r.split(",")[1]) for r in rows),
                                  reverse=True))
    fl_direct = np.array(sorted(np.abs(c.values), reverse=True))
    assert np.abs(fl_from_cli - fl_direct).max() < 1e-10


def test_synth_command_matches_library(tmp_path, rng):
    band = sb.FourierLaguerreBand(3, 3)
    vec = rng.normal(size=band.size) + 1j * rng.normal(size=band.size)
    sig = tmp_path / "c.mat"
    write_matrix(sig, vec.reshape(-1, 1))
    out = tmp_path / "s"
    rc = run_cli("synth", "--domain", "fl", "--P", "3", "--L", "3",
                 "--signal", str(sig), "--grid", "4,3,5", "--out", str(out))
    assert rc.returncode == 0, rc.stderr
    rows = (out / "values.csv").read_text().strip().splitlines()[1:]
    assert len(rows) == 4 * 3 * 5
    r0 = rows[0].split(",")
    pt = np.array([[float(r0[0]), float(r0[1]), float(r0[2])]])
    val = sb.synthesis_fl(sb.HarmonicCoeffs(vec, band), pt)[0]
    assert float(r0[3]) == pytest.approx(val.real, rel=1e-15)
    assert float(r0[4]) == pytest.approx(val.imag, rel=1e-15)


def test_config_file_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("P = 7\nL = 5\nregion = fullball\n")
    out = tmp_path / "o"
    out.mkdir()
    rc = run_cli("shannon", "--config", str(cfg), "--L", "4", "--out", str(out))
    assert rc.returncode == 0, rc.stderr
    data = json.loads((out / "shannon.json").read_text())
    assert data["config"]["P"] == 7      # from config file
    assert data["config"]["L"] == 4      # flag wins over config
    assert data["shannon"] == pytest.approx(7 * 16, rel=1e-12)


def test_unknown_config_key(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("banana = 2\n")
    rc = run_cli("shannon", "--config", str(cfg), "--out", str(tmp_path))
    assert rc.returncode == 2


def test_main_in_process(tmp_path):
    # exercised in-process to keep coverage of the entry point itself
    rc = main(["shannon", "--domain", "fl", "--P", "3", "--L", "3",
               "--region", "fullball", "--out", str(tmp_path)])
    assert rc == 0
    rc2 = main(["shannon", "--region", "product:bad", "--out", str(tmp_path)])
    assert rc2 == 2


def test_threads_env_respected(tmp_path):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    rc = subprocess.run(
        [sys.executable, "-m", "slepian_ball", "shannon", "--domain", "fl",
         "--P", "4", "--L", "4", "--region", "fullball", "--out", str(tmp_path)],
        capture_output=True, text=True, env=env)
    assert rc.returncode == 0, rc.stderr


@pytest.mark.parametrize("r1, r2", [(20.0, 20.0), (0.0, 0.0), (25.0, 15.0)])
def test_empty_or_inverted_shell_rejected(tmp_path, capsys, r1, r2):
    with pytest.raises(ValueError, match="R1 < R2"):
        sb.ProductSymmetric(r1, r2, T1, T2)
    rc = main(["shannon", "--region", f"product:{r1},{r2},{T1},{T2}",
               "--out", str(tmp_path)])
    assert rc == 2
    assert "R1 < R2" in capsys.readouterr().err


def test_import_leaves_mpmath_unloaded():
    code = "import sys, slepian_ball; print('mpmath' in sys.modules)"
    rc = subprocess.run([sys.executable, "-c", code],
                        capture_output=True, text=True)
    assert rc.returncode == 0, rc.stderr
    assert rc.stdout.strip() == "False"


def test_cli_runs_import_no_polynomial_masked_array_or_scipy(tmp_path, rng):
    # shannon, a small eigen --grid and a small mask project, run in one fresh
    # interpreter, load none of numpy.polynomial (0.77 MB of RSS), numpy.ma
    # (1.7 MB; np.unique imports it) or scipy beyond what `import numpy`
    # loads itself (numpy < 2 imports numpy.polynomial and numpy.ma eagerly)
    band = sb.FourierLaguerreBand(4, 4)
    mask = tmp_path / "mask.txt"
    sb.AngularMask.full_sphere_grid(
        4, indicator=lambda t, p: ((t > 0.5) & (t < 1.5)).astype(float)).to_text(mask)
    signal = tmp_path / "c.mat"
    write_matrix(signal, rng.normal(size=(band.size, 1)))
    runs = [["shannon", "--region", REGION, "--out", str(tmp_path / "0")],
            ["eigen", "--P", "4", "--L", "4", "--region", REGION, "--count", "3",
             "--grid", "5,4", "--out", str(tmp_path / "1")],
            ["project", "--P", "4", "--L", "4", "--region", f"mask:{mask},15,25",
             "--signal", str(signal), "--out", str(tmp_path / "2")]]
    code = (
        "import json, sys\n"
        "import numpy\n"
        "before = set(sys.modules)\n"
        "from slepian_ball import cli\n"
        f"for run in {runs!r}:\n"
        "    if cli.main(run) != 0:\n"
        "        sys.exit(f'{run} failed')\n"
        "print(json.dumps(sorted(m for m in set(sys.modules) - before\n"
        "                        if m.split('.')[0] == 'scipy'\n"
        "                        or m.startswith(('numpy.polynomial', 'numpy.ma')))))\n")
    rc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert rc.returncode == 0, rc.stderr
    assert json.loads(rc.stdout.splitlines()[-1]) == []
    assert len(list((tmp_path / "1").glob("eigenfunction_*.csv"))) == 3
    assert (tmp_path / "2" / "q.json").exists()


def test_fl_solves_leave_scipy_special_unloaded():
    # FL solves run on numpy alone (as FB ones do, below)
    code = (
        "import sys, slepian_ball as sb\n"
        "band = sb.FourierLaguerreBand(4, 6)\n"
        "sb.solve_fl(sb.ProductSymmetric(15.0, 25.0, 0.3, 1.1), band)\n"
        "mask = sb.AngularMask.full_sphere_grid(\n"
        "    6, indicator=lambda t, p: ((t > 0.9) & (t < 1.3)).astype(float))\n"
        "sb.solve_fl(sb.ProductMask(mask, 15.0, 25.0), band)\n"
        "print('scipy.special' in sys.modules)\n")
    rc = subprocess.run([sys.executable, "-c", code],
                        capture_output=True, text=True)
    assert rc.returncode == 0, rc.stderr
    assert rc.stdout.strip() == "False"


def test_fb_solve_and_eigen_command_leave_scipy_unloaded(tmp_path):
    # the spherical Bessel table is numpy alone: no Fourier-Bessel path loads scipy
    code = (
        "import math, sys, slepian_ball as sb\n"
        "from slepian_ball.cli import main\n"
        "region = sb.ProductSymmetric(15.0, 25.0, math.pi / 8, 3 * math.pi / 8)\n"
        "sb.solve_fb(region, sb.FourierBesselBand(1.4, 20, 70), keep=25)\n"
        f"rc = main(['eigen', '--domain', 'fb', '--K', '1.0', '--L', '3', '--M', '8', "
        f"'--region', '{REGION}', '--count', '2', '--out', {str(tmp_path)!r}])\n"
        "print(rc, 'scipy' in sys.modules)\n")
    rc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert rc.returncode == 0, rc.stderr
    assert rc.stdout.strip() == "0 False"


def test_package_source_never_imports_scipy():
    src = Path(sb.__file__).parent
    lines = [f"{path.name}:{n}" for path in sorted(src.glob("*.py"))
             for n, line in enumerate(path.read_text().splitlines(), 1)
             if re.match(r"\s*(import scipy|from scipy)\b", line)]
    assert not lines


def test_eigen_command_count_zero_writes_no_vectors(tmp_path):
    out = tmp_path / "z"
    rc = main(["eigen", "--domain", "fl", "--P", "3", "--L", "3", "--region", REGION,
               "--count", "0", "--out", str(out)])
    assert rc == 0
    assert read_matrix(out / "eigenvectors.mat").shape == (27, 0)
    assert len((out / "eigenvalues.csv").read_text().splitlines()) == 1 + 27


@pytest.mark.parametrize("order", [7, 4, -4])
def test_order_outside_band_rejected(tmp_path, capsys, order):
    out = tmp_path / "o"
    rc = main(["eigen", "--domain", "fl", "--P", "3", "--L", "4", "--region", REGION,
               "--order", str(order), "--grid", "3,3", "--out", str(out)])
    assert rc == 2
    assert "|order| < L = 4" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, grid", [
    ("eigen", "0,5"), ("eigen", "3,0"), ("eigen", "4,-1"), ("eigen", "3"), ("eigen", "3,x"),
    ("synth", "0,3,3"), ("synth", "2,3,0"), ("synth", "2,3"), ("synth", "2.5,3,3")])
def test_grid_counts_must_be_positive_integers(tmp_path, capsys, command, grid):
    sig = tmp_path / "c.mat"
    write_matrix(sig, np.ones((sb.FourierLaguerreBand(3, 2).size, 1)))
    out = tmp_path / "o"
    rc = main([command, "--domain", "fl", "--P", "3", "--L", "2", "--region", REGION,
               "--signal", str(sig), "--grid", grid, "--out", str(out)])
    assert rc == 2
    assert "--grid needs positive integers" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["eigen", "kernel", "shannon"])
def test_mask_with_coarse_azimuths(tmp_path, capsys, command):
    # 12 Gauss-Legendre rows x 6 azimuths are exact below degree 3 only, so
    # a solve or kernel at L = 12 is refused; the Shannon number needs no
    # harmonics of the grid and is still given
    band = sb.AngularMask.band(0.0, math.pi, 12)
    T, P = np.meshgrid(band.theta[::band.n_phi], 2 * math.pi * np.arange(6) / 6, indexing="ij")
    mpath = tmp_path / "coarse.txt"
    np.savetxt(mpath, np.column_stack([T.ravel(), P.ravel(), np.ones(T.size)]), fmt="%.17g")
    rc = main([command, "--domain", "fl", "--P", "3", "--L", "12",
               "--region", f"mask:{mpath},15,25", "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    if command == "shannon":
        assert rc == 0, err
    else:
        assert rc == 2
        assert "band-limit 3 is below L=12" in err


@pytest.mark.parametrize("command", ["eigen", "kernel"])
def test_order_on_mask_region_rejected(tmp_path, capsys, command):
    mpath = tmp_path / "band.txt"
    sb.AngularMask.band(T1, T2, 4).to_text(mpath)
    out = tmp_path / "o"
    rc = main([command, "--domain", "fl", "--P", "3", "--L", "4",
               "--region", f"mask:{mpath},15,25", "--order", "1",
               "--grid", "3,3", "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "mask regions have none" in err
    assert not out.exists()


# ---------------------------------------------------------------------------
# CSV writers, eigenfunction maps and real eigenvectors
# ---------------------------------------------------------------------------

def _mat_tag(path) -> int:
    with open(path, "rb") as fh:
        return fh.read(17)[16]


def test_csv_rows_matches_per_value_writer(rng):
    special = [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 5e-324, -5e-324,
               2.2250738585072014e-308, 1e-310, sys.float_info.max, -sys.float_info.max,
               0.1, 1 / 3, 1e16, 1e22, 123456789012345678.0, 1.0, -2.5]
    bits = rng.integers(0, 2 ** 64, size=20_000, dtype=np.uint64).view(np.float64)
    floats = np.concatenate([special, bits, rng.normal(size=5_000)])
    n = floats.size
    ints = rng.integers(-2 ** 62, 2 ** 62, size=n)
    strings = np.array([f"s{i}" for i in range(n)], dtype=object)
    columns = (ints, floats, None, floats[::-1].copy(), strings, None)
    chunks = list(_csv_rows(*columns))
    assert b"".join(chunks).decode() == csv_rows_per_value(*columns)
    # full chunks, then one short one: n is not a multiple of the chunk size
    assert n % csvout._CSV_CHUNK
    assert [c.count(b"\n") for c in chunks] == \
        [csvout._CSV_CHUNK] * (n // csvout._CSV_CHUNK) + [n % csvout._CSV_CHUNK]
    # guard: columns whose chunks repeat their values, some of them across
    # chunk boundaries, with signed zeros, NaNs and infinities among them
    few = np.array([0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 0.1, -2.5])
    repeated = (np.resize(np.repeat(few, 700), n), rng.choice(few, size=n), np.resize(few, n),
                np.where(np.arange(n) % 3, floats, -0.0), np.repeat(floats[::400], 400)[:n])
    columns = (ints, *repeated, strings)
    assert b"".join(_csv_rows(*columns)).decode() == csv_rows_per_value(*columns)
    assert list(_csv_rows(np.arange(3), None)) == [b"0,\n1,\n2,\n"]
    assert list(_csv_rows(np.zeros(0), np.zeros(0, dtype=int))) == []


def test_gathered_columns_match_per_value_writer(monkeypatch, rng):
    # 7 rows a chunk, so runs of one value cross chunk boundaries; the table
    # holds one string per bit pattern, so a table of distinct values
    # (np.unique merges 0.0 and -0.0, and NaNs) cannot pass
    monkeypatch.setattr(csvout, "_CSV_CHUNK", 7)
    nan_payload = np.array([0x7FF8000000000001], dtype=np.int64).view(np.float64)[0]
    few = np.array([0.0, -0.0, math.nan, -math.nan, nan_payload, math.inf, -math.inf,
                    5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, sys.float_info.max,
                    0.1, 1 / 3, -2.5])
    n = 1000
    assert n % 7
    columns = (np.resize(np.repeat(few, 9), n), rng.choice(few, size=n), np.resize(few, n),
               np.full(n, -0.0))
    for c in columns:
        assert len(_Gathered(c).strings) == len(set(c.view(np.int64).tolist()))
    mixed = (np.arange(n), columns[0], *map(_Gathered, columns), None, rng.normal(size=n))
    oracle = (np.arange(n), columns[0], *columns, None, mixed[-1])
    assert b"".join(_csv_rows(*mixed)).decode() == csv_rows_per_value(*oracle)
    assert list(_csv_rows(_Gathered(np.zeros(0)), np.zeros(0))) == []


def test_fl_product_eigen_command_matches_per_value_writers(tmp_path, monkeypatch):
    # the fl_product_eigen benchmark command in process, 7 rows a chunk.
    # While a map is written the command holds the 12 maps (0.59 MB) and
    # the coordinate tables; the 3,072 coordinate rows as one string array
    # (0.34 MB) would not fit under the bound
    monkeypatch.setattr(csvout, "_CSV_CHUNK", 7)
    solve, write, peaks = eigen.solve_fl, cli._atomic_write, []

    def solve_then_trace(*args, **kwargs):
        res = solve(*args, **kwargs)
        tracemalloc.start()
        return res

    def traced_write(path, chunks):
        tracemalloc.reset_peak()
        write(path, chunks)
        if "eigenfunction_" in path:
            peaks.append(tracemalloc.get_traced_memory()[1])

    monkeypatch.setattr(eigen, "solve_fl", solve_then_trace)
    monkeypatch.setattr(cli, "_atomic_write", traced_write)
    out = tmp_path / "out"
    try:
        rc = main(["eigen", "--domain", "fl", "--P", "31", "--L", "20", "--region", REGION,
                   "--count", "12", "--order", "2", "--grid", "64,48", "--out", str(out)])
    finally:
        tracemalloc.stop()
    assert rc == 0 and len(peaks) == 12
    assert max(peaks) < 0.85e6

    band = sb.FourierLaguerreBand(31, 20)
    res = solve(sb.ProductSymmetric(15, 25, T1, T2), band)
    assert (out / "eigenvalues.csv").read_text() == eigen_csv_per_value(res)
    ranks = np.flatnonzero(res.orders == 2)[:12]
    rs, ts = np.linspace(50.0 / 64, 50.0, 64), np.linspace(0.0, math.pi, 48)
    Rg, Tg = np.meshgrid(rs, ts, indexing="ij")
    maps = transforms.synthesis_separable(res._stack(ranks).T, band, rs, ts, 1)
    for rank, vals in zip(ranks.tolist(), maps):
        assert (out / f"eigenfunction_{rank:04d}.csv").read_text() == "r,theta,value\n" + \
            csv_rows_per_value(Rg.ravel(), Tg.ravel(), vals.real.ravel())


def _mask_region(tmp_path, L):
    mpath = tmp_path / "band.txt"
    sb.AngularMask.band(T1, T2, L).to_text(mpath)
    return f"mask:{mpath},15,25"


@pytest.mark.parametrize("case", ["fl", "fb", "fb-padded", "mask"])
def test_eigen_csv_matches_per_value_writer(tmp_path, monkeypatch, case):
    # product FL fills every column; FB leaves the factor columns empty and
    # a mask the m column.  7 rows a chunk, so the padded FB spectrum's zero
    # tail spans chunks, and runs of one order end inside them
    monkeypatch.setattr(csvout, "_CSV_CHUNK", 7)
    if case == "fb":
        res = sb.solve_fb(sb.ProductSymmetric(15, 25, T1, T2), sb.FourierBesselBand(1.0, 3, 8))
    elif case == "fb-padded":
        res = sb.solve_fb(sb.ProductSymmetric(15, 25, T1, T2), sb.FourierBesselBand(1.0, 6, 30))
        tail = len(res) - np.flatnonzero(res.eigenvalues)[-1] - 1
        assert tail > 7 * sum(b.pad > 0 for b in res._blocks) > 0
    elif case == "fl":
        res = sb.solve_fl(sb.ProductSymmetric(15, 25, T1, T2), sb.FourierLaguerreBand(5, 4))
    else:
        res = sb.solve_fl(parse_region(_mask_region(tmp_path, 4)), sb.FourierLaguerreBand(3, 4))
        assert res.orders is None
    assert b"".join(_eigen_csv(res)).decode() == eigen_csv_per_value(res)


def _read_map(path):
    lines = path.read_text().splitlines()
    assert lines[0] == "r,theta,value"
    return np.array([[float(v) for v in line.split(",")] for line in lines[1:]])


@pytest.mark.parametrize("domain", ["fl", "fb"])
def test_eigen_grid_maps_match_pointwise_synthesis(tmp_path, domain):
    # n_r != n_theta, so a map with its r and theta axes swapped cannot pass
    n_r, n_t = 7, 5
    band_args = ["--P", "4", "--L", "4"] if domain == "fl" else ["--K", "1.0", "--L", "4", "--M", "8"]
    out = tmp_path / domain
    rc = main(["eigen", "--domain", domain, *band_args, "--region", REGION,
               "--count", "4", "--order", "1", "--grid", f"{n_r},{n_t}", "--out", str(out)])
    assert rc == 0
    region = sb.ProductSymmetric(15, 25, T1, T2)
    if domain == "fl":
        res, synth = sb.solve_fl(region, sb.FourierLaguerreBand(4, 4)), sb.synthesis_fl
    else:
        res, synth = sb.solve_fb(region, sb.FourierBesselBand(1.0, 4, 8)), sb.synthesis_fb
    ranks = np.flatnonzero(res.orders[:res.stored] == 1)[:4]
    files = sorted(out.glob("eigenfunction_*.csv"))
    assert [f.name for f in files] == [f"eigenfunction_{k:04d}.csv" for k in ranks]
    Rg, Tg = np.meshgrid(np.linspace(50.0 / n_r, 50.0, n_r), np.linspace(0.0, math.pi, n_t),
                         indexing="ij")
    pts = np.column_stack([Rg.ravel(), Tg.ravel(), np.zeros(Rg.size)])
    for rank, path in zip(ranks, files):
        got = _read_map(path)
        assert np.array_equal(got[:, 0], Rg.ravel()) and np.array_equal(got[:, 1], Tg.ravel())
        want = synth(res.coeffs(rank), pts).real
        assert np.abs(got[:, 2] - want).max() <= 1e-13 * np.abs(want).max()


def test_eigen_command_count_zero_with_grid_writes_no_maps(tmp_path):
    out = tmp_path / "z"
    rc = main(["eigen", "--domain", "fl", "--P", "3", "--L", "3", "--region", REGION,
               "--count", "0", "--grid", "4,3", "--out", str(out)])
    assert rc == 0
    assert not list(out.glob("eigenfunction_*.csv"))
    res = sb.solve_fl(sb.ProductSymmetric(15, 25, T1, T2), sb.FourierLaguerreBand(3, 3))
    assert (out / "eigenvalues.csv").read_text() == eigen_csv_per_value(res)


def test_fl_eigen_grid_leaves_scipy_special_unloaded(tmp_path):
    code = (
        "import sys\n"
        "from slepian_ball.cli import main\n"
        f"rc = main(['eigen', '--domain', 'fl', '--P', '4', '--L', '4', '--region', "
        f"'{REGION}', '--count', '3', '--grid', '5,4', '--out', {str(tmp_path)!r}])\n"
        "print(rc, 'scipy.special' in sys.modules)\n")
    rc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert rc.returncode == 0, rc.stderr
    assert rc.stdout.strip() == "0 False"
    assert len(list(tmp_path.glob("eigenfunction_*.csv"))) == 3


def test_synth_command_fb_matches_library(tmp_path, rng):
    band = sb.FourierBesselBand(1.2, 3, 5)
    vec = rng.normal(size=band.size) + 1j * rng.normal(size=band.size)
    sig = tmp_path / "c.mat"
    write_matrix(sig, vec.reshape(-1, 1))
    out = tmp_path / "s"
    rc = main(["synth", "--domain", "fb", "--K", "1.2", "--L", "3", "--M", "5",
               "--signal", str(sig), "--grid", "4,3,5", "--out", str(out)])
    assert rc == 0
    rows = np.array([[float(v) for v in line.split(",")]
                     for line in (out / "values.csv").read_text().splitlines()[1:]])
    want = sb.synthesis_fb(sb.HarmonicCoeffs(vec, band), rows[:, :3])
    got = rows[:, 3] + 1j * rows[:, 4]
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("case, tag", [("fl", 0), ("fb", 0), ("mask", 1)])
def test_eigenvectors_mat_real_when_vectors_are_real(tmp_path, case, tag):
    out = tmp_path / case
    if case == "fb":
        args = ["--domain", "fb", "--K", "1.0", "--L", "3", "--M", "8", "--region", REGION]
        res = sb.solve_fb(sb.ProductSymmetric(15, 25, T1, T2), sb.FourierBesselBand(1.0, 3, 8))
    else:
        region = REGION if case == "fl" else _mask_region(tmp_path, 4)
        args = ["--domain", "fl", "--P", "3", "--L", "4", "--region", region]
        res = sb.solve_fl(parse_region(region), sb.FourierLaguerreBand(3, 4))
    assert main(["eigen", *args, "--count", "5", "--out", str(out)]) == 0
    path = out / "eigenvectors.mat"
    assert _mat_tag(path) == tag
    vecs = read_matrix(path)
    assert vecs.dtype == (np.float64 if tag == 0 else np.complex128)
    assert np.array_equal(vecs, res.vectors(5))
    assert path.stat().st_size == 17 + vecs.size * (8 if tag == 0 else 16)


# ---------------------------------------------------------------------------
# streamed outputs: byte-identical to the whole-array writers
# ---------------------------------------------------------------------------

FB_SMALL = sb.FourierBesselBand(1.0, 4, 10)

# region and band; the mask's vectors are complex (tag 1), all others real
STREAMED_EIGEN_CASES = {
    "fl-product": (lambda tmp: sb.ProductSymmetric(15, 25, T1, T2), sb.FourierLaguerreBand(4, 4)),
    "fl-mask": (lambda tmp: parse_region(_mask_region(tmp, 4)), sb.FourierLaguerreBand(3, 4)),
    "fb-product": (lambda tmp: sb.ProductSymmetric(15, 25, T1, T2), FB_SMALL),
    "fb-padded": (lambda tmp: sb.ProductSymmetric(15, 25, T1, T2),
                  sb.FourierBesselBand(1.0, 4, 25)),
    "fb-union": (lambda tmp: sb.RegionUnion((sb.ProductSymmetric(15, 20, 0.3, 1.0),
                                             sb.ProductSymmetric(20, 25, 1.2, 1.8))), FB_SMALL),
    "fb-azimuthal": (lambda tmp: sb.AzimuthallySymmetric.from_indicator(
        lambda r, t: ((t > T1) & (t < T2 + 0.02 * (r - 15))).astype(float), 15.0, 25.0,
        n_r=16, n_theta=8), FB_SMALL),
}


@pytest.mark.parametrize("count", [0, 5, 10_000])
@pytest.mark.parametrize("case", list(STREAMED_EIGEN_CASES))
def test_streamed_eigen_files_match_whole_array_writers(tmp_path, monkeypatch, case, count):
    # 7 rows a chunk, so eigenvalues.csv spans chunks and ends in a short one;
    # count 10_000 lies beyond every case's stored vectors
    monkeypatch.setattr(csvout, "_CSV_CHUNK", 7)
    region_of, band = STREAMED_EIGEN_CASES[case]
    region = region_of(tmp_path)
    fl = isinstance(band, sb.FourierLaguerreBand)
    out = tmp_path / "out"
    cfg = RunConfig("eigen", domain="fl" if fl else "fb", count=count, out=str(out))
    assert cli.cmd_eigen(cfg, region, band) == 0
    res = (sb.solve_fl if fl else sb.solve_fb)(region, band, keep=count)
    assert len(res) % 7 and res.stored < 10_000
    whole = tmp_path / "whole.mat"
    write_matrix(whole, res.vectors(min(count, res.stored)))
    assert (out / "eigenvectors.mat").read_bytes() == whole.read_bytes()
    assert _mat_tag(whole) == (1 if case == "fl-mask" and count else 0)
    assert (out / "eigenvalues.csv").read_text() == eigen_csv_per_value(res)


def test_eigen_lifts_each_blocks_written_vectors_once(tmp_path, monkeypatch):
    # the real stack's tag comes from its dtype, not from a first pass of rows
    lifted, vectors = [], eigen._Block.vectors
    monkeypatch.setattr(eigen._Block, "vectors",
                        lambda self, k: lifted.append(id(self)) or vectors(self, k))
    cfg = RunConfig("eigen", domain="fb", count=5, out=str(tmp_path))
    assert cli.cmd_eigen(cfg, sb.ProductSymmetric(15, 25, T1, T2), FB_SMALL) == 0
    assert 0 < len(lifted) == len(set(lifted))


def test_streamed_maps_values_and_decay_match_per_value_writer(tmp_path, monkeypatch, rng):
    # every file has a row count that is not a multiple of the 7-row chunk
    monkeypatch.setattr(csvout, "_CSV_CHUNK", 7)
    band = sb.FourierLaguerreBand(4, 4)
    region = sb.ProductSymmetric(15, 25, T1, T2)
    vec = rng.normal(size=band.size) + 1j * rng.normal(size=band.size)
    sig = tmp_path / "c.mat"
    write_matrix(sig, vec.reshape(-1, 1))
    flags = ["--domain", "fl", "--P", "4", "--L", "4", "--region", REGION]
    out = tmp_path / "out"
    assert main(["eigen", *flags, "--count", "3", "--grid", "5,3", "--out", str(out)]) == 0
    assert main(["synth", *flags, "--signal", str(sig), "--grid", "4,3,5",
                 "--out", str(out)]) == 0
    assert main(["project", *flags, "--signal", str(sig), "--out", str(out)]) == 0

    rs, ts = np.linspace(50.0 / 5, 50.0, 5), np.linspace(0.0, math.pi, 3)
    Rg, Tg = np.meshgrid(rs, ts, indexing="ij")
    res = sb.solve_fl(region, band, keep=3)
    maps = transforms.synthesis_separable(res.vectors(3).T, band, rs, ts, 1)
    for rank, vals in enumerate(maps):
        assert (out / f"eigenfunction_{rank:04d}.csv").read_text() == "r,theta,value\n" + \
            csv_rows_per_value(Rg.ravel(), Tg.ravel(), vals.real.ravel())

    rs, ps = np.linspace(50.0 / 4, 50.0, 4), np.linspace(0.0, 2 * math.pi, 5, endpoint=False)
    vals = transforms.synthesis_separable(vec[None], band, rs, ts, 5)
    Rg, Tg, Pg = np.meshgrid(rs, ts, ps, indexing="ij")
    assert (out / "values.csv").read_text() == "r,theta,phi,re,im\n" + csv_rows_per_value(
        Rg.ravel(), Tg.ravel(), Pg.ravel(), vals.real.ravel(), vals.imag.ravel())

    h = sb.HarmonicCoeffs(vec, band)
    h_alpha = transforms.slepian_coeffs(h, sb.solve_fl(region, band))
    assert (out / "decay.csv").read_text() == "index,abs_fl_sorted,abs_slepian_sorted\n" + \
        csv_rows_per_value(np.arange(1, band.size + 1), np.sort(np.abs(vec))[::-1],
                           np.sort(np.abs(h_alpha))[::-1])


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
def test_eigen_output_files_honour_the_umask(tmp_path, umask, mode):
    out = tmp_path / "out"
    old = os.umask(umask)
    try:
        rc = main(["eigen", "--domain", "fl", "--P", "3", "--L", "3", "--region", REGION,
                   "--count", "2", "--grid", "2,2", "--out", str(out)])
    finally:
        os.umask(old)
    assert rc == 0
    modes = {f.name: f.stat().st_mode & 0o777 for f in out.iterdir()}
    assert {"eigenvalues.csv", "eigenvectors.mat", "shannon.json",
            "eigenfunction_0000.csv"} <= set(modes)
    assert set(modes.values()) == {mode}


def test_fb_reference_eigen_command_holds_no_whole_output(tmp_path, monkeypatch):
    # the acceptance FB solve at M = 140 with --count 25: from the end of the
    # solve to exit the CLI holds band rows and chunks only; the 11.2 MB
    # vector stack, a 1.1 MB degree slab or the 5.6 MB eigenvalues.csv as
    # one string would not fit
    solve = eigen.solve_fb

    def solve_then_trace(*args, **kwargs):
        res = solve(*args, **kwargs)
        tracemalloc.start()
        return res

    monkeypatch.setattr(eigen, "solve_fb", solve_then_trace)
    out = tmp_path / "out"
    try:
        rc = main(["eigen", "--domain", "fb", "--K", "1.4", "--L", "20", "--M", "140",
                   "--region", REGION, "--count", "25", "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0
    assert (out / "eigenvectors.mat").stat().st_size == 17 + 140 * 20 ** 2 * 25 * 8
    assert peak < 1e6


def test_fl_eigen_grid_holds_no_vector_stack(tmp_path, monkeypatch):
    # --grid at P = L = 64 with --count 25 feeds synthesis one signed order's
    # rows at a time from the band-row accessor: the whole stack of 64^3 x 25
    # doubles (52 MB) is never gathered.  The traced peak after the solve
    # measures 6.6 MB (54 MB when the maps read the stack)
    solve = eigen.solve_fl

    def solve_then_trace(*args, **kwargs):
        res = solve(*args, **kwargs)
        tracemalloc.start()
        return res

    monkeypatch.setattr(eigen, "solve_fl", solve_then_trace)
    out = tmp_path / "out"
    try:
        rc = main(["eigen", "--domain", "fl", "--P", "64", "--L", "64", "--count", "25",
                   "--region", REGION, "--grid", "16,12", "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0
    assert len(list(out.glob("eigenfunction_*.csv"))) == 25
    stack = 64 ** 3 * 25 * 8
    assert peak < 0.2 * stack


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def test_every_json_output_is_strict_json(tmp_path, rng):
    # RFC 8259 has no NaN or Infinity: each JSON file of each command parses
    # with those constants rejected
    band = sb.FourierLaguerreBand(4, 3)
    sig = tmp_path / "c.mat"
    write_matrix(sig, rng.normal(size=(band.size, 1)))
    fl = ["--domain", "fl", "--P", "4", "--L", "3", "--region", REGION]
    fb = ["--domain", "fb", "--K", "1.0", "--L", "3", "--M", "12", "--region", REGION]
    runs = [["shannon", *fl], ["shannon", *fb], ["shannon", "--domain", "fl", "--L", "2"],
            ["eigen", *fl], ["eigen", *fb], ["kernel", *fl], ["kernel", *fb],
            ["project", *fl, "--signal", str(sig)]]
    for i, run in enumerate(runs):
        assert main([*run, "--out", str(tmp_path / str(i))]) == 0, run
    files = sorted(tmp_path.glob("*/*.json"))
    assert len(files) == len(runs)
    for path in files:
        data = json.loads(path.read_text(), parse_constant=_reject_constant)
        assert data["config"]["out"] == str(path.parent)


@pytest.mark.parametrize("region", ["fullball", f"product:15,inf,{T1},{T2}"])
def test_fb_infinite_shannon_exits_2_before_any_output(tmp_path, capsys, region):
    # the library keeps shannon_fb = inf; the CLI has no finite number to write
    out = tmp_path / "o"
    rc = main(["shannon", "--domain", "fb", "--K", "1.0", "--L", "3", "--M", "8",
               "--region", region, "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "need a bounded region" in err
    assert not out.exists()
    assert sb.shannon_fb(parse_region(region), sb.FourierBesselBand(1.0, 3, 8)) == math.inf


@pytest.mark.parametrize("command, domain, region", [
    ("eigen", "fb", "mask"), ("kernel", "fb", "mask"), ("eigen", "fl", "oriented"),
    ("project", "fl", "oriented"), ("eigen", "fb", "fullball"), ("kernel", "fb", "fullball")])
def test_rejected_region_leaves_no_output_directory(tmp_path, capsys, command, domain, region):
    # the solve or kernel refuses the region; --out is created at the first write only
    sb.AngularMask.band(T1, T2, 4).to_text(tmp_path / "band.txt")
    (tmp_path / "r.json").write_text(json.dumps({
        "type": "product", "R1": 15, "R2": 25, "theta1": T1, "theta2": T2,
        "orientation": [0.7, 1.3]}))
    write_matrix(tmp_path / "c.mat", np.ones((sb.FourierLaguerreBand(3, 4).size, 1)))
    spec = {"mask": f"mask:{tmp_path / 'band.txt'},15,25",
            "oriented": f"json:{tmp_path / 'r.json'}", "fullball": "fullball"}[region]
    out = tmp_path / "o"
    rc = main([command, "--domain", domain, "--P", "3", "--K", "1.0", "--L", "4", "--M", "8",
               "--region", spec, "--signal", str(tmp_path / "c.mat"), "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("configuration error")
    assert not out.exists()


# ---------------------------------------------------------------------------
# rejected Fourier-Bessel inputs
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("K", ["nan", "inf", "-inf"])
def test_non_finite_K_rejected(tmp_path, capsys, K):
    with pytest.raises(ValueError, match="positive and finite"):
        sb.FourierBesselBand(float(K), 3, 8)
    out = tmp_path / "o"
    rc = main(["eigen", "--domain", "fb", f"--K={K}", "--L", "3", "--M", "8",
               "--region", REGION, "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "K must be positive and finite" in err
    assert not out.exists()


@pytest.mark.parametrize("region", [
    sb.full_ball(),
    sb.ProductSymmetric(15.0, math.inf, T1, T2),
    sb.RegionUnion((sb.ProductSymmetric(2.0, 5.0, T1, T2),
                    sb.ProductSymmetric(15.0, math.inf, T1, T2))),
], ids=["full-ball", "open-shell", "union"])
def test_fb_unbounded_region_rejected(region):
    band = sb.FourierBesselBand(1.0, 3, 8)
    with pytest.raises(ValueError, match="bounded region"):
        sb.solve_fb(region, band)
    with pytest.raises(ValueError, match="bounded region"):
        sb.kernel_fb_fixed_order(1, band, region)
    assert sb.shannon_fb(region, band) == math.inf


AZIMUTHAL_SHELL = sb.AzimuthallySymmetric.from_indicator(
    lambda r, t: ((r < 20.0) & (t < 1.0)).astype(float), 15.0, 25.0, n_r=16, n_theta=8)


@pytest.mark.parametrize("region, r_max, m_solve", [
    (sb.ProductSymmetric(15.0, 25.0, T1, T2), 25.0, 12),
    (sb.RegionUnion((sb.ProductSymmetric(2.0, 5.0, T1, T2),
                     sb.ProductSymmetric(15.0, 25.0, T1, T2))), 25.0, 12),
    (AZIMUTHAL_SHELL, AZIMUTHAL_SHELL.r_nodes[AZIMUTHAL_SHELL.r_nodes < 20.0].max(), 10),
], ids=["product", "union", "azimuthal"])
def test_fb_k_sampling_past_pi_rejected(region, r_max, m_solve):
    # past dk * R_max = pi the sampled kernel is no projection: at the
    # reference with M = 8 its top eigenvalue was 1.47.  The shell's radii
    # alias already at the smallest M admitted there, M = 9 (its radial Gram
    # on the k samples reads 1.0030), and its first M that solves is 10; the
    # product's top radial Gram at M = 12 reads 0.999996
    m_min = math.ceil(1.4 * r_max / math.pi)
    band = sb.FourierBesselBand(1.4, 4, m_min - 1)
    with pytest.raises(ValueError, match=f"use M >= {m_min}$"):
        sb.solve_fb(region, band)
    with pytest.raises(ValueError, match=f"use M >= {m_min}$"):
        sb.kernel_fb_fixed_order(1, band, region)
    assert 0 < sb.shannon_fb(region, band) < math.inf
    for M in range(m_min, m_solve):
        with pytest.raises(ValueError, match="raise M$"):
            sb.solve_fb(region, sb.FourierBesselBand(1.4, 4, M))
    lo, hi = sb.solve_fb(region, sb.FourierBesselBand(1.4, 4, m_solve),
                         keep=0).raw_eigenvalue_range
    assert -1e-9 <= lo and hi <= 1 + 1e-9


def test_fb_admitted_k_sampling_that_aliases_rejected_before_eigensolve(
        tmp_path, capsys, monkeypatch):
    # all colatitudes of the shell r < 20: at M = 9 its blocks' top
    # eigenvalue would be 1.00297, its sampled radial Gram's; M = 10 solves
    region = sb.AzimuthallySymmetric.from_indicator(
        lambda r, t: (r < 20.0).astype(float), 15.0, 25.0, n_r=16, n_theta=8)
    eighs, descending_eigh = [], eigen._descending_eigh
    monkeypatch.setattr(eigen, "_descending_eigh",
                        lambda a: eighs.append(a.shape) or descending_eigh(a))
    with pytest.raises(ValueError, match=r"M = 9 k samples reaches 1\.00297\d > 1; raise M$"):
        sb.solve_fb(region, sb.FourierBesselBand(1.4, 4, 9))
    assert eighs == []
    lo, hi = sb.solve_fb(region, sb.FourierBesselBand(1.4, 4, 10), keep=0).raw_eigenvalue_range
    assert -1e-9 <= lo and 0.99 < hi <= 1 + 1e-9
    monkeypatch.setattr(cli, "parse_region", lambda spec: region)
    rc = main(["eigen", "--domain", "fb", "--K", "1.4", "--L", "4", "--M", "9",
               "--out", str(tmp_path / "o")])
    assert rc == 2 and "raise M" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["eigen", "kernel"])
def test_fb_k_sampling_past_pi_exits_2(tmp_path, capsys, command):
    rc = main([command, "--domain", "fb", "--K", "1.4", "--L", "20", "--M", "8",
               "--region", REGION, "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "use M >= 12" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["eigen", "kernel"])
def test_fb_default_region_exits_2(tmp_path, capsys, command):
    # the default region is the full ball, which has no finite radius
    rc = main([command, "--domain", "fb", "--K", "1.0", "--L", "3", "--M", "8",
               "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "bounded region" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# options and exit codes
# ---------------------------------------------------------------------------

# a non-default value of every option, as typed and as RunConfig holds it
OPTION_VALUES = {"domain": ("fb", "fb"), "P": ("3", 3), "L": ("4", 4), "K": ("1.5", 1.5),
                 "M": ("7", 7), "region": (REGION, REGION), "order": ("2", 2),
                 "count": ("5", 5), "grid": ("3,3", "3,3"), "J": ("2", 2),
                 "signal": ("c.mat", "c.mat")}


def test_every_option_is_a_flag_and_a_config_key(tmp_path):
    names = [f.name for f in dataclasses.fields(RunConfig) if f.name != "command"]
    assert sorted(OPTION_VALUES) == sorted(set(names) - {"out"})
    echoed = {}
    for how in ("flag", "config"):
        out = tmp_path / how
        if how == "flag":
            args = [a for k, (text, _) in OPTION_VALUES.items() for a in (f"--{k}", text)]
            args += ["--out", str(out)]
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text("".join(f"{k} = {text}\n" for k, (text, _) in OPTION_VALUES.items())
                           + f"out = {out}\n")
            args = ["--config", str(cfg)]
        assert main(["shannon", *args]) == 0
        echoed[how] = json.loads((out / "shannon.json").read_text())["config"]
        assert echoed[how].pop("out") == str(out)
        assert echoed[how].pop("command") == "shannon"
    for key, (_, value) in OPTION_VALUES.items():
        for how in ("flag", "config"):
            got = echoed[how][key]
            assert got == value and type(got) is type(value), (how, key, got)


@pytest.mark.parametrize("args, message", [
    (["--config", "{cfg}"], "invalid literal for int"),
    (["--P", "x"], "invalid literal for int"),
    (["--domain", "xx"], "domain must be 'fl' or 'fb'"),
], ids=["unparsable-config", "unparsable-flag", "unknown-domain"])
def test_bad_option_value_exits_2_before_output(tmp_path, capsys, args, message):
    # a flag and a config key with the same bad value take the same route out of main
    cfg = tmp_path / "run.cfg"
    cfg.write_text("P = x\n")
    out = tmp_path / "o"
    rc = main(["shannon", *[a.format(cfg=cfg) for a in args], "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("configuration error: ") and message in err
    assert not out.exists()


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["shannon", "--help"])
    assert exc.value.code == 0
    assert "--P" in capsys.readouterr().out


@pytest.mark.parametrize("command, extra", [("project", []), ("synth", ["--grid", "2,2,2"])])
def test_bad_signal_exits_2_before_output(tmp_path, capsys, command, extra):
    sig = tmp_path / "c.mat"
    write_matrix(sig, np.ones((5, 1)))
    out = tmp_path / "o"
    rc = main([command, "--P", "3", "--L", "3", "--region", REGION, "--signal", str(sig),
               *extra, "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("configuration error: ")
    assert not out.exists()


@pytest.mark.parametrize("samples", [False, True], ids=["coefficients", "samples"])
def test_project_non_finite_signal_exits_2_before_output(tmp_path, capsys, samples):
    # a NaN coefficient used to project to all-NaN Slepian coefficients
    band = sb.FourierLaguerreBand(3, 3)
    grid = transforms.analysis_grid(band)
    shape = (grid.radial_nodes.size, grid.theta_nodes.size * grid.phi_nodes.size) if samples \
        else (band.size, 1)
    signal = np.ones(shape)
    signal[1, 0] = math.nan
    sig = tmp_path / "c.mat"
    write_matrix(sig, signal)
    out = tmp_path / "o"
    rc = main(["project", "--P", "3", "--L", "3", "--region", REGION, "--signal", str(sig),
               "--out", str(out)])
    assert rc == 2
    assert "non-finite" in capsys.readouterr().err
    assert not out.exists()


def test_synth_non_finite_signal_exits_2_before_output(tmp_path, capsys):
    # a NaN coefficient used to write nan cells into values.csv and exit 0
    signal = np.ones((sb.FourierLaguerreBand(3, 3).size, 1))
    signal[1, 0] = math.nan
    sig = tmp_path / "c.mat"
    write_matrix(sig, signal)
    out = tmp_path / "o"
    rc = main(["synth", "--P", "3", "--L", "3", "--signal", str(sig), "--grid", "2,2,2",
               "--out", str(out)])
    assert rc == 2
    assert "non-finite" in capsys.readouterr().err
    assert not (out / "values.csv").exists()


def test_negative_J_rejected_before_output(tmp_path, capsys):
    # the solve used to run and write decay.csv before J was found out of range
    sig = tmp_path / "c.mat"
    write_matrix(sig, np.ones((sb.FourierLaguerreBand(3, 3).size, 1)))
    out = tmp_path / "o"
    rc = main(["project", "--domain", "fl", "--P", "3", "--L", "3", "--region", REGION,
               "--signal", str(sig), "--J", "-1", "--out", str(out)])
    assert rc == 2
    assert "J must be >= 0, got -1" in capsys.readouterr().err
    assert not out.exists()


def test_band_limit_message_names_the_limit(tmp_path, capsys):
    rc = main(["shannon", "--P", "0", "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "band limit P must be >= 1, got 0" in capsys.readouterr().err


def test_linalg_error_is_a_numerical_failure(tmp_path, capsys, monkeypatch):
    # LinAlgError subclasses ValueError, so it used to exit 2 as a configuration error
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(sb.eigen, "solve_fl", fail)
    rc = main(["eigen", "--domain", "fl", "--P", "3", "--L", "3", "--region", REGION,
               "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "numerical failure: Eigenvalues did not converge" in capsys.readouterr().err
