"""Tests of the benchmark's own arithmetic, gates and metric list.

Run from the repository root: PYTHONPATH=src python -m pytest perfbench
"""

import json
import struct
import types
from pathlib import Path

import pytest

import gates
import run
from spans import Recorder


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def test_self_time_of_nested_calls():
    wall, cpu = FakeClock(), FakeClock()
    rec = Recorder(clock=wall, cpu_clock=cpu)

    def tick(dt, dcpu=None):
        wall.t += dt
        cpu.t += dt if dcpu is None else dcpu

    def leaf():
        tick(1.0, 2.0)  # two threads busy

    def middle():
        tick(0.5)
        leaf_w()
        tick(0.25)

    leaf_w = rec.wrap("leaf", leaf)
    middle_w = rec.wrap("middle", middle)

    rec.enter("root")
    tick(2.0)
    middle_w()
    leaf_w()
    tick(1.0)
    rec.exit()

    root, mid, lf = rec.stats["root"], rec.stats["middle"], rec.stats["leaf"]
    assert (root.s, root.self_s) == (5.75, 3.0)
    assert (mid.s, mid.self_s, mid.calls) == (1.75, 0.75, 1)
    assert (lf.s, lf.self_s, lf.calls) == (2.0, 2.0, 2)
    assert (lf.cpu_s, mid.self_cpu_s, root.cpu_s) == (4.0, 0.75, 7.75)
    assert sum(st.self_s for st in rec.stats.values()) == root.s


def test_recursion_counts_inclusive_time_once():
    wall = FakeClock()
    rec = Recorder(clock=wall, cpu_clock=wall)

    def f(n):
        wall.t += 1.0
        if n:
            f_w(n - 1)

    f_w = rec.wrap("f", f)
    f_w(2)
    st = rec.stats["f"]
    assert (st.calls, st.s, st.self_s) == (3, 3.0, 3.0)


def test_counters_and_self_sum_gap():
    rec = Recorder()
    st = rec.stat("eigen.eigh")
    st.count("dim_max", 3, "max")
    st.count("dim_max", 2, "max")
    st.count("n3_sum", 27.0)
    st.count("n3_sum", 8.0)
    assert st.counters == {"dim_max": 3, "n3_sum": 35.0}
    record = {"main_wall_s": 5.0, "stats": {"cli.main": {"self_s": 1.0},
                                            "x": {"self_s": 3.5}}}
    assert run.self_sum_gap(record) == pytest.approx(0.5)


def test_missing_layer_is_reported_absent(monkeypatch):
    trace_child = pytest.importorskip("trace_child")
    mod = types.SimpleNamespace(__name__="fake", present=lambda: 7)
    monkeypatch.setattr(trace_child, "LAYERS", [
        (mod, "present", "fake.present", None),
        (mod, "deleted", "fake.deleted", None),
    ])
    rec = Recorder()
    assert trace_child.install(rec) == ["fake.deleted"]
    assert mod.present() == 7
    assert rec.stats["fake.present"].calls == 1


# ---------------------------------------------------------------------------
# gates
# ---------------------------------------------------------------------------

def _write_mat(path: Path, rows: int, cols: int):
    path.write_bytes(b"SLEPB001" + struct.pack("<IIB", rows, cols, 1))


def _csv(path: Path, rows: int):
    path.write_text("h\n" + "x\n" * rows)


EIGEN_GATE = dict(shannon=403.21, shannon_tol=0.5, sum_rel=1e-6, rows=5,
                  vectors=(10, 2), maps=(2, 3))


@pytest.fixture
def eigen_out(tmp_path):
    rec = {"shannon": 403.2107, "eigenvalue_sum": 403.2107 * (1 + 1e-9),
           "raw_eigenvalue_range": [-1e-14, 0.9999]}
    (tmp_path / "shannon.json").write_text(json.dumps(rec))
    _csv(tmp_path / "eigenvalues.csv", 5)
    _write_mat(tmp_path / "eigenvectors.mat", 10, 2)
    _csv(tmp_path / "eigenfunction_0001.csv", 3)
    _csv(tmp_path / "eigenfunction_0007.csv", 3)
    return tmp_path


def _edit_json(path: Path, **changes):
    rec = json.loads(path.read_text())
    rec.update(changes)
    path.write_text(json.dumps(rec))


def test_eigen_gate_accepts_good_output(eigen_out):
    assert gates.check_eigen(eigen_out, **EIGEN_GATE) == []


@pytest.mark.parametrize("corrupt", [
    lambda d: _edit_json(d / "shannon.json", eigenvalue_sum=403.3),
    lambda d: _edit_json(d / "shannon.json", shannon=404.0, eigenvalue_sum=404.0),
    lambda d: _edit_json(d / "shannon.json", raw_eigenvalue_range=[-1e-8, 0.99]),
    lambda d: _edit_json(d / "shannon.json", raw_eigenvalue_range=[0.0, 1.0 + 1e-8]),
    lambda d: _csv(d / "eigenvalues.csv", 4),
    lambda d: _write_mat(d / "eigenvectors.mat", 10, 1),
    lambda d: (d / "eigenvectors.mat").write_bytes(b"garbage"),
    lambda d: (d / "eigenvectors.mat").unlink(),
    lambda d: (d / "eigenfunction_0007.csv").unlink(),
    lambda d: _csv(d / "eigenfunction_0007.csv", 2),
], ids=["sum", "shannon", "range-low", "range-high", "rows", "vectors",
        "magic", "missing-file", "map-count", "map-rows"])
def test_eigen_gate_rejects_corrupt_output(eigen_out, corrupt):
    corrupt(eigen_out)
    assert gates.check_eigen(eigen_out, **EIGEN_GATE)


@pytest.fixture
def project_out(tmp_path):
    rec = {"J": 72, "shannon": 72.37, "Q": {"36": 0.6, "72": 0.995, "100": 1.0}}
    (tmp_path / "q.json").write_text(json.dumps(rec))
    _csv(tmp_path / "decay.csv", 100)
    return tmp_path


def test_project_gate(project_out):
    check = lambda: gates.check_project(project_out, q_min=0.99, rows=100)  # noqa: E731
    assert check() == []
    _edit_json(project_out / "q.json", Q={"72": 0.9})
    assert check()
    _edit_json(project_out / "q.json", Q={"71": 0.999}, J=71)
    assert check()
    _edit_json(project_out / "q.json", Q={"72": 0.999}, J=72)
    _csv(project_out / "decay.csv", 99)
    assert check()


def test_exit_code_and_unreadable_output_fail(project_out):
    log = project_out / "cli.log"
    log.write_text("numerical failure\n")
    check = run.WORKLOADS["fl_mask_project"].check
    assert run.gate(1, check, project_out, log)
    (project_out / "q.json").write_text("{}")
    assert run.gate(0, check, project_out, log)


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {"wall_s", "setup_s",
                                                      "peak_rss_mb"}
    record = {"main_wall_s": 1.0, "import_s": 0.5, "output_bytes": 10,
              "wigner_3j": None, "stats": {"cli.main": {"s": 1.0, "self_s": 1.0}}}
    metrics = run.layer_metrics(record, None, 0.05)
    assert [m["name"] for m in spec["per_layer"]] == list(metrics)
    for m in spec["per_layer"]:
        assert m["unit"] == metrics[m["name"]][1], m["name"]
        name = m["name"].removeprefix("t1.")
        if name in run.PER_LAYER:
            assert m["better"] == run.PER_LAYER[name][1], m["name"]
