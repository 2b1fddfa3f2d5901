#!/usr/bin/env python3
"""Cold-process benchmark of the slepian-ball CLI.

Usage:
    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Every sample is a fresh interpreter running `python -m slepian_ball` from
the checkout's `src/`, one process at a time, so the program's in-process
caches (the Wigner-3j `lru_cache` above all) start cold as they do for a
CLI user.  Nothing is timed inside the program: wall time runs from spawn
to exit, peak RSS is the child's `ru_maxrss`, and `setup_s` is the time
from spawn until `import slepian_ball` returns.  Each child gets its BLAS
thread count through OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and
MKL_NUM_THREADS, set to the number of usable cores.

--trace 0 reports the end-to-end medians.  --trace 1 reports the
per-layer breakdown of one traced run (see trace_child.py), the tracing
overhead against untraced samples, and a second traced run with one BLAS
thread as the single-threaded baseline.

Every CLI run is gated (see gates.py); a run that fails a gate counts as
a failed operation.  The last line of standard output is the result
object; the lines before it record the machine, the seed and each sample.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import gates

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"

RUN_LIMIT_S = 170.0       # the whole run, children included, ends before this
SETUP_SAMPLES = 5         # fresh-interpreter imports per run for setup_s
SUM_SLACK = (0.01, 0.01)  # span self times vs cli.main: relative, absolute (s)
MASK_BAND = 32

REGION = f"product:15,25,{math.pi / 8!r},{3 * math.pi / 8!r}"


@dataclass
class Workload:
    argv: object       # inputs dir -> CLI arguments (without --out)
    check: object      # output dir -> list of problems
    needs_inputs: bool = False


WORKLOADS = {
    # reference FL solve plus (r, theta) eigenfunction maps: E and G^m
    # assembly, synthesis and CSV writing; dense eigh gets almost no work
    "fl_product_eigen": Workload(
        lambda _: ["eigen", "--domain", "fl", "--P", "31", "--L", "20",
                   "--region", REGION, "--count", "12", "--order", "2",
                   "--grid", "64,48"],
        partial(gates.check_eigen, shannon=403.21, shannon_tol=0.5,
                sum_rel=1e-6, rows=31 * 20 ** 2, vectors=(31 * 20 ** 2, 12),
                maps=(12, 64 * 48))),
    # acceptance ref_fb_fine: dense eigh of 20 blocks up to 2800^2 and the
    # per-order FB kernel rebuild; never calls E
    "fb_product_eigen": Workload(
        lambda _: ["eigen", "--domain", "fb", "--K", "1.4", "--L", "20",
                   "--M", "140", "--region", REGION, "--count", "25"],
        partial(gates.check_eigen, shannon=408.33, shannon_tol=0.5,
                sum_rel=0.01, rows=140 * 20 ** 2,
                vectors=(140 * 20 ** 2, 25))),
    # sparsity experiment at P = L = 32: reads a seeded sampled signal,
    # G_mask assembly, a 1024^2 complex eigh, analysis and projection
    "fl_mask_project": Workload(
        lambda inputs: ["project", "--domain", "fl", "--P", str(MASK_BAND),
                        "--L", str(MASK_BAND), "--region",
                        f"mask:{inputs / 'pixels.txt'},15,25",
                        "--signal", str(inputs / "signal.mat")],
        partial(gates.check_project, q_min=0.99,
                rows=MASK_BAND * MASK_BAND ** 2),
        needs_inputs=True),
}


def _stat(name: str, key: str):
    return lambda rec: rec["stats"].get(name, {}).get(key, 0)


def _wigner(key: str):
    return lambda rec: (rec["wigner_3j"] or {}).get(key, 0)


# per-layer metric -> (unit, better, value from a traced record)
PER_LAYER = {
    "kernels.G_matrix.s": ("s", "lower", _stat("kernels.G_matrix", "s")),
    "kernels.G_matrix.calls": ("count", "lower", _stat("kernels.G_matrix", "calls")),
    "kernels.E_matrix.s": ("s", "lower", _stat("kernels.E_matrix", "s")),
    "kernels.E_matrix.calls": ("count", "lower", _stat("kernels.E_matrix", "calls")),
    "kernels.kernel_fb_fixed_order.self_s": (
        "s", "lower", _stat("kernels.kernel_fb_fixed_order", "self_s")),
    "kernels.kernel_fb_fixed_order.calls": (
        "count", "lower", _stat("kernels.kernel_fb_fixed_order", "calls")),
    "kernels.kernel_fb_fixed_order.dim_max": (
        "count", "lower", _stat("kernels.kernel_fb_fixed_order", "dim_max")),
    "kernels.kernel_fb_fixed_order.mb_computed": (
        "MB", "lower", _stat("kernels.kernel_fb_fixed_order", "mb_computed")),
    "kernels.G_mask_matrix.s": ("s", "lower", _stat("kernels.G_mask_matrix", "s")),
    "eigen.eigh.s": ("s", "lower", _stat("eigen.eigh", "s")),
    "eigen.eigh.cpu_s": ("s", "lower", _stat("eigen.eigh", "cpu_s")),
    "eigen.eigh.calls": ("count", "lower", _stat("eigen.eigh", "calls")),
    "eigen.eigh.dim_max": ("count", "lower", _stat("eigen.eigh", "dim_max")),
    "eigen.eigh.n3_sum": ("count", "lower", _stat("eigen.eigh", "n3_sum")),
    "eigen.solve.self_s": ("s", "lower", _stat("eigen.solve", "self_s")),
    "eigen.spectrum_entries": (
        "count", "lower", _stat("eigen.solve", "spectrum_entries")),
    "eigen.shannon.s": ("s", "lower", _stat("eigen.shannon", "s")),
    "transforms.synthesis_fl.s": ("s", "lower", _stat("transforms.synthesis_fl", "s")),
    "transforms.synthesis_fl.calls": (
        "count", "lower", _stat("transforms.synthesis_fl", "calls")),
    "transforms.synthesis_fl.points": (
        "count", "lower", _stat("transforms.synthesis_fl", "points")),
    "transforms.analysis_fl.s": ("s", "lower", _stat("transforms.analysis_fl", "s")),
    "transforms.slepian_coeffs.s": (
        "s", "lower", _stat("transforms.slepian_coeffs", "s")),
    "transforms.quality_measure.s": (
        "s", "lower", _stat("transforms.quality_measure", "s")),
    "cli.main.s": ("s", "lower", _stat("cli.main", "s")),
    "cli.self_s": ("s", "lower", _stat("cli.main", "self_s")),
    "cli.write_matrix.s": ("s", "lower", _stat("cli.write_matrix", "s")),
    "cli.read_matrix.s": ("s", "lower", _stat("cli.read_matrix", "s")),
    "cli.parse_region.s": ("s", "lower", _stat("cli.parse_region", "s")),
    "cli.output_bytes": ("bytes", "lower", lambda rec: rec["output_bytes"]),
    "specfun.wigner_3j.hits": ("count", "higher", _wigner("hits")),
    "specfun.wigner_3j.misses": ("count", "lower", _wigner("misses")),
    "process.import_s": ("s", "lower", lambda rec: rec["import_s"]),
}

# time metrics also reported from the run with one BLAS thread, as "t1.<name>"
THREADS1 = ["cli.main.s", "cli.self_s", "kernels.G_matrix.s", "kernels.E_matrix.s",
            "kernels.kernel_fb_fixed_order.self_s", "kernels.G_mask_matrix.s",
            "eigen.eigh.s", "eigen.eigh.cpu_s", "eigen.solve.self_s",
            "transforms.synthesis_fl.s", "transforms.analysis_fl.s"]


def self_sum_gap(rec) -> float:
    """cli.main's wall time minus the self times of every span under it."""
    return rec["main_wall_s"] - sum(st["self_s"] for st in rec["stats"].values())


def layer_metrics(rec, rec1, overhead_frac: float) -> dict:
    """Per-layer metrics from the traced record and its one-thread twin.

    A record is None when its traced run wrote none; its metrics read 0
    and the run is already counted as failed.
    """
    def value(r, name):
        return PER_LAYER[name][2](r) if r is not None else 0.0

    metrics = {name: (value(rec, name), unit) for name, (unit, _, _) in PER_LAYER.items()}
    metrics["trace.overhead_frac"] = (overhead_frac, "ratio")
    metrics["trace.self_sum_gap_s"] = (self_sum_gap(rec) if rec is not None else 0.0, "s")
    for name in THREADS1:
        metrics[f"t1.{name}"] = (value(rec1, name), PER_LAYER[name][0])
    return metrics


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------

class BenchError(RuntimeError):
    """The benchmark cannot run here (no program, or a child failed to start)."""


def child_env(threads: int) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "SLEPIAN_THREADS"}
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    return env


def spawn(cmd, env, cwd: Path, log: Path, deadline: float):
    """Run `cmd` to completion; return (exit code, wall s, peak RSS MB).

    The child is killed if it is still running at `deadline`.
    """
    with open(log, "wb") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, cwd=cwd, stdout=fh,
                                stderr=subprocess.STDOUT)
        timer = threading.Timer(max(deadline - t0, 0.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def _tail(log: Path, n: int = 400) -> str:
    return log.read_bytes()[-n:].decode(errors="replace").strip()


def run_checked(cmd, env, work: Path, deadline: float) -> str:
    """Run a helper child that must succeed; return its standard output."""
    log = work / "helper.log"
    rc, _, _ = spawn(cmd, env, work, log, deadline)
    if rc != 0:
        raise BenchError(f"{cmd[1]} failed with exit code {rc}: {_tail(log)}")
    return log.read_text()


MACHINE_PROBE = """\
import json, platform, numpy, scipy, slepian_ball
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
print(json.dumps({"package": slepian_ball.__file__, "python": platform.python_version(),
                  "numpy": numpy.__version__, "scipy": scipy.__version__,
                  "blas": f"{blas.get('name')} {blas.get('version')}"}))
"""

SETUP_PROBE = "import time, slepian_ball; print(repr(time.perf_counter()))"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def probe_machine(env, work: Path, deadline: float, threads: int) -> dict:
    """Record the machine; the import also writes the program's bytecode cache."""
    out = run_checked([sys.executable, "-c", MACHINE_PROBE], env, work, deadline)
    info = json.loads(out.strip().splitlines()[-1])
    if not Path(info["package"]).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"slepian_ball imported from {info['package']}, not {SRC}")
    info.update(nproc=os.cpu_count(), cpu=cpu_model(), blas_threads=threads)
    return info


def measure_setup(env, work: Path, deadline: float) -> list[float]:
    times = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        out = run_checked([sys.executable, "-c", SETUP_PROBE], env, work, deadline)
        # perf_counter is CLOCK_MONOTONIC, shared by parent and child
        times.append(float(out.strip().splitlines()[-1]) - t0)
    return times


# ---------------------------------------------------------------------------
# samples
# ---------------------------------------------------------------------------

@dataclass
class Sample:
    kind: str
    wall_s: float
    rss_mb: float
    problems: list = field(default_factory=list)
    output_bytes: int = 0


def gate(rc: int, check, out: Path, log: Path) -> list[str]:
    if rc != 0:
        return [f"exit code {rc}: {_tail(log)}"]
    try:
        return check(out)
    except (KeyError, ValueError, TypeError, OSError) as exc:
        return [f"unreadable output: {exc!r}"]


def cli_sample(wl: Workload, argv, env, work: Path, deadline: float,
               prefix=(), kind="cli") -> Sample:
    out = work / "out"
    shutil.rmtree(out, ignore_errors=True)
    log = work / "cli.log"
    cmd = [sys.executable, *prefix, *argv, "--out", str(out)]
    rc, wall, rss = spawn(cmd, env, work, log, deadline)
    size = sum(f.stat().st_size for f in out.rglob("*") if f.is_file())
    sample = Sample(kind, wall, rss, gate(rc, wl.check, out, log), size)
    shutil.rmtree(out, ignore_errors=True)
    return sample


def untraced_samples(wl, argv, env, work, seconds, deadline) -> list[Sample]:
    """Samples until the next one would end after `seconds` (at least one)."""
    samples = []
    start = time.perf_counter()
    while True:
        samples.append(cli_sample(wl, argv, env, work, deadline,
                                  prefix=("-m", "slepian_ball")))
        elapsed = time.perf_counter() - start
        typical = statistics.median(s.wall_s for s in samples)
        if elapsed + typical > seconds:
            return samples


def traced_sample(wl, argv, env, work, deadline, kind) -> tuple[Sample, dict | None]:
    spans = work / "spans.json"
    spans.unlink(missing_ok=True)
    sample = cli_sample(wl, argv, env, work, deadline,
                        prefix=(str(HERE / "trace_child.py"), str(spans)), kind=kind)
    if not spans.is_file():
        sample.problems.append("traced run wrote no span record")
        return sample, None
    rec = json.loads(spans.read_text())
    rec["output_bytes"] = sample.output_bytes
    gap = self_sum_gap(rec)
    if abs(gap) > SUM_SLACK[0] * rec["main_wall_s"] + SUM_SLACK[1]:
        sample.problems.append(
            f"span self times miss cli.main ({rec['main_wall_s']:.3f} s) by {gap:.3f} s")
    return sample, rec


def passing(samples) -> list[Sample]:
    ok = [s for s in samples if not s.problems]
    return ok or samples


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def run(args, work: Path) -> dict:
    deadline = time.perf_counter() + RUN_LIMIT_S
    threads = len(os.sched_getaffinity(0))
    env = child_env(threads)
    machine = probe_machine(env, work, deadline, threads)
    print("machine:", json.dumps(machine, sort_keys=True))
    print(f"workload: {args.workload}  seed: {args.seed}  seconds: {args.seconds}  "
          f"trace: {args.trace}")
    wl = WORKLOADS[args.workload]
    inputs = work / "inputs"
    if wl.needs_inputs:
        run_checked([sys.executable, str(HERE / "gen_inputs.py"), str(inputs),
                     str(args.seed), str(MASK_BAND)], env, work, deadline)
    argv = wl.argv(inputs)
    if args.trace == 0:
        setup = measure_setup(env, work, deadline)
        print("setup_s:", " ".join(f"{t:.4f}" for t in setup))
        samples = untraced_samples(wl, argv, env, work, args.seconds, deadline)
        ok = passing(samples)
        metrics = {"wall_s": (statistics.median([s.wall_s for s in ok]), "s"),
                   "setup_s": (statistics.median(setup), "s"),
                   "peak_rss_mb": (statistics.median([s.rss_mb for s in ok]), "MB")}
    else:
        samples = untraced_samples(wl, argv, env, work, args.seconds, deadline)
        base = statistics.median([s.wall_s for s in passing(samples)])
        traced, rec = traced_sample(wl, argv, env, work, deadline, "traced")
        traced1, rec1 = traced_sample(wl, argv, child_env(1), work, deadline,
                                      "traced-1-thread")
        samples += [traced, traced1]
        for r, label in ((rec, "traced"), (rec1, "traced-1-thread")):
            if r is not None:
                print(f"spans ({label}; absent: {', '.join(r['absent']) or 'none'}):")
                for name, st in sorted(r["stats"].items()):
                    print(f"  {name:36s} calls {st['calls']:6d}  s {st['s']:9.4f}  "
                          f"self {st['self_s']:9.4f}  cpu {st['cpu_s']:9.4f}")
        metrics = layer_metrics(rec, rec1, traced.wall_s / base - 1.0)
    for s in samples:
        print(f"sample {s.kind}: wall {s.wall_s:.4f} s  rss {s.rss_mb:.1f} MB"
              + (f"  FAILED: {'; '.join(s.problems)}" if s.problems else ""))
    failed = sum(1 for s in samples if s.problems)
    return {"correct": failed == 0, "attempted": len(samples), "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "slepian_ball" / "__init__.py").is_file():
        print(f"error: no slepian_ball package under {SRC}", file=sys.stderr)
        return 2
    work = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        result = run(args, work)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
