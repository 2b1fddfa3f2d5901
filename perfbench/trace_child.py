"""Run the slepian-ball CLI in this process with spans around each layer.

Usage: python3 trace_child.py <spans.json> <cli arguments...>

The program is not edited: after `import slepian_ball` the public functions
of its modules (and the dense eigensolvers of numpy and scipy) are replaced
by wrappers that record a span per call.  The modules call each other
through module attributes, so the wrappers see every call.  A function
missing from the program is listed as absent.  The statistics are written
to <spans.json> when `cli.main` returns.
"""

import json
import sys
import time

t_start = time.perf_counter()
import slepian_ball  # noqa: E402
import_s = time.perf_counter() - t_start

import numpy.linalg  # noqa: E402
import scipy.linalg  # noqa: E402
from slepian_ball import cli, eigen, kernels, specfun, transforms  # noqa: E402

from spans import Recorder  # noqa: E402


def _eigh(st, args, result):
    n = args[0].shape[0]
    st.count("dim_max", n, "max")
    st.count("n3_sum", float(n) ** 3)


def _block(st, args, result):
    st.count("dim_max", result.matrix.shape[0], "max")
    st.count("mb_computed", result.matrix.nbytes / 1e6)


def _solve(st, args, result):
    st.count("spectrum_entries", len(result))


def _points(st, args, result):
    st.count("points", len(args[1]))


# (module, attribute, span name, counter hook)
LAYERS = [
    (kernels, "G_matrix", "kernels.G_matrix", None),
    (kernels, "E_matrix", "kernels.E_matrix", None),
    (kernels, "kernel_fb_fixed_order", "kernels.kernel_fb_fixed_order", _block),
    (kernels, "G_mask_matrix", "kernels.G_mask_matrix", None),
    (numpy.linalg, "eigh", "eigen.eigh", _eigh),
    (numpy.linalg, "eigvalsh", "eigen.eigh", _eigh),
    (scipy.linalg, "eigh", "eigen.eigh", _eigh),
    (eigen, "solve_fl", "eigen.solve", _solve),
    (eigen, "solve_fb", "eigen.solve", _solve),
    (eigen, "shannon_fl", "eigen.shannon", None),
    (eigen, "shannon_fb", "eigen.shannon", None),
    (transforms, "synthesis_fl", "transforms.synthesis_fl", _points),
    (transforms, "analysis_fl", "transforms.analysis_fl", None),
    (transforms, "slepian_coeffs", "transforms.slepian_coeffs", None),
    (transforms, "quality_measure", "transforms.quality_measure", None),
    (cli, "write_matrix", "cli.write_matrix", None),
    (cli, "read_matrix", "cli.read_matrix", None),
    (cli, "parse_region", "cli.parse_region", None),
]


def install(rec: Recorder) -> list[str]:
    """Wrap every layer function that exists; return the missing ones."""
    absent = []
    for module, attr, name, hook in LAYERS:
        fn = getattr(module, attr, None)
        if fn is None:
            absent.append(f"{module.__name__}.{attr}")
            continue
        setattr(module, attr, rec.wrap(name, fn, hook))
    return absent


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    rec = Recorder()
    absent = install(rec)
    t0 = time.perf_counter()
    rec.enter("cli.main")
    try:
        rc = cli.main(argv)
    finally:
        rec.exit()
        main_wall_s = time.perf_counter() - t0
    cache = getattr(getattr(specfun, "wigner_3j", None), "cache_info", None)
    info = cache() if cache is not None else None
    record = {
        "rc": rc,
        "import_s": import_s,
        "main_wall_s": main_wall_s,
        "absent": absent,
        "wigner_3j": None if info is None else {"hits": info.hits,
                                                "misses": info.misses},
        "stats": {name: {"calls": st.calls, "s": st.s, "cpu_s": st.cpu_s,
                         "self_s": st.self_s, "self_cpu_s": st.self_cpu_s,
                         **st.counters}
                  for name, st in rec.stats.items()},
    }
    with open(out_path, "w") as fh:
        json.dump(record, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
