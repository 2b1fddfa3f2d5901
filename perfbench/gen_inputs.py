"""Write the seeded inputs of the fl_mask_project workload.

Usage: python3 gen_inputs.py <outdir> <seed> <band>

Writes <outdir>/pixels.txt, the sparsity-demo patch 0.9 < theta < 1.3,
0.6 < phi < 1.3 on the exact sphere grid of band limit <band>, and
<outdir>/signal.mat, a signal with 99% of its energy in a span of
well-concentrated eigenfunctions and 1% in its orthogonal complement,
sampled on the band's analysis grid (P = L = <band>).

The in-region part is drawn from the eigenfunctions with lambda > 0.5 of
rank below floor(N).  At band 32, 76 eigenvalues exceed 0.5 but N = 72.4,
so a signal spread over all of them keeps only Q(72) = 0.96; restricting
to rank < floor(N) makes the gate Q(floor(N)) >= 0.99 a property of a
correct projection rather than of the draw.
"""

import math
import sys
from pathlib import Path

import numpy as np

import slepian_ball as sb
from slepian_ball import cli, transforms


def main() -> int:
    out, seed, n = Path(sys.argv[1]), int(sys.argv[2]), int(sys.argv[3])
    out.mkdir(parents=True, exist_ok=True)
    band = sb.FourierLaguerreBand(n, n)
    mask = sb.AngularMask.full_sphere_grid(
        n, indicator=lambda t, p: ((t > 0.9) & (t < 1.3)
                                   & (p > 0.6) & (p < 1.3)).astype(float))
    np.savetxt(out / "pixels.txt",
               np.column_stack([mask.theta, mask.phi, mask.indicator]),
               fmt="%.17g")
    res = sb.solve_fl(sb.ProductMask(mask, 15.0, 25.0), band)
    n_in = min(int((res.eigenvalues > 0.5).sum()), math.floor(res.shannon))
    F = res.vectors(n_in)
    rng = np.random.default_rng(seed)
    w = rng.normal(size=band.size) + 1j * rng.normal(size=band.size)
    h_in = F @ (F.conj().T @ w)
    h_in *= math.sqrt(0.99) / np.linalg.norm(h_in)
    w2 = rng.normal(size=band.size) + 1j * rng.normal(size=band.size)
    h_out = w2 - F @ (F.conj().T @ w2)
    h_out *= math.sqrt(0.01) / np.linalg.norm(h_out)
    h = sb.HarmonicCoeffs(h_in + h_out, band)
    vals = transforms.synthesis_fl_grid(h, transforms.analysis_grid(band))
    cli.write_matrix(str(out / "signal.mat"), vals.reshape(vals.shape[0], -1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
