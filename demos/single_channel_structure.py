"""Anatomy of one spin channel: overlap, densities, and pure curves.

The degree of exchange (anti)correlation is set by a single number, the
overlap J = exp(-p~^2 / 8 sigma^2) of the two wavepackets. This script
walks through the pieces: the overlap itself, the symmetrized pair
density at a few momentum points, the coordinate-space width the
momentum width implies, and the pure singlet (R0, f = 0) and triplet
(R1, f = 1) correlation curves as the splitting grows from degenerate
to well separated.

All quantities are in Hartree atomic units.
"""

import dataclasses

import numpy as np

from paircorr import (
    ModelParams,
    SpinChannel,
    coordinate_uncertainty,
    correlation_R,
    mixture_density,
)


def main():
    sigma = 0.5
    print(f"sigma = {sigma} a.u. -> coordinate width {coordinate_uncertainty(sigma):.3f} a.u.")
    print()

    print("overlap J and its square (the correlation strength):")
    for ratio in (0.25, 0.5, 1.0, 2.0, 4.0):
        j = ModelParams(sigma=sigma, p_split=ratio * sigma).overlap()
        print(f"  p~ = {ratio:4.2f} sigma: J = {j:.6f}, J^2 = {j * j:.6f}")
    print()

    # a pure channel is the singlet/triplet mixture at f = 0 or f = 1
    singlet = ModelParams(sigma=sigma, p_split=(0.0, 0.0, 0.5))
    triplet = dataclasses.replace(singlet, triplet_fraction=1.0)
    p = np.array([0.1, -0.2, 0.25])
    print("pair density at p1 = -p2 = ", p, ":")
    for channel, params in ((SpinChannel.SINGLET, singlet), (SpinChannel.TRIPLET, triplet)):
        d = float(mixture_density(p, -p, params))
        print(f"  {channel.name.lower():7s} {d:.6e}")
    same = float(mixture_density(p, p, triplet))
    print(f"  triplet at p1 = p2 (Pauli node): {same:.3e}")
    print()

    dp = np.linspace(0.0, 3.0, 7)
    print("pure curves vs splitting (rows: dp in a.u.):")
    ratios = (0.25, 1.0, 3.0)
    print("           " + "  ".join(f"p~={r:4.2f}sig        " for r in ratios))
    for x in dp:
        cells = []
        for r in ratios:
            r0 = float(correlation_R(x, sigma, 0.0, r * sigma))
            r1 = float(correlation_R(x, sigma, 1.0, r * sigma))
            cells.append(f"R0 {r0:+.3f} R1 {r1:+.3f}")
        print(f"  dp={x:4.2f}  " + "  ".join(cells))
    print()
    print("R1 -> -1 as dp -> 0 in every column: two fermions in the same")
    print("spin state never arrive with identical momenta. R0 mirrors it")
    print("positively, and both fade once the packets stop overlapping.")


if __name__ == "__main__":
    main()
