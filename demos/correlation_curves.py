"""Correlation curves of a singlet/triplet mixture at small splitting.

With the splitting momentum well below the packet width, the pure
singlet curve is a broad positive bump while the triplet one is pinned
to -1 at zero momentum difference. Mixing them makes R(dp) change sign
twice: negative at small dp (Pauli node), positive in the middle,
negative again in the tail. This script tabulates that alternation for
a few spin-flip probabilities f.

All quantities are in Hartree atomic units.
"""

import numpy as np

from paircorr import correlation_R


def main():
    sigma = 0.22
    split = 0.1 * sigma
    dp = np.linspace(0.05, 10.0, 12)

    print(f"sigma = {sigma} a.u., splitting p~ = {split} a.u.")
    print()
    header = "  dp/sigma   R(f=0)     R(f=0.5)   R(f=0.75)  R(f=1)"
    print(header)
    print("-" * len(header))
    curves = [np.atleast_1d(correlation_R(dp, sigma, f, split)) for f in (0.0, 0.5, 0.75, 1.0)]
    for i, x in enumerate(dp):
        row = "  ".join(f"{c[i]:+9.4f}" for c in curves)
        print(f"  {x / sigma:8.2f}  {row}")

    print()
    for f in (0.5, 0.75, 1.0):
        grid = np.linspace(0.005, 10.0, 4000)
        r = np.atleast_1d(correlation_R(grid, sigma, f, split))
        crossings = grid[np.nonzero(np.diff(np.sign(r)))[0]]
        peak = grid[np.argmax(r)]
        print(
            f"f = {f}: zero crossings at dp = "
            + ", ".join(f"{c:.3f}" for c in crossings)
            + f"; maximum R = {r.max():+.4f} at dp = {peak:.3f} ({peak / sigma:.2f} sigma)"
        )


if __name__ == "__main__":
    main()
