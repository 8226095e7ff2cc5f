"""Closed-form intensities checked against brute-force integration.

The coincidence and event-mixed intensities have closed forms, but
every formula here is also an integral one can do the dumb way. This
script recomputes a few points with the Monte-Carlo oracle and prints
value, standard error, and the pull of the closed form, plus the pair
normalization through both the quadrature and sampling paths.

Runs in a few seconds; bump SAMPLES for tighter error bars.
"""

import dataclasses

from paircorr import (
    ModelParams,
    QuadratureSpec,
    SpinChannel,
    accidental_intensity,
    coincidence_intensity,
    intensity_cor_oracle,
    intensity_uncor_oracle,
    phi_norm_oracle,
)

SAMPLES = 200_000


def main():
    sigma, f, split = 0.5, 0.4, 0.7
    params = ModelParams(sigma=sigma, p_split=(0.0, 0.0, split), triplet_fraction=f)
    spec = QuadratureSpec(method="monte-carlo", sample_count=SAMPLES, target_rel_tol=0.05)

    print(f"sigma = {sigma}, f = {f}, p~ = {split} a.u., {SAMPLES} samples per oracle call")
    print()
    print("  dp      what        closed        oracle        se        pull")
    for dp in (0.3, 0.8, 1.5):
        rows = (
            ("I_cor", float(coincidence_intensity(dp, sigma, f, split)),
             intensity_cor_oracle(dp, params, spec)),
            ("I_unc", float(accidental_intensity(dp, sigma, f, split)),
             intensity_uncor_oracle(dp, params, spec)),
        )
        for what, closed, got in rows:
            pull = (got.value - closed) / got.est_error
            print(
                f"  {dp:4.2f}  {what:6s}  {closed:.6e}  {got.value:.6e}"
                f"  {got.est_error:.1e}  {pull:+5.2f}"
            )
    print()
    print("pair normalization (should be 1 exactly):")
    quad = QuadratureSpec(method="tensor-quadrature", nodes_per_axis=48)
    mc = QuadratureSpec(method="monte-carlo", sample_count=SAMPLES, target_rel_tol=0.05)
    # one pure channel of unit yield: the mixture at f = 0 or f = 1
    for channel, pure_f in ((SpinChannel.SINGLET, 0.0), (SpinChannel.TRIPLET, 1.0)):
        pure = dataclasses.replace(params, triplet_fraction=pure_f)
        rq = phi_norm_oracle(pure, quad)
        rm = phi_norm_oracle(pure, mc)
        print(
            f"  {channel.name.lower():7s} quadrature {rq.value:.12f}"
            f"   monte-carlo {rm.value:.6f} +- {rm.est_error:.1e}"
        )
    print()
    print("pulls should sit within a few units; a drifting pull as you")
    print("raise SAMPLES is how a formula error would announce itself.")


if __name__ == "__main__":
    main()
