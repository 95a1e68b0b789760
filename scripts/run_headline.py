#!/usr/bin/env python3
"""Headline numbers for the measured split-squeezed covariance matrix.

Prints the discord report, the separability witness, and Monte-Carlo error
bars obtained by re-estimating the CM with the sample size implied by the
measured per-entry errors.
"""

from gausscorr import (discord, error_monte_carlo, cm_resampling_pipeline,
                       matched_sample_size, ppt_min_eig, validate_physical)
from gausscorr.reference import (MEASURED_CM_STD_ERRORS,
                                 MEASURED_SPLIT_SQUEEZED_CM)


def main():
    cm = MEASURED_SPLIT_SQUEEZED_CM
    rep = discord(cm, measured_mode=1)
    print(f"discord (measure B):   {rep.discord:.4f}  [{rep.branch}]")
    print(f"mutual information:    {rep.mutual_info:.4f}")
    print(f"classical correlation: {rep.classical_corr:.4f}")
    print(f"PPT witness min eig:   {ppt_min_eig(cm):.4f}  (>= 0: separable)")
    print(f"physicality min eig:   {validate_physical(cm):.4f}")

    n = matched_sample_size(cm, MEASURED_CM_STD_ERRORS)
    scalars = {
        "discord": lambda m: discord(m, 1, allow_measured=True).discord,
        "min_eig": ppt_min_eig,
    }
    summary = error_monte_carlo(cm_resampling_pipeline(cm, n, scalars),
                                trials=300, seed=12)
    print(f"\nMonte-Carlo error bars (matched sample size n={n}):")
    for name, s in summary.items():
        print(f"  {name}: {s.mean:.4f} +- {s.std:.4f}")


if __name__ == "__main__":
    main()
