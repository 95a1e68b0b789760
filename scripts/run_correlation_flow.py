#!/usr/bin/env python3
"""Correlation flow S_A = J + E_F in the pure global model along the attenuation grid.

Runs `gausscorr sweep --config scripts/configs/correlation_flow.json`, whose
`kw_columns` add E_F_AE, S_A and the balance residual to the discord columns
(J is `classical_corr`), and writes results/correlation_flow.csv.
"""

import os
import sys

from gausscorr.cli import main as gausscorr

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(os.path.dirname(HERE), "results")


def main():
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, "correlation_flow.csv")
    code = gausscorr(["sweep", "--config", os.path.join(HERE, "configs", "correlation_flow.json"),
                      "--out", path])
    if code:
        return code
    with open(path) as fh:
        print(f"wrote {path}\n{fh.read()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
