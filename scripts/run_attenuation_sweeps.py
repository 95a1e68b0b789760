#!/usr/bin/env python3
"""Discord-versus-attenuation curves for the coherent and squeezed runs.

Runs `gausscorr sweep --config scripts/configs/<name>.json` for each scenario
and writes the CSVs into results/ (created if missing).
"""

import os
import sys

from gausscorr.cli import main as gausscorr

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(os.path.dirname(HERE), "results")
RUNS = (("coherent_sweep.json", "discord_vs_loss_coherent.csv"),
        ("squeezed_sweep.json", "discord_vs_loss_squeezed.csv"))


def main():
    os.makedirs(OUT_DIR, exist_ok=True)
    for config, out_name in RUNS:
        path = os.path.join(OUT_DIR, out_name)
        code = gausscorr(["sweep", "--config", os.path.join(HERE, "configs", config),
                          "--out", path])
        if code:
            return code
        with open(path) as fh:
            print(f"wrote {path}\n{fh.read()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
