#!/usr/bin/env python3
"""Correlation flow in the pure global model along the attenuation grid.

For each attenuation the marginal entropy of A, the one-way classical
correlation with B, and the entanglement of formation between A and the
environment side (purifier plus loss ancilla) are computed, and their balance
residual is reported.  E_F has one purifying mode here and is the closed-form
measurement infimum on it (see README, Numerical notes).  Writes
results/correlation_flow.csv.
"""

import json
import os

from gausscorr.scenarios import ScenarioConfig, build_split_state, correlation_flow

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(os.path.dirname(HERE), "results")


def main():
    with open(os.path.join(HERE, "configs", "correlation_flow.json")) as fh:
        cfg = ScenarioConfig.from_dict(json.load(fh))
    state = build_split_state(cfg.input_spec, cfg.bs_t)
    points = correlation_flow(state, cfg.attenuation_grid, geof_restarts=5, seed=42)

    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, "correlation_flow.csv")
    with open(path, "w") as fh:
        fh.write("t,S_A,J_AB,E_F_AE,residual\n")
        for p in points:
            # residual on an absolute 1e-12 grid, so rounding noise leaves the file as is
            fh.write(f"{p.t:.10g},{p.s_a:.10g},{p.j_ab:.10g},"
                     f"{p.e_f_ae:.10g},{round(p.residual, 12) + 0.0:.3e}\n")
    print(f"wrote {path}")
    print("t      S_A      J_AB     E_F_AE   residual")
    for p in points:
        print(f"{p.t:.2f}  {p.s_a:.5f}  {p.j_ab:.5f}  {p.e_f_ae:.5f}  {p.residual:+.2e}")


if __name__ == "__main__":
    main()
