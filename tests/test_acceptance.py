"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Criteria 5a and 5b encode literal claims that the verified closed-form
discord (cross-checked against the independent measurement oracle to 1e-15)
contradicts; they are implemented as stated and fail honestly.  See the
repository notes for the analysis.
"""

import json
import time

import numpy as np
import pytest

from gausscorr.channels import InputSpec
from gausscorr.cli import main
from gausscorr.core import ppt_min_eig, reduce
from gausscorr.correlations import discord, discord_oracle, entropy_f, geof, kw_audit
from gausscorr.reference import (MEASURED_CM_STD_ERRORS, MEASURED_SPLIT_SQUEEZED_CM)
from gausscorr.sampling import (cm_resampling_pipeline, electronic_demodulation,
                                error_monte_carlo, estimate_cm, matched_sample_size,
                                sample)
from gausscorr.scenarios import (attenuation_sweep, build_split_state,
                                 correlation_flow, duan_value, optimal_demodulation,
                                 recover_demodulate, run_recovery)

from helpers import (attenuate_mode, cmr_noise, make_separable_cm, random_physical_cm,
                     random_symplectic, reconstructed_standard_form, recovery_closed_form,
                     split_standard_form)

SQUEEZED = InputSpec(kind="squeezed", squeezing_db=-3.0, v_x=9.84, v_p=38.4)
COHERENT = InputSpec(kind="coherent", squeezing_db=0.0, v_x=7.1, v_p=1.0)
NINE_POINT_GRID = np.linspace(1.0, 0.2, 9)


def _report(label, ok, detail):
    print(f"[acceptance] {label}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{label}: {detail}"


def test_criterion_1_headline_discord(measured_cm_file, capsys):
    t0 = time.perf_counter()
    code = main(["discord", "--cm", str(measured_cm_file)])
    elapsed = time.perf_counter() - t0
    out = json.loads(capsys.readouterr().out)
    with capsys.disabled():
        ok = code == 0 and abs(out["discord"] - 0.49) <= 0.01 and elapsed < 1.0
        _report("criterion 1 (headline discord)", ok,
                f"discord={out['discord']:.4f} (target 0.49 +- 0.01), {elapsed:.3f}s")


def test_criterion_2_separability_witness_and_error_bars():
    val = ppt_min_eig(MEASURED_SPLIT_SQUEEZED_CM)
    ok_val = abs(val - 0.84) <= 0.02

    n = matched_sample_size(MEASURED_SPLIT_SQUEEZED_CM, MEASURED_CM_STD_ERRORS)
    scalars = {
        "discord": lambda m: discord(m, 1, allow_measured=True).discord,
        "min_eig": lambda m: ppt_min_eig(m),
    }
    summ = error_monte_carlo(
        cm_resampling_pipeline(MEASURED_SPLIT_SQUEEZED_CM, n, scalars),
        trials=150, seed=12)
    d_std, m_std = summ["discord"].std, summ["min_eig"].std
    ok_spread = 0.002 <= d_std <= 0.03 and 0.002 <= m_std <= 0.04
    ok_means = (abs(summ["discord"].mean - 0.49) <= 0.01
                and abs(summ["min_eig"].mean - 0.84) <= 0.02)
    _report("criterion 2 (separability witness + MC errors)",
            ok_val and ok_spread and ok_means,
            f"min_eig={val:.4f} (0.84 +- 0.02); MC n={n}: "
            f"discord {summ['discord'].mean:.4f} +- {d_std:.4f}, "
            f"min_eig {summ['min_eig'].mean:.4f} +- {m_std:.4f}")


def test_criterion_3_oracle_equivalence():
    rng = np.random.default_rng(12345)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        cm = random_physical_cm(rng, 2)
        worst = max(worst, abs(discord(cm).discord - discord_oracle(cm)))
    elapsed = time.perf_counter() - t0
    _report("criterion 3 (oracle equivalence)",
            worst <= 1e-4 and elapsed < 60.0,
            f"max gap {worst:.2e} over 100 CMs in {elapsed:.1f}s")


def test_criterion_4_marginal_entropy_balance():
    state = build_split_state(SQUEEZED, 0.5)
    points = correlation_flow(state, NINE_POINT_GRID)
    worst = max(abs(p.residual) for p in points)
    audit = max(abs(kw_audit(p.s_a, p.j_ab, p.e_f_ae)) for p in points)
    _report("criterion 4 (marginal-entropy balance)",
            worst <= 1e-2 and audit <= 1e-2,
            f"max |S_A - J - E_F| = {worst:.2e} over {len(points)} points")


def test_criterion_5a_discord_nondecreasing_to_80pct_loss():
    state = build_split_state(COHERENT, 0.5)
    rows = attenuation_sweep(state, NINE_POINT_GRID, cmr_a=3.9e-3)
    vals = [r.discord for r in rows]
    drops = [(1 - rows[i + 1].t, vals[i + 1] - vals[i])
             for i in range(len(vals) - 1) if vals[i + 1] < vals[i] - 1e-12]
    ok = not drops
    _report("criterion 5a (discord non-decreasing to 80% loss)", ok,
            "monotone" if ok else
            f"decreases beyond ~45% loss, first drop at loss={drops[0][0]:.0%}; "
            "verified against the independent oracle (see notes)")


def test_criterion_5b_balanced_split_maximizes_zero_loss_discord():
    split_grid = np.linspace(0.1, 0.9, 9)
    vals = []
    for bs_t in split_grid:
        st = build_split_state(COHERENT, bs_t)
        vals.append(discord(cmr_noise(st.effective_cm(["A", "B"]), 3.9e-3, 1.0)).discord)
    argmax = split_grid[int(np.argmax(vals))]
    ok = abs(argmax - 0.5) < 1e-9
    _report("criterion 5b (balanced split maximizes zero-loss discord)", ok,
            f"argmax at t={argmax:.2f}"
            + ("" if ok else " (0.70 per the verified closed form; see notes)"))


def test_criterion_5c_curve_heights_match_oracle():
    state = build_split_state(COHERENT, 0.5)
    rows = attenuation_sweep(state, NINE_POINT_GRID, cmr_a=3.9e-3)
    worst = 0.0
    for row in rows:
        eff = attenuate_mode(state, "B", row.t).effective_cm(["A", "B"])
        noisy = cmr_noise(eff, 3.9e-3, row.t)
        worst = max(worst, abs(row.discord - discord_oracle(noisy)))
    _report("criterion 5c (curve heights vs internal oracle)", worst <= 1e-4,
            f"max |closed - oracle| = {worst:.2e}")


def test_criterion_6_optimality_certificate():
    from gausscorr.optimality import certify, decomposition_params
    cert = certify(9.84, 38.4)
    eta_gap = abs(cert.eta - (1.0 - cert.tau_channel))
    worst = 0.0
    for v_x in np.linspace(1.2, 12.0, 20):
        for v_p in np.linspace(v_x + 0.3, 45.0, 20):
            ours = np.array(split_standard_form(v_x, v_p))
            recon = np.array(reconstructed_standard_form(decomposition_params(v_x, v_p)))
            worst = max(worst, np.abs(ours - recon).max())
    _report("criterion 6 (optimality certificate)",
            cert.certified and eta_gap <= 1e-12 and worst <= 1e-9,
            f"certified={cert.certified}, |eta-(1-tau)|={eta_gap:.1e}, "
            f"round trip max {worst:.1e} on 20x20 grid")


def test_criterion_7_recovery_closed_form():
    worst = 0.0
    all_entangled = True
    for r in np.arange(0.05, 1.0001, 0.05):
        val = recovery_closed_form(r, 1 / np.sqrt(2), 1.0)
        worst = max(worst, abs(val - np.exp(-2 * r)))
        all_entangled &= val < 1.0
    _report("criterion 7 (recovery closed form)",
            worst <= 1e-12 and all_entangled,
            f"max |value - e^(-2r)| = {worst:.1e}; entangled for all r > 0")


def test_criterion_8_recovery_pipeline():
    state = build_split_state(SQUEEZED, 0.5)
    _, demod = run_recovery(state, "demodulate")
    _, inter = run_recovery(state, "interfere")
    ok_violation = demod.value < 1.0 and inter.value < 1.0
    ok_order = demod.value <= inter.value + 1e-12

    g = demod.g
    batch = sample(state, 1_000_000, seed=77)
    demod_batch = electronic_demodulation(batch, g, np.sqrt(0.5), np.sqrt(0.5))
    est = estimate_cm(demod_batch)
    sampled = duan_value(reduce(est.cm, [0, 1]), g).value
    cm_level = duan_value(recover_demodulate(state, g).effective_cm(["A", "B"]), g).value
    tol = 5 * (2.0 / np.sqrt(batch.n)) * cm_level
    ok_sample = abs(sampled - cm_level) <= tol
    _report("criterion 8 (recovery pipeline)",
            ok_violation and ok_order and ok_sample,
            f"demodulate {demod.value:.4f} <= interfere {inter.value:.4f} < 1; "
            f"sampled {sampled:.4f} vs CM {cm_level:.4f} (tol {tol:.4f})")


def test_criterion_9_sampling_statistics():
    vac = build_split_state(InputSpec(kind="coherent", squeezing_db=0.0,
                                      v_x=1.0, v_p=1.0), 0.5)
    batch = sample(vac, 1_000_000, seed=5)
    est = estimate_cm(batch)
    dev = np.abs(est.cm.entries - np.eye(6)) / est.std_errors
    ok_vacuum = dev.max() <= 5.0

    state = build_split_state(SQUEEZED, 0.5)
    ratios = []
    for k in range(20):
        se_n = estimate_cm(sample(state, 4000, seed=2000 + k)).std_errors
        se_2n = estimate_cm(sample(state, 8000, seed=3000 + k)).std_errors
        ratios.append((se_2n / se_n).mean())
    ok_scale = abs(np.mean(ratios) - 1 / np.sqrt(2)) <= 0.1 / np.sqrt(2)

    b1 = sample(state, 10000, seed=31)
    b2 = sample(state, 10000, seed=31)
    ok_seed = (np.array_equal(b1.columns, b2.columns)
               and all(np.array_equal(b1.displacement_record[k],
                                      b2.displacement_record[k])
                       for k in b1.displacement_record))
    _report("criterion 9 (sampling statistics)",
            ok_vacuum and ok_scale and ok_seed,
            f"vacuum max dev {dev.max():.2f} SE; scaling ratio "
            f"{np.mean(ratios):.4f} vs {1/np.sqrt(2):.4f}; seeded determinism {ok_seed}")


def test_criterion_10_geof_sanity(measured_cm):
    worst_sep = geof(measured_cm).value
    for k in range(19):
        cm = make_separable_cm(np.random.default_rng(7000 + k))
        worst_sep = max(worst_sep, geof(cm).value)

    from gausscorr.channels import tmsv_cm
    from gausscorr.core import apply_symplectic
    from gausscorr.correlations import von_neumann_entropy
    worst_pure = 0.0
    for m in (1.0, 1.5, 2.5, 4.0):
        res = geof(tmsv_cm(m))
        worst_pure = max(worst_pure, abs(res.value - entropy_f(m)))
    for k in range(4):
        rng = np.random.default_rng(8000 + k)
        pure = apply_symplectic(np.eye(4), random_symplectic(rng, 2))
        res = geof(pure)
        worst_pure = max(worst_pure,
                         abs(res.value - von_neumann_entropy(reduce(pure, [0]))))
    _report("criterion 10 (GEoF sanity)",
            worst_sep <= 1e-4 and worst_pure <= 1e-6,
            f"max GEoF over 20 separable CMs {worst_sep:.2e}; "
            f"pure-state gap {worst_pure:.2e}")
