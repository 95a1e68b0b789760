import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import scipy.optimize

from gausscorr.channels import (InputSpec, attenuate, cmr_noise, db_to_variance,
                                minimal_purification, tmsv_cm)
from gausscorr.core import (CovMatrix, ppt_min_eig, random_physical_cm, random_symplectic,
                            reduce, symplectic_spectrum, validate_physical)
from gausscorr import channels, correlations, scenarios
from gausscorr.correlations import (_oriented_invariants, discord,
                                    discord_oracle, entropy_f, geof)
from gausscorr.errors import InvalidInputError, NumericalError
from gausscorr.scenarios import (MODULATION_SOURCE, KWFlowPoint, ScenarioConfig, ScenarioState,
                                 SweepRow,
                                 attenuation_sweep, build_split_state,
                                 correlation_flow, duan_optimize,
                                 duan_value, optimal_demodulation,
                                 recover_demodulate, recover_interfere,
                                 recovery_closed_form, run_recovery)

SQUEEZED = InputSpec(kind="squeezed", squeezing_db=-3.0, v_x=9.84, v_p=38.4)
COHERENT = InputSpec(kind="coherent", squeezing_db=0.0, v_x=7.1, v_p=1.0)


def split_block_form(v_x, v_p):
    gin = np.diag([v_x, v_p])
    eye = np.eye(2)
    return 0.5 * np.block([[gin + eye, gin - eye], [gin - eye, gin + eye]])


def test_build_split_state_balanced_blocks():
    st = build_split_state(COHERENT, 0.5)
    eff = st.effective_cm(["A", "B"]).entries
    assert np.abs(eff - split_block_form(7.1, 1.0)).max() <= 1e-10
    assert np.abs(eff[:2, :2] - 0.5 * (np.diag([7.1, 1.0]) + np.eye(2))).max() <= 1e-10


def test_build_split_state_no_modulation_gives_vacua():
    spec = InputSpec(kind="coherent", squeezing_db=0.0, v_x=1.0, v_p=1.0)
    st = build_split_state(spec, 0.5)
    assert np.abs(st.effective_cm(["A", "B"]).entries - np.eye(4)).max() <= 1e-12


def test_build_split_state_squeezed_separable_but_discordant():
    st = build_split_state(SQUEEZED, 0.5)
    eff = st.effective_cm(["A", "B"])
    assert ppt_min_eig(eff) >= -1e-9
    assert discord(eff).discord > 0.1


def test_build_split_state_quantum_part_pure():
    st = build_split_state(SQUEEZED, 0.5)
    assert np.allclose(symplectic_spectrum(st.quantum_cm), 1.0, atol=1e-9)


def test_loadings_transform_covariantly():
    st = build_split_state(SQUEEZED, 0.5)
    rng = np.random.default_rng(4)
    s = random_symplectic(rng, 3)
    moved = st.apply_symplectic(s)
    direct = s.entries @ st.effective_cm().entries @ s.entries.T
    assert np.abs(moved.effective_cm().entries - direct).max() <= 1e-9


def test_split_state_purification_is_pure_and_reduces_to_ab():
    eff = build_split_state(SQUEEZED, 0.5).effective_cm(["A", "B"])
    pure = minimal_purification(eff)
    assert pure.n_modes == 3  # one symplectic eigenvalue above 1: one purifier
    assert np.allclose(symplectic_spectrum(pure), 1.0, atol=1e-8)
    assert np.abs(reduce(pure, [0, 1]).entries - eff.entries).max() <= 1e-9


def test_sweep_zero_loss_matches_build_state():
    st = build_split_state(SQUEEZED, 0.5)
    rows = attenuation_sweep(st, [1.0], cmr_a=0.0)
    assert rows[0].discord == pytest.approx(
        discord(st.effective_cm(["A", "B"])).discord, abs=1e-12)


def test_sweep_matches_oracle_on_grid():
    st = build_split_state(SQUEEZED, 0.5)
    grid = [1.0, 0.7, 0.4]
    rows = attenuation_sweep(st, grid, cmr_a=0.047)
    for row, t in zip(rows, grid):
        eff = st.attenuate_mode("B", t, keep_environment=False).effective_cm(["A", "B"])
        from gausscorr.channels import cmr_noise
        noisy = cmr_noise(eff, 0.047, t)
        assert abs(row.discord - discord_oracle(noisy)) <= 1e-4


def test_sweep_discord_shape_coherent_run():
    # with the detector-noise model the curve rises to mid losses and rolls
    # off toward strong attenuation
    st = build_split_state(COHERENT, 0.5)
    grid = list(np.linspace(1.0, 0.2, 9))
    rows = attenuation_sweep(st, grid, cmr_a=3.9e-3)
    vals = [r.discord for r in rows]
    assert all(b >= a - 1e-12 for a, b in zip(vals[:4], vals[1:5]))  # rising half
    assert vals[-1] < max(vals)                                     # eventual rolloff
    assert max(vals) == pytest.approx(0.1675, abs=2e-3)


def test_sweep_empty_grid():
    st = build_split_state(COHERENT, 0.5)
    assert attenuation_sweep(st, []) == []


def test_sweep_rejects_negative_cmr_on_every_grid():
    st = build_split_state(COHERENT, 0.5)
    for grid in ([], [1.0, 0.5]):
        with pytest.raises(InvalidInputError):
            attenuation_sweep(st, grid, cmr_a=-1.0)


def _reference_row(state, t, cmr_a):
    """One sweep point the per-point way: attenuate, add CMR noise, scalar discord."""
    eff = state.attenuate_mode("B", t, keep_environment=False).effective_cm(["A", "B"])
    g = cmr_noise(eff, cmr_a, t)
    rep = discord(g, measured_mode=1)
    s_a = entropy_f(max(np.sqrt(np.linalg.det(g.entries[:2, :2])), 1.0))
    return rep.discord, rep.mutual_info, rep.classical_corr, s_a


def _assert_rows_match_reference(state, grid, cmr_a, tol=1e-13):
    rows = attenuation_sweep(state, grid, cmr_a=cmr_a)
    assert [r.t for r in rows] == list(grid)
    for r, t in zip(rows, grid):
        got = (r.discord, r.mutual_info, r.classical_corr, r.s_a)
        assert np.abs(np.subtract(got, _reference_row(state, t, cmr_a))).max() <= tol, t


@settings(max_examples=40, deadline=None)
@given(run=st.sampled_from([COHERENT, SQUEEZED]),
       cmr_a=st.one_of(st.just(0.0), st.floats(0.0, 0.2), st.floats(1e-14, 1e-6)),
       grid=st.lists(st.one_of(st.sampled_from([0.0, 1e-15, 1e-12, 1.0]), st.floats(0.0, 1.0)),
                     min_size=1, max_size=12))
def test_stacked_sweep_matches_per_point_reference(run, cmr_a, grid):
    # B' near pure (t -> 0, |B - 1| below and above the 1e-13 shortcut) included
    _assert_rows_match_reference(build_split_state(run, 0.5), grid, cmr_a)


@pytest.mark.parametrize("run, cmr_a", [(COHERENT, 0.0), (COHERENT, 3.9e-3),
                                         (SQUEEZED, 0.0), (SQUEEZED, 0.047)])
def test_stacked_sweep_dense_grid_matches_per_point_reference(run, cmr_a):
    # without CMR noise both runs have nu_minus = 1, where f is steep: the two
    # paths agree to 1e-13 only because nu_minus^2 is taken as D / nu_plus^2
    grid = np.random.default_rng(1).uniform(0.0, 1.0, 301)
    _assert_rows_match_reference(build_split_state(run, 0.5), grid, cmr_a)


def test_stacked_sweep_at_the_branch_tie():
    # the squeezed run crosses the branch condition near t = 0.17; bisect t
    # until the two sides agree within the 1e-12 tie band, then sweep across it
    state = build_split_state(SQUEEZED, 0.5)

    def gap(t):
        eff = state.attenuate_mode("B", t, keep_environment=False).effective_cm(["A", "B"])
        a, b, c, d = _oriented_invariants(cmr_noise(eff, 0.047, t).entries, 1)
        lhs, rhs = (d - a * b) ** 2, (1 + b) * c * c * (a + d)
        return (lhs - rhs) / max(lhs, rhs)

    lo, hi = 0.1, 0.3
    assert gap(lo) > 0 > gap(hi)
    while hi - lo > 1e-15:
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if gap(mid) > 0 else (lo, mid)
    assert abs(gap(lo)) <= 1e-12
    grid = [lo, hi, np.nextafter(lo, 0.0), lo - 1e-13, hi + 1e-13, lo - 1e-9, hi + 1e-9]
    rows = attenuation_sweep(state, grid, cmr_a=0.047)
    assert {discord(cmr_noise(state.attenuate_mode("B", t, keep_environment=False)
                              .effective_cm(["A", "B"]), 0.047, t)).branch
            for t in (lo - 1e-9, hi + 1e-9)} == {"heterodyne-case", "homodyne-case"}
    assert len(rows) == len(grid)
    _assert_rows_match_reference(state, grid, 0.047)


def test_stacked_sweep_takes_no_per_point_path(monkeypatch):
    # without E_F the sweep builds no per-point state and runs no scalar discord
    def forbidden(*args, **kwargs):
        raise AssertionError("the sweep took the per-point path")
    state = build_split_state(SQUEEZED, 0.5)
    grid = list(np.linspace(1.0, 0.0, 21))
    expect = [_reference_row(state, t, 0.047) for t in grid]
    for module in (correlations, scenarios):
        monkeypatch.setattr(module, "discord", forbidden, raising=False)
    for module in (channels, scenarios):
        monkeypatch.setattr(module, "cmr_noise", forbidden, raising=False)
    monkeypatch.setattr(ScenarioState, "attenuate_mode", forbidden)
    rows = attenuation_sweep(state, grid, cmr_a=0.047)
    got = [(r.discord, r.mutual_info, r.classical_corr, r.s_a) for r in rows]
    assert np.abs(np.subtract(got, expect)).max() <= 1e-13


def test_sweep_s_a_constant():
    st = build_split_state(SQUEEZED, 0.5)
    rows = attenuation_sweep(st, [1.0, 0.6, 0.2], cmr_a=0.0)
    s_as = [r.s_a for r in rows]
    assert max(s_as) - min(s_as) <= 1e-10


def test_discord_measured_on_a_decreases_with_loss():
    st = build_split_state(SQUEEZED, 0.5)
    eff_full = st.effective_cm(["A", "B"])
    eff_half = st.attenuate_mode("B", 0.5, keep_environment=False).effective_cm(["A", "B"])
    d_full = discord(eff_full, measured_mode=0).discord
    d_half = discord(eff_half, measured_mode=0).discord
    assert d_half < d_full


def test_correlation_flow_small_grid():
    st = build_split_state(SQUEEZED, 0.5)
    pts = correlation_flow(st, [1.0, 0.5])
    for p in pts:
        assert abs(p.residual) <= 1e-2
    assert pts[0].s_a == pytest.approx(pts[1].s_a, abs=1e-10)
    assert pts[1].e_f_ae > pts[0].e_f_ae  # entanglement with environment grows
    assert pts[1].j_ab < pts[0].j_ab      # classical correlation drops


def test_correlation_flow_balance_to_machine_precision():
    # E_F has one purifying mode P here, so it is the closed-form measurement
    # infimum on (A, P) and the balance compares J on (A, B') with J on (A, P);
    # test_geof.test_k1_seed_chart_matches_general_path is the
    # independent search.  t = 0.49 and 0.51 were the slowest points of a
    # search over a full (non-minimal) purification
    grid = np.concatenate([np.linspace(1.0, 0.2, 9), [0.49, 0.51]])
    pts = correlation_flow(build_split_state(SQUEEZED, 0.5), grid)
    assert len(pts) == len(grid)
    assert max(abs(p.residual) for p in pts) <= 1e-12
    for p in pts:
        assert p.geof_feasibility_gap >= -1e-9


def test_correlation_flow_runs_no_search(monkeypatch):
    def no_search(*args, **kwargs):
        raise AssertionError("correlation_flow ran a Nelder-Mead search")
    monkeypatch.setattr(scipy.optimize, "minimize", no_search)
    pts = correlation_flow(build_split_state(SQUEEZED, 0.5), np.linspace(1.0, 0.2, 9))
    assert max(abs(p.residual) for p in pts) <= 1e-10


def _reference_flow_geof(state, t):
    """E_F of one flow point the per-point way: purify (A, B), attenuate B keeping V, GEoF."""
    pure = minimal_purification(state.effective_cm(["A", "B"]))
    a_env = [0, *range(2, pure.n_modes + 1)]  # A, the purifiers of (A, B) and the loss port V
    return geof(reduce(attenuate(pure, 1, t, keep_environment=True), a_env), a_mode=0)


UNMODULATED = InputSpec(kind="squeezed", squeezing_db=-3.0, v_x=db_to_variance(-3.0),
                        v_p=1.0 / db_to_variance(-3.0))


@pytest.mark.parametrize("state", [
    build_split_state(SQUEEZED, 0.5), build_split_state(COHERENT, 0.5),
    build_split_state(UNMODULATED, 0.5),
    build_split_state(SQUEEZED, 0.5).attenuate_mode("B", 0.6, keep_environment=False)],
    ids=["squeezed", "coherent", "unmodulated", "attenuated"])
def test_flow_matches_per_point_reference(state):
    # the flow builds every (A, P, V') CM from one purification's blocks
    grid = [0.0, 0.49, 0.51, 1.0, *np.linspace(0.0, 1.0, 101)]
    pts = correlation_flow(state, grid)
    assert len(pts) == len(grid)
    for p, t in zip(pts, grid):
        assert abs(p.e_f_ae - _reference_flow_geof(state, t).value) <= 1e-12, t
        assert p.geof_feasibility_gap >= -1e-9, t
    if minimal_purification(state.effective_cm(["A", "B"])).n_modes == 2:
        # pure (A, B): E is V alone, an untouched vacuum at t = 1
        assert pts[3].e_f_ae <= 1e-12 and pts[-1].e_f_ae <= 1e-12


def test_sweep_and_flow_rows_carry_python_floats():
    st = build_split_state(SQUEEZED, 0.5)
    for grid in ([1.0, 0.5, 0.0], np.linspace(1.0, 0.0, 3)):
        for row in (*attenuation_sweep(st, grid), *correlation_flow(st, grid)):
            assert type(row.t) is float


def test_flow_builds_no_covariance_matrix_per_point(monkeypatch):
    # one purification per sweep: the per-point work runs on plain arrays
    made = []
    post_init = CovMatrix.__post_init__

    def counting(self):
        made.append(1)
        post_init(self)
    monkeypatch.setattr(CovMatrix, "__post_init__", counting)
    st = build_split_state(SQUEEZED, 0.5)
    counts = []
    for grid in ([0.6], list(np.linspace(1.0, 0.2, 9))):
        made.clear()
        correlation_flow(st, grid)
        counts.append(len(made))
    assert counts[0] == counts[1] > 0


def test_sweep_carries_geof_diagnostics():
    # the flow carries the feasibility gap of each point's GEoF certificate;
    # the discord sweep's rows carry no E_F field
    st = build_split_state(SQUEEZED, 0.5)
    flow = correlation_flow(st, [1.0, 0.5])
    assert all(p.geof_feasibility_gap >= -1e-9 for p in flow)
    assert [f.name for f in dataclasses.fields(SweepRow)] == [
        "t", "discord", "mutual_info", "classical_corr", "s_a"]
    assert [f.name for f in dataclasses.fields(KWFlowPoint)] == [
        "t", "discord", "mutual_info", "classical_corr", "s_a", "e_f_ae",
        "geof_feasibility_gap"]


def test_flow_rows_describe_the_state_they_are_given():
    # E_F purifies the (A, B) CM the sweep reads, so the flow's S(A) and J
    # are the plain sweep's, also for a state transformed after the split
    grid = list(np.linspace(1.0, 0.2, 9))
    split = build_split_state(SQUEEZED, 0.5)
    for st in (split, split.attenuate_mode("B", 0.6, keep_environment=False)):
        plain = attenuation_sweep(st, grid)
        flow = correlation_flow(st, grid)
        assert len(flow) == len(grid)
        for p, f in zip(plain, flow):
            assert (f.t, f.s_a, f.j_ab) == (p.t, p.s_a, p.classical_corr)
            assert abs(f.residual) <= 1e-10
    # demodulated (A, B) has two symplectic eigenvalues above 1: three
    # environment modes, more than GEoF takes
    with pytest.raises(InvalidInputError):
        correlation_flow(recover_demodulate(split, 1.0), grid)


def test_flow_point_positional_construction():
    p = KWFlowPoint(0.5, 0.5, 1.25, 0.75, 2.0, 1.0, 0.0)
    assert p.j_ab == 0.75
    assert p.residual == 0.25
    assert p.geof_feasibility_gap == 0.0


def test_duan_two_vacua_boundary():
    rep = duan_value(np.eye(4), 1.0)
    assert rep.value == pytest.approx(1.0, abs=1e-12)
    assert not rep.entangled


def test_duan_tmsv_value():
    r = 0.45
    rep = duan_value(tmsv_cm(np.cosh(2 * r)).entries, 1.0, signs=(-1, 1))
    assert rep.value == pytest.approx(np.exp(-4 * r), rel=1e-10)
    best = duan_optimize(tmsv_cm(np.cosh(2 * r)))
    assert best.value <= np.exp(-4 * r) + 1e-12
    assert best.signs == (-1, 1)


@pytest.mark.parametrize("seed", [50, 190])
def test_duan_optimize_finds_the_global_minimum(seed):
    # a bounded Brent search over log g alone stops in a local minimum on these
    m = random_physical_cm(np.random.default_rng(seed), 2).entries
    dense = min(duan_value(m, g, (s, -s)).value
                for s in (1, -1) for g in np.exp(np.linspace(-6.0, 6.0, 2001)))
    best = duan_optimize(m)
    assert best.value <= dense * (1 + 1e-12)
    assert best.value == duan_value(m, best.g, best.signs).value


def test_duan_measured_cm_separable(measured_cm):
    assert duan_optimize(measured_cm).value >= 1.0 - 1e-9
    for g in (0.5, 1.0, 2.0):
        assert duan_value(measured_cm, g).value >= 1.0 - 1e-9


def test_duan_sign_validation():
    with pytest.raises(InvalidInputError):
        duan_value(np.eye(4), 1.0, signs=(1, 1))
    with pytest.raises(InvalidInputError):
        duan_value(np.eye(4), -1.0)


def test_duan_value_beyond_float_range_raises():
    # a gain of 1e100 raised a bare OverflowError from (g^2 + 1) ** 2
    for g in (1e100, 1e200):
        with pytest.raises(NumericalError):
            duan_value(np.eye(4), g)


def test_demodulate_kills_combination_loading():
    st = build_split_state(SQUEEZED, 0.5)
    g = 1.3
    out = recover_demodulate(st, g)
    ld = out.loading(MODULATION_SOURCE)
    ia, ib = out.mode_index("A"), out.mode_index("B")
    assert g * ld.vector[2 * ia] + ld.vector[2 * ib] == 0.0  # exact
    # residual on B is -g*T
    assert ld.vector[2 * ib] == pytest.approx(-g * np.sqrt(0.5), abs=1e-12)


def test_demodulate_balanced_prefactor_is_sqrt2():
    st = build_split_state(SQUEEZED, 0.5)
    out = recover_demodulate(st, 1.0)
    assert out.meta["demod_prefactor"] == pytest.approx(np.sqrt(2.0), abs=1e-12)


def test_demodulate_requires_modulation():
    spec = InputSpec(kind="coherent", squeezing_db=0.0, v_x=1.0, v_p=1.0)
    st = build_split_state(spec, 0.5)
    state_without = ScenarioState(mode_names=st.mode_names, quantum_cm=st.quantum_cm,
                                  loadings=())
    with pytest.raises(InvalidInputError):
        recover_demodulate(state_without, 1.0)


def test_demodulated_duan_matches_closed_form_grid():
    # ideal case: v_p equals the pure anti-squeezing level, any (r, T, g)
    for db in (-1.0, -3.0):
        s = db_to_variance(db)
        r = -0.5 * np.log(s)
        for bs_t in (0.5, 0.3):
            spec = InputSpec(kind="squeezed", squeezing_db=db, v_x=8.0, v_p=1 / s)
            st = build_split_state(spec, bs_t)
            for g in (0.7, 1.0, 1.6):
                got = duan_value(recover_demodulate(st, g).effective_cm(["A", "B"]), g).value
                expect = recovery_closed_form(r, np.sqrt(bs_t), g)
                assert got == pytest.approx(expect, abs=1e-9)


def test_optimal_demodulation_finds_the_global_minimum():
    # the demodulated Duan value is polynomial in g and can have several local
    # minima in log g; no point of a dense grid may beat the search.  The grid
    # CMs move only the modulation loading's x_B entry to -g l[x_A], as
    # recover_demodulate does (checked at three gains per state): building each
    # of the 4001 demodulated states would take about 20 s
    rng = np.random.default_rng(12)
    gs = np.exp(np.linspace(-6.0, 6.0, 4001))
    for k in range(50):
        if k % 2:
            v_x = rng.uniform(1.5, 30.0)
            spec = InputSpec(kind="squeezed", squeezing_db=-rng.uniform(0.5, 6.0),
                             v_x=v_x, v_p=v_x * rng.uniform(1.0, 6.0))
        else:
            spec = InputSpec(kind="coherent", squeezing_db=0.0,
                             v_x=rng.uniform(1.0, 30.0), v_p=rng.uniform(1.0, 3.0))
        st = build_split_state(spec, rng.uniform(0.05, 0.95))
        if k % 4 >= 2:
            st = st.attenuate_mode("B", rng.uniform(0.05, 1.0), keep_environment=False)
        ld = st.loading(MODULATION_SOURCE)
        ia, ib = 2 * st.mode_index("A"), 2 * st.mode_index("B")
        l = ld.vector[[ia, ia + 1, ib, ib + 1]]
        v = np.tile(l, (len(gs), 1))
        v[:, 2] = -gs * l[0]
        cms = (st.effective_cm(["A", "B"]).entries
               + ld.variance * (v[:, :, None] * v[:, None, :] - np.outer(l, l)))
        for j in rng.choice(len(gs), 3):
            want = recover_demodulate(st, gs[j]).effective_cm(["A", "B"]).entries
            assert np.abs(cms[j] - want).max() <= 1e-12 * np.abs(want).max()
        dense = min(duan_value(m, g).value for m, g in zip(cms, gs))
        _, rep = optimal_demodulation(st)
        assert rep.value <= dense * (1 + 1e-12)


def test_recovery_closed_form_values():
    assert recovery_closed_form(0.0, 1 / np.sqrt(2), 1.0) == pytest.approx(1.0, abs=1e-12)
    for r in np.arange(0.05, 1.0001, 0.05):
        val = recovery_closed_form(r, 1 / np.sqrt(2), 1.0)
        assert val == pytest.approx(np.exp(-2 * r), abs=1e-12)
        assert val < 1.0
    assert recovery_closed_form(0.346, 1 / np.sqrt(2), 1.0) == pytest.approx(0.5007, abs=1e-3)


def test_full_demodulation_pipeline_recovers_entanglement():
    st = build_split_state(SQUEEZED, 0.5)
    out, rep = optimal_demodulation(st)
    assert rep.entangled
    assert rep.value == pytest.approx(db_to_variance(-3.0), abs=1e-6)
    # the balanced split's optimum is g = 1; a grid and Brent cell stopped 2.6e-9 off
    assert abs(rep.g - 1.0) <= 1e-12


def test_interfere_pipeline_recovers_entanglement():
    st = build_split_state(SQUEEZED, 0.5)
    out = recover_interfere(st)
    rep = duan_optimize(out.effective_cm(["A", "B"]))
    assert rep.entangled
    assert 0.0 < out.meta["bs_t_be"] < 1.0


def test_interfere_finds_the_best_mix():
    # the Brent search over bs_t_be must not stop above any point of a grid
    rng = np.random.default_rng(31)
    grid = np.linspace(0.0, 1.0, 201)
    for k in range(10):
        if k % 4 < 2:
            db = -rng.uniform(0.5, 6.0)
            spec = InputSpec(kind="squeezed", squeezing_db=db, v_x=rng.uniform(1.5, 30.0),
                             v_p=rng.uniform(1 / db_to_variance(db), 60.0))
        else:
            spec = InputSpec(kind="coherent", squeezing_db=0.0,
                             v_x=rng.uniform(1.0, 30.0), v_p=rng.uniform(1.0, 3.0))
        st = build_split_state(spec, rng.uniform(0.05, 0.95))
        if k % 2:
            st = st.attenuate_mode("B", rng.uniform(0.05, 1.0), keep_environment=False)
        _, rep = run_recovery(st, "interfere")
        dense = min(duan_optimize(recover_interfere(st, t2).effective_cm(["A", "B"])).value
                    for t2 in grid)
        assert rep.value <= dense * (1 + 1e-9), k


def test_interfere_no_mixing_keeps_state_separable():
    st = build_split_state(SQUEEZED, 0.5)
    out = recover_interfere(st, bs_t_be=1.0)
    rep = duan_optimize(out.effective_cm(["A", "B"]))
    assert rep.value >= 1.0 - 1e-9
    assert np.abs(out.effective_cm(["A", "B"]).entries
                  - st.effective_cm(["A", "B"]).entries).max() <= 1e-12


def test_demodulate_beats_interfere():
    st = build_split_state(SQUEEZED, 0.5)
    _, demod = run_recovery(st, "demodulate")
    _, inter = run_recovery(st, "interfere")
    assert demod.value <= inter.value
    assert demod.entangled and inter.entangled


def test_run_recovery_rejects_unknown_mode():
    st = build_split_state(SQUEEZED, 0.5)
    with pytest.raises(InvalidInputError):
        run_recovery(st, "teleport")


def test_scenario_config_parsing():
    cfg = ScenarioConfig.from_dict({
        "input": {"kind": "squeezed", "squeezing_db": -3.0, "v_x": 9.84, "v_p": 38.4},
        "bs_t": 0.5,
        "attenuation_grid": [1.0, 0.5],
        "cmr_a": 0.047,
        "kw_columns": True,
    })
    assert cfg.input_spec.v_p == 38.4
    assert cfg.kw_columns


def test_scenario_config_rejects_unknown_keys():
    with pytest.raises(InvalidInputError):
        ScenarioConfig.from_dict({"input": {"v_x": 2, "v_p": 3}, "bs_t": 0.5, "oops": 1})
    with pytest.raises(InvalidInputError):
        ScenarioConfig.from_dict({"input": {"v_x": 2, "v_p": 3, "zzz": 0}, "bs_t": 0.5})


def test_effective_cm_physical_always():
    st = build_split_state(SQUEEZED, 0.5)
    for t in (1.0, 0.6, 0.2):
        eff = st.attenuate_mode("B", t).effective_cm()
        assert validate_physical(eff) >= -1e-9


def test_coherent_ensemble_separable_at_all_attenuations():
    st = build_split_state(COHERENT, 0.5)
    for t in np.linspace(1.0, 0.05, 12):
        eff = st.attenuate_mode("B", t, keep_environment=False).effective_cm(["A", "B"])
        assert ppt_min_eig(eff) >= -1e-9
