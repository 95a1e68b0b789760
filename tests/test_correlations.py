import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
import scipy.optimize

from gausscorr.channels import beamsplitter, tmsv_cm, tmsv_from_squeezing
from gausscorr.core import (apply_symplectic, random_physical_cm, random_symplectic,
                            reduce, tensor)
import gausscorr.correlations as corr
from gausscorr.correlations import (BRANCH_TIE_TOL, MeasurementSeed, _e_profile,
                                    _oracle_infimum, _oriented_invariants, _seed_chart,
                                    classical_correlation, conditional_cm, discord,
                                    discord_oracle, entropy_f, kw_audit,
                                    mutual_information, von_neumann_entropy)
from gausscorr.errors import InvalidInputError, NonPhysicalStateError


def test_entropy_f_values():
    assert entropy_f(1.0) == 0.0
    assert entropy_f(3.0) == pytest.approx(2 * np.log(2.0), rel=1e-12)
    assert entropy_f(1.0 - 5e-7) == 0.0  # clamped


def test_entropy_f_monotone():
    xs = np.linspace(1.0, 50.0, 200)
    vals = [entropy_f(x) for x in xs]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_entropy_f_rejects_below_clamp():
    with pytest.raises(InvalidInputError):
        entropy_f(0.99)


def test_von_neumann_entropy_cases():
    assert von_neumann_entropy(np.eye(4)) == 0.0
    assert von_neumann_entropy(np.diag([3.0, 3.0])) == pytest.approx(entropy_f(3.0))
    assert von_neumann_entropy(tmsv_from_squeezing(0.6)) == pytest.approx(0.0, abs=1e-8)


def test_conditional_cm_product_state():
    g = np.diag([2.0, 0.7, 3.0, 3.0])
    eps = conditional_cm(g, 1, MeasurementSeed(theta=0.3, s=2.0))
    assert np.allclose(eps.entries, np.diag([2.0, 0.7]))


def test_conditional_cm_tmsv_heterodyne():
    m = 2.5
    eps = conditional_cm(tmsv_cm(m), 1, np.eye(2))
    assert np.allclose(eps.entries, np.eye(2), atol=1e-12)
    assert np.linalg.det(eps.entries) < m * m  # measurement reduces uncertainty


def test_conditional_cm_singular_seed():
    g = tmsv_cm(2.0).entries
    with pytest.raises(Exception):
        conditional_cm(g, 1, -g[2:, 2:])


def test_discord_product_state_zero():
    g = np.diag([2.0, 2.0, 3.0, 3.0])
    rep = discord(g)
    assert rep.discord == pytest.approx(0.0, abs=1e-10)
    assert rep.mutual_info == pytest.approx(0.0, abs=1e-10)


def test_discord_measured_cm(measured_cm):
    rep = discord(measured_cm, measured_mode=1)
    assert rep.discord == pytest.approx(0.49, abs=0.01)
    assert rep.branch == "heterodyne-case"
    assert not rep.clamped
    assert rep.discord == pytest.approx(rep.mutual_info - rep.classical_corr, abs=1e-12)


def test_discord_frozen_value(measured_cm):
    # value pinned from this implementation; guards against regressions
    assert discord(measured_cm).discord == pytest.approx(0.4918751, abs=1e-6)


def test_discord_requires_physicality_without_flag():
    bad = np.diag([0.5, 0.5, 1.0, 1.0])
    with pytest.raises(NonPhysicalStateError):
        discord(bad)
    rep = discord(bad, allow_measured=True)
    assert rep.clamped


def test_discord_split_modulated_coherent_matches_oracle():
    gin = np.diag([7.1, 1.0])
    g = 0.5 * np.block([[gin + np.eye(2), gin - np.eye(2)],
                        [gin - np.eye(2), gin + np.eye(2)]])
    closed = discord(g).discord
    oracle = discord_oracle(g)
    assert abs(closed - oracle) <= 1e-5


def test_discord_oracle_product_state():
    g = np.diag([2.0, 2.0, 3.0, 3.0])
    assert abs(discord_oracle(g) - discord(g).discord) <= 1e-10


def test_discord_oracle_squeezed_thermal_heterodyne():
    # locally squeezed TMSV: heterodyne branch, verified against the oracle
    sq = np.eye(4)
    sq[0, 0], sq[1, 1] = 1.2, 1 / 1.2
    g = apply_symplectic(tmsv_cm(2.0), sq)
    rep = discord(g)
    assert rep.branch == "heterodyne-case"
    assert abs(discord_oracle(g) - rep.discord) <= 1e-5


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_discord_closed_vs_oracle_random(seed):
    rng = np.random.default_rng(seed)
    cm = random_physical_cm(rng, 2)
    assert abs(discord(cm).discord - discord_oracle(cm)) <= 1e-4


@pytest.mark.parametrize("mode", [-1, 2])
def test_discord_oracle_rejects_bad_measured_mode(mode):
    with pytest.raises(InvalidInputError):
        discord_oracle(tmsv_cm(2.0), measured_mode=mode)


def _blocks(g, measured_mode):
    kept = 1 - measured_mode
    return (g[2 * kept:2 * kept + 2, 2 * kept:2 * kept + 2],
            g[2 * measured_mode:2 * measured_mode + 2, 2 * measured_mode:2 * measured_mode + 2],
            g[2 * kept:2 * kept + 2, 2 * measured_mode:2 * measured_mode + 2])


@pytest.mark.parametrize("mode", [0, 1])
def test_seed_chart_matches_conditional_update(mode):
    rng = np.random.default_rng(2024)
    for _ in range(5):
        g = random_physical_cm(rng, 2).entries
        alpha, beta, delta = _blocks(g, mode)
        det_eps = _seed_chart(alpha, beta, delta)
        for theta in np.linspace(0.0, np.pi, 7):
            c2, s2 = np.cos(2 * theta), np.sin(2 * theta)
            # e = 0: homodyne of the quadrature v perpendicular to u = (cos, sin)
            v = np.array([-np.sin(theta), np.cos(theta)])
            dv = delta @ v
            homodyne = np.linalg.det(alpha - np.outer(dv, dv) / (v @ beta @ v))
            assert det_eps(c2, s2, 0.0) == pytest.approx(homodyne, rel=1e-13)
            # e > 0: the seed R(theta) diag(1/e, e) R(theta)^T
            for e in (1e-3, 0.3, 1.0):
                eps = conditional_cm(g, mode, MeasurementSeed(theta=theta, s=1.0 / e))
                assert det_eps(c2, s2, e) == pytest.approx(
                    np.linalg.det(eps.entries), rel=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from([0, 1]))
def test_discord_oracle_homodyne_case(seed, mode):
    cm = random_physical_cm(np.random.default_rng(seed), 2)
    rep = discord(cm, measured_mode=mode)
    assume(rep.branch == "homodyne-case")
    assert abs(rep.discord - discord_oracle(cm, measured_mode=mode)) <= 1e-10


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6), st.floats(-11.0, np.log10(2e-3)), st.sampled_from([0, 1]))
@example(0, -9.5, 1)
def test_discord_oracle_near_pure_measured_mode(seed, log_leak, mode):
    # a squeezed thermal mode leaks 1e-11 to 2e-3 of its power into vacuum
    rng = np.random.default_rng(seed)
    nu = rng.uniform(1.2, 2.5)
    inner = np.eye(4)
    inner[:2, :2] = random_symplectic(rng, 1).entries
    outer = np.eye(4)
    outer[:2, :2] = random_symplectic(rng, 1).entries
    outer[2:, 2:] = random_symplectic(rng, 1).entries
    g = np.diag([nu, nu, 1.0, 1.0])
    for s in (inner, beamsplitter(1.0 - 10 ** log_leak).entries, outer):
        g = s @ g @ s.T
    if mode == 0:
        g = g[[2, 3, 0, 1]][:, [2, 3, 0, 1]]
    _, beta, _ = _blocks(g, mode)
    assert np.sqrt(np.linalg.det(beta)) - 1.0 <= 1e-2
    rep = discord(g, measured_mode=mode)
    assert abs(rep.discord - discord_oracle(g, measured_mode=mode)) <= 1e-10


def _split_coherent_cm():
    # rank-one cross block: the e quadratic of the profile vanishes at theta = pi/4
    gin = np.diag([7.1, 1.0])
    return 0.5 * np.block([[gin + np.eye(2), gin - np.eye(2)],
                           [gin - np.eye(2), gin + np.eye(2)]])


def test_e_profile_is_the_minimum_over_e():
    # the exact e step against a dense e grid of the chart, no closed form involved
    rng = np.random.default_rng(31)
    cms = [random_physical_cm(rng, 2).entries for _ in range(20)]
    squeezed_vacuum = apply_symplectic(np.eye(2), random_symplectic(rng, 1, 1.0))
    cms += [np.diag([2.0, 2.0, 3.0, 3.0]),                              # product state
            tensor(squeezed_vacuum, random_physical_cm(rng, 1)).entries,  # decoupled mode
            _split_coherent_cm()]
    es = np.linspace(0.0, 1.0, 2001)
    thetas = np.append(np.linspace(0.0, np.pi, 7, endpoint=False), np.pi / 4)
    for i, g in enumerate(cms):
        blocks = _blocks(g, i % 2)
        det_eps, profile = _seed_chart(*blocks), _e_profile(*blocks)
        for theta in thetas:
            c2, s2 = np.cos(2 * theta), np.sin(2 * theta)
            value, e = profile(c2, s2)
            floor = det_eps(c2, s2, es).min()
            assert 0.0 <= e <= 1.0
            assert value <= floor + 1e-12 * abs(floor)
            assert value == det_eps(c2, s2, e)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from([0, 1]))
def test_oracle_optimum_matches_closed_form_branch(seed, mode):
    cm = random_physical_cm(np.random.default_rng(seed), 2).entries
    a, b, c, d = _oriented_invariants(cm, mode)
    lhs, rhs = (d - a * b) ** 2, (1 + b) * c * c * (a + d)
    assume(abs(lhs - rhs) > BRANCH_TIE_TOL * max(abs(lhs), abs(rhs)))
    det, _, e = _oracle_infimum(*_blocks(cm, mode))
    rep = discord(cm, measured_mode=mode)
    # the homodyne limit wins exactly where the closed form takes its homodyne branch
    assert (e == 0.0) == (rep.branch == "homodyne-case")
    assert det == pytest.approx(rep.inf_det_eps, rel=1e-12)


def test_discord_oracle_strong_squeezing_high_thermal():
    # about 2% of these are homodyne-case: draw until four of them are checked
    rng = np.random.default_rng(2500)
    counts = {"homodyne-case": 0, "heterodyne-case": 0}
    while counts["homodyne-case"] < 4 or counts["heterodyne-case"] < 80:
        cm = random_physical_cm(rng, 2, max_thermal=200.0, squeeze_scale=2.5)
        for mode in (0, 1):
            rep = discord(cm, measured_mode=mode)
            counts[rep.branch] += 1
            assert abs(rep.discord - discord_oracle(cm, measured_mode=mode)) <= 1e-8


def test_discord_oracle_calls_no_nelder_mead_or_closed_form(monkeypatch):
    rng = np.random.default_rng(3)
    cases = {}
    while len(cases) < 2:
        cm = random_physical_cm(rng, 2)
        rep = discord(cm)
        cases.setdefault(rep.branch, (cm, rep.discord))

    def refuse(*args, **kwargs):
        raise AssertionError("the oracle must not call this")

    monkeypatch.setattr(scipy.optimize, "minimize", refuse)
    for name in ("_inf_det_eps", "_inf_det_eps_heterodyne_case", "_inf_det_eps_homodyne_case"):
        monkeypatch.setattr(corr, name, refuse)
    for cm, closed in cases.values():
        assert abs(discord_oracle(cm) - closed) <= 1e-10


def test_mutual_information_cases(measured_cm):
    g = np.diag([2.0, 2.0, 3.0, 3.0])
    assert mutual_information(g) == pytest.approx(0.0, abs=1e-10)
    assert classical_correlation(g) == pytest.approx(0.0, abs=1e-10)
    rep = discord(measured_cm)
    assert rep.mutual_info - rep.classical_corr == pytest.approx(0.49, abs=0.01)


def test_mutual_information_symmetric_under_swap():
    m = 2.0
    g = tmsv_cm(m).entries
    swap = np.zeros((4, 4))
    swap[np.ix_([0, 1], [2, 3])] = np.eye(2)
    swap[np.ix_([2, 3], [0, 1])] = np.eye(2)
    assert mutual_information(g) == pytest.approx(
        mutual_information(swap @ g @ swap.T), rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_discord_and_classical_nonnegative(seed):
    rng = np.random.default_rng(seed)
    cm = random_physical_cm(rng, 2)
    rep = discord(cm)
    assert rep.discord >= -1e-9
    assert rep.classical_corr >= -1e-9


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_discord_local_symplectic_invariance(seed):
    rng = np.random.default_rng(seed)
    cm = random_physical_cm(rng, 2)
    local = np.zeros((4, 4))
    local[:2, :2] = random_symplectic(rng, 1).entries
    local[2:, 2:] = random_symplectic(rng, 1).entries
    moved = apply_symplectic(cm, local)
    assert discord(moved).discord == pytest.approx(discord(cm).discord, abs=1e-8)


def test_measurement_seed_det_one():
    seed = MeasurementSeed(theta=0.7, s=3.0)
    assert np.linalg.det(seed.covariance()) == pytest.approx(1.0, abs=1e-10)
    with pytest.raises(InvalidInputError):
        MeasurementSeed(theta=0.0, s=-1.0)


def test_kw_audit_trivial():
    assert kw_audit(0.0, 0.0, 0.0) == 0.0
    assert kw_audit(1.5, 1.0, 0.5) == pytest.approx(0.0)


def test_discord_measured_mode_direction(measured_cm):
    # measuring the two modes gives different values for an asymmetric state
    d_b = discord(measured_cm, measured_mode=1).discord
    d_a = discord(measured_cm, measured_mode=0).discord
    assert abs(d_a - d_b) > 1e-3


def test_branch_tie_continuity():
    # product states sit exactly on the branch boundary (both sides agree)
    g = tensor(np.diag([2.0, 2.0]), np.diag([3.0, 3.0]))
    rep = discord(g)
    assert rep.inf_det_eps == pytest.approx(4.0, rel=1e-10)  # det alpha
