import dataclasses
import decimal
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
import scipy.optimize

from gausscorr.channels import attenuate, beamsplitter, squeezer, tmsv_cm
from gausscorr.core import (PHYSICALITY_TOL, SPECTRUM_CLAMP_TOL, CovMatrix, apply_symplectic,
                            partial_transpose, ppt_min_eig, reduce, standard_form, tensor,
                            two_mode_symplectic_values, validate_physical, _symplectic_values)
import gausscorr.correlations as corr
from gausscorr.correlations import (BRANCH_TIE_TOL, _chart_argmin, _chart_coefficients,
                                    _oracle_infimum, _oriented_invariants, discord,
                                    discord_oracle, entropy_f, geof, kw_audit,
                                    von_neumann_entropy)
from gausscorr.errors import InvalidInputError, NonPhysicalStateError, NumericalError
from gausscorr.reference import MEASURED_CM_STD_ERRORS, MEASURED_SPLIT_SQUEEZED_CM
from gausscorr.sampling import cm_resampling_pipeline, error_monte_carlo, matched_sample_size

from helpers import (cm_call_args, cm_entry_points, exact_det_eps, random_physical_cm,
                     random_symplectic, seed_chart, seed_chart_terms, split_block_form)


def test_entropy_f_values():
    assert entropy_f(1.0) == 0.0
    assert entropy_f(3.0) == pytest.approx(2 * np.log(2.0), rel=1e-12)
    assert entropy_f(1.0 - 5e-7) == 0.0  # clamped


def test_entropy_f_monotone():
    xs = np.linspace(1.0, 50.0, 200)
    vals = [entropy_f(x) for x in xs]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_entropy_f_matches_a_decimal_reference():
    # u ln u - v ln v lost 8e-2 relative near 1e15 and 5e-11 near 1; 60 digits as reference
    xs = [1.0 + d for d in np.logspace(-15, 53 * math.log10(2.0), 2001).tolist()]
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        for x in [x for x in xs if x < 2.0 ** 53] + [2.0 ** 53 - 1]:
            v = (decimal.Decimal(x) - 1) / 2
            want = (v + 1) * (v + 1).ln() - v * v.ln()
            assert abs(decimal.Decimal(entropy_f(x)) - want) <= decimal.Decimal(4e-16) * want, x


def test_discord_and_oracle_follow_a_scaled_separable_state():
    # s g0 has discord near 1 / (6 s); with u ln u - v ln v the closed form read
    # -4.8e-7 at s = 1e8 and the oracle 0.0 at 1e10.  Beyond about s = 1e6 the
    # discord is a difference of entropy terms near ln s that keeps only their
    # last few ulps, so agreement is asked to 1e-6 relative or to 4 ulps of them
    g0 = np.array([[2.0, 0.0, 1.0, 0.0], [0.0, 2.0, 0.0, -1.0],
                   [1.0, 0.0, 2.0, 0.0], [0.0, -1.0, 0.0, 2.0]])
    for k in range(11):
        g = 10.0 ** k * g0
        closed, oracle = discord(g).discord, discord_oracle(g)
        assert closed > 0 and oracle > 0, k
        floor = 4 * math.ulp(entropy_f(math.sqrt(np.linalg.det(g[2:, 2:]))))
        assert abs(closed - oracle) <= 1e-6 * closed + floor, k


def test_entropy_f_rejects_below_clamp():
    with pytest.raises(InvalidInputError):
        entropy_f(0.99)


def test_entropy_f_rejects_nan():
    with pytest.raises(InvalidInputError):
        entropy_f(math.nan)


def test_discord_raises_on_undefined_symplectic_value():
    # each passes every CovMatrix check: no report, not a NaN one or a ZeroDivisionError
    g = np.eye(4)
    g[0, 2] = g[2, 0] = 5.0
    g[1, 3] = g[3, 1] = -5.0
    with pytest.raises(NonPhysicalStateError):   # nu_plus^2 < 0
        _symplectic_values(1.0, 1.0, -25.0, np.linalg.det(g))
    singular = np.eye(4)
    singular[2:, 2:] = 2.0   # det beta = 0
    flipped = np.eye(4)
    flipped[:2, :2] = [[1.0, 2.0], [2.0, 1.0]]   # det alpha < 0
    for cm in (g, singular, flipped):
        for mode in (0, 1):
            with pytest.raises(NonPhysicalStateError):
                discord(cm, mode, allow_measured=True)


def test_discord_raises_on_nan_entropy_argument():
    # det gamma overflows to -inf, so nu_minus^2 = -inf / inf would be NaN: no NaN
    # report, and the overflow is a numerical failure, not bad input
    x, y = 1e80, 2e80
    g = np.array([[x, 0, y, 0], [0, x, 0, 0], [y, 0, x, 0], [0, 0, 0, x]])
    for mode in (0, 1):
        with np.errstate(all="ignore"), pytest.raises(NumericalError):
            discord(g, mode, allow_measured=True)


def test_von_neumann_entropy_cases():
    assert von_neumann_entropy(np.eye(4)) == 0.0
    assert von_neumann_entropy(np.diag([3.0, 3.0])) == pytest.approx(entropy_f(3.0))
    assert von_neumann_entropy(tmsv_cm(np.cosh(2 * 0.6))) == pytest.approx(0.0, abs=1e-8)


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
    g = split_block_form(7.1, 1.0)
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
        det_eps = seed_chart(_chart_coefficients(alpha, beta, delta))
        for theta in np.linspace(0.0, np.pi, 7):
            c2, s2 = np.cos(2 * theta), np.sin(2 * theta)
            # e = 0: homodyne of the quadrature v perpendicular to u = (cos, sin)
            v = np.array([-np.sin(theta), np.cos(theta)])
            dv = delta @ v
            homodyne = np.linalg.det(alpha - np.outer(dv, dv) / (v @ beta @ v))
            assert det_eps(c2, s2, 0.0) == pytest.approx(homodyne, rel=1e-13)
            # e > 0: the seed R(theta) diag(1/e, e) R(theta)^T
            rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
            for e in (1e-3, 0.3, 1.0):
                seed = rot @ np.diag([1.0 / e, e]) @ rot.T
                eps = alpha - delta @ np.linalg.solve(beta + seed, delta.T)
                assert det_eps(c2, s2, e) == pytest.approx(np.linalg.det(eps), rel=1e-12)


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


def _profile_cases():
    # (CM, measured mode): 20 random CMs, then the product state (every root
    # undefined, e = 0), a decoupled mode and the split coherent CM (a2
    # vanishes at theta = pi/4), each on alternating modes; then hot CMs,
    # near-pure measured modes and branch ties, each on both modes
    rng = np.random.default_rng(31)
    cms = [random_physical_cm(rng, 2).entries for _ in range(20)]
    squeezed_vacuum = apply_symplectic(np.eye(2), random_symplectic(rng, 1, 1.0))
    cms += [np.diag([2.0, 2.0, 3.0, 3.0]),
            tensor(squeezed_vacuum, random_physical_cm(rng, 1)).entries,
            split_block_form(7.1, 1.0)]
    cases = [(g, i % 2) for i, g in enumerate(cms)]
    for mode in (0, 1):
        cases += [(random_physical_cm(rng, 2, max_thermal=200.0, squeeze_scale=2.5).entries, mode)
                  for _ in range(4)]
        cases += [(_near_pure_cm(rng, log_leak, mode), mode) for log_leak in (-10.0, -3.0)]
        cases += [(_branch_tie(m, log_s_end, mode)[0], mode)
                  for m, log_s_end in ((1.5, 3.0), (3.0, -3.0))]
    return cases


def test_chart_argmin_minimizes_the_level_function():
    # the exact inner step against a dense (theta, e) grid of the chart, no
    # closed form involved: at the heterodyne level, the oracle's value and
    # one level between, num - d den is nowhere on the grid below its value at
    # the step's (theta, e)
    thetas = np.linspace(0.0, np.pi, 721)[:, None]
    es = np.linspace(0.0, 1.0, 1001)[None, :]
    cos2s, sin2s = np.cos(2 * thetas), np.sin(2 * thetas)
    for g, mode in _profile_cases():
        blocks = _blocks(g, mode)
        coefficients = _chart_coefficients(*blocks)
        terms = seed_chart_terms(coefficients)
        det_eps = seed_chart(coefficients)
        top, best = det_eps(1.0, 0.0, 1.0), _oracle_infimum(*blocks)[0]
        for d in (top, (top + best) / 2, best):
            theta, e = _chart_argmin(coefficients, d)
            assert 0.0 <= e <= 1.0
            num, den = terms(math.cos(2 * theta), math.sin(2 * theta), e)
            grid_num, grid_den = terms(cos2s, sin2s, es)
            scale = np.abs(grid_num).max() + abs(d) * np.abs(grid_den).max()
            assert num - d * den <= (grid_num - d * grid_den).min() + 1e-14 * scale


def _broadcast_profile(coefficients):
    """The e-profile: (minimum, argmin) over e in [0, 1] of det eps on the chart, in
    numpy over broadcast (cos 2theta, sin 2theta); a reference for the oracle that
    shares none of its steps.  At fixed theta, det eps = num / den is a ratio of two
    quadratics in e, so its minimum is at e = 0, e = 1 or a root of
    num' den - num den', whose cubic terms cancel; every root is scored, clipped to
    [0, 1] (an undefined one to 0)."""
    (mt, mc, ms, m1), (bt, bc, bs, b1) = coefficients
    det_eps = seed_chart(coefficients)

    def profile(cos2, sin2):
        mh, bh = mc * cos2 + ms * sin2, bc * cos2 + bs * sin2
        n0, n2, d0, d2 = mt - mh, mt + mh, bt - bh, bt + bh
        a2, a1, a0 = n2 * b1 - m1 * d2, n2 * d0 - n0 * d2, m1 * d0 - n0 * b1
        q = -(a1 + np.copysign(np.sqrt(np.maximum(a1 * a1 - a2 * a0, 0.0)), a1))
        with np.errstate(divide="ignore", invalid="ignore"):
            roots = np.stack((q / a2, a0 / q))
        roots = np.where(np.isfinite(roots), np.clip(roots, 0.0, 1.0), 0.0)
        es = np.concatenate([np.zeros_like(roots[:1]), np.ones_like(roots[:1]), roots])
        values = det_eps(cos2, sin2, es)
        i = np.argmin(values, axis=0)[None]
        return (np.take_along_axis(values, i, axis=0)[0],
                np.take_along_axis(es, i, axis=0)[0])

    return profile


def test_e_profile_is_the_minimum_over_e():
    # the reference e-profile against a dense e grid of the chart, at fixed
    # thetas, pi/4 and the oracle's own theta; no closed form involved
    es = np.linspace(0.0, 1.0, 2001)
    for g, mode in _profile_cases():
        blocks = _blocks(g, mode)
        coefficients = _chart_coefficients(*blocks)
        det_eps, profile = seed_chart(coefficients), _broadcast_profile(coefficients)
        thetas = np.linspace(0.0, np.pi, 7, endpoint=False).tolist()
        thetas += [np.pi / 4, _oracle_infimum(*blocks)[1]]
        for theta in thetas:
            c2, s2 = np.cos(2 * theta), np.sin(2 * theta)
            value, e = profile(c2, s2)
            floor = det_eps(c2, s2, es).min()
            assert 0.0 <= e <= 1.0
            assert value <= floor + 1e-12 * abs(floor)
            assert value == det_eps(c2, s2, e)


def test_e_profile_matches_broadcast_reference():
    # along its own theta the oracle's e is the best one: its value is the
    # broadcast e-profile's there, to 1e-15 relative (2.2e-16 measured on
    # _profile_cases(), either side; the argmin e may differ where det eps is
    # flat in e, as on the product state)
    for g, mode in _profile_cases():
        blocks = _blocks(g, mode)
        coefficients = _chart_coefficients(*blocks)
        det, theta, _ = _oracle_infimum(*blocks)
        value, _ = _broadcast_profile(coefficients)(math.cos(2 * theta), math.sin(2 * theta))
        assert abs(det - value) <= 1e-15 * abs(value)


_THETA_GRID = np.pi / 4096 * np.arange(4096)


def _check_no_theta_grid_beats_the_oracle(g, mode):
    blocks = _blocks(g, mode)
    coefficients = _chart_coefficients(*blocks)
    det, theta, e = _oracle_infimum(*blocks)
    assert type(det) is float and 0.0 <= e <= 1.0
    # the value is attained: the chart's own expression at the returned seed
    assert det == seed_chart(coefficients)(math.cos(2 * theta), math.sin(2 * theta), e)
    floor = _broadcast_profile(coefficients)(np.cos(2 * _THETA_GRID),
                                             np.sin(2 * _THETA_GRID))[0].min()
    assert det <= floor + 1e-15 * abs(floor)


def test_no_theta_grid_beats_the_oracle_on_the_profile_cases():
    for g, mode in _profile_cases():
        _check_no_theta_grid_beats_the_oracle(g, mode)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from([0, 1]), st.booleans())
def test_no_theta_grid_beats_the_oracle(seed, mode, hot):
    family = {"max_thermal": 200.0, "squeeze_scale": 2.5} if hot else {}
    g = random_physical_cm(np.random.default_rng(seed), 2, **family).entries
    _check_no_theta_grid_beats_the_oracle(g, mode)


# measured on _profile_cases(): the closed form reads at most 1.0e-14 relative
# above the oracle's certificate and 1.2e-14 from the one at its own argmin
# seed, and the oracle is within 2.1e-12 relative of its certificate (hot CMs)
CLOSED_TO_CERTIFICATE = 4e-14
ORACLE_TO_CERTIFICATE = 8e-12


def test_oracle_and_closed_form_match_their_exact_certificates():
    # det eps in fractions at a seed rounded to rationals (tan theta and e as
    # floats) is attained, so an exact upper bound on the infimum of the float
    # CM.  The closed form stays below the oracle's certificate and matches the
    # one at the seed _chart_argmin gives it (the seed _k1_geof certifies
    # with); the oracle's float value matches its own.  Each to its rounding
    for g, mode in _profile_cases():
        blocks = _blocks(g, mode)
        det, theta, e = _oracle_infimum(*blocks)
        exact = exact_det_eps(*blocks, theta, e)
        closed = discord(g, measured_mode=mode).inf_det_eps
        assert closed <= exact * (1 + CLOSED_TO_CERTIFICATE)
        assert abs(det - exact) <= ORACLE_TO_CERTIFICATE * exact
        seed = _chart_argmin(_chart_coefficients(*blocks), closed)
        assert abs(exact_det_eps(*blocks, *seed) - closed) <= CLOSED_TO_CERTIFICATE * closed


def _branch_tie(m, log_s_end, mode):
    # a TMSV(m) squeezed by s on mode A, then halved in power on A: the heterodyne
    # branch holds at s = 1 and the homodyne one at |log s| = 3; bisect log s
    # on the sign of (D - AB)^2 - (1 + B) C^2 (A + D) until the bracket is one ulp
    def family(log_s):
        squeezed = apply_symplectic(tmsv_cm(m), squeezer(math.exp(log_s), 2, 0))
        return attenuate(squeezed, 0, 0.5).entries

    def sides(g):
        a, b, c, d = _oriented_invariants(g, mode)
        return (d - a * b) ** 2, (1 + b) * c * c * (a + d)

    lo, hi = 0.0, log_s_end
    assert np.subtract(*sides(family(lo))) < 0 < np.subtract(*sides(family(hi)))
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        lhs, rhs = sides(family(mid))
        lo, hi = (mid, hi) if lhs < rhs else (lo, mid)
    return family(lo), sides(family(lo))


@pytest.mark.parametrize("mode", [0, 1])
@pytest.mark.parametrize("m", [1.5, 3.0])
@pytest.mark.parametrize("log_s_end", [3.0, -3.0])
def test_discord_oracle_at_branch_tie(m, log_s_end, mode):
    g, (lhs, rhs) = _branch_tie(m, log_s_end, mode)
    # the closed form sees a tie and takes the smaller branch
    assert abs(lhs - rhs) <= BRANCH_TIE_TOL * max(abs(lhs), abs(rhs))
    rep = discord(g, measured_mode=mode)
    assert abs(rep.discord - discord_oracle(g, measured_mode=mode)) <= 1e-10


def test_discord_oracle_cost(monkeypatch):
    # one coefficient pass per call, and at most 20 Dinkelbach steps (each one
    # exact inner step), with no timing involved
    counts = {}
    chart_coefficients, chart_argmin = corr._chart_coefficients, corr._chart_argmin

    def counted_coefficients(*args):
        counts["coefficients"] += 1
        return chart_coefficients(*args)

    def counted_argmin(*args):
        counts["steps"] += 1
        return chart_argmin(*args)

    monkeypatch.setattr(corr, "_chart_coefficients", counted_coefficients)
    monkeypatch.setattr(corr, "_chart_argmin", counted_argmin)
    rng = np.random.default_rng(8)
    cms = [random_physical_cm(rng, 2).entries for _ in range(4)]
    cms += [np.diag([2.0, 2.0, 3.0, 3.0]), split_block_form(7.1, 1.0)]
    cases = [(g, mode) for g in cms for mode in (0, 1)] + _profile_cases()
    for g, mode in cases:
        counts.update(coefficients=0, steps=0)
        discord_oracle(g, measured_mode=mode)
        assert counts["coefficients"] == 1
        assert 1 <= counts["steps"] <= 20


def test_discord_oracle_raises_past_its_step_cap(monkeypatch):
    # the split coherent CM takes more than two steps: a cap of two is not met
    monkeypatch.setattr(corr, "_ORACLE_MAX_STEPS", 2)
    with pytest.raises(NumericalError, match="Dinkelbach"):
        discord_oracle(split_block_form(7.1, 1.0))


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
    product = discord(g)
    assert product.mutual_info == pytest.approx(0.0, abs=1e-10)
    assert product.classical_corr == pytest.approx(0.0, abs=1e-10)
    rep = discord(measured_cm)
    assert rep.mutual_info - rep.classical_corr == pytest.approx(0.49, abs=0.01)


def test_mutual_information_symmetric_under_swap():
    m = 2.0
    g = tmsv_cm(m).entries
    swap = np.zeros((4, 4))
    swap[np.ix_([0, 1], [2, 3])] = np.eye(2)
    swap[np.ix_([2, 3], [0, 1])] = np.eye(2)
    assert discord(g).mutual_info == pytest.approx(
        discord(swap @ g @ swap.T).mutual_info, rel=1e-12)


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


# ---------------------------------------------------------------------------
# one check per input on the two-mode path

@pytest.mark.parametrize("bad", ["nan", "inf", "asymmetric"])
@pytest.mark.parametrize("mode", [0, 1])
def test_discord_and_oracle_reject_bad_entries(bad, mode):
    # a raw array skipped the CovMatrix checks under allow_measured and in the
    # oracle: NaN gave a NaN report, and g[0, 2] + 0.5 gave 0.581 (oracle
    # 0.430) where the symmetric matrix has 0.492
    g = np.array(MEASURED_SPLIT_SQUEEZED_CM.entries)
    if bad == "nan":
        g[0, 2] = np.nan
    elif bad == "inf":
        g[1, 1] = np.inf
    else:
        g[0, 2] += 0.5
    for allow_measured in (False, True):
        with pytest.raises(InvalidInputError):
            discord(g, mode, allow_measured=allow_measured)
    with pytest.raises(InvalidInputError):
        discord_oracle(g, mode)


@pytest.mark.parametrize("mode", [0, 1])
def test_discord_and_oracle_reject_nonphysical_input(mode):
    # the oracle used to clamp silently: 0.0 on the first, 0.078 on the second
    for g in (np.diag([0.5, 0.5, 1.0, 1.0]), 0.5 * MEASURED_SPLIT_SQUEEZED_CM.entries):
        with pytest.raises(NonPhysicalStateError):
            discord(g, mode)
        with pytest.raises(NonPhysicalStateError):
            discord_oracle(g, mode)


# physical, and accepted by CovMatrix, but beyond float range: (D - AB)^2
# overflows in the closed form, and every entropy argument is above 1e69
HUGE_CM = 1e70 * np.array([[2.0, 0.0, 1.0, 0.0], [0.0, 2.0, 0.0, -1.0],
                           [1.0, 0.0, 2.0, 0.0], [0.0, -1.0, 0.0, 2.0]])


def _outcome(fn, *args):
    """The value fn returns, or the class of the package error it raises."""
    try:
        return fn(*args)
    except (InvalidInputError, NonPhysicalStateError, NumericalError) as exc:
        return type(exc)


@pytest.mark.parametrize("mode", [0, 1])
def test_functionals_raise_numerical_error_beyond_float_range(mode):
    # an OverflowError, a ZeroDivisionError and an oracle value of 0.0 before
    assert validate_physical(HUGE_CM) >= -PHYSICALITY_TOL
    for allow_measured in (False, True):
        with pytest.raises(NumericalError):
            discord(HUGE_CM, mode, allow_measured=allow_measured)
    with pytest.raises(NumericalError):
        discord_oracle(HUGE_CM, mode)
    with np.errstate(all="ignore"), pytest.raises(NumericalError):
        geof(HUGE_CM, mode)
    # from 1e77 det gamma overflows: both raised NonPhysicalStateError on this
    # physical state, and before that the oracle raised InvalidInputError.  On
    # the physical diag(s, s, 1, 1) the squared Seralian overflows from about
    # s = 1e77 with every invariant finite: nu_minus read 0, and discord raised
    # NonPhysicalStateError while the oracle raised NumericalError
    # two_mode_symplectic_values returned (0.0, inf) on diag(1e100, 1e100, 1, 1)
    cms = [scale * HUGE_CM for scale in (1e7, 1e30, 1e80)]
    cms += [np.diag([s, s, 1.0, 1.0]) for s in (1e100, 1e150)]
    for g in cms:
        with np.errstate(all="ignore"):
            outcomes = (_outcome(discord, g, mode), _outcome(discord_oracle, g, mode),
                        _outcome(two_mode_symplectic_values, g))
        assert outcomes == (NumericalError,) * 3, g[0, 0]


def test_standard_form_and_geof_raise_numerical_error_beyond_float_range():
    # from 1e154 det alpha overflows: a bare LinAlgError ("SVD did not converge") before
    for scale in (1e84, 1e130, 1e230):
        with np.errstate(all="ignore"):
            outcomes = [_outcome(standard_form, scale * HUGE_CM),
                        *(_outcome(geof, scale * HUGE_CM, mode) for mode in (0, 1))]
        assert outcomes == [NumericalError] * 3, scale


def _near_pure_cm(rng, log_leak, mode):
    # a squeezed thermal mode that leaks 10^log_leak of its power into the measured vacuum
    nu = rng.uniform(1.2, 2.5)
    inner, outer = np.eye(4), np.eye(4)
    inner[:2, :2] = random_symplectic(rng, 1).entries
    outer[:2, :2] = random_symplectic(rng, 1).entries
    outer[2:, 2:] = random_symplectic(rng, 1).entries
    g = np.diag([nu, nu, 1.0, 1.0])
    for s in (inner, beamsplitter(1.0 - 10 ** log_leak).entries, outer):
        g = s @ g @ s.T
    return g if mode == 1 else g[[2, 3, 0, 1]][:, [2, 3, 0, 1]]


# each family with the tolerance the oracle tests above use for it
_ORACLE_FAMILIES = {"random": 1e-10, "near-pure": 1e-10, "tie": 1e-10, "hot": 1e-8}
_DEFECTS = {"nan": InvalidInputError, "inf": InvalidInputError,
            "asymmetric": InvalidInputError, "ragged": InvalidInputError,
            "nonphysical": NonPhysicalStateError, "huge": NumericalError}


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(_ORACLE_FAMILIES)), st.integers(0, 2 ** 32 - 1),
       st.sampled_from([0, 1]), st.sampled_from([None, *sorted(_DEFECTS)]))
def test_discord_and_oracle_agree_or_fail_alike(family, seed, mode, defect):
    # a differential test: the closed form and the oracle return the same
    # discord, or both raise the same package error
    rng = np.random.default_rng(seed)
    if family == "random":
        g = random_physical_cm(rng, 2).entries
    elif family == "hot":
        g = random_physical_cm(rng, 2, max_thermal=200.0, squeeze_scale=2.5).entries
    elif family == "near-pure":
        g = _near_pure_cm(rng, rng.uniform(-11.0, np.log10(2e-3)), mode)
    else:
        g = _branch_tie(rng.uniform(1.2, 4.0), rng.choice([3.0, -3.0]), mode)[0]
    if defect is None:
        closed, oracle = discord(g, mode).discord, discord_oracle(g, mode)
        assert abs(closed - oracle) <= _ORACLE_FAMILIES[family]
        return
    g = np.array(g)
    i, j = rng.integers(4, size=2)
    if defect == "nan":
        g[i, j] = np.nan
    elif defect == "inf":
        g[i, j] = rng.choice([np.inf, -np.inf])
    elif defect == "asymmetric":
        g[i, (i + 1 + j % 3) % 4] += 0.5
    elif defect == "ragged":
        g = [list(row) for row in g]
        del g[i][j]
    elif defect == "nonphysical":
        g = np.diag([0.5, 0.5, 1.0, 1.0])
    else:
        g = HUGE_CM
    with np.errstate(all="ignore"):
        outcomes = _outcome(discord, g, mode), _outcome(discord_oracle, g, mode)
    assert outcomes == (_DEFECTS[defect],) * 2


def _reference_invariants(g, measured_mode):
    # (A, B, C, D) as gathered by np.stack and np.moveaxis
    dets = np.linalg.det(np.stack(_blocks(g, measured_mode), axis=-3))
    return (*np.moveaxis(dets, -1, 0).tolist(), np.linalg.det(g).tolist())


def _reference_discord(m, measured_mode, allow_measured):
    # each step builds and checks its own CovMatrix
    g = CovMatrix(m).entries
    if not allow_measured and validate_physical(g) < -PHYSICALITY_TOL:
        raise NonPhysicalStateError("CM is not physical")
    return corr._discord_report(*_reference_invariants(g, measured_mode), allow_measured)


def _reference_ppt(m):
    return validate_physical(partial_transpose(CovMatrix(m), 0))


def _measured_resampling(scalars):
    cm = MEASURED_SPLIT_SQUEEZED_CM
    return cm_resampling_pipeline(cm, matched_sample_size(cm, MEASURED_CM_STD_ERRORS), scalars)


def _asymmetric_within_bound(rng, cms):
    """Raw copies of cms with one off-diagonal pair apart by up to the 1e-12 symmetry bound."""
    out = []
    for g in cms:
        g = np.array(g)
        i, j = sorted(rng.choice(4, size=2, replace=False))
        g[j, i] += rng.uniform(-1.0, 1.0) * 1e-12 * np.abs(g).max()
        out.append(g)
    return out


def test_two_mode_functionals_match_the_composed_checks_bit_for_bit():
    estimates = []
    pipeline = _measured_resampling({"m": lambda m: estimates.append(m) or 0.0})
    rng = np.random.default_rng(5)
    for _ in range(200):
        pipeline(rng)
    rng = np.random.default_rng(6)
    physical = [random_physical_cm(rng, 2).entries for _ in range(100)]
    physical += [random_physical_cm(rng, 2, max_thermal=200.0, squeeze_scale=2.5).entries
                 for _ in range(100)]
    for g in estimates + physical + _asymmetric_within_bound(rng, physical):
        assert ppt_min_eig(g) == _reference_ppt(g)
        for mode in (0, 1):
            assert discord(g, mode, allow_measured=True) == _reference_discord(g, mode, True)
    for g in physical:
        assert ppt_min_eig(CovMatrix(g)) == _reference_ppt(g)
        for mode in (0, 1):
            assert discord(g, mode) == discord(CovMatrix(g), mode) == _reference_discord(
                g, mode, False)


def test_oriented_invariants_of_a_stack_match_the_reference_per_matrix():
    # the sweeps' (N, 4, 4) stacks take the single-CM route: each matrix's
    # (A, B, C, D) are those of its own 2x2 and 4x4 det calls, bit for bit
    rng = np.random.default_rng(9)
    cms = [random_physical_cm(rng, 2, **family).entries for _ in range(100)
           for family in ({}, {"max_thermal": 200.0, "squeeze_scale": 2.5})]
    cms += _asymmetric_within_bound(rng, cms) + [rng.normal(size=(4, 4)) for _ in range(100)]
    for mode in (0, 1):
        got = _oriented_invariants(np.stack(cms), mode)
        assert all(len(column) == len(cms) for column in got)
        for k, g in enumerate(cms):
            want = _reference_invariants(g, mode)
            assert [column[k] for column in got] == list(want)
            assert _oriented_invariants(g, mode) == tuple(want)


def test_error_bars_match_the_composed_checks_bit_for_bit():
    # the scalars of scripts/run_headline.py, at its seed
    new = _measured_resampling({
        "discord": lambda m: discord(m, 1, allow_measured=True).discord,
        "min_eig": ppt_min_eig})
    ref = _measured_resampling({
        "discord": lambda m: _reference_discord(m, 1, True).discord,
        "min_eig": _reference_ppt})
    got, want = error_monte_carlo(new, 300, seed=12), error_monte_carlo(ref, 300, seed=12)
    for name in ("discord", "min_eig"):
        assert np.array_equal(got[name].values, want[name].values), name


def _covmatrices_in(value) -> int:
    """Number of CovMatrix objects in a returned value (tuples and dataclass fields included)."""
    if isinstance(value, CovMatrix):
        return 1
    if isinstance(value, (tuple, list)):
        return sum(map(_covmatrices_in, value))
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return sum(_covmatrices_in(getattr(value, f.name)) for f in dataclasses.fields(value))
    return 0


def test_two_mode_functionals_check_each_input_once(monkeypatch, tmp_path):
    # every function with a CM parameter: one CovMatrix per raw matrix argument plus
    # one per CovMatrix it returns; a CovMatrix argument is not checked again
    made = []
    post_init = CovMatrix.__post_init__

    def counting(self):
        made.append(1)
        post_init(self)
    cm = tmsv_cm(2.0)
    raw = np.array(cm.entries)
    extra = cm_call_args(tmp_path)
    calls = [(name, fn, params, extra.get(name, {}))
             for name, (fn, params) in cm_entry_points().items()]
    calls += [("discord", discord, ["cm"], {"measured_mode": 0, "allow_measured": True}),
              ("discord_oracle", discord_oracle, ["cm"], {"measured_mode": 0})]
    monkeypatch.setattr(CovMatrix, "__post_init__", counting)
    for name, fn, params, kw in calls:
        for g, checks in ((cm, 0), (raw, len(params))):
            made.clear()
            returned = _covmatrices_in(fn(**dict.fromkeys(params, g), **kw))
            assert len(made) == checks + returned, (name, kw, type(g).__name__)


def _near_pure_estimate(seed, log_excess, n, squeeze_scale):
    # one Wishart re-estimate from n shots of a state within 10^log_excess of pure
    rng = np.random.default_rng(seed)
    cm = random_physical_cm(rng, 2, max_thermal=1.0 + 10.0 ** log_excess,
                            squeeze_scale=squeeze_scale)
    out = []
    cm_resampling_pipeline(cm, n, {"m": lambda m: out.append(m) or 0.0})(rng)
    return out[0]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6), st.floats(-9.0, -0.5), st.integers(50, 10 ** 6),
       st.floats(0.0, 0.6), st.sampled_from([0, 1]))
@example(0, -9.0, 10 ** 6, 0.6, 1)   # clamped
@example(0, -0.5, 10 ** 6, 0.6, 1)   # not clamped
@example(2, -9.0, 50, 0.0, 1)        # both modes near pure
def test_clamped_measured_reports(seed, log_excess, n, squeeze_scale, mode):
    est = _near_pure_estimate(seed, log_excess, n, squeeze_scale)
    rep = discord(est, mode, allow_measured=True)
    assert all(math.isfinite(x) for x in (rep.mutual_info, rep.classical_corr,
                                          rep.discord, rep.inf_det_eps))
    a, b, c, d = _oriented_invariants(est, mode)
    args = [math.sqrt(max(a, 0.0)), math.sqrt(max(b, 0.0)),
            *_symplectic_values(a, b, c, d), math.sqrt(max(rep.inf_det_eps, 0.0))]
    assert rep.clamped == (min(args) < 1.0 - SPECTRUM_CLAMP_TOL)
    assert rep.discord == rep.mutual_info - rep.classical_corr
    assert discord(CovMatrix(est), mode, allow_measured=True) == rep
