import dataclasses
import decimal
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
import scipy.optimize

from gausscorr.channels import attenuate, beamsplitter, squeezer, tmsv_cm
from gausscorr.core import (PHYSICALITY_TOL, CovMatrix, apply_symplectic, partial_transpose,
                            ppt_min_eig, reduce, standard_form, tensor, validate_physical,
                            _symplectic_pair)
import gausscorr.correlations as corr
from gausscorr.correlations import (BRANCH_TIE_TOL, F_CLAMP_TOL, ORACLE_GRID, _chart_coefficients,
                                    _e_profile, _oracle_infimum, _oriented_invariants,
                                    discord, discord_oracle, entropy_f, geof, kw_audit,
                                    von_neumann_entropy)
from gausscorr.errors import InvalidInputError, NonPhysicalStateError, NumericalError
from gausscorr.reference import MEASURED_CM_STD_ERRORS, MEASURED_SPLIT_SQUEEZED_CM
from gausscorr.sampling import cm_resampling_pipeline, error_monte_carlo, matched_sample_size

from helpers import (cm_call_args, cm_entry_points, random_physical_cm, random_symplectic,
                     seed_chart, split_block_form)


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
    assert math.isnan(_symplectic_pair(1.0 + 1.0 + 2 * -25.0, np.linalg.det(g))[1])
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


def test_e_profile_is_the_minimum_over_e():
    # the exact e step against a dense e grid of the chart, no closed form involved
    es = np.linspace(0.0, 1.0, 2001)
    thetas = np.append(np.linspace(0.0, np.pi, 7, endpoint=False), np.pi / 4)
    for g, mode in _profile_cases():
        blocks = _blocks(g, mode)
        det_eps, profile = seed_chart(_chart_coefficients(*blocks)), _e_profile(*blocks)
        for theta in thetas:
            c2, s2 = np.cos(2 * theta), np.sin(2 * theta)
            value, e = profile(c2, s2)
            floor = det_eps(c2, s2, es).min()
            assert 0.0 <= e <= 1.0
            assert value <= floor + 1e-12 * abs(floor)
            assert value == det_eps(c2, s2, e)


def _broadcast_profile(coefficients):
    """The e-profile in numpy over broadcast (cos 2theta, sin 2theta): a reference for
    the oracle's float profile, with the same roots and tie rule.  It scores every
    root, clipped to [0, 1] (an undefined one to 0), where the oracle scores only
    those inside (0, 1); it also returns where a finite root was clipped."""
    (mt, mc, ms, m1), (bt, bc, bs, b1) = coefficients
    det_eps = seed_chart(coefficients)

    def profile(cos2, sin2):
        mh, bh = mc * cos2 + ms * sin2, bc * cos2 + bs * sin2
        n0, n2, d0, d2 = mt - mh, mt + mh, bt - bh, bt + bh
        a2, a1, a0 = n2 * b1 - m1 * d2, n2 * d0 - n0 * d2, m1 * d0 - n0 * b1
        q = -(a1 + np.copysign(np.sqrt(np.maximum(a1 * a1 - a2 * a0, 0.0)), a1))
        with np.errstate(divide="ignore", invalid="ignore"):
            roots = np.stack((q / a2, a0 / q))
        clipped = (np.isfinite(roots) & ((roots < 0.0) | (roots > 1.0))).any(axis=0)
        roots = np.where(np.isfinite(roots), np.clip(roots, 0.0, 1.0), 0.0)
        es = np.concatenate([np.zeros_like(roots[:1]), np.ones_like(roots[:1]), roots])
        values = det_eps(cos2, sin2, es)
        i = np.argmin(values, axis=0)[None]
        return (np.take_along_axis(values, i, axis=0)[0],
                np.take_along_axis(es, i, axis=0)[0], clipped)

    return profile


def test_e_profile_matches_broadcast_reference():
    # at every grid theta of the oracle and at pi/4, bit for bit, in Python floats;
    # the reference also scores the clipped roots the oracle skips
    thetas = np.append(np.pi / ORACLE_GRID * np.arange(ORACLE_GRID), np.pi / 4)
    cos2s, sin2s = np.cos(2 * thetas), np.sin(2 * thetas)
    n_clipped = n_points = 0
    for g, mode in _profile_cases():
        blocks = _blocks(g, mode)
        coefficients = _chart_coefficients(*blocks)
        det_eps, profile = seed_chart(coefficients), _e_profile(*blocks)
        ref_values, ref_es, clipped = _broadcast_profile(coefficients)(cos2s, sin2s)
        n_clipped, n_points = n_clipped + int(clipped.sum()), n_points + clipped.size
        for c2, s2, ref_value, ref_e in zip(cos2s.tolist(), sin2s.tolist(), ref_values, ref_es):
            value, e = profile(c2, s2)
            assert type(value) is float and type(e) is float
            assert (value, e) == (ref_value, ref_e)
            assert value == det_eps(c2, s2, e)
    # the skip is exercised: most points have a root outside [0, 1]
    assert 2 * n_clipped > n_points


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
    # one coefficient pass and one float profile call per grid point and Brent
    # evaluation (plus the refined point), with no timing involved
    counts = {}
    chart_coefficients, e_profile, brent = corr._chart_coefficients, corr._e_profile, corr.bounded_brent

    def counted_coefficients(*args):
        counts["coefficients"] += 1
        return chart_coefficients(*args)

    def counted_e_profile(*args):
        profile = e_profile(*args)

        def counted(cos2, sin2):
            assert type(cos2) is float and type(sin2) is float
            counts["profile"] += 1
            return profile(cos2, sin2)
        return counted

    def counted_brent(*args, **kwargs):
        x, fun, nfev = brent(*args, **kwargs)
        counts["nfev"].append(nfev)
        return x, fun, nfev

    monkeypatch.setattr(corr, "_chart_coefficients", counted_coefficients)
    monkeypatch.setattr(corr, "_e_profile", counted_e_profile)
    monkeypatch.setattr(corr, "bounded_brent", counted_brent)
    rng = np.random.default_rng(8)
    cms = [random_physical_cm(rng, 2) for _ in range(4)]
    cms += [CovMatrix(np.diag([2.0, 2.0, 3.0, 3.0])), CovMatrix(split_block_form(7.1, 1.0))]
    for cm in cms:
        for mode in (0, 1):
            counts.update(coefficients=0, profile=0, nfev=[])
            discord_oracle(cm, measured_mode=mode)
            assert counts["coefficients"] == 1
            assert len(counts["nfev"]) == 1
            assert counts["profile"] <= ORACLE_GRID + counts["nfev"][0] + 1


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
    cms = [scale * HUGE_CM for scale in (1e7, 1e30, 1e80)]
    cms += [np.diag([s, s, 1.0, 1.0]) for s in (1e100, 1e150)]
    for g in cms:
        with np.errstate(all="ignore"):
            outcomes = _outcome(discord, g, mode), _outcome(discord_oracle, g, mode)
        assert outcomes == (NumericalError,) * 2, g[0, 0]


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


def test_two_mode_functionals_match_the_composed_checks_bit_for_bit():
    estimates = []
    pipeline = _measured_resampling({"m": lambda m: estimates.append(m) or 0.0})
    rng = np.random.default_rng(5)
    for _ in range(200):
        pipeline(rng)
    rng = np.random.default_rng(6)
    physical = [random_physical_cm(rng, 2).entries for _ in range(100)]
    for g in estimates + physical:
        assert ppt_min_eig(g) == _reference_ppt(g)
        for mode in (0, 1):
            assert discord(g, mode, allow_measured=True) == _reference_discord(g, mode, True)
    for g in physical:
        assert ppt_min_eig(CovMatrix(g)) == _reference_ppt(g)
        for mode in (0, 1):
            assert discord(g, mode) == discord(CovMatrix(g), mode) == _reference_discord(
                g, mode, False)


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
              ("discord_oracle", discord_oracle, ["cm"], {"measured_mode": 0}),
              ("attenuate", attenuate, ["cm"], {"mode": 1, "t": 0.3, "keep_environment": True})]
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
            *_symplectic_pair(a + b + 2 * c, d), math.sqrt(max(rep.inf_det_eps, 0.0))]
    assert rep.clamped == (min(args) < 1.0 - F_CLAMP_TOL)
    assert rep.discord == rep.mutual_info - rep.classical_corr
    assert discord(CovMatrix(est), mode, allow_measured=True) == rep
