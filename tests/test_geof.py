import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import scipy.optimize
from scipy.optimize import OptimizeResult, minimize

from gausscorr.channels import attenuate, beamsplitter, tmsv_cm
from gausscorr.core import (apply_symplectic, partial_transpose, ppt_min_eig, reduce,
                            symplectic_form, symplectic_spectrum, tensor,
                            two_mode_symplectic_values, validate_physical)
import gausscorr.correlations as corr
from gausscorr.correlations import (_geof_objective, _seed_frame, _seed_inverse, discord,
                                    entropy_f, geof, von_neumann_entropy)
from gausscorr.errors import InvalidInputError, NumericalError

from helpers import (make_separable_cm, minimal_purification, random_physical_cm,
                     random_symplectic)


def test_geof_pure_tmsv_is_entanglement_entropy():
    m = 2.2
    res = geof(tmsv_cm(m))
    assert res.value == pytest.approx(entropy_f(m), abs=1e-9)
    assert res.converged
    assert res.feasibility_gap >= -1e-7


def test_geof_pure_equals_single_mode_entropy():
    rng = np.random.default_rng(5)
    s = random_symplectic(rng, 2)
    pure = apply_symplectic(np.eye(4), s)
    res = geof(pure)
    assert res.value == pytest.approx(von_neumann_entropy(reduce(pure, [0])), abs=1e-6)


def test_geof_separable_measured_cm(measured_cm):
    res = geof(measured_cm)
    assert res.value <= 1e-4
    assert res.feasibility_gap >= -1e-7


def test_geof_separable_random():
    rng = np.random.default_rng(42)
    for k in range(5):
        cm = make_separable_cm(np.random.default_rng(100 + k))
        res = geof(cm)
        assert res.value <= 1e-4, f"case {k}: {res.value}"


def _noisy_tmsv(m, t_a, t_b, noise):
    """TMSV(m) through thermal loss channels gamma -> t gamma + (1 - t) noise I on each mode."""
    d = np.sqrt([t_a, t_a, t_b, t_b])
    return np.outer(d, d) * tmsv_cm(m).entries + np.diag((1 - d * d) * noise)


def _local_symplectic(rng):
    s = np.zeros((4, 4))
    s[:2, :2] = random_symplectic(rng, 1, squeeze_scale=1.0).entries
    s[2:, 2:] = random_symplectic(rng, 1, squeeze_scale=1.0).entries
    return s


def _assert_zero_geof(g):
    res = geof(g)
    assert res.value <= 1e-12
    assert res.feasibility_gap >= -1e-9
    assert np.abs(symplectic_spectrum(res.optimal_pure_cm) - 1.0).max() <= 1e-9
    return res


@pytest.mark.parametrize("m, t_a, t_b", [(1.2, 0.5, 0.5), (3.0, 0.8, 0.3), (20.0, 0.5, 0.9)])
def test_product_shortcut_near_ppt_boundary(m, t_a, t_b):
    # thermal noise tuned so that the PPT witness sits at +-eps, in a locally rotated
    # and squeezed frame: GEoF is zero (to 1e-12) on the separable side, positive past it
    rng = np.random.default_rng(int(10 * m))
    for eps in (1e-3, 1e-6, 1e-9, -1e-6):
        lo, hi = 1.0, 1e4
        for _ in range(200):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if ppt_min_eig(_noisy_tmsv(m, t_a, t_b, mid)) < eps else (lo, mid)
        s = _local_symplectic(rng)
        g = s @ _noisy_tmsv(m, t_a, t_b, hi) @ s.T
        if eps < 0:
            assert geof(g).value > 0
        else:
            _assert_zero_geof(g)


def test_product_shortcut_random_separable_and_pure_local_mode():
    for k in range(20):
        _assert_zero_geof(make_separable_cm(np.random.default_rng(200 + k)))
    res = _assert_zero_geof(tensor(np.eye(2), 2.5 * np.eye(2)))
    assert res.value == 0.0 and res.converged and res.nfev == 0


def test_geof_entangled_positive():
    g = attenuate(tmsv_cm(2.0), 1, 0.7)
    assert ppt_min_eig(g) < 0
    res = geof(g)
    assert res.value > 1e-3
    assert res.feasibility_gap >= -1e-7
    assert validate_physical(res.optimal_pure_cm) >= -1e-7


def test_geof_optimal_cm_is_pure():
    g = attenuate(tmsv_cm(1.8), 1, 0.8)  # one purifying mode
    res = geof(g)
    assert res.method == "k1-closed-form" and res.nfev == 0
    vals = symplectic_spectrum(res.optimal_pure_cm)
    assert np.abs(vals - 1.0).max() <= 1e-8


def test_geof_three_mode_matches_two_mode_when_decoupled():
    # (A, E) entangled pure state with a decoupled vacuum appended: the 1x2
    # value must match the 1x1 value of (A, E)
    pur = minimal_purification(np.diag([9.84, 38.4]))     # (in, E)
    split = apply_symplectic(tensor(pur, np.eye(2)), beamsplitter(0.5, 3, (0, 2)))
    g_ab = reduce(split, [0, 1])                           # A with E, traced B
    two = geof(g_ab)
    three = geof(reduce(tensor(g_ab, np.eye(2)), [0, 1, 2]))
    assert three.value == pytest.approx(two.value, abs=1e-3)


def test_geof_rejects_bad_partitions():
    with pytest.raises(InvalidInputError):
        geof(np.eye(8))  # rest side would have 3 modes
    with pytest.raises(InvalidInputError):
        geof(np.eye(4), a_mode=5)


def test_geof_value_nonnegative_random():
    rng = np.random.default_rng(17)
    for k in range(4):
        cm = random_physical_cm(np.random.default_rng(500 + k), 2)
        res = geof(cm)
        assert res.value >= 0.0
        assert res.feasibility_gap >= -1e-7


@pytest.mark.parametrize("squeezing_db", [-6.0, -3.0])
def test_geof_symmetric_lossy_tmsv_matches_closed_form(squeezing_db):
    # Giedke et al. (PRL 91, 107901, 2003): E_F = f((1 + nu^2) / (2 nu)) for a
    # symmetric state, nu the smallest symplectic eigenvalue of its partial transpose
    eta = 0.8
    g = tmsv_cm(np.cosh(2 * (-squeezing_db * np.log(10.0) / 20.0)))
    g = attenuate(attenuate(g, 0, eta), 1, eta)
    nu = two_mode_symplectic_values(partial_transpose(g, 1))[0]
    assert nu < 1.0
    res = geof(g)
    assert res.value == pytest.approx(entropy_f((1.0 + nu * nu) / (2.0 * nu)), abs=1e-6)
    assert res.feasibility_gap >= -1e-9


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(1, 3), st.integers(0, 3), st.booleans())
def test_minimal_purification_random(seed, n_modes, n_pure, append_pure_mode):
    rng = np.random.default_rng(seed)
    nus = rng.uniform(1.0, 3.0, n_modes)
    nus[:n_pure] = 1.0
    g = apply_symplectic(np.diag(np.repeat(nus, 2)), random_symplectic(rng, n_modes))
    if append_pure_mode:
        g = tensor(g, apply_symplectic(np.eye(2), random_symplectic(rng, 1)))
    out = minimal_purification(g)
    mixed = int(np.sum(symplectic_spectrum(g) > 1.0 + 1e-6))
    assert out.n_modes == g.n_modes + mixed
    assert np.abs(symplectic_spectrum(out) - 1.0).max() <= 1e-8
    assert np.abs(reduce(out, range(g.n_modes)).entries - g.entries).max() <= 1e-9


def _symmetric_lossy_tmsv(squeezing_db, eta):
    g = tmsv_cm(np.cosh(2 * (-squeezing_db * np.log(10.0) / 20.0)))
    return attenuate(attenuate(g, 0, eta), 1, eta)


def _giedke_geof(g):
    # Giedke et al. (PRL 91, 107901, 2003): E_F = f((1 + nu^2) / (2 nu)) for a
    # symmetric state, nu the smallest symplectic eigenvalue of its partial transpose
    nu = two_mode_symplectic_values(partial_transpose(g, 1))[0]
    assert nu < 1.0
    return entropy_f((1.0 + nu * nu) / (2.0 * nu))


@pytest.mark.parametrize("squeezing_db", [-10.0, -6.0, -3.0, -1.0])
@pytest.mark.parametrize("eta", [0.5, 0.8, 0.95])
def test_geof_symmetric_family_to_machine_precision(squeezing_db, eta):
    # homodyne-like optimal decompositions (k = 2), where a clipped squeezing
    # coordinate left the objective flat and every start ran to maxfev
    g = _symmetric_lossy_tmsv(squeezing_db, eta)
    res = geof(g)
    assert abs(res.value - _giedke_geof(g)) <= 1e-12
    assert res.converged
    assert res.feasibility_gap >= -1e-9
    if (squeezing_db, eta) == (-6.0, 0.8):
        assert 0 < res.nfev <= 20000


def _pure_seed(o, w, dw):
    # O diag(tan^2 w_1, cot^2 w_1, ...) O^T, off the homodyne limits
    return (o * (dw / w)) @ o.T


@pytest.mark.parametrize("k", [1, 2, 3])
def test_passive_unitary_chart(k):
    rng = np.random.default_rng(k)
    o, w, dw = _seed_frame(np.concatenate([np.full(k, np.pi / 4), np.zeros(k * k)]), k)
    assert np.array_equal(o, np.eye(2 * k))
    assert np.abs(_pure_seed(o, w, dw) - np.eye(2 * k)).max() <= 1e-15   # vacuum seed
    o, w, dw = _seed_frame(rng.uniform(-1.5, 1.5, k + k * k), k)
    omega = symplectic_form(k)
    assert np.abs(o @ o.T - np.eye(2 * k)).max() <= 1e-12
    assert np.abs(o @ omega @ o.T - omega).max() <= 1e-12
    assert np.array_equal(w[0::2], dw[1::2]) and np.array_equal(w[1::2], dw[0::2])
    assert np.abs(w[0::2] + w[1::2] - 1.0).max() <= 1e-15
    seed_cm = _pure_seed(o, w, dw)
    assert np.abs(symplectic_spectrum(seed_cm) - 1.0).max() <= 1e-9


@pytest.mark.parametrize("k", [1, 2, 3])
def test_seed_inverse_matches_direct_inverse(k):
    rng = np.random.default_rng(40 + k)
    gr = random_physical_cm(rng, k).entries
    # x variances tan^2 w of 1/e and e for e in (1e-3, 0.3, 1)
    for x_var in (1e3, 1.0 / 0.3, 1.0, 0.3, 1e-3):
        params = np.concatenate([np.full(k, np.arctan(np.sqrt(x_var))),
                                 rng.uniform(-np.pi, np.pi, k * k)])
        direct = np.linalg.inv(gr + _pure_seed(*_seed_frame(params, k)))
        err = np.abs(_seed_inverse(gr, params, k) - direct).max()
        assert err <= 1e-12 * np.abs(direct).max()


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("quadrature", [0, 1])
def test_seed_inverse_homodyne_limit(k, quadrature):
    # w = 0 (w = pi/2) on every purifying mode: homodyne of the frame's x (p) quadratures
    rng = np.random.default_rng(50 + k)
    n = max(k, 2)
    nus = np.ones(n)
    nus[:k] = rng.uniform(1.2, 2.5, k)
    g = apply_symplectic(np.diag(np.repeat(nus, 2)), random_symplectic(rng, n))
    big = minimal_purification(g).entries
    gs, gr, gsr = big[:2 * n, :2 * n], big[2 * n:, 2 * n:], big[:2 * n, 2 * n:]
    params = np.concatenate([np.full(k, quadrature * np.pi / 2),
                             rng.uniform(-np.pi, np.pi, k * k)])
    inv = _seed_inverse(gr, params, k)
    assert np.all(np.isfinite(inv))
    oq = _seed_frame(params, k)[0][:, quadrature::2]
    homodyne = oq @ np.linalg.inv(oq.T @ gr @ oq) @ oq.T
    assert np.abs(inv - homodyne).max() <= 1e-12 * np.abs(homodyne).max()
    gamma_p = gs - gsr @ inv @ gsr.T
    assert np.abs(symplectic_spectrum((gamma_p + gamma_p.T) / 2) - 1.0).max() <= 1e-9
    assert np.linalg.eigvalsh(g.entries - gamma_p).min() >= -1e-9


def _k1_state(rng, n):
    # one symplectic eigenvalue above 1: the minimal purification adds one mode
    nus = np.ones(n)
    nus[0] = rng.uniform(1.1, 3.0)
    return apply_symplectic(np.diag(np.repeat(nus, 2)), random_symplectic(rng, n, 1.0))


def test_k1_seed_chart_matches_general_path():
    # independent route for one purifying mode: Nelder-Mead over the general
    # seed-inverse objective, never the oracle chart or the closed form
    rng = np.random.default_rng(2024)
    branches = set()
    for i in range(30):
        g = _k1_state(rng, 2 + i % 2)
        n = g.n_modes
        big = minimal_purification(g).entries
        assert big.shape[0] == 2 * n + 2
        gs_a, gr, gsr_a = big[:2, :2], big[2 * n:, 2 * n:], big[:2, 2 * n:]
        objective = _geof_objective(gs_a, gr, gsr_a, 1)
        search = min(minimize(objective, np.array([w, phi]), method="Nelder-Mead",
                              options={"xatol": 1e-12, "fatol": 1e-15, "maxiter": 4000}).fun
                     for w in (0.3, 1.3) for phi in (0.0, 1.6))
        branches.add(discord(np.block([[gs_a, gsr_a], [gsr_a.T, gr]])).branch)
        res = geof(g)
        assert res.converged and res.nfev == 0
        assert res.method == "k1-closed-form"
        assert abs(res.value - search) <= 1e-10
        pure = res.optimal_pure_cm
        assert np.abs(symplectic_spectrum(pure) - 1.0).max() <= 1e-9
        assert res.feasibility_gap >= -1e-9
        assert np.linalg.eigvalsh(g.entries - pure.entries).min() >= -1e-9
        det_a = np.linalg.det(pure.entries[:2, :2])
        assert abs(entropy_f(max(np.sqrt(det_a), 1.0)) - res.value) <= 1e-12
    assert branches == {"homodyne-case", "heterodyne-case"}


def test_k1_decoupled_pure_mode():
    # A uncorrelated with the rest: det eps is 1 on the whole chart and the
    # argmin quadratic has a zero leading coefficient
    rng = np.random.default_rng(1)
    rest = _k1_state(rng, 2)
    for a in (np.eye(2), apply_symplectic(np.eye(2), random_symplectic(rng, 1, 1.0)).entries):
        g = tensor(a, rest)
        res = geof(g)
        assert res.value == 0.0 and res.converged and res.nfev == 0
        assert res.method == "k1-closed-form"
        assert res.feasibility_gap >= -1e-9
        assert np.abs(symplectic_spectrum(res.optimal_pure_cm) - 1.0).max() <= 1e-9


def _fake_minimize(first, rest):
    # each start ends at its x0; the first start at `first`, every later one and the polish at `rest`
    calls = []

    def fake(fun, x0, **kwargs):
        calls.append(x0)
        return OptimizeResult(x=np.asarray(x0), fun=first if len(calls) == 1 else rest, nfev=1)
    return fake


def _three_mixed_modes():
    return random_physical_cm(np.random.default_rng(3), 3, max_thermal=1.3, squeeze_scale=1.0)


@pytest.mark.parametrize("rest, converged", [(0.5 + 1e-7, False), (0.5 + 1e-10, True)])
def test_geof_converged_needs_two_starts_at_the_value(monkeypatch, rest, converged):
    # 1x2 with k = 3, a search input: one start at 0.5 and a shared stall just
    # above it is not convergence
    monkeypatch.setattr(scipy.optimize, "minimize", _fake_minimize(0.5, rest))
    res = geof(_three_mixed_modes())
    assert res.value == 0.5 and res.nfev == 10
    assert res.converged is converged


def _k2_two_mode_states(rng):
    # entangled, both symplectic eigenvalues above 1: random (strongly squeezed
    # and asymmetric among them), two with the smaller one at 1 + 2e-6, just
    # above the k = 1 cut, then near-PPT lossy TMSVs with the witness at -1e-6
    # before a random local frame
    states = []
    while len(states) < 16:
        g = random_physical_cm(rng, 2, max_thermal=2.5,
                               squeeze_scale=(0.6, 1.2, 2.0)[len(states) % 3]).entries
        if ppt_min_eig(g) < -1e-3 and symplectic_spectrum(g).min() > 1.01:
            states.append(g)
    while len(states) < 18:
        g = apply_symplectic(np.diag([1 + 2e-6] * 2 + [2.5] * 2),
                             random_symplectic(rng, 2, 1.5)).entries
        if ppt_min_eig(g) < 0:
            states.append(g)
    for m, t_a, t_b in [(1.2, 0.5, 0.5), (3.0, 0.8, 0.3), (20.0, 0.5, 0.9), (5.0, 0.9, 0.9)]:
        lo, hi = 1.0, 1e4
        for _ in range(200):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if ppt_min_eig(_noisy_tmsv(m, t_a, t_b, mid)) < -1e-6 else (lo, mid)
        s = _local_symplectic(rng)
        states.append(s @ _noisy_tmsv(m, t_a, t_b, lo) @ s.T)
    return states


def test_geof_two_mode_k2_matches_search(monkeypatch):
    # the x-p 1-D search against an independent route: Nelder-Mead over the
    # general seed-inverse objective on the two purifying modes
    rng = np.random.default_rng(2025)
    states = _k2_two_mode_states(rng)

    def no_search(*args, **kwargs):
        raise AssertionError("geof ran a Nelder-Mead search on a two-mode input")
    monkeypatch.setattr(scipy.optimize, "minimize", no_search)
    for i, g in enumerate(states):
        a_mode = i % 2
        ai = slice(2 * a_mode, 2 * a_mode + 2)
        res = geof(g, a_mode=a_mode)
        assert res.converged and res.nfev > 0
        big = minimal_purification(g).entries
        assert big.shape == (8, 8)
        objective = _geof_objective(big[ai, ai], big[4:, 4:], big[ai, 4:], 2)
        starts = [np.concatenate([np.full(2, np.pi / 4), np.zeros(4)]),
                  np.concatenate([np.arctan(np.exp(rng.uniform(-1.5, 1.5, 2))),
                                  rng.uniform(-1.5, 1.5, 4)])]
        best = min((minimize(objective, p0, method="Nelder-Mead",
                             options={"xatol": 1e-10, "fatol": 1e-13, "maxfev": 9000})
                    for p0 in starts), key=lambda r: r.fun)
        polish = minimize(objective, best.x, method="Nelder-Mead",
                          options={"xatol": 1e-12, "fatol": 1e-14, "maxfev": 3000})
        assert abs(res.value - min(best.fun, polish.fun)) <= 1e-10
        pure = res.optimal_pure_cm.entries
        assert np.abs(symplectic_spectrum(pure) - 1.0).max() <= 1e-9
        assert res.feasibility_gap >= -1e-9
        assert np.linalg.eigvalsh(g - pure).min() >= -1e-9
        det_a = np.linalg.det(pure[ai, ai])
        assert abs(entropy_f(max(np.sqrt(det_a), 1.0)) - res.value) <= 1e-12


def test_geof_of_a_scaled_separable_state_is_zero():
    # s g0 is PPT, hence separable; the 64-point grid missed its valley, about
    # 1/s wide, from s = 1e2 on (2.0e-8 at 1e4, 1.1e-4 at 1e6, unconverged).
    # Beyond 1e7 det X sits at its rounding bound: at 15 quarter decades from
    # 1e12.5 to 1e75.25 the search returned 5e-7 to 18.6 nats (9.58 at 1e20),
    # converged.  Each quarter decade up to 1e76 is 0 or a package error,
    # without a numpy warning on the way
    g0 = np.array([[2.0, 0.0, 1.0, 0.0], [0.0, 2.0, 0.0, -1.0],
                   [1.0, 0.0, 2.0, 0.0], [0.0, -1.0, 0.0, 2.0]])
    assert ppt_min_eig(g0) >= -1e-15
    for q in range(4 * 76 + 1):
        g = 10.0 ** (q / 4) * g0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                res = geof(g)
            except NumericalError:
                assert q > 4 * 7, q
                continue
        assert res.value <= 1e-12 and res.converged and res.method == "xp-search", q
        assert res.feasibility_gap >= -1e-15 * np.abs(g).max(), q
    with pytest.raises(NumericalError):
        geof(1e8 * g0)


def test_geof_of_a_hot_product_state_is_zero():
    # thermal x vacuum takes the k = 1 closed form; the Schur complement
    # x - (x^2 - 1) / x cancelled there: InvalidInputError ("non-positive
    # diagonal entries") at 22 of these decades, and 1.5e-7 nats at 1e7,
    # 9.8e-5 at 1e11 and 32.9 at 1e30
    for k in range(39):
        x = 10.0 ** k
        for g in (np.diag([x, x, 1.0, 1.0]), np.diag([1.0, 1.0, x, x])):
            for mode in (0, 1):
                try:
                    res = geof(g, mode)
                except NumericalError:
                    assert k > 4, k
                    continue
                assert res.value <= 1e-12 and res.method == "k1-closed-form", (k, mode)
                assert res.feasibility_gap >= -1e-15 * x, (k, mode)
    # the same with local squeezers and rotations, at x off the decades
    rng = np.random.default_rng(29)
    for _ in range(200):
        x = 10.0 ** rng.uniform(0.0, 12.0)
        local = np.zeros((4, 4))
        local[:2, :2] = random_symplectic(rng, 1, squeeze_scale=1.5).entries
        local[2:, 2:] = random_symplectic(rng, 1, squeeze_scale=1.5).entries
        g = local @ np.diag([x, x, 1.0, 1.0]) @ local.T
        for mode in (0, 1):
            try:
                assert geof((g + g.T) / 2, mode).value <= 1e-12, (x, mode)
            except NumericalError:
                pass


def test_two_mode_xp_geof_builds_no_williamson_frame(monkeypatch):
    # k = 2 comes from the closed-form symplectic values, and the standard form
    # is plain float arithmetic
    symmetric = attenuate(attenuate(tmsv_cm(3.0), 0, 0.8), 1, 0.8)
    separable = make_separable_cm(np.random.default_rng(3))
    expect = [geof(g) for g in (symmetric, separable)]
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper
    monkeypatch.setattr(corr, "_williamson_frame",
                        counted("williamson", corr._williamson_frame))
    monkeypatch.setattr(np.linalg, "svd", counted("svd", np.linalg.svd))
    monkeypatch.setattr(np.linalg, "inv", counted("inv", np.linalg.inv))
    got = [geof(g) for g in (symmetric, separable)]
    assert calls == []
    assert [r.method for r in got] == ["xp-search"] * 2
    assert [r.value for r in got] == [r.value for r in expect]
    # the k = 1 route still takes its frame
    geof(attenuate(tmsv_cm(3.0), 1, 0.6))
    assert calls == ["williamson"]


def test_geof_three_mixed_modes_feasible_and_pure():
    g = _three_mixed_modes()
    assert np.all(symplectic_spectrum(g) > 1.0 + 1e-6)  # k = 3 purifying modes
    res = geof(g)
    assert res.value > 0.1
    assert res.feasibility_gap >= -1e-9
    assert np.abs(symplectic_spectrum(res.optimal_pure_cm) - 1.0).max() <= 1e-6


def test_geof_reports_its_method(monkeypatch):
    # one input per route, and a pure input, which takes the k = 1 closed form; the
    # closed form names itself instead of a bare nfev == 0
    lossy = attenuate(tmsv_cm(3.0), 1, 0.6)                       # one purifying mode
    symmetric = attenuate(attenuate(tmsv_cm(3.0), 0, 0.8), 1, 0.8)  # two, entangled
    cases = [(tmsv_cm(2.2), "k1-closed-form"), (lossy, "k1-closed-form"),
             (symmetric, "xp-search")]
    for g, method in cases:
        res = geof(g)
        assert res.method == method
        assert (res.nfev > 0) == (method == "xp-search")
    assert ppt_min_eig(lossy) < 0 and ppt_min_eig(symmetric) < 0
    monkeypatch.setattr(scipy.optimize, "minimize", _fake_minimize(0.5, 0.5))
    assert geof(_three_mixed_modes()).method == "nelder-mead"
