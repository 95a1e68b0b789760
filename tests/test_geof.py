import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gausscorr.channels import (attenuate, beamsplitter, minimal_purification,
                                purify_single_mode, tmsv_cm, tmsv_from_squeezing)
from gausscorr.core import (apply_symplectic, partial_transpose, ppt_min_eig,
                            random_physical_cm, random_symplectic, reduce,
                            symplectic_spectrum, tensor, two_mode_symplectic_values,
                            validate_physical)
from gausscorr.correlations import (_passive_unitary, _pure_cm_from_params, entropy_f,
                                    geof, von_neumann_entropy)
from gausscorr.errors import InvalidInputError

from conftest import make_separable_cm


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
    res = geof(measured_cm, restarts=4, seed=1)
    assert res.value <= 1e-4
    assert res.feasibility_gap >= -1e-7


def test_geof_separable_random():
    rng = np.random.default_rng(42)
    for k in range(5):
        cm = make_separable_cm(np.random.default_rng(100 + k))
        res = geof(cm, restarts=4, seed=k)
        assert res.value <= 1e-4, f"case {k}: {res.value}"


def test_geof_entangled_positive():
    g = attenuate(tmsv_cm(2.0), 1, 0.7)
    assert ppt_min_eig(g) < 0
    res = geof(g, restarts=4, seed=3)
    assert res.value > 1e-3
    assert res.feasibility_gap >= -1e-7
    assert validate_physical(res.optimal_pure_cm) >= -1e-7


def test_geof_optimal_cm_is_pure():
    g = attenuate(tmsv_cm(1.8), 1, 0.8)
    res = geof(g, restarts=4, seed=9)
    from gausscorr.core import symplectic_spectrum
    vals = symplectic_spectrum(res.optimal_pure_cm).values
    assert np.abs(vals - 1.0).max() <= 1e-6


def test_geof_three_mode_matches_two_mode_when_decoupled():
    # (A, E) entangled pure state with a decoupled vacuum appended: the 1x2
    # value must match the 1x1 value of (A, E)
    pur = purify_single_mode(np.diag([9.84, 38.4]))       # (in, E)
    split = apply_symplectic(tensor(pur, np.eye(2)), beamsplitter(0.5, 3, (0, 2)))
    g_ab = reduce(split, [0, 1])                           # A with E, traced B
    two = geof(g_ab, restarts=4, seed=2)
    three = geof(reduce(tensor(g_ab, np.eye(2)), [0, 1, 2]), restarts=5, seed=2)
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
        res = geof(cm, restarts=3, seed=k)
        assert res.value >= 0.0
        assert res.feasibility_gap >= -1e-7


@pytest.mark.parametrize("squeezing_db", [-6.0, -3.0])
def test_geof_symmetric_lossy_tmsv_matches_closed_form(squeezing_db):
    # Giedke et al. (PRL 91, 107901, 2003): E_F = f((1 + nu^2) / (2 nu)) for a
    # symmetric state, nu the smallest symplectic eigenvalue of its partial transpose
    eta = 0.8
    g = tmsv_from_squeezing(-squeezing_db * np.log(10.0) / 20.0)
    g = attenuate(attenuate(g, 0, eta), 1, eta)
    nu = two_mode_symplectic_values(partial_transpose(g, 1))[0]
    assert nu < 1.0
    res = geof(g, restarts=4, seed=0)
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
    mixed = int(np.sum(symplectic_spectrum(g).values > 1.0 + 1e-6))
    assert out.n_modes == g.n_modes + mixed
    assert np.abs(symplectic_spectrum(out).values - 1.0).max() <= 1e-8
    assert np.abs(reduce(out, range(g.n_modes)).entries - g.entries).max() <= 1e-9


@pytest.mark.parametrize("k", [1, 2, 3])
def test_passive_unitary_chart(k):
    rng = np.random.default_rng(k)
    assert np.array_equal(_passive_unitary(np.zeros(k * k), k), np.eye(k))
    u = _passive_unitary(rng.uniform(-np.pi, np.pi, k * k), k)
    assert np.abs(u @ u.conj().T - np.eye(k)).max() <= 1e-12
    seed_cm = _pure_cm_from_params(rng.uniform(-1.5, 1.5, k + k * k), k)
    assert np.abs(symplectic_spectrum(seed_cm).values - 1.0).max() <= 1e-9


def test_geof_three_mixed_modes_feasible_and_pure():
    g = random_physical_cm(np.random.default_rng(3), 3, max_thermal=1.3, squeeze_scale=1.0)
    assert np.all(symplectic_spectrum(g).values > 1.0 + 1e-6)  # k = 3 purifying modes
    res = geof(g, restarts=0, seed=0)
    assert res.value > 0.1
    assert res.feasibility_gap >= -1e-9
    assert np.abs(symplectic_spectrum(res.optimal_pure_cm).values - 1.0).max() <= 1e-6
