import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gausscorr.channels import (InputSpec, attenuate, beamsplitter, db_to_variance, rotation,
                                squeezer, tmsv_cm)
from gausscorr.core import apply_symplectic, reduce, symplectic_spectrum, validate_physical
from gausscorr.errors import InvalidInputError, NonPhysicalStateError

from helpers import cmr_noise, loss_with_port, minimal_purification, modulate, random_physical_cm


def test_db_conversion():
    assert db_to_variance(-3.0) == pytest.approx(0.501187, abs=1e-6)
    assert db_to_variance(0.0) == 1.0


def test_input_spec_validation():
    with pytest.raises(InvalidInputError):
        InputSpec(kind="coherent", squeezing_db=0.0, v_x=0.5, v_p=1.0)
    with pytest.raises(InvalidInputError):
        InputSpec(kind="coherent", squeezing_db=-3.0, v_x=7.1, v_p=1.0)
    with pytest.raises(InvalidInputError):
        InputSpec(kind="squeezed", squeezing_db=-3.0, v_x=9.84, v_p=1.0)  # v_p < antisqueezing
    spec = InputSpec(kind="squeezed", squeezing_db=-3.0, v_x=9.84, v_p=38.4)
    w_x, w_p = spec.modulation_variances()
    assert w_x == pytest.approx(9.84 - db_to_variance(-3.0), abs=1e-9)


def test_beamsplitter_identity():
    assert np.array_equal(beamsplitter(1.0).entries, np.eye(4))


def test_beamsplitter_full_reflection_swaps():
    s = beamsplitter(0.0).entries
    x = np.array([1.0, 2.0, 3.0, 4.0])
    assert np.allclose(s @ x, [3.0, 4.0, 1.0, 2.0])


def test_beamsplitter_is_its_own_inverse():
    for t in (0.121, 0.5, 0.86):
        s = beamsplitter(t).entries
        assert np.abs(s @ s - np.eye(4)).max() <= 1e-12
        s_sw = beamsplitter(t, 2, (1, 0)).entries
        assert np.abs(s_sw @ s_sw - np.eye(4)).max() <= 1e-12


def test_beamsplitter_balanced_split_block_form():
    rng = np.random.default_rng(0)
    gin = random_physical_cm(rng, 1).entries
    full = np.eye(4)
    full[:2, :2] = gin
    out = apply_symplectic(full, beamsplitter(0.5)).entries
    eye = np.eye(2)
    assert np.abs(out[:2, :2] - (gin + eye) / 2).max() <= 1e-12
    assert np.abs(out[2:, 2:] - (gin + eye) / 2).max() <= 1e-12
    assert np.abs(out[:2, 2:] - (gin - eye) / 2).max() <= 1e-12


def test_beamsplitter_range_check():
    with pytest.raises(InvalidInputError):
        beamsplitter(1.2)


# arguments of the wrong type meet the input rules, not a bare Python error
def test_attenuate_rejects_a_string_transmittance(measured_cm):
    # raised a bare TypeError from the [0, 1] comparison
    with pytest.raises(InvalidInputError, match="real number"):
        attenuate(measured_cm, 1, "0.5")


def test_beamsplitter_rejects_a_string_transmittance():
    with pytest.raises(InvalidInputError, match="real number"):
        beamsplitter("0.5")


def test_beamsplitter_rejects_more_than_a_pair_of_modes():
    # raised ValueError from unpacking the pair
    with pytest.raises(InvalidInputError, match="pair of modes"):
        beamsplitter(0.5, 3, (0, 1, 2))


def test_squeezer_rejects_a_fractional_mode_count():
    # raised TypeError from np.eye
    with pytest.raises(InvalidInputError, match="n_modes"):
        squeezer(2.0, 1.5, 0)


def test_beamsplitter_rejects_a_bool_mode_count():
    # read True as 2: the mode check said "below True"
    with pytest.raises(InvalidInputError, match="n_modes must be a positive integer, got True"):
        beamsplitter(0.5, True, (0, 1))


@pytest.mark.parametrize("value", ["2.0", True, None, 2j], ids=repr)
@pytest.mark.parametrize("constructor", [squeezer, rotation, tmsv_cm],
                         ids=lambda f: f.__name__)
def test_channel_parameters_take_the_real_number_rule(constructor, value):
    # "2.0", None and 2j raised TypeError from math.isfinite or from tmsv_cm's
    # comparison, and True read as 1
    with pytest.raises(InvalidInputError, match="real number"):
        constructor(value)


def test_attenuate_vacuum_fixed_point():
    for t in (0.0, 0.3, 1.0):
        out = attenuate(np.eye(2), 0, t)
        assert np.allclose(out.entries, np.eye(2))


def test_attenuate_identity_at_full_transmission(measured_cm):
    out = attenuate(measured_cm, 1, 1.0)
    assert np.allclose(out.entries, measured_cm.entries)


def test_attenuate_thermal_formula():
    v, t = 5.0, 0.4
    out = attenuate(np.diag([v, v]), 0, t)
    assert np.allclose(out.entries, np.diag([t * v + 1 - t] * 2))


def test_attenuate_is_the_traced_loss_port(measured_cm):
    t = 0.35
    kept = loss_with_port(measured_cm, 1, t)
    assert kept.n_modes == 3
    traced = reduce(kept, [0, 1])
    direct = attenuate(measured_cm, 1, t)
    assert np.abs(traced.entries - direct.entries).max() <= 1e-12


@pytest.mark.parametrize("keep_port", [False, True])
@pytest.mark.parametrize("t", [-0.1, 1.2])
def test_attenuate_rejects_transmittance_outside_unit_interval(measured_cm, t, keep_port):
    # traced (attenuate) or kept (the beamsplitter onto a vacuum port)
    with pytest.raises(InvalidInputError):
        (loss_with_port if keep_port else attenuate)(measured_cm, 1, t)


def test_loss_with_port_preserves_purity():
    g = tmsv_cm(2.0)
    out = loss_with_port(g, 1, 0.6)
    assert np.allclose(symplectic_spectrum(out), 1.0, atol=1e-9)


@pytest.mark.parametrize("family", [{}, {"max_thermal": 200.0, "squeeze_scale": 2.5}],
                         ids=["default", "hot"])
def test_attenuate_matches_the_beamsplitter_with_a_vacuum_port(family):
    # the one loss map against the independent route: a vacuum mode, the
    # package's beamsplitter, and the port traced out, on every mode
    rng = np.random.default_rng(30)
    for k in range(300):
        n = 1 + k % 3
        cm = random_physical_cm(rng, n, **family)
        t = float(k % 10) if k % 10 < 2 else rng.uniform(0.0, 1.0)   # both ends too
        for mode in range(n):
            ref = reduce(loss_with_port(cm, mode, t), list(range(n))).entries
            got = attenuate(cm, mode, t).entries
            assert np.abs(got - ref).max() <= 1e-15 * np.abs(cm.entries).max(), (k, mode, t)


def test_modulate_examples():
    out = modulate(np.eye(2), 0, 6.1, 0.0)
    assert np.allclose(out.entries, np.diag([7.1, 1.0]))
    same = modulate(np.eye(2), 0, 0.0, 0.0)
    assert np.array_equal(same.entries, np.eye(2))
    s = db_to_variance(-3.0)
    reached = modulate(np.diag([s, 1 / s]), 0, 9.84 - s, 0.0)
    assert reached.entries[0, 0] == pytest.approx(9.84)
    assert (9.84 - s) == pytest.approx(9.339, abs=5e-4)


@pytest.mark.parametrize("mode", [-1, 2])
def test_modulate_rejects_mode_out_of_range(mode):
    # -1 used to add the noise to the last mode, 2 to raise IndexError
    with pytest.raises(InvalidInputError):
        modulate(np.eye(4), mode, 0.1, 0.1)


def test_modulate_rejects_negative():
    with pytest.raises(InvalidInputError):
        modulate(np.eye(2), 0, -0.1, 0.0)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_squeezer_and_rotation_reject_non_finite_parameters(value):
    with pytest.raises(InvalidInputError):
        squeezer(value)
    with pytest.raises(InvalidInputError):
        rotation(value)


def test_squeezer_examples():
    assert np.array_equal(squeezer(1.0).entries, np.eye(2))
    s = squeezer(0.25).entries
    assert np.linalg.det(s) == pytest.approx(1.0)
    out = apply_symplectic(np.eye(2), squeezer(db_to_variance(-3.0)))
    assert out.entries[0, 0] == pytest.approx(0.501187, abs=1e-6)


def test_cmr_noise_cases(measured_cm):
    same = cmr_noise(measured_cm, 0.0, 0.5)
    assert np.array_equal(same.entries, measured_cm.entries)
    only_a = cmr_noise(np.eye(4), 0.047, 0.0)
    assert np.allclose(only_a.entries, np.diag([1.047, 1.047, 1.0, 1.0]))
    both = cmr_noise(np.eye(4), 3.9e-3, 1.0)
    assert np.allclose(np.diag(both.entries), 1.0 + 3.9e-3)


def test_cmr_rejects_negative():
    with pytest.raises(InvalidInputError):
        cmr_noise(np.eye(4), -0.1, 0.5)


def test_purify_thermal_is_tmsv():
    m = 3.7
    out = minimal_purification(np.diag([m, m]))
    assert np.abs(out.entries - tmsv_cm(m).entries).max() <= 1e-10


def test_purify_modulated_input():
    g1 = np.diag([9.84, 38.4])
    out = minimal_purification(g1)
    assert np.allclose(symplectic_spectrum(out), 1.0, atol=1e-8)
    assert np.abs(reduce(out, [0]).entries - g1).max() <= 1e-9


def test_purify_rejects_nonphysical():
    with pytest.raises(NonPhysicalStateError):
        minimal_purification(np.diag([0.5, 0.5]))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_purify_round_trip_random(seed):
    rng = np.random.default_rng(seed)
    g1 = random_physical_cm(rng, 1)
    out = minimal_purification(g1)
    assert np.abs(reduce(out, [0]).entries - g1.entries).max() <= 1e-9
    assert np.allclose(symplectic_spectrum(out), 1.0, atol=1e-8)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6),
       st.floats(0.0, 1.0),
       st.floats(0.0, 5.0),
       st.floats(0.0, 5.0))
def test_channels_preserve_physicality(seed, t, w_x, w_p):
    rng = np.random.default_rng(seed)
    cm = random_physical_cm(rng, 2)
    out = attenuate(cm, rng.integers(0, 2), t)
    out = modulate(out, rng.integers(0, 2), w_x, w_p)
    out = cmr_noise(out, rng.uniform(0, 0.1), t)
    out = apply_symplectic(out, rotation(rng.uniform(0, 2 * np.pi), 2, 0))
    assert validate_physical(out) >= -1e-9
