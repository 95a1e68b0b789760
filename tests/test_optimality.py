import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gausscorr.errors import InvalidInputError
from gausscorr.optimality import certify, decomposition_params, vx_threshold

from helpers import reconstructed_standard_form, split_standard_form


def test_eta_equals_one_minus_tau_reference_point():
    p = decomposition_params(9.84, 38.4)
    assert abs(p.eta - (1.0 - p.tau_channel)) <= 1e-12


def test_eta_identity_on_grid():
    for v_x in np.linspace(1.1, 12.0, 20):
        for v_p in np.linspace(v_x + 0.3, 45.0, 20):
            p = decomposition_params(v_x, v_p)
            assert abs(p.eta - (1.0 - p.tau_channel)) <= 1e-10


def test_tau_degenerates_as_vx_approaches_one():
    p = decomposition_params(1.0 + 1e-9, 38.4)
    assert abs(p.tau_channel) <= 1e-7


def test_round_trip_reference_point():
    ours = split_standard_form(9.84, 38.4)
    recon = reconstructed_standard_form(decomposition_params(9.84, 38.4))
    assert np.abs(np.array(ours) - np.array(recon)).max() <= 1e-10


def test_round_trip_grid():
    worst = 0.0
    for v_x in np.linspace(1.2, 12.0, 20):
        for v_p in np.linspace(v_x + 0.3, 45.0, 20):
            ours = np.array(split_standard_form(v_x, v_p))
            recon = np.array(reconstructed_standard_form(
                decomposition_params(v_x, v_p)))
            worst = max(worst, np.abs(ours - recon).max())
    assert worst <= 1e-9


def test_r_at_least_inverse_m_on_grid():
    for v_x in np.linspace(1.05, 10.0, 15):
        for v_p in np.linspace(v_x + 0.1, 40.0, 15):
            p = decomposition_params(v_x, v_p)
            assert p.r >= 1.0 / p.m - 1e-12


def test_certify_reference_true():
    cert = certify(9.84, 38.4)
    assert cert.certified
    assert cert.cond_tau_real and cert.cond_eta
    assert cert.cond_r_range and cert.cond_vx_threshold


def test_certify_below_threshold():
    cert = certify(1.5, 2.0)
    assert not cert.cond_vx_threshold
    assert not cert.certified
    assert vx_threshold(2.0) == pytest.approx(3.0 - 4.0 / 3.0)


def test_certify_large_vx_passes_threshold():
    for v_p in (5.0, 20.0, 100.0):
        cert = certify(3.0, max(v_p, 3.1))
        assert cert.cond_vx_threshold


def test_threshold_equivalent_to_r_range():
    # r <= m holds exactly when v_x clears the threshold
    for v_x, v_p in [(2.0, 5.0), (2.8, 30.0), (3.5, 12.0), (1.5, 2.0)]:
        p = decomposition_params(v_x, v_p)
        assert (p.r <= p.m + 1e-9) == (v_x >= vx_threshold(v_p) - 1e-9)


def test_ordering_validation():
    with pytest.raises(InvalidInputError):
        decomposition_params(5.0, 3.0)
    with pytest.raises(InvalidInputError):
        certify(0.9, 2.0)


def test_certificate_dict_shape():
    d = certify(9.84, 38.4).to_dict()
    assert set(d) == {"m", "tau_channel", "eta", "r", "xi", "cond_tau_real",
                      "cond_eta", "cond_r_range", "cond_vx_threshold", "certified"}


@settings(max_examples=50, deadline=None)
@given(st.floats(1.01, 20.0), st.floats(0.05, 40.0))
def test_certificate_internally_consistent(v_x, gap):
    v_p = v_x + gap
    cert = certify(v_x, v_p)
    assert cert.certified == (cert.cond_tau_real and cert.cond_eta
                              and cert.cond_r_range and cert.cond_vx_threshold)
    assert cert.eta == pytest.approx(1.0 - cert.tau_channel, abs=1e-9)
