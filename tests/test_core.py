import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gausscorr.core import (CovMatrix, apply_symplectic, cm_from_dict, cm_to_dict,
                            partial_transpose, ppt_min_eig, random_physical_cm,
                            random_symplectic, read_cm_file, reduce, seralian,
                            standard_form, symplectic_form, symplectic_spectrum,
                            tensor, two_mode_symplectic_values, validate_physical,
                            williamson, write_cm_file)
from gausscorr.channels import minimal_purification, tmsv_cm
from gausscorr.errors import InvalidInputError, NonPhysicalStateError

from conftest import cm_call_args, cm_entry_points, make_coherent_mixture_cm


def test_symplectic_form_invariants():
    for n in (1, 2, 3):
        om = symplectic_form(n)
        assert np.allclose(om @ om, -np.eye(2 * n))
        assert np.allclose(om.T, -om)


def test_covmatrix_rejects_asymmetric():
    g = np.eye(4)
    g[0, 1] = 1e-6
    with pytest.raises(InvalidInputError):
        CovMatrix(g)


def test_covmatrix_rejects_nonpositive_diagonal():
    with pytest.raises(InvalidInputError):
        CovMatrix(np.diag([1.0, -0.5, 1.0, 1.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_covmatrix_rejects_non_finite(bad):
    for i, j in ((0, 0), (0, 1)):
        g = np.eye(4)
        g[i, j] = g[j, i] = bad
        with pytest.raises(InvalidInputError, match="non-finite"):
            CovMatrix(g)


def _malformed(kind):
    g = np.eye(4).tolist()
    if kind == "nan":
        g[0][0] = np.nan
    elif kind == "inf":
        g[1][3] = g[3][1] = np.inf
    elif kind == "asymmetric":
        g[0][2] = 0.5
    elif kind == "ragged":
        del g[2][1]
    elif kind == "complex":
        g = np.eye(4, dtype=complex)
        g[0, 1], g[1, 0] = 0.5j, -0.5j
    elif kind == "string":
        g = [[str(x) for x in row] for row in g]
    return g


MALFORMED = ["nan", "inf", "asymmetric", "ragged", "complex", "string"]


@pytest.mark.parametrize("kind", ["ragged", "complex", "string"])
def test_covmatrix_rejects_malformed_entries(kind):
    with pytest.raises(InvalidInputError):
        CovMatrix(_malformed(kind))


def test_cm_entry_points_are_found():
    # the introspection below must see every function that takes a CM
    assert {"seralian", "two_mode_symplectic_values", "duan_value", "duan_optimize",
            "symplectic_spectrum", "von_neumann_entropy", "williamson",
            "matched_sample_size", "cm_resampling_pipeline", "tensor", "geof",
            "discord", "minimal_purification", "write_cm_file"} <= set(cm_entry_points())


@pytest.mark.parametrize("kind", MALFORMED)
def test_every_cm_parameter_rejects_malformed_raw_arrays(tmp_path, kind):
    good = tmsv_cm(2.0).entries
    extra = cm_call_args(tmp_path)
    for name, (fn, params) in cm_entry_points().items():
        for bad in params:
            args = {p: _malformed(kind) if p == bad else good for p in params}
            with pytest.raises(InvalidInputError):
                fn(**args, **extra.get(name, {}))
    assert not (tmp_path / "cm.json").exists()  # a rejected CM writes no file


def test_validate_physical_vacuum_saturates():
    assert validate_physical(np.eye(4)) == pytest.approx(0.0, abs=1e-12)


def test_validate_physical_pure_squeezed_saturates():
    assert validate_physical(np.diag([0.5, 2.0, 1.0, 1.0])) == pytest.approx(0.0, abs=1e-12)


def test_validate_physical_measured_cm(measured_cm):
    assert validate_physical(measured_cm) >= -1e-9


def test_spectrum_thermal_diagonal():
    sp = symplectic_spectrum(np.diag([3.0, 3.0, 5.0, 5.0]))
    assert np.allclose(sp, [3.0, 5.0])


@pytest.mark.parametrize("r", [0.1, 0.35, 0.8])
def test_spectrum_tmsv_pure(r):
    sp = symplectic_spectrum(tmsv_cm(np.cosh(2 * r)))
    assert np.allclose(sp, [1.0, 1.0], atol=1e-9)


def test_spectrum_closed_form_agreement(measured_cm):
    nu_m, nu_p = two_mode_symplectic_values(measured_cm)
    sp = symplectic_spectrum(measured_cm)
    assert abs(sp[0] - nu_m) <= 1e-9
    assert abs(sp[1] - nu_p) <= 1e-9


def test_spectrum_rejects_nonphysical():
    with pytest.raises(NonPhysicalStateError):
        symplectic_spectrum(np.diag([0.5, 0.5, 1.0, 1.0]))


def test_spectrum_product_matches_det(measured_cm):
    sp = symplectic_spectrum(measured_cm)
    det = np.linalg.det(measured_cm.entries)
    assert np.prod(sp ** 2) == pytest.approx(det, rel=1e-8)


def test_seralian_identity():
    assert seralian(np.eye(4)) == pytest.approx(2.0)


def test_seralian_standard_form_arithmetic():
    g = np.diag([2.0, 2.0, 2.0, 2.0])
    g[0, 2] = g[2, 0] = 1.0
    g[1, 3] = g[3, 1] = -1.0
    assert seralian(g) == pytest.approx(6.0)


def test_seralian_wrong_mode_count():
    with pytest.raises(InvalidInputError):
        seralian(np.eye(6))


def test_seralian_matches_own_standard_form(measured_cm):
    sf = standard_form(measured_cm)
    delta = sf.a ** 2 + sf.b ** 2 + 2 * sf.c_plus * sf.c_minus
    assert abs(delta - seralian(measured_cm)) <= 1e-8


def test_standard_form_already_standard():
    g = np.diag([3.0, 3.0, 2.0, 2.0])
    g[0, 2] = g[2, 0] = 1.5
    g[1, 3] = g[3, 1] = -0.5
    sf = standard_form(g)
    assert sf.a == pytest.approx(3.0)
    assert sf.b == pytest.approx(2.0)
    assert sf.c_plus == pytest.approx(1.5)
    assert sf.c_minus == pytest.approx(-0.5)
    for op in sf.local_ops:
        assert np.allclose(op.entries, np.eye(2), atol=1e-9)


def test_standard_form_canonical_ordering_and_reconstruction():
    rng = np.random.default_rng(7)
    for _ in range(25):
        cm = random_physical_cm(rng, 2)
        sf = standard_form(cm)
        assert sf.a >= 1 - 1e-9 and sf.b >= 1 - 1e-9
        assert sf.c_plus >= abs(sf.c_minus) - 1e-12
        s_a, s_b = sf.local_ops
        full = np.zeros((4, 4))
        full[:2, :2] = s_a.entries
        full[2:, 2:] = s_b.entries
        recon = full @ cm.entries @ full.T
        assert np.abs(recon - sf.matrix()).max() <= 1e-9


def test_standard_form_preserves_local_invariants(measured_cm):
    g = measured_cm.entries
    sf = standard_form(measured_cm)
    assert np.linalg.det(g[:2, :2]) == pytest.approx(sf.a ** 2, rel=1e-9)
    assert np.linalg.det(g[2:, 2:]) == pytest.approx(sf.b ** 2, rel=1e-9)
    assert np.linalg.det(g[:2, 2:]) == pytest.approx(sf.c_plus * sf.c_minus, rel=1e-9)
    assert np.linalg.det(g) == pytest.approx(
        np.linalg.det(sf.matrix()), rel=1e-9)


def test_standard_form_split_state_values():
    # balanced split of diag(v_x, v_p): blocks (gamma_in +- 1)/2
    v_x, v_p = 9.84, 38.4
    gin = np.diag([v_x, v_p])
    g = 0.5 * np.block([[gin + np.eye(2), gin - np.eye(2)],
                        [gin - np.eye(2), gin + np.eye(2)]])
    sf = standard_form(g)
    a_expect = np.sqrt((v_x + 1) * (v_p + 1)) / 2
    c_x = np.sqrt((v_p + 1) / (v_x + 1)) * (v_x - 1) / 2
    c_p = np.sqrt((v_x + 1) / (v_p + 1)) * (v_p - 1) / 2
    assert sf.a == pytest.approx(a_expect, abs=1e-10)
    assert sf.b == pytest.approx(a_expect, abs=1e-10)
    # canonical ordering flips the (x, p) labelling since c_p > c_x here
    assert sorted([sf.c_plus, sf.c_minus]) == pytest.approx(sorted([c_x, c_p]), abs=1e-10)


def test_standard_form_product_state():
    g = np.diag([2.0, 0.6, 1.5, 1.5])
    sf = standard_form(g)
    assert sf.c_plus == pytest.approx(0.0, abs=1e-12)
    assert sf.c_minus == pytest.approx(0.0, abs=1e-12)
    assert sf.a == pytest.approx(np.sqrt(1.2))


def test_partial_transpose_involutive(measured_cm):
    twice = partial_transpose(partial_transpose(measured_cm, 0), 0)
    assert np.array_equal(twice.entries, measured_cm.entries)


def test_partial_transpose_identity():
    assert np.array_equal(partial_transpose(np.eye(4), 0).entries, np.eye(4))


def test_partial_transpose_sign_pattern():
    g = np.diag([2.0, 2.0, 3.0, 3.0])
    g[0, 2] = g[2, 0] = 0.7
    g[1, 3] = g[3, 1] = -0.7
    pt = partial_transpose(g, 0).entries
    assert pt[1, 3] == pytest.approx(0.7)
    assert pt[0, 2] == pytest.approx(0.7)
    assert pt[1, 1] == pytest.approx(2.0)


def test_partial_transpose_index_error():
    with pytest.raises(InvalidInputError):
        partial_transpose(np.eye(4), 2)


def test_ppt_measured_cm(measured_cm):
    assert ppt_min_eig(measured_cm) == pytest.approx(0.84, abs=0.02)


def test_ppt_vacua_boundary():
    assert ppt_min_eig(np.eye(4)) == pytest.approx(0.0, abs=1e-12)


def test_ppt_tmsv_entangled():
    assert ppt_min_eig(tmsv_cm(np.cosh(2 * 0.35))) < 0


def test_reduce_examples(measured_cm):
    assert np.array_equal(reduce(np.eye(4), [0]).entries, np.eye(2))
    b = reduce(measured_cm, [1]).entries
    assert np.allclose(b, [[4.73, 0.55], [0.55, 17.70]])


def test_apply_symplectic_preserves_det():
    rng = np.random.default_rng(3)
    cm = random_physical_cm(rng, 2)
    s = random_symplectic(rng, 2)
    out = apply_symplectic(cm, s)
    assert np.linalg.det(out.entries) == pytest.approx(np.linalg.det(cm.entries), rel=1e-9)


def test_apply_symplectic_rejects_nonsymplectic():
    with pytest.raises(InvalidInputError):
        apply_symplectic(np.eye(4), 1.1 * np.eye(4))


def test_apply_symplectic_checks_raw_s_like_a_symplectic_transform():
    # a raw S is checked once, as a SymplecticTransform, to its 1e-10
    s = np.eye(4)
    s[0, 0] += 1e-9
    with pytest.raises(InvalidInputError):
        apply_symplectic(np.eye(4), s)
    s[0, 0] = 1.0 + 1e-12
    assert apply_symplectic(np.eye(4), s).entries[0, 0] == (1.0 + 1e-12) ** 2


def test_tensor_shapes():
    out = tensor(np.eye(2), np.diag([3.0, 3.0]))
    assert np.array_equal(out.entries, np.diag([1.0, 1.0, 3.0, 3.0]))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_spectrum_invariant_under_symplectics(seed):
    rng = np.random.default_rng(seed)
    cm = random_physical_cm(rng, 2)
    s = random_symplectic(rng, 2)
    before = symplectic_spectrum(cm)
    after = symplectic_spectrum(apply_symplectic(cm, s))
    assert np.abs(before - after).max() <= 1e-8


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_seralian_invariant_under_local_symplectics(seed):
    rng = np.random.default_rng(seed)
    cm = random_physical_cm(rng, 2)
    local = np.zeros((4, 4))
    local[:2, :2] = random_symplectic(rng, 1).entries
    local[2:, 2:] = random_symplectic(rng, 1).entries
    out = apply_symplectic(cm, local)
    assert seralian(out) == pytest.approx(seralian(cm), rel=1e-9, abs=1e-9)
    assert np.linalg.det(out.entries) == pytest.approx(
        np.linalg.det(cm.entries), rel=1e-9)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_closed_form_matches_general_eigensolve(seed):
    rng = np.random.default_rng(seed)
    cm = random_physical_cm(rng, 2)
    nu_m, nu_p = two_mode_symplectic_values(cm)
    sp = symplectic_spectrum(cm)
    assert abs(sp[0] - max(nu_m, 1.0)) <= 1e-8
    assert abs(sp[1] - nu_p) <= 1e-8


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_coherent_mixtures_stay_ppt(seed):
    rng = np.random.default_rng(seed)
    cm = make_coherent_mixture_cm(rng)
    assert ppt_min_eig(cm) >= -1e-9


def test_williamson_reconstructs():
    # degenerate spectra included: the vacuum, a pure TMSV (all nu = 1) and
    # a thermal product at one temperature
    rng = np.random.default_rng(11)
    cases = [np.eye(2), np.eye(4), tmsv_cm(3.0).entries, 2.5 * np.eye(6)]
    cases += [random_physical_cm(rng, n).entries for n in (1, 2, 3) for _ in range(4)]
    cases.append(random_physical_cm(rng, 3, max_thermal=1.3, squeeze_scale=1.5).entries)
    for g in cases:
        n = g.shape[0] // 2
        s, nus = williamson(g)
        om = symplectic_form(n)
        assert np.abs(s.entries @ om @ s.entries.T - om).max() <= 1e-10
        recon = s.entries @ np.diag(np.repeat(nus, 2)) @ s.entries.T
        assert np.abs(recon - g).max() <= 1e-10
        assert np.all(np.diff(nus) >= 0) and nus.min() >= 1.0 - 1e-10
        pure = minimal_purification(g)
        assert np.abs(symplectic_spectrum(pure) - 1.0).max() <= 1e-8
        assert np.abs(reduce(pure, range(n)).entries - g).max() <= 1e-9


def test_cm_file_roundtrip(tmp_path, measured_cm):
    path = tmp_path / "cm.json"
    write_cm_file(path, measured_cm)
    back = read_cm_file(path)
    assert np.allclose(back.entries, measured_cm.entries)


def test_cm_file_rejects_unknown_keys():
    with pytest.raises(InvalidInputError):
        cm_from_dict({"n_modes": 2, "gamma": np.eye(4).tolist(), "extra": 1})


@pytest.mark.parametrize("kind", ["ragged", "string", "complex"])
def test_cm_file_rejects_malformed_gamma(kind):
    gamma = _malformed(kind)
    with pytest.raises(InvalidInputError):
        cm_from_dict({"n_modes": 2, "gamma": gamma if isinstance(gamma, list) else gamma.tolist()})


def test_cm_file_rejects_inconsistent_n_modes():
    with pytest.raises(InvalidInputError):
        cm_from_dict({"n_modes": 3, "gamma": np.eye(4).tolist()})


def test_cm_file_physicality_flag():
    bad = {"n_modes": 1, "gamma": [[0.5, 0.0], [0.0, 0.5]]}
    with pytest.raises(NonPhysicalStateError):
        cm_from_dict(bad)
    cm = cm_from_dict(bad, allow_nonphysical=True)
    assert cm.entries[0, 0] == 0.5


def test_roundtrip_dict(measured_cm):
    assert np.allclose(cm_from_dict(cm_to_dict(measured_cm)).entries,
                       measured_cm.entries)
