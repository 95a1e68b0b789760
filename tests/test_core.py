import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gausscorr.core import (CovMatrix, apply_symplectic, cm_from_dict, cm_to_dict,
                            partial_transpose, ppt_min_eig, read_cm_file, reduce, seralian,
                            standard_form, symplectic_form, symplectic_spectrum,
                            tensor, two_mode_symplectic_values, validate_physical,
                            williamson, write_cm_file)
from gausscorr.channels import InputSpec, attenuate, beamsplitter, rotation, squeezer, tmsv_cm
from gausscorr.correlations import discord, discord_oracle, geof, von_neumann_entropy
from gausscorr.errors import InvalidInputError, NonPhysicalStateError, NumericalError
from gausscorr.scenarios import build_split_state

from helpers import (cm_call_args, cm_entry_points, make_coherent_mixture_cm,
                     minimal_purification, random_physical_cm, random_symplectic,
                     split_block_form)


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


def _reference_entries(entries):
    """The CovMatrix check on numpy arrays, the way it was written before the float-list check."""
    try:
        g = np.asarray(entries)
        if g.dtype.kind not in "iuf":
            raise TypeError(f"entries of dtype {g.dtype} are not real numbers")
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f"bad covariance matrix entries: {exc}") from None
    g = g.astype(float, copy=False)
    if g.ndim != 2 or g.shape[0] != g.shape[1] or g.shape[0] % 2 or g.shape[0] == 0:
        raise InvalidInputError(f"covariance matrix must be 2n x 2n, got {g.shape}")
    peak = np.abs(g).max()
    if not peak < np.inf:
        raise InvalidInputError("covariance matrix has non-finite entries")
    gt = g.T
    if np.abs(g - gt).max() > 1e-12 * max(1.0, peak):
        raise InvalidInputError("covariance matrix is not symmetric within 1e-12")
    if g.diagonal().min() <= 0:
        raise InvalidInputError("covariance matrix has non-positive diagonal entries")
    return (g + gt) / 2


@st.composite
def _checked_candidates(draw):
    """Symmetric 2x2 to 8x8 float or int arrays, then at most one defect of the check's kinds."""
    n = 2 * draw(st.integers(1, 4))
    integer = draw(st.booleans())
    if integer:
        dtype = draw(st.sampled_from([np.int8, np.int32, np.int64, np.uint16]))
        low = 0 if dtype == np.uint16 else -100
        values = draw(st.lists(st.integers(low, 100), min_size=n * n, max_size=n * n))
    else:
        dtype = float
        values = draw(st.lists(st.floats(-1e6, 1e6) | st.sampled_from([0.0, -0.0, 1e-300]),
                               min_size=n * n, max_size=n * n))
    m = np.array(values, dtype=dtype).reshape(n, n)
    if not integer:   # peaks below 1 too, where the bound is 1e-12 absolute
        m *= draw(st.sampled_from([1.0, 1e-9]))
    m = np.triu(m) + np.triu(m, 1).T
    m[np.diag_indices(n)] = np.abs(m.diagonal()) + (1 if integer else 1e-3)
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    other = draw(st.integers(1, n - 1))   # an off-diagonal column of row i
    defects = ["none", "asymmetric", "zero diagonal"]
    defects += ["negative diagonal"] if dtype != np.uint16 else []
    defects += [] if integer else ["nan", "+inf", "-inf", "both infs"]
    defect = draw(st.sampled_from(defects))
    if defect == "asymmetric":
        k = (i + other) % n
        if integer:
            m[i, k] += 1
        elif draw(st.booleans()):
            scale = draw(st.sampled_from([0.5, 1 - 1e-6, 1.0, 1 + 1e-6, 2.0]))
            m[i, k] += scale * 1e-12 * max(1.0, np.abs(m).max())
        else:   # |g_ik - g_ki| exactly at the bound, which is still symmetric enough
            m[i, k] = m[k, i] = 0.0
            m[i, k] = 1e-12 * max(1.0, np.abs(m).max())
    elif defect == "zero diagonal":
        m[i, i] = 0
    elif defect == "negative diagonal":
        m[i, i] = -m[i, i]
    elif defect in ("nan", "+inf", "-inf"):
        m[i, j] = {"nan": np.nan, "+inf": np.inf, "-inf": -np.inf}[defect]
    elif defect == "both infs":
        m[i, j], m[(i + other) % n, j] = np.inf, -np.inf
    return m


def _decision(check, m):
    try:
        return "accepted", check(m)
    except InvalidInputError as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(_checked_candidates())
def test_covmatrix_check_matches_the_numpy_check(m):
    with np.errstate(all="ignore"):
        want = _decision(_reference_entries, m)
    got = _decision(lambda x: CovMatrix(x).entries, m)
    assert got[0] == want[0]
    if got[0] == "accepted":
        assert got[1].dtype == want[1].dtype and np.array_equal(got[1], want[1])
        assert not got[1].flags.writeable
    else:
        assert got[1] == want[1]


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


def _stored_inputs(kind, rng):
    """(raw argument, its float array) of one storage case; random_physical_cm is exactly symmetric."""
    g = np.array(random_physical_cm(rng, int(rng.integers(1, 4)), max_thermal=200.0,
                                    squeeze_scale=2.5).entries)
    n = g.shape[0]
    i, j = sorted(rng.choice(n, size=2, replace=False))
    if kind == "asymmetric":   # one pair apart by at most the 1e-12 bound
        g[j, i] += rng.uniform(-1.0, 1.0) * 1e-12 * np.abs(g).max()
    elif kind == "signed zeros":   # equal under ==, not bit for bit
        g[i, j], g[j, i] = 0.0, -0.0
    elif kind == "negative zeros":
        g[i, j] = g[j, i] = -0.0
    elif kind == "fortran order":
        g = np.asfortranarray(g)
    return (g.tolist() if kind == "list" else g), g


@pytest.mark.parametrize("kind", ["symmetric", "asymmetric", "signed zeros", "negative zeros",
                                  "fortran order", "list"])
def test_covmatrix_stores_the_mean_as_a_read_only_copy(kind):
    # exactly symmetric input is stored as a copy, other input as the mean: both are
    # bit for bit (g + g^T) / 2, read-only, and never a view of the caller's array
    rng = np.random.default_rng(23)
    for _ in range(200):
        raw, g = _stored_inputs(kind, rng)
        stored = CovMatrix(raw).entries
        assert stored.dtype == np.float64
        assert stored.tobytes() == ((g + g.T) / 2).tobytes()
        assert not stored.flags.writeable
        assert not np.shares_memory(stored, g)


def _huge_inputs():
    exact = np.diag([1.7e308, 1.7e308, 1.0, 1.0])
    near = exact.copy()
    near[0, 1] = 1e296            # asymmetric within 1e-12 of the peak
    pair = exact.copy()
    pair[0, 1], pair[1, 0] = 1.7e308, 1.7e308 * (1.0 - 1e-13)   # the pair's sum overflows
    return {"exact": exact, "near": near, "pair": pair}


@pytest.mark.parametrize("name", sorted(_huge_inputs()))
def test_covmatrix_stores_entries_beyond_2_1023_finite(name):
    # (g + g^T) / 2 overflowed to inf here; the stored entries are that mean wherever it is
    # finite and finite everywhere, with no RuntimeWarning on the way
    g = _huge_inputs()[name]
    with np.errstate(over="ignore"):
        mean = (g + g.T) / 2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stored = CovMatrix(g).entries
    assert np.isfinite(stored).all()
    finite = np.isfinite(mean)
    assert not finite.all()
    assert stored[finite].tobytes() == mean[finite].tobytes()
    assert np.array_equal(stored, stored.T)
    assert np.array_equal(stored[~finite], (g / 2 + g.T / 2)[~finite])


@pytest.mark.parametrize("name", ["exact", "near"])
def test_functionals_on_entries_beyond_2_1023(name):
    # the stored inf made discord, ppt_min_eig and validate_physical raise numpy's
    # LinAlgError ("Eigenvalues did not converge"); the physical state's invariants
    # overflow, a NumericalError, and its witnesses are finite
    g = _huge_inputs()[name]
    assert math.isfinite(validate_physical(g)) and math.isfinite(ppt_min_eig(g))
    for mode in (0, 1):
        for allow_measured in (False, True):
            with np.errstate(over="ignore"), pytest.raises(NumericalError):
                discord(g, mode, allow_measured=allow_measured)


@pytest.mark.parametrize("kind", ["ragged", "complex", "string"])
def test_covmatrix_rejects_malformed_entries(kind):
    with pytest.raises(InvalidInputError):
        CovMatrix(_malformed(kind))


def test_cm_entry_points_are_found():
    # the introspection below must see every function that takes a CM
    assert {"seralian", "two_mode_symplectic_values", "duan_value", "duan_optimize",
            "symplectic_spectrum", "von_neumann_entropy", "williamson",
            "matched_sample_size", "cm_resampling_pipeline", "tensor", "geof",
            "discord", "write_cm_file"} <= set(cm_entry_points())


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


def _mode_arguments():
    """{name: (number of modes, call with one mode argument)} for every function taking a mode."""
    cm = tmsv_cm(2.0)
    state = build_split_state(InputSpec("squeezed", -3.0, 9.84, 38.4), 0.5)
    return {
        "reduce": (2, lambda m: reduce(cm, [m])),
        "partial_transpose": (2, lambda m: partial_transpose(cm, m)),
        "attenuate": (2, lambda m: attenuate(cm, m, 0.3)),
        "geof": (2, lambda m: geof(cm, a_mode=m)),
        "discord": (2, lambda m: discord(cm, measured_mode=m)),
        "discord_oracle": (2, lambda m: discord_oracle(cm, measured_mode=m)),
        "beamsplitter": (3, lambda m: beamsplitter(0.5, 3, (0, m))),
        "squeezer": (2, lambda m: squeezer(2.0, 2, m)),
        "rotation": (2, lambda m: rotation(0.3, 2, m)),
        "effective_cm": (3, lambda m: state.effective_cm([m])),
    }


@pytest.mark.parametrize("name", sorted(_mode_arguments()))
def test_every_mode_argument_takes_one_rule(name):
    # a mode is an integer in [0, n_modes): -1 used to pick the last mode,
    # 0.5 a block straddling two modes, True mode 1
    n_modes, call = _mode_arguments()[name]
    for bad in (-1, n_modes, 0.5, True):
        with pytest.raises(InvalidInputError):
            call(bad)
    call(np.int64(1))


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


@pytest.mark.parametrize("n_modes", [2, 3])
def test_spectral_functions_reject_indefinite_cm(n_modes):
    # [[1, 2], [2, 1]] passes every CovMatrix check but has eigenvalue -1: the
    # spectrum read [1, 1.732], the entropy 0.794 nats and williamson raised LinAlgError
    g = np.eye(2 * n_modes)
    g[:2, :2] = [[1.0, 2.0], [2.0, 1.0]]
    calls = [symplectic_spectrum, von_neumann_entropy, williamson]
    if n_modes == 2:
        calls.append(two_mode_symplectic_values)   # read (0.0, 1.0)
    for fn in calls:
        with pytest.raises(NonPhysicalStateError):
            fn(g)


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


def _standard_form_cases():
    """Two-mode CMs of each kind the standard form meets, as (family, entries)."""
    rng = np.random.default_rng(7)
    cases = [("random", random_physical_cm(rng, 2).entries) for _ in range(25)]
    for _ in range(10):
        local = np.zeros((4, 4))
        local[:2, :2] = random_symplectic(rng, 1).entries
        local[2:, 2:] = random_symplectic(rng, 1).entries
        a, b = rng.uniform(1.0, 5.0, 2)
        c_plus = rng.uniform(0.0, 1.0) * math.sqrt((a - 1) * (b - 1))
        c_minus = -rng.uniform(0.0, 1.0) * c_plus
        cases.append(("product", local @ np.diag([a, a, b, b]) @ local.T))
        std = np.diag([a, a, b, b])
        std[0, 2] = std[2, 0] = c_plus    # std - I >= 0: physical
        std[1, 3] = std[3, 1] = c_minus
        cases.append(("c_minus < 0", local @ std @ local.T))
        cases.append(("symmetric", local @ attenuate(
            attenuate(tmsv_cm(a), 0, rng.uniform(0.3, 1.0)), 1, rng.uniform(0.3, 1.0)).entries
            @ local.T))
        s = random_symplectic(rng, 2).entries
        nus = np.repeat(1.0 + 10.0 ** rng.uniform(-12, -6, 2), 2)
        cases.append(("near-pure", (s * nus) @ s.T))
        cases.append(("hot", random_physical_cm(rng, 2, max_thermal=200.0,
                                                squeeze_scale=2.5).entries))
    return cases


def test_standard_form_canonical_ordering_and_reconstruction():
    for family, g in _standard_form_cases():
        g = (g + g.T) / 2
        sf = standard_form(g)
        assert sf.a >= 1 - 1e-9 and sf.b >= 1 - 1e-9, family
        assert sf.c_plus >= abs(sf.c_minus), family
        c = g[0, 2] * g[1, 3] - g[0, 3] * g[1, 2]
        assert abs(sf.c_plus * sf.c_minus - c) <= 1e-12 * abs(c), family
        s_a, s_b = sf.local_ops
        for op in (s_a, s_b):
            assert abs(np.linalg.det(op.entries) - 1.0) <= 1e-12, family
        full = np.zeros((4, 4))
        full[:2, :2] = s_a.entries
        full[2:, 2:] = s_b.entries
        recon = full @ g @ full.T
        assert np.abs(recon - sf.matrix()).max() <= 1e-12 * np.abs(g).max(), family


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
    sf = standard_form(split_block_form(v_x, v_p))
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
