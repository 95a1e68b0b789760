"""Test references and seeded generators, kept outside the package they check.

No CLI command, script or benchmark workload reaches these functions; the
tests use them as references (the paper's split-state closed forms, the
ideal recovery value, a minimal purification, the per-point channel maps,
the beamsplitter-with-vacuum loss route, the discord oracle's seed chart
and its exact rational certificate)
or as seeded inputs.  Every test module takes them from here.
"""

import importlib
import inspect
import math
import pkgutil
import re
from dataclasses import replace
from fractions import Fraction

import numpy as np

import gausscorr
from gausscorr.channels import _purify, beamsplitter, rotation, squeezer
from gausscorr.core import (CovMatrix, SymplecticTransform, _checked, _physical,
                            _quadrature_indices, _two_mode, _williamson_frame,
                            apply_symplectic, tensor)
from gausscorr.errors import InvalidInputError
from gausscorr.optimality import DecompositionParams, _check_ordering


# ---------------------------------------------------------------------------
# the paper's closed forms

def split_block_form(v_x, v_p):
    """Balanced split of diag(v_x, v_p) with vacuum: 0.5 [[g + I, g - I], [g - I, g + I]]."""
    gin = np.diag([v_x, v_p])
    eye = np.eye(2)
    return 0.5 * np.block([[gin + eye, gin - eye], [gin - eye, gin + eye]])


def split_standard_form(v_x: float, v_p: float):
    """Standard-form elements (a, c_x, c_p) of the balanced split state.

    a = b = sqrt((V_x+1)(V_p+1))/2 and the cross entries carried by the x and
    p quadratures respectively.  Note c_x < c_p for V_p > V_x, so the
    canonical ordering of :func:`gausscorr.core.standard_form` lists them
    swapped.
    """
    _check_ordering(v_x, v_p)
    a = np.sqrt((v_x + 1) * (v_p + 1)) / 2
    c_x = np.sqrt((v_p + 1) / (v_x + 1)) * (v_x - 1) / 2
    c_p = np.sqrt((v_x + 1) / (v_p + 1)) * (v_p - 1) / 2
    return float(a), float(c_x), float(c_p)


def reconstructed_standard_form(params: DecompositionParams):
    """Standard-form elements (a, c_x, c_p) rebuilt from the decomposition.

    a = theta(r) theta(1/r), c entries from |tau| (m^2 - 1) and the theta
    ratio; signs follow the phase-conjugating channel (tau < 0).
    """
    m, tau, r = params.m, params.tau_channel, params.r

    def theta(x):
        return np.sqrt(params.eta * x + abs(tau) * m)

    a = theta(r) * theta(1 / r)
    c_x = np.sqrt(abs(tau) * (m * m - 1) * theta(1 / r) / theta(r))
    c_p = -np.sign(tau) * np.sqrt(abs(tau) * (m * m - 1) * theta(r) / theta(1 / r))
    return float(a), float(c_x), float(c_p)


def recovery_closed_form(r: float, big_t: float, g: float) -> float:
    """Ideal demodulated Duan value for a split squeezed input without excess noise.

    [e^{2r}(gT-R)^2 + (gR+T)^2][e^{-2r}(gT+R)^2 + (gR-T)^2] / (g^2+1)^2
    with R = sqrt(1 - T^2); for a balanced splitter and g = 1 this is e^{-2r}.
    """
    if not 0.0 <= big_t <= 1.0:
        raise InvalidInputError("amplitude transmittance must be in [0, 1]")
    if g <= 0:
        raise InvalidInputError("gain must be positive")
    big_r = np.sqrt(1.0 - big_t * big_t)
    up = np.exp(2 * r) * (g * big_t - big_r) ** 2 + (g * big_r + big_t) ** 2
    down = np.exp(-2 * r) * (g * big_t + big_r) ** 2 + (g * big_r - big_t) ** 2
    return float(up * down / (g * g + 1) ** 2)


# ---------------------------------------------------------------------------
# per-point channel maps and the reference purification

def modulate(cm, mode: int, w_x: float, w_p: float) -> CovMatrix:
    """Add classical Gaussian displacement noise diag(w_x, w_p) to one mode."""
    if w_x < 0 or w_p < 0:
        raise InvalidInputError("noise variances must be nonnegative")
    g = _checked(cm).copy()
    x, p = _quadrature_indices(g.shape[0] // 2, [mode])
    g[x, x] += w_x
    g[p, p] += w_p
    return CovMatrix(g)


def cmr_noise(cm, a: float, t: float) -> CovMatrix:
    """Detector common-mode-rejection noise on a two-mode CM.

    Adds diag(a, a, t*a, t*a): constant on the first mode, scaled by the
    attenuation transmittance t on the second.
    """
    if a < 0:
        raise InvalidInputError("CMR variance must be nonnegative")
    if not 0.0 <= t <= 1.0:
        raise InvalidInputError("transmittance must be in [0, 1]")
    return CovMatrix(_two_mode(cm) + np.diag([a, a, t * a, t * a]))


def loss_with_port(cm, mode: int, t: float) -> CovMatrix:
    """The CM with one mode sent through loss t, its vacuum loss port kept as a new last mode.

    The beamsplitter route, independent of the package's loss map
    ``channels._loss_stack``: tracing the port out gives ``attenuate``.
    """
    n = _checked(cm).shape[0] // 2
    return apply_symplectic(tensor(cm, np.eye(2)), beamsplitter(t, n + 1, (mode, n)))


def attenuate_mode(state, name: str, t: float):
    """The ScenarioState with the named mode sent through loss t; the loss port is mode "V".

    A vacuum mode from ``with_vacuum_mode`` mixed in on ``beamsplitter``:
    the sweep and the flow are checked against this route, not their own map.
    """
    st = state.with_vacuum_mode("V")
    return st.apply_symplectic(beamsplitter(t, st.n_modes, (st.mode_index(name), st.n_modes - 1)))


def drop_mode(state, name: str):
    """The ScenarioState with the named mode traced out: its CM rows and loading entries go."""
    keep = tuple(m for m in state.mode_names if m != name)
    idx = _quadrature_indices(state.n_modes, [state.mode_index(m) for m in keep])
    return replace(state, mode_names=keep,
                   quantum_cm=CovMatrix(state.quantum_cm.entries[np.ix_(idx, idx)]),
                   loadings=tuple(replace(ld, vector=ld.vector[idx]) for ld in state.loadings))


def minimal_purification(cm) -> CovMatrix:
    """Pure CM of the given n modes plus one purifying mode per mixed Williamson mode.

    The package's purification (``channels._purify``) of the Williamson frame
    of the checked input, after one physicality check.
    """
    return CovMatrix(_purify(*_williamson_frame(_physical(_checked(cm)))))


# ---------------------------------------------------------------------------
# the discord oracle's seed chart

def seed_chart_terms(coefficients):
    """(numerator, denominator) of det eps as a function of (cos 2theta, sin 2theta, e).

    coefficients are those of ``correlations._chart_coefficients``.  The
    returned function is plain arithmetic: it takes Python floats and
    broadcast arrays alike.
    """
    (mt, mc, ms, m1), (bt, bc, bs, b1) = coefficients

    def terms(cos2, sin2, e):
        mh, bh = mc * cos2 + ms * sin2, bc * cos2 + bs * sin2
        return (mt - mh) + e * (m1 + e * (mt + mh)), (bt - bh) + e * (b1 + e * (bt + bh))

    return terms


def seed_chart(coefficients):
    """det eps as a function of (cos 2theta, sin 2theta, e) on the oracle's seed chart.

    The quotient of :func:`seed_chart_terms`, the expression the oracle
    scores each of its iterates with.
    """
    terms = seed_chart_terms(coefficients)

    def det_eps(cos2, sin2, e):
        num, den = terms(cos2, sin2, e)
        return num / den

    return det_eps


def exact_det_eps(alpha, beta, delta, theta, e) -> Fraction:
    """det eps, exactly, at the seed (theta, e) of the chart rounded to rationals.

    The float blocks are exact rationals, and so are t = tan theta and e as
    floats; with cos^2 theta = 1 / (1 + t^2), the seed P_u / e + e P_v
    (u = (cos theta, sin theta), v perpendicular) is rational, and so is the
    homodyne limit e = 0 of the quadrature v.  eps = alpha - delta
    (beta + sigma)^-1 delta^T, or alpha - delta P_v delta^T / tr(beta P_v)
    at e = 0, is then evaluated in fractions: no rounding after the seed's.
    """
    a, b, d = ([[Fraction(x) for x in row] for row in m.tolist()] for m in (alpha, beta, delta))
    t, e = Fraction(math.tan(theta)), Fraction(e)
    pu = [[1 / (1 + t * t), t / (1 + t * t)], [t / (1 + t * t), t * t / (1 + t * t)]]
    pv = [[int(i == j) - pu[i][j] for j in (0, 1)] for i in (0, 1)]

    def mul(x, y):
        return [[x[i][0] * y[0][j] + x[i][1] * y[1][j] for j in (0, 1)] for i in (0, 1)]

    d_t = [[d[j][i] for j in (0, 1)] for i in (0, 1)]
    if e:
        n = [[b[i][j] + pu[i][j] / e + e * pv[i][j] for j in (0, 1)] for i in (0, 1)]
        det_n = n[0][0] * n[1][1] - n[0][1] * n[1][0]
        inv = [[n[1][1] / det_n, -n[0][1] / det_n], [-n[1][0] / det_n, n[0][0] / det_n]]
        k = mul(mul(d, inv), d_t)
    else:
        k = mul(mul(d, pv), d_t)
        scale = sum(b[i][j] * pv[j][i] for i in (0, 1) for j in (0, 1))
        k = [[x / scale for x in row] for row in k]
    eps = [[a[i][j] - k[i][j] for j in (0, 1)] for i in (0, 1)]
    return eps[0][0] * eps[1][1] - eps[0][1] * eps[1][0]


# ---------------------------------------------------------------------------
# seeded generators

def random_symplectic(rng, n_modes: int, squeeze_scale: float = 0.6) -> SymplecticTransform:
    """Random symplectic built from rotations, local squeezers and beamsplitters."""
    s = np.eye(2 * n_modes)
    for i in range(n_modes):
        sq = np.exp(rng.uniform(-squeeze_scale, squeeze_scale))
        loc = (rotation(rng.uniform(0, 2 * np.pi)).entries
               @ np.diag([sq, 1.0 / sq])
               @ rotation(rng.uniform(0, 2 * np.pi)).entries)
        full = np.eye(2 * n_modes)
        full[2 * i:2 * i + 2, 2 * i:2 * i + 2] = loc
        s = full @ s
    for i in range(n_modes):
        for j in range(i + 1, n_modes):
            s = beamsplitter(rng.uniform(0.05, 0.95), n_modes, (i, j)).entries @ s
    for i in range(n_modes):
        sq = squeezer(np.exp(rng.uniform(-squeeze_scale, squeeze_scale)), n_modes, i)
        s = sq.entries @ s
    return SymplecticTransform(s)


def random_physical_cm(rng, n_modes: int = 2, max_thermal: float = 2.5,
                       squeeze_scale: float = 0.6) -> CovMatrix:
    """Random physical CM: S diag(nu_i I) S^T with nu_i >= 1."""
    nus = rng.uniform(1.0, max_thermal, n_modes)
    core = np.diag(np.repeat(nus, 2))
    return apply_symplectic(core, random_symplectic(rng, n_modes, squeeze_scale))


def make_separable_cm(rng, n_loadings=3):
    """Two-mode CM separable by construction: product pure plus classical noise."""
    blocks = []
    for _ in range(2):
        th = rng.uniform(0, 2 * np.pi)
        z = rng.uniform(-0.4, 0.4)
        c, s = np.cos(th), np.sin(th)
        r = np.array([[c, -s], [s, c]])
        blocks.append(r @ np.diag([np.exp(2 * z), np.exp(-2 * z)]) @ r.T)
    g = np.zeros((4, 4))
    g[:2, :2], g[2:, 2:] = blocks
    for _ in range(n_loadings):
        vec = rng.normal(0, 1, 4)
        g += rng.uniform(0.1, 3.0) * np.outer(vec, vec)
    return CovMatrix(g)


def make_coherent_mixture_cm(rng, n_loadings=3):
    """Classical mixture of two-mode coherent states: identity plus classical noise."""
    g = np.eye(4)
    for _ in range(n_loadings):
        vec = rng.normal(0, 1, 4)
        g += rng.uniform(0.1, 4.0) * np.outer(vec, vec)
    return CovMatrix(g)


# ---------------------------------------------------------------------------
# the package's CM entry points, for the malformed-input loops

def cm_entry_points() -> dict:
    """{name: (function, CM parameter names)} for every public function of the
    gausscorr namespace or of a module's __all__ that takes a covariance
    matrix: a parameter named cm, cm1, cm2, ..."""
    names = {name: gausscorr for name in dir(gausscorr) if not name.startswith("_")}
    for info in pkgutil.iter_modules(gausscorr.__path__):
        module = importlib.import_module(f"gausscorr.{info.name}")
        names.update(dict.fromkeys(getattr(module, "__all__", ()), module))
    found = {}
    for name, module in names.items():
        obj = getattr(module, name)
        if not inspect.isfunction(obj):
            continue
        params = [p for p in inspect.signature(obj).parameters if re.fullmatch(r"cm\d*", p)]
        if params:
            found[name] = (obj, params)
    return found


def cm_call_args(tmp_path) -> dict:
    """Arguments besides the CMs for calling each entry point on two-mode CMs."""
    return {
        "apply_symplectic": {"s": np.eye(4)},
        "attenuate": {"mode": 1, "t": 0.3},
        "cm_resampling_pipeline": {"n": 100, "scalars": {}},
        "duan_value": {"g": 1.0},
        "matched_sample_size": {"std_errors": np.full((4, 4), 0.1)},
        "partial_transpose": {"mode": 1},
        "reduce": {"modes": [1, 0]},
        "write_cm_file": {"path": tmp_path / "cm.json"},
    }
