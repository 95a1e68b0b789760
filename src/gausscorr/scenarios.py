"""End-to-end builders for the splitting/attenuation/recovery experiments.

A ScenarioState keeps the quantum covariance matrix and the classical noise
sources separate: each source is a scalar Gaussian random variable of known
variance entering the quadratures through a loading vector.  The effective CM
seen by correlation functionals is quantum_cm + sum_s W_s l_s l_s^T.  Keeping
the modulation explicit is what makes demodulation computable later.

The correlation-flow audit purifies the effective (A, B) CM it is asked
about: the purifying modes carry everything that is mixed about it.  Any
purification serves, because E_F(A:E) does not change under a unitary on E.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from ._brent import bounded_brent
from .channels import InputSpec, attenuate, beamsplitter, _purify
from .core import (CovMatrix, apply_symplectic, tensor, PHYSICALITY_TOL, _min_eig,
                   _oriented_invariants, _physical, _quadrature_indices, _symplectic, _two_mode,
                   _williamson_frame)
from .correlations import (entropy_f, kw_audit, _discord_report, _k1_geof, _polymul,
                           _stationary_points)
from .errors import InvalidInputError, NonPhysicalStateError, NumericalError

_EPS = sys.float_info.epsilon
MODULATION_SOURCE = "modulation_x"
PHASE_NOISE_SOURCE = "phase_noise_p"


@dataclass(frozen=True)
class NoiseLoading:
    """One classical noise source: variance W (gamma-units) entering via a vector."""

    source_id: str
    variance: float
    vector: np.ndarray

    def __post_init__(self):
        if self.variance < 0:
            raise InvalidInputError("loading variance must be nonnegative")
        v = np.asarray(self.vector, dtype=float).copy()
        v.flags.writeable = False
        object.__setattr__(self, "vector", v)


@dataclass(frozen=True)
class DuanReport:
    """Product inseparability criterion evaluation."""

    g: float
    signs: tuple
    value: float
    entangled: bool


@dataclass(frozen=True)
class SweepRow:
    t: float
    discord: float
    mutual_info: float
    classical_corr: float
    s_a: float


@dataclass(frozen=True)
class KWFlowPoint(SweepRow):
    """One attenuation point of the correlation-flow audit: its sweep row plus E_F(A:E)."""

    e_f_ae: float
    geof_feasibility_gap: float

    @property
    def j_ab(self) -> float:
        return self.classical_corr

    @property
    def residual(self) -> float:
        return kw_audit(self.s_a, self.j_ab, self.e_f_ae)


@dataclass(frozen=True)
class ScenarioState:
    """Immutable snapshot: named modes, quantum CM, classical loadings (zero mean)."""

    mode_names: tuple
    quantum_cm: CovMatrix
    loadings: tuple = ()
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if len(self.mode_names) != self.quantum_cm.n_modes:
            raise InvalidInputError("mode_names length must match the CM mode count")
        if len(set(self.mode_names)) != len(self.mode_names):
            raise InvalidInputError("mode names must be unique")
        for ld in self.loadings:
            if ld.vector.shape != (2 * self.n_modes,):
                raise InvalidInputError(f"loading {ld.source_id} has wrong vector length")

    @property
    def n_modes(self) -> int:
        return self.quantum_cm.n_modes

    def mode_index(self, name: str) -> int:
        try:
            return self.mode_names.index(name)
        except ValueError:
            raise InvalidInputError(f"no mode named {name!r} in {self.mode_names}") from None

    def effective_cm(self, modes=None) -> CovMatrix:
        """quantum_cm + sum W l l^T, optionally reduced to the named (or indexed) modes."""
        modes = range(self.n_modes) if modes is None else modes
        idx = _quadrature_indices(self.n_modes, [self.mode_index(m) if isinstance(m, str) else m
                                                 for m in modes])
        g = self.quantum_cm.entries[np.ix_(idx, idx)]
        for ld in self.loadings:
            v = ld.vector[idx]
            g += ld.variance * np.outer(v, v)
        return CovMatrix(g)

    def loading(self, source_id: str) -> NoiseLoading:
        for ld in self.loadings:
            if ld.source_id == source_id:
                return ld
        raise InvalidInputError(f"state has no noise source {source_id!r}")

    def apply_symplectic(self, s) -> "ScenarioState":
        """Apply S to the quantum CM and every loading vector; a raw S is checked once."""
        s = _symplectic(s)
        new_loadings = tuple(replace(ld, vector=s.entries @ ld.vector) for ld in self.loadings)
        return replace(self, quantum_cm=apply_symplectic(self.quantum_cm, s),
                       loadings=new_loadings)

    def with_vacuum_mode(self, name: str, x_loading_coeffs=None) -> "ScenarioState":
        """Append a vacuum mode; optional {source_id: coeff} loads its x quadrature."""
        if name in self.mode_names:
            raise InvalidInputError(f"mode {name!r} already present")
        coeffs = dict(x_loading_coeffs or {})
        new_loadings = []
        for ld in self.loadings:
            vec = np.concatenate([ld.vector, [coeffs.pop(ld.source_id, 0.0), 0.0]])
            new_loadings.append(replace(ld, vector=vec))
        if coeffs:
            raise InvalidInputError(f"unknown source ids {sorted(coeffs)}")
        return replace(self, mode_names=self.mode_names + (name,),
                       quantum_cm=tensor(self.quantum_cm, np.eye(2)),
                       loadings=tuple(new_loadings))

    def attenuate_mode(self, name: str, t: float,
                       keep_environment: bool = True) -> "ScenarioState":
        """Attenuate one mode; with keep_environment the loss port becomes mode "V"."""
        mode = self.mode_index(name)
        if keep_environment:
            st = self.with_vacuum_mode("V")
            bs = beamsplitter(t, st.n_modes, (mode, st.n_modes - 1))
            return st.apply_symplectic(bs)
        scale = np.ones(2 * self.n_modes)
        scale[2 * mode:2 * mode + 2] = np.sqrt(t)
        new_loadings = tuple(replace(ld, vector=scale * ld.vector) for ld in self.loadings)
        return replace(self, quantum_cm=attenuate(self.quantum_cm, mode, t),
                       loadings=new_loadings)


# ---------------------------------------------------------------------------
# builders

def build_split_state(spec: InputSpec, bs_t: float) -> ScenarioState:
    """Split a modulated input on a beamsplitter; modes (A, B, E).

    The quantum part is the pure squeezed input split with vacuum; E is a
    vacuum mode, kept so that sampled batches carry x_E and p_E columns.  The
    x-modulation and any excess p noise are tracked as classical loadings, so
    the effective (A, B) covariance equals the block form (gamma_in + 1)/2,
    (gamma_in - 1)/2 for a balanced split.
    """
    if not 0.0 <= bs_t <= 1.0:
        raise InvalidInputError("bs_t must be in [0, 1]")
    sx, sp = spec.quantum_variances()
    w_x, w_p = spec.modulation_variances()

    quantum = CovMatrix(np.diag([sx, sp, 1.0, 1.0, 1.0, 1.0]))  # (in, B0, E)
    loadings = [NoiseLoading(MODULATION_SOURCE, w_x,
                             np.array([1.0, 0, 0, 0, 0, 0]))]
    if w_p > 0:
        loadings.append(NoiseLoading(PHASE_NOISE_SOURCE, w_p,
                                     np.array([0, 1.0, 0, 0, 0, 0])))
    state = ScenarioState(mode_names=("A", "B", "E"), quantum_cm=quantum,
                          loadings=tuple(loadings))
    return state.apply_symplectic(beamsplitter(bs_t, 3, (0, 1)))


# ---------------------------------------------------------------------------
# sweeps

def attenuation_sweep(state: ScenarioState, t_grid, cmr_a: float = 0.0) -> list:
    """Discord and companions versus attenuation of mode B.

    At power transmittance t the effective (A, B') CM is affine in t: alpha
    stays, beta becomes t beta + (1 - t) I and delta becomes sqrt(t) delta
    (:func:`_loss_stack`), plus the common-mode-rejection noise
    diag(a, a, t a, t a).  The (A, B) blocks are therefore taken once, at
    t = 1, and the whole grid is built as one (N, 4, 4) stack.  One stacked
    eigvalsh(gamma + i Omega) checks every point's physicality
    (NonPhysicalStateError names the first bad t), one stacked det pass gives
    the invariants A, B, C, D, and each row is the scalar discord closed form
    on its invariants, the same one :func:`~gausscorr.correlations.discord`
    uses.  cmr_a must be nonnegative and every t in [0, 1], checked before
    any point is computed.
    """
    if cmr_a < 0:
        raise InvalidInputError("CMR variance must be nonnegative")
    return _sweep(state.effective_cm(["A", "B"]).entries, t_grid, cmr_a)


def _sweep(g1: np.ndarray, t_grid, cmr_a: float) -> list:
    """:func:`attenuation_sweep` rows of the effective (A, B) array g1."""
    t_grid = [float(t) for t in t_grid]
    if any(not 0.0 <= t <= 1.0 for t in t_grid):
        raise InvalidInputError("attenuation grid must lie in [0, 1]")
    g = _loss_stack(g1, t_grid)
    g[:, :2, :2] += cmr_a * np.eye(2)
    g[:, 2:, 2:] += (np.array(t_grid)[:, None, None] * cmr_a) * np.eye(2)
    _check_stack(g, t_grid)
    rows = []
    for t, *inv in zip(t_grid, *_oriented_invariants(g, 1)):
        rep = _discord_report(*inv, allow_measured=False)
        rows.append(SweepRow(t=t, discord=rep.discord, mutual_info=rep.mutual_info,
                             classical_corr=rep.classical_corr,
                             s_a=entropy_f(max(math.sqrt(inv[0]), 1.0))))
    return rows


def _loss_stack(g: np.ndarray, t_grid: list) -> np.ndarray:
    """Stack of g with its last mode sent through loss, one CM per transmittance t.

    A beamsplitter with a vacuum port turns the last mode's block beta into
    t beta + (1 - t) I and scales its cross blocks by sqrt(t); the other
    blocks stay.
    """
    t = np.array(t_grid, dtype=float)[:, None, None]
    out = np.repeat(g[None], len(t_grid), axis=0)
    out[:, -2:, -2:] = t * g[-2:, -2:] + (1.0 - t) * np.eye(2)
    out[:, :-2, -2:] = np.sqrt(t) * g[:-2, -2:]
    out[:, -2:, :-2] = np.swapaxes(out[:, :-2, -2:], 1, 2)
    return out


def _check_stack(g: np.ndarray, t_grid: list):
    """One stacked physicality test; NonPhysicalStateError names the first bad t."""
    bad = np.flatnonzero(_min_eig(g) < -PHYSICALITY_TOL)
    if bad.size:
        raise NonPhysicalStateError(f"CM at t = {t_grid[bad[0]]} is not physical")


def correlation_flow(state: ScenarioState, t_grid) -> list:
    """Marginal-entropy balance along the attenuation grid, on a purification.

    S(A) and J come from the :func:`attenuation_sweep` rows on (A, B'), which
    each point extends, and
    E_F is the entanglement of formation of A with its environment E: the
    purifier P of the effective (A, B) CM plus the loss ancilla V.  The
    (A, B) CM is purified once (one purifying mode per symplectic eigenvalue
    above 1), and every (A, P, V') CM is that pure CM with B sent through
    loss at transmittance 1 - t (:func:`_loss_stack`), since V' =
    sqrt(1 - t) B - sqrt(t) V.  The complement of (A, E) is the one mode B',
    so each point is the closed form
    :func:`~gausscorr.correlations._k1_geof` on its own Williamson frame: the
    measurement infimum on (A, P).  B' and P are local-symplectic images of
    each other, so the residual compares J on (A, B') with J on (A, P).
    GEoF takes at most two environment modes, so a state whose (A, B) CM has
    two symplectic eigenvalues above 1 raises InvalidInputError.
    """
    eff = state.effective_cm(["A", "B"]).entries
    rows = _sweep(eff, t_grid, 0.0)
    pure = _purify(*_williamson_frame(_physical(eff)))
    if pure.shape[0] > 6:
        raise InvalidInputError("E_F takes at most two environment modes: the (A, B) CM "
                                "has more than one symplectic eigenvalue above 1")
    order = np.r_[0:2, 4:pure.shape[0], 2:4]  # (A, P..., B)
    t_grid = [r.t for r in rows]
    env = _loss_stack(pure[np.ix_(order, order)], [1.0 - t for t in t_grid])
    _check_stack(env, t_grid)
    points = []
    for r, g in zip(rows, env):
        e_f, _, gap = _k1_geof(g, *_williamson_frame(g))
        points.append(KWFlowPoint(**vars(r), e_f_ae=e_f, geof_feasibility_gap=gap))
    return points


# ---------------------------------------------------------------------------
# Duan product criterion and recovery protocols

def _duan(e, g, sx):
    """Duan value at gain g and signs (sx, -sx) of the 4x4 nested list e.

    (g^2 m00 + sx g mx + m22)(g^2 m11 - sx g mp + m33) / (g^2 + 1)^2 with
    mx = m02 + m20 and mp = m13 + m31.
    """
    g2 = g * g
    return ((g2 * e[0][0] + sx * g * (e[0][2] + e[2][0]) + e[2][2])
            * (g2 * e[1][1] - sx * g * (e[1][3] + e[3][1]) + e[3][3]) / ((g2 + 1) * (g2 + 1)))


def _duan_report(e, g, sx) -> DuanReport:
    """The Duan value at (g, sx); NumericalError where float rounding decides it.

    Each factor of the value is the variance of a quadrature combination, so
    positive for a physical state.  A factor at or below its rounding bound
    4 eps (g^2 |m_ii| + g |m_ij + m_ji| + |m_jj|), or a gain or value that is
    not finite, leaves the value, and the entanglement verdict, without a digit.
    """
    value = _duan(e, g, sx)
    if not (math.isfinite(g) and math.isfinite(value)):
        raise NumericalError(f"Duan value {value!r} at gain {g!r} is beyond float range")
    g2 = g * g
    for (i, j), s in (((0, 2), sx), ((1, 3), -sx)):
        mix = s * g * (e[i][j] + e[j][i])
        if not (g2 * e[i][i] + mix + e[j][j]
                > 4 * _EPS * (g2 * abs(e[i][i]) + abs(mix) + abs(e[j][j]))):
            raise NumericalError(f"a Duan quadrature variance at gain {g:.6g} is lost to "
                                 "rounding: CM entries too large")
    return DuanReport(g=float(g), signs=(sx, -sx), value=value, entangled=value < 1.0)


def duan_value(cm, g: float, signs: tuple = (1, -1)) -> DuanReport:
    """Normalized product criterion value for combinations (g x_A + s x_B, g p_A - s p_B).

    Quadrature variances are gamma-entries / 2; the normalization is
    (g^2 + 1)^2 / 4, so values below 1 certify entanglement.
    """
    if g <= 0:
        raise InvalidInputError("gain must be positive")
    sx, sp = signs
    if sx not in (1, -1) or sp != -sx:
        raise InvalidInputError("signs must be (+1, -1) or (-1, +1)")
    return _duan_report(_two_mode(cm).tolist(), g, sx)


def _duan_search(e, sxs) -> tuple:
    """(g, sx) minimizing the Duan value of e over g in [e^-6, e^6] and sx in sxs.

    The value at sign -1 and gain g is that at sign +1 and gain -g, a ratio
    of two quartics in g, so one root solve (:func:`_stationary_points`)
    gives the stationary points for both signs.  The candidates are those
    with e^-6 < |g| < e^6 and the ends +-e^-6 and +-e^6; sxs = (1,) keeps
    g > 0.  Each is scored by :func:`_duan`, and the first minimum wins.
    """
    lo, hi = math.exp(-6.0), math.exp(6.0)
    num = _polymul([e[2][2], e[0][2] + e[2][0], e[0][0]],
                   [e[3][3], -(e[1][3] + e[3][1]), e[1][1]])
    roots = [r for r in _stationary_points(num, [1.0, 0.0, 2.0, 0.0, 1.0]) if lo < abs(r) < hi]
    best, arg = math.inf, (lo, sxs[0])
    for r in roots + [lo, hi, -lo, -hi]:
        sx = 1 if r > 0 else -1
        if sx in sxs:
            v = _duan(e, abs(r), sx)
            if v < best:
                best, arg = v, (abs(r), sx)
    return arg


def duan_optimize(cm) -> DuanReport:
    """Minimize the Duan value over gain g in [e^-6, e^6] (both sign pairs).

    :func:`optimal_demodulation` runs the same exact search.
    """
    e = _two_mode(cm).tolist()
    return _duan_report(e, *_duan_search(e, (1, -1)))


def recover_demodulate(state: ScenarioState, g: float) -> ScenarioState:
    """Subtract the recorded displacement from x_B so (g x_A + x_B) is noise-free.

    The subtracted multiple is g * l[x_A] + l[x_B] of the modulation loading,
    which reduces to (g T + R) for the plain split state; the residual loading
    on x_B is then -g T.
    """
    if g <= 0:
        raise InvalidInputError("gain must be positive")
    ld = state.loading(MODULATION_SOURCE)
    ia, ib = state.mode_index("A"), state.mode_index("B")
    prefactor = g * ld.vector[2 * ia] + ld.vector[2 * ib]
    vec = ld.vector.copy()
    vec[2 * ib] -= prefactor
    new_loadings = tuple(replace(l, vector=vec) if l.source_id == MODULATION_SOURCE else l
                         for l in state.loadings)
    meta = dict(state.meta, demod_gain=float(g), demod_prefactor=float(prefactor))
    return replace(state, loadings=new_loadings, meta=meta)


def optimal_demodulation(state: ScenarioState):
    """Jointly optimize the shared gain of demodulation and the Duan test.

    Demodulating with gain g cancels the modulation loading l in g x_A + x_B
    and leaves g p_A - p_B alone, so the demodulated Duan value at g is the
    Duan value at g, signs (1, -1), of one fixed matrix: the effective (A, B)
    CM less W l l^T on its x-x block.  Its gain comes from the
    :func:`duan_optimize` search; the report is that of the demodulated state.
    """
    ld = state.loading(MODULATION_SOURCE)
    xs = [2 * state.mode_index("A"), 2 * state.mode_index("B")]
    m = state.effective_cm(["A", "B"]).entries.copy()
    m[np.ix_([0, 2], [0, 2])] -= ld.variance * np.outer(ld.vector[xs], ld.vector[xs])
    g, _ = _duan_search(m.tolist(), (1,))
    out = recover_demodulate(state, g)
    return out, duan_value(out.effective_cm(["A", "B"]), g)


def recover_interfere(state: ScenarioState, bs_t_be: float | None = None) -> ScenarioState:
    """Superimpose B with an ancilla mode whose x quadrature encodes -xbar.

    The ancilla is a vacuum mode carrying loading coefficient -1 of the
    modulation source on its x quadrature; interfering it with B partially
    cancels the displacement noise.  When bs_t_be is not given it is chosen
    by 1-D minimization of the optimized Duan value of (A, B).
    """
    state.loading(MODULATION_SOURCE)  # raises if the xbar source is missing
    if "Et" in state.mode_names:
        raise InvalidInputError("state already contains the interference ancilla")

    st = state.with_vacuum_mode("Et", {MODULATION_SOURCE: -1.0})
    if bs_t_be is None:
        # the beamsplitter maps x_B to sqrt(t2) x_B + sqrt(1 - t2) x_Et (p alike),
        # so the mixed (A, B) CM is one congruence of the effective (A, B, Et) CM
        g = st.effective_cm(["A", "B", "Et"]).entries
        rows = np.eye(4, 6)

        def duan_at(t2):
            rows[2, 2] = rows[3, 3] = math.sqrt(t2)
            rows[2, 4] = rows[3, 5] = math.sqrt(1.0 - t2)
            e = (rows @ g @ rows.T).tolist()
            return _duan(e, *_duan_search(e, (1, -1)))

        bs_t_be = bounded_brent(duan_at, 1e-6, 1.0 - 1e-9, xatol=1e-9)[0]
    elif not 0.0 <= bs_t_be <= 1.0:
        raise InvalidInputError("bs_t_be must be in [0, 1]")
    out = st.apply_symplectic(
        beamsplitter(bs_t_be, st.n_modes, (st.mode_index("B"), st.mode_index("Et"))))
    return replace(out, meta=dict(out.meta, bs_t_be=float(bs_t_be)))


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


def run_recovery(state: ScenarioState, mode: str):
    """Execute one recovery protocol with optimized settings; returns (final_state, DuanReport).

    "demodulate" is :func:`optimal_demodulation`; "interfere" mixes in the
    ancilla at the optimized bs_t_be (:func:`recover_interfere`) and then
    optimizes the Duan gain.
    """
    if mode == "demodulate":
        return optimal_demodulation(state)
    if mode == "interfere":
        out = recover_interfere(state)
        return out, duan_optimize(out.effective_cm(["A", "B"]))
    raise InvalidInputError(f"unknown recovery mode {mode!r}")


def measurement_optimality_note(spec: InputSpec) -> dict:
    """Advisory certificate for interpreting Gaussian discord as discord.

    For split squeezed inputs (v_p > v_x > 1) this evaluates the full
    decomposition certificate; other inputs (split modulated coherent states
    in particular) are outside the proven family and get certified=False with
    a reason.  Never gates any computation.
    """
    from .optimality import certify
    if spec.kind == "squeezed" and spec.v_p > spec.v_x > 1.0:
        return certify(spec.v_x, spec.v_p).to_dict()
    return {"certified": False, "reason": "outside proven family"}


# ---------------------------------------------------------------------------
# scenario configuration (shared by the CLI and the experiment scripts)

@dataclass(frozen=True)
class ScenarioConfig:
    input_spec: InputSpec
    bs_t: float
    attenuation_grid: tuple
    cmr_a: float = 0.0
    kw_columns: bool = False

    @staticmethod
    def from_dict(obj: dict) -> "ScenarioConfig":
        if not isinstance(obj, dict):
            raise InvalidInputError("config must be a JSON object")
        allowed = {"input", "bs_t", "attenuation_grid", "cmr_a", "kw_columns"}
        unknown = set(obj) - allowed
        if unknown:
            raise InvalidInputError(f"unknown config keys: {sorted(unknown)}")
        inp = obj.get("input")
        in_allowed = {"kind", "squeezing_db", "v_x", "v_p"}
        if not isinstance(inp, dict) or set(inp) - in_allowed:
            raise InvalidInputError(f"input must be an object with keys from {sorted(in_allowed)}")
        spec = InputSpec(kind=inp.get("kind", "coherent"),
                         squeezing_db=_number(inp.get("squeezing_db", 0.0), "squeezing_db"),
                         v_x=_number(inp.get("v_x"), "v_x"),
                         v_p=_number(inp.get("v_p"), "v_p"))
        grid = obj.get("attenuation_grid", [])
        if not isinstance(grid, list):
            raise InvalidInputError(f"attenuation_grid must be an array, got {grid!r}")
        kw_columns = obj.get("kw_columns", False)
        if not isinstance(kw_columns, bool):
            raise InvalidInputError(f"kw_columns must be true or false, got {kw_columns!r}")
        return ScenarioConfig(input_spec=spec, bs_t=_number(obj.get("bs_t"), "bs_t"),
                              attenuation_grid=tuple(_number(t, "attenuation_grid entry")
                                                     for t in grid),
                              cmr_a=_number(obj.get("cmr_a", 0.0), "cmr_a"),
                              kw_columns=kw_columns)


def _number(value, name: str) -> float:
    """A config value as a float; it must be a finite JSON number (a missing key reads None)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise InvalidInputError(f"{name} must be a finite number, got {value!r}")
    return float(value)


__all__ = [
    "MODULATION_SOURCE", "PHASE_NOISE_SOURCE", "NoiseLoading", "DuanReport",
    "SweepRow", "KWFlowPoint", "ScenarioState", "build_split_state",
    "attenuation_sweep", "correlation_flow", "duan_value", "duan_optimize",
    "recover_demodulate", "optimal_demodulation",
    "recover_interfere", "recovery_closed_form", "run_recovery",
    "measurement_optimality_note",
    "ScenarioConfig",
]
