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
from dataclasses import dataclass, field, replace

import numpy as np

from .channels import InputSpec, beamsplitter, _loss_stack, _purify, _transmittances
from .core import (CovMatrix, apply_symplectic, tensor, _EPS, _bona_fide, _oriented_invariants,
                   _physical, _quadrature_indices, _read_json, _real, _symplectic, _two_mode,
                   _williamson_frame)
from .correlations import (entropy_f, kw_audit, _discord_report, _k1_geof, _polymul, _roots,
                           _stationary_points)
from .errors import InvalidInputError, NonPhysicalStateError, NumericalError

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
    (:func:`~gausscorr.channels._loss_stack` on mode B), plus the
    common-mode-rejection noise diag(a, a, t a, t a).  The (A, B) blocks are
    therefore taken once, at t = 1, and the whole grid is built as one
    (N, 4, 4) stack.  One stacked
    eigvalsh(gamma + i Omega) checks every point's physicality
    (NonPhysicalStateError names the first bad t), one stacked det pass gives
    the invariants A, B, C, D, and each row is the scalar discord closed form
    on its invariants, the same one :func:`~gausscorr.correlations.discord`
    uses.  cmr_a must be a finite nonnegative real number (not a bool) and
    every t in [0, 1], checked before any point is computed.
    """
    if not (_real(cmr_a) and math.isfinite(cmr_a) and cmr_a >= 0):
        raise InvalidInputError(f"CMR variance must be a finite real number >= 0, got {cmr_a!r}")
    return _sweep(state.effective_cm(["A", "B"]).entries, t_grid, cmr_a)


def _sweep(g1: np.ndarray, t_grid, cmr_a: float) -> list:
    """:func:`attenuation_sweep` rows of the effective (A, B) array g1."""
    t_grid = _transmittances(t_grid)
    g = _loss_stack(g1, t_grid, 1)
    g[:, :2, :2] += cmr_a * np.eye(2)
    g[:, 2:, 2:] += (np.array(t_grid)[:, None, None] * cmr_a) * np.eye(2)
    bad = np.flatnonzero(_bona_fide(g)[1])
    if bad.size:
        raise NonPhysicalStateError(f"CM at t = {t_grid[bad[0]]} is not physical")
    rows = []
    for t, *inv in zip(t_grid, *_oriented_invariants(g, 1)):
        rep = _discord_report(*inv, allow_measured=False)
        rows.append(SweepRow(t=t, discord=rep.discord, mutual_info=rep.mutual_info,
                             classical_corr=rep.classical_corr,
                             s_a=entropy_f(max(math.sqrt(inv[0]), 1.0))))
    return rows


def correlation_flow(state: ScenarioState, t_grid) -> list:
    """Marginal-entropy balance along the attenuation grid, on a purification.

    S(A) and J come from the :func:`attenuation_sweep` rows on (A, B'), which
    each point extends, and
    E_F is the entanglement of formation of A with its environment E: the
    purifier P of the effective (A, B) CM plus the loss ancilla V.  The
    (A, B) CM is purified once (one purifying mode per symplectic eigenvalue
    above 1), and every (A, P, V') CM is that pure CM with B sent through
    loss at transmittance 1 - t (:func:`~gausscorr.channels._loss_stack`), since V' =
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
    n = pure.shape[0] // 2
    order = np.r_[0:2, 4:2 * n, 2:4]  # (A, P..., B): B is the last mode
    t_grid = [r.t for r in rows]
    env = _loss_stack(pure[np.ix_(order, order)], [1.0 - t for t in t_grid], n - 1)
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
    if not 0 < g < math.inf:
        raise InvalidInputError(f"gain must be positive and finite, got {g!r}")
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
    if not 0 < g < math.inf:
        raise InvalidInputError(f"gain must be positive and finite, got {g!r}")
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


def _det3(m) -> np.ndarray:
    """Determinant of a symmetric 3x3 matrix of equal-length polynomials, lowest degree first."""
    (a, b, c), (_, d, e), (_, _, f) = m
    return sum(k * np.convolve(np.convolve(x, y), z) for k, x, y, z in
               ((1, a, d, f), (2, b, e, c), (-1, a, e, e), (-1, d, c, c), (-1, f, b, b)))


def _interfere_mix(g) -> float:
    """The B-Et mix t in [0, 1] of the least Duan value over gain and mix, from the (A, B, Et) g.

    The Duan value is (v^T X v)(v^T P v) / (v^T v)^2 for v = (+-g, sqrt(t),
    sqrt(1 - t)), with X the x-x block of g and P its p-p block with the B
    and Et rows and columns negated.  Inside the box g in [e^-6, e^6], t in
    [0, 1], a stationary point has (X + rho P) v = nu v, nu = 2 rho v^T P v,
    so c = det(X + rho P - nu I) = -nu^3 + a2 nu^2 - a1 nu + a0 and
    h = nu c_nu + 2 rho c_rho - 3c = (p1 rho - p0) nu^2 + 2 (q0 - q2 rho^2) nu
    + 3 r3 rho^3 + r2 rho^2 - r1 rho - 3 r0 vanish (p, q, r: the coefficients
    of a2, a1, a0 in rho); their resultant det h(X + rho P) has degree <= 9.
    Rounding moves clustered roots by up to about 5e-3, so each positive
    real part takes one Newton step on nu - 2 rho nu' (nu' = v^T P v,
    nu'' = 2 sum_j (v_j^T P v)^2 / (nu - nu_j)) along the eigenvalue with the
    shortest step, and its eigenvector is a candidate.  So are the best
    points of the edges t = 1 and 0 (:func:`_duan_search`) and the stationary
    points along the gain bounds, ratios of octics in s = tan(theta / 2) for
    v = (+-e^-6 or +-e^6, cos theta, sin theta).  The largest t (the least
    mixing) within 1e-12 relative of the least value wins; a coefficient
    beyond float range raises NumericalError.
    """
    x, p = g[0::2, 0::2], g[1::2, 1::2] * np.outer([1.0, -1.0, -1.0], [1.0, -1.0, -1.0])
    # beyond float range is NumericalError; a Newton step or gain that divides by 0 drops out
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        p0, p1 = np.trace(x), np.trace(p)
        q0, q2 = (p0 * p0 - np.sum(x * x)) / 2, (p1 * p1 - np.sum(p * p)) / 2
        r0, r1, r2, r3 = _det3(np.stack([x, p], axis=-1).tolist())
        xx, pp, xp = x @ x, p @ p, x @ p + p @ x
        h = np.stack([2 * q0 * x - p0 * xx - 3 * r0 * np.eye(3),
                      p1 * xx - p0 * xp + 2 * q0 * p - r1 * np.eye(3),
                      p1 * xp - p0 * pp - 2 * q2 * x + r2 * np.eye(3),
                      p1 * pp - 2 * q2 * p + 3 * r3 * np.eye(3)], axis=-1)
        rho = np.array([r for r in _roots(_det3(h.tolist()).tolist()) if r > 0])[:, None]
        nu, vectors = np.linalg.eigh(x + rho[:, :, None] * p)
        w = vectors.transpose(0, 2, 1) @ p @ vectors  # w[k, j, i] = v_j^T P v_i
        slope = np.diagonal(w, axis1=1, axis2=2)
        bend = 2 * np.sum(w * w / (nu[:, None, :] - nu[:, :, None] + np.diag([np.inf] * 3)), 1)
        step = (nu - 2 * rho * slope) / (slope + 2 * rho * bend)
        branch = np.argmin(np.where(np.isnan(step), np.inf, abs(step)), axis=1)
        rho = rho[:, 0] + step[np.arange(len(step)), branch]
        ok = (rho > 0) & (rho < np.inf)
        u = np.linalg.eigh(x + rho[ok, None, None] * p)[1][np.arange(ok.sum()), :, branch[ok]]
        gain = abs(u[:, 0]) / np.hypot(u[:, 1], u[:, 2])
    lo, hi = math.exp(-6.0), math.exp(6.0)
    v = u[(u[:, 1] * u[:, 2] >= 0) & (lo <= gain) & (gain <= hi)].tolist()
    for idx, end in (([0, 1, 2, 3], (1.0, 0.0)), ([0, 1, 4, 5], (0.0, 1.0))):
        g_end, sx = _duan_search(g[np.ix_(idx, idx)].tolist(), (1, -1))
        v.append((sx * g_end, *end))
    den = [1.0, 0.0, 4.0, 0.0, 6.0, 0.0, 4.0, 0.0, 1.0]  # (1 + s^2)^4, |v|^4 up to a constant
    for bound in (lo, hi):  # v (1 + s^2) = (1, s, s^2) c: +bound at s in [0, 1], -bound at s <= -1
        c = np.array([[bound, 1.0, 0.0], [0.0, 0.0, 2.0], [bound, -1.0, 0.0]])
        num = _polymul(*([q[0][0], 2 * q[0][1], 2 * q[0][2] + q[1][1], 2 * q[1][2], q[2][2]]
                         for q in ((c @ x @ c.T).tolist(), (c @ p @ c.T).tolist())))
        v += [(bound * (1 + s * s), 1 - s * s, 2 * s) for s in _stationary_points(num, den)
              if (1 - s * s) * s >= 0]
    v = np.array(v)
    values = (np.einsum("ki,ij,kj->k", v, x, v) * np.einsum("ki,ij,kj->k", v, p, v)
              / np.einsum("ki,ki->k", v, v) ** 2)
    t = v[:, 1] ** 2 / (v[:, 1] ** 2 + v[:, 2] ** 2)
    return float(t[values <= values.min() + 1e-12 * abs(values.min())].max())


def recover_interfere(state: ScenarioState, bs_t_be: float | None = None) -> ScenarioState:
    """Superimpose B with an ancilla mode whose x quadrature encodes -xbar.

    The ancilla is a vacuum mode carrying loading coefficient -1 of the
    modulation source on its x quadrature; interfering it with B partially
    cancels the displacement noise.  A bs_t_be not given is the mix of the
    least Duan value of (A, B) over gain and mix (:func:`_interfere_mix`).
    """
    # raises if the xbar source is missing or the ancilla is already there
    st = state.with_vacuum_mode("Et", {MODULATION_SOURCE: -1.0})
    if bs_t_be is None:
        bs_t_be = _interfere_mix(st.effective_cm(["A", "B", "Et"]).entries)
    out = st.apply_symplectic(
        beamsplitter(bs_t_be, st.n_modes, (st.mode_index("B"), st.mode_index("Et"))))
    return replace(out, meta=dict(out.meta, bs_t_be=float(bs_t_be)))


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
    def from_file(path) -> "ScenarioConfig":
        """The config in a JSON file; a file that cannot be read is invalid input."""
        return ScenarioConfig.from_dict(_read_json(path))

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
    "recover_interfere", "run_recovery",
    "measurement_optimality_note",
    "ScenarioConfig",
]
