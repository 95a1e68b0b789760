"""Entropic functionals for Gaussian states.

All entropies are in nats.  Discord uses the two-mode closed form in terms of
the local invariants A = det alpha, B = det beta, C = det delta, D = det gamma
(measurement on the second subsystem), with an independent numerical oracle
that minimizes the conditional entropy over pure Gaussian measurement seeds.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize
from scipy.special import xlogy

from .channels import minimal_purification
from .core import (CovMatrix, symplectic_spectrum,
                   two_mode_symplectic_values, validate_physical,
                   PHYSICALITY_TOL, _as_matrix)
from .errors import InvalidInputError, NonPhysicalStateError, NumericalError

F_CLAMP_TOL = 1e-6
BRANCH_TIE_TOL = 1e-12


def entropy_f(x: float) -> float:
    """Bosonic entropy function of a symplectic eigenvalue, in nats.

    f(x) = ((x+1)/2) ln((x+1)/2) - ((x-1)/2) ln((x-1)/2); f(1) = 0.
    Arguments within 1e-6 below 1 are clamped to 1.
    """
    if x < 1.0 - F_CLAMP_TOL:
        raise InvalidInputError(f"entropy argument {x} below 1 - 1e-6")
    x = max(x, 1.0)
    return float(xlogy((x + 1) / 2, (x + 1) / 2) - xlogy((x - 1) / 2, (x - 1) / 2))


def von_neumann_entropy(cm) -> float:
    """Sum of f over the symplectic eigenvalues."""
    return float(sum(entropy_f(v) for v in symplectic_spectrum(cm).values))


@dataclass(frozen=True)
class MeasurementSeed:
    """Pure Gaussian measurement seed sigma0 = R(theta) diag(s, 1/s) R(theta)^T."""

    theta: float
    s: float

    def __post_init__(self):
        if self.s <= 0:
            raise InvalidInputError("seed squeezing s must be positive")

    def covariance(self) -> np.ndarray:
        c, sn = np.cos(self.theta), np.sin(self.theta)
        r = np.array([[c, -sn], [sn, c]])
        return r @ np.diag([self.s, 1.0 / self.s]) @ r.T


@dataclass(frozen=True)
class DiscordReport:
    """Gaussian discord decomposition; all entropies in nats."""

    mutual_info: float
    classical_corr: float
    discord: float
    branch: str              # "heterodyne-case" | "homodyne-case"
    inf_det_eps: float
    clamped: bool = False


@dataclass(frozen=True)
class GEoFResult:
    value: float
    optimal_pure_cm: CovMatrix
    feasibility_gap: float
    converged: bool


@dataclass(frozen=True)
class KWFlowPoint:
    """One attenuation point of the correlation-flow audit."""

    t: float
    s_a: float
    j_ab: float
    e_f_ae: float

    @property
    def residual(self) -> float:
        return self.s_a - self.j_ab - self.e_f_ae


def conditional_cm(cm, measured_mode: int, sigma0) -> CovMatrix:
    """Kept-mode CM after a Gaussian measurement with seed sigma0 on the other mode.

    Standard update eps = alpha - delta (beta + sigma0)^-1 delta^T.
    """
    g = _as_matrix(cm)
    if g.shape != (4, 4):
        raise InvalidInputError("conditional update is implemented for two-mode CMs")
    if measured_mode not in (0, 1):
        raise InvalidInputError("measured_mode must be 0 or 1")
    kept = 1 - measured_mode
    alpha = g[2 * kept:2 * kept + 2, 2 * kept:2 * kept + 2]
    beta = g[2 * measured_mode:2 * measured_mode + 2, 2 * measured_mode:2 * measured_mode + 2]
    delta = g[2 * kept:2 * kept + 2, 2 * measured_mode:2 * measured_mode + 2]
    s0 = sigma0.covariance() if isinstance(sigma0, MeasurementSeed) else np.asarray(sigma0, float)
    m = beta + s0
    if abs(np.linalg.det(m)) < 1e-14:
        raise NumericalError("beta + sigma0 is singular")
    eps = alpha - delta @ np.linalg.solve(m, delta.T)
    return CovMatrix((eps + eps.T) / 2)


def _oriented_invariants(g: np.ndarray, measured_mode: int):
    """(A, B, C, D) with the measured mode in the beta slot."""
    kept = 1 - measured_mode
    alpha = g[2 * kept:2 * kept + 2, 2 * kept:2 * kept + 2]
    beta = g[2 * measured_mode:2 * measured_mode + 2, 2 * measured_mode:2 * measured_mode + 2]
    delta = g[2 * kept:2 * kept + 2, 2 * measured_mode:2 * measured_mode + 2]
    return (float(np.linalg.det(alpha)), float(np.linalg.det(beta)),
            float(np.linalg.det(delta)), float(np.linalg.det(g)))


def _inf_det_eps_heterodyne_case(a, b, c, d):
    inner = max(c * c + (b - 1) * (d - a), 0.0)
    return (2 * c * c + (b - 1) * (d - a) + 2 * abs(c) * np.sqrt(inner)) / (b - 1) ** 2


def _inf_det_eps_homodyne_case(a, b, c, d):
    inner = max(c ** 4 + (d - a * b) ** 2 - 2 * c * c * (a * b + d), 0.0)
    return (a * b - c * c + d - np.sqrt(inner)) / (2 * b)


def _inf_det_eps(a, b, c, d):
    """Closed-form infimum of det eps over Gaussian measurements, with branch label.

    Branch condition (D - AB)^2 <= (1 + B) C^2 (A + D) selects the
    heterodyne-like case; ties within 1e-12 evaluate both branches and keep
    the minimum (continuity at the boundary).
    """
    if abs(b - 1.0) < 1e-9:
        # pure measured mode carries no correlations: eps = alpha
        return a, "heterodyne-case"
    lhs = (d - a * b) ** 2
    rhs = (1 + b) * c * c * (a + d)
    scale = max(1.0, abs(lhs), abs(rhs))
    if abs(lhs - rhs) <= BRANCH_TIE_TOL * scale:
        het = _inf_det_eps_heterodyne_case(a, b, c, d)
        hom = _inf_det_eps_homodyne_case(a, b, c, d)
        return (het, "heterodyne-case") if het <= hom else (hom, "homodyne-case")
    if lhs <= rhs:
        return _inf_det_eps_heterodyne_case(a, b, c, d), "heterodyne-case"
    return _inf_det_eps_homodyne_case(a, b, c, d), "homodyne-case"


def discord(cm, measured_mode: int = 1, allow_measured: bool = False) -> DiscordReport:
    """Gaussian discord of a two-mode CM with measurement on the given mode.

    allow_measured accepts slightly nonphysical reconstructed matrices;
    symplectic values below 1 are then clamped and flagged in the report.
    """
    g = _as_matrix(cm)
    if g.shape != (4, 4):
        raise InvalidInputError("discord is implemented for two-mode CMs")
    if measured_mode not in (0, 1):
        raise InvalidInputError("measured_mode must be 0 or 1")
    if not allow_measured and validate_physical(g) < -PHYSICALITY_TOL:
        raise NonPhysicalStateError(
            "CM is not physical; use allow_measured for reconstructed data")

    a, b, c, d = _oriented_invariants(g, measured_mode)
    nu_minus, nu_plus = two_mode_symplectic_values(g)
    inf_det, branch = _inf_det_eps(a, b, c, d)

    args = [np.sqrt(max(a, 0.0)), np.sqrt(max(b, 0.0)), nu_minus, nu_plus,
            np.sqrt(max(inf_det, 0.0))]
    clamped = any(x < 1.0 - F_CLAMP_TOL for x in args)
    if clamped and not allow_measured:
        raise NonPhysicalStateError("entropy arguments below 1; state not physical")
    sa, sb, fm, fp, fc = (entropy_f(max(x, 1.0)) for x in args)

    mutual_info = sa + sb - fm - fp
    classical_corr = sa - fc
    return DiscordReport(mutual_info=mutual_info, classical_corr=classical_corr,
                         discord=mutual_info - classical_corr, branch=branch,
                         inf_det_eps=float(inf_det), clamped=clamped)


def mutual_information(cm, allow_measured: bool = False) -> float:
    """I(AB) = S(A) + S(B) - S(AB)."""
    return discord(cm, measured_mode=1, allow_measured=allow_measured).mutual_info


def classical_correlation(cm, measured_mode: int = 1, allow_measured: bool = False) -> float:
    """One-way classical correlation J with measurement on the given mode."""
    return discord(cm, measured_mode, allow_measured=allow_measured).classical_corr


# ---------------------------------------------------------------------------
# numerical oracle for the measurement infimum

def _homodyne_det_eps(alpha, beta, delta, theta):
    """det eps in the s -> infinity limit (homodyne along the rotated axis)."""
    u = np.array([-np.sin(theta), np.cos(theta)])
    du = delta @ u
    denom = u @ beta @ u
    return float(np.linalg.det(alpha - np.outer(du, du) / denom))


def discord_oracle(cm, measured_mode: int = 1, theta_points: int = 25,
                   logs_points: int = 25, refine_starts: int = 5,
                   s_cap: float = 1e6) -> float:
    """Discord with the measurement infimum found numerically.

    Minimizes det of the conditional CM over seeds R(theta) diag(s, 1/s)
    R(theta)^T on a (theta, log s) grid with Nelder-Mead refinement, plus the
    analytic homodyne limit at each angle (s is additionally capped at 1e6 to
    avoid conditioning blowup).  Entropy terms outside the infimum reuse the
    exact symplectic values, so the comparison isolates the measurement term.
    """
    g = _as_matrix(cm)
    if g.shape != (4, 4):
        raise InvalidInputError("discord oracle is implemented for two-mode CMs")
    kept = 1 - measured_mode
    alpha = g[2 * kept:2 * kept + 2, 2 * kept:2 * kept + 2]
    beta = g[2 * measured_mode:2 * measured_mode + 2, 2 * measured_mode:2 * measured_mode + 2]
    delta = g[2 * kept:2 * kept + 2, 2 * measured_mode:2 * measured_mode + 2]

    def det_eps(theta, log_s):
        c, sn = np.cos(theta), np.sin(theta)
        r = np.array([[c, -sn], [sn, c]])
        s = min(np.exp(log_s), s_cap)
        s = max(s, 1.0 / s_cap)
        sigma = r @ np.diag([s, 1.0 / s]) @ r.T
        eps = alpha - delta @ np.linalg.solve(beta + sigma, delta.T)
        return float(np.linalg.det(eps))

    thetas = np.linspace(0.0, np.pi, theta_points)
    logs = np.linspace(-np.log(s_cap), np.log(s_cap), logs_points)
    best = np.inf
    best_point = (0.0, 0.0)
    for th in thetas:
        best = min(best, _homodyne_det_eps(alpha, beta, delta, th))
        for ls in logs:
            v = det_eps(th, ls)
            if v < best:
                best, best_point = v, (th, ls)

    for th0 in np.linspace(0.0, np.pi, refine_starts, endpoint=False):
        res = minimize(lambda p: det_eps(p[0], p[1]), np.array([th0, 0.0]),
                       method="Nelder-Mead",
                       options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 2000})
        best = min(best, res.fun)
        res_h = minimize(lambda p: _homodyne_det_eps(alpha, beta, delta, p[0]),
                         np.array([th0]), method="Nelder-Mead",
                         options={"xatol": 1e-13, "maxiter": 1000})
        best = min(best, res_h.fun)
    res = minimize(lambda p: det_eps(p[0], p[1]), np.array(best_point),
                   method="Nelder-Mead",
                   options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 2000})
    best = min(best, res.fun)

    a, b, _, _ = _oriented_invariants(g, measured_mode)
    nu_minus, nu_plus = two_mode_symplectic_values(g)
    return (entropy_f(max(np.sqrt(b), 1.0)) - entropy_f(max(nu_minus, 1.0))
            - entropy_f(nu_plus) + entropy_f(max(np.sqrt(best), 1.0)))


def kw_audit(s_a: float, j_ab: float, e_f_ae: float) -> float:
    """Residual of the marginal-entropy balance S(A) - J(A|B) - E_F(A,E)."""
    return s_a - j_ab - e_f_ae


# ---------------------------------------------------------------------------
# Gaussian entanglement of formation
#
# Definitional minimization of f(sqrt(det gamma_p,A)) over pure gamma_p <= gamma.
# Candidate pure states are parameterized as conditional states of the minimal
# purification of gamma (one purifying mode per symplectic eigenvalue above
# 1) under pure Gaussian measurements on the k purifying modes.  Every pure
# decomposition of a Gaussian state is a rank-one measurement on its minimal
# purifier (Wolf et al., PRA 69, 052320, 2004), every candidate is feasible
# and pure by construction, and the unconstrained seed optimization needs no
# feasibility penalty.

def _passive_unitary(angles, k):
    """k x k unitary from k phases and k(k-1)/2 two-mode beamsplitters (k^2 angles).

    U = diag(e^{i phi_m}) T_01 T_02 ... T_(k-2)(k-1), where T_ij mixes modes i
    and j with angle theta and phase phi; this covers U(k) for the k <= 3
    that GEoF needs.  Zero angles give the identity.
    """
    u = np.diag(np.exp(1j * angles[:k]))
    pos = k
    for i in range(k):
        for j in range(i + 1, k):
            c, sn = math.cos(angles[pos]), math.sin(angles[pos])
            ph = cmath.exp(1j * angles[pos + 1])
            pos += 2
            t = np.eye(k, dtype=complex)
            t[i, i], t[i, j], t[j, i], t[j, j] = ph * c, -sn, ph * sn, c
            u = u @ t
    return u


def _pure_cm_from_params(params, k, z_clip=9.0):
    """Pure k-mode CM O diag(e^{2z}, e^{-2z}, ...) O^T from k + k^2 parameters.

    O is the (x1, p1, x2, p2, ...) form of :func:`_passive_unitary`.
    """
    z = np.minimum(np.maximum(params[:k], -z_clip), z_clip)
    u = _passive_unitary(params[k:], k)
    o = np.empty((2 * k, 2 * k))
    o[0::2, 0::2] = o[1::2, 1::2] = u.real
    o[0::2, 1::2] = -u.imag
    o[1::2, 0::2] = u.imag
    d = np.empty(2 * k)
    d[0::2] = np.exp(2 * z)
    d[1::2] = 1.0 / d[0::2]
    return (o * d) @ o.T


def _product_pure_feasible(g, rng, attempts=6):
    """Search for a feasible pure *product* CM (certifies GEoF = 0); None if not found."""
    n = g.shape[0] // 2

    def build(p):
        blocks = []
        for i in range(n):
            th, z = p[2 * i], np.clip(p[2 * i + 1], -6, 6)
            c, sn = np.cos(th), np.sin(th)
            r = np.array([[c, -sn], [sn, c]])
            blocks.append(r @ np.diag([np.exp(2 * z), np.exp(-2 * z)]) @ r.T)
        out = np.zeros((2 * n, 2 * n))
        for i, blk in enumerate(blocks):
            out[2 * i:2 * i + 2, 2 * i:2 * i + 2] = blk
        return out

    def neg_margin(p):
        return -np.linalg.eigvalsh(g - build(p)).min()

    best = None
    for k in range(attempts):
        p0 = np.zeros(2 * n) if k == 0 else rng.uniform(-1, 1, 2 * n)
        res = minimize(neg_margin, p0, method="Nelder-Mead",
                       options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 2000})
        if best is None or res.fun < best.fun:
            best = res
        if best.fun <= -1e-8:
            break
    if best.fun <= 1e-9:  # margin >= -1e-9
        return build(best.x)
    return None


def geof(cm, a_mode: int = 0, restarts: int = 8, seed: int = 0) -> GEoFResult:
    """Gaussian entanglement of formation across (a_mode | rest).

    min over pure gamma_p <= gamma of f(sqrt(det gamma_p restricted to the
    single a_mode)); the rest side must have 1 or 2 modes.  Returns the best
    optimum over restarts with the certifying pure CM.
    """
    g = _as_matrix(cm)
    n = g.shape[0] // 2
    if not 0 <= a_mode < n:
        raise InvalidInputError(f"a_mode {a_mode} out of range")
    if n - 1 not in (1, 2):
        raise InvalidInputError("rest side must have 1 or 2 modes")
    if validate_physical(g) < -PHYSICALITY_TOL:
        raise NonPhysicalStateError("GEoF needs a physical CM")
    rng = np.random.default_rng(seed)
    ai = slice(2 * a_mode, 2 * a_mode + 2)

    big = minimal_purification(g).entries
    k = big.shape[0] // 2 - n
    if k == 0:
        # pure input: the only feasible pure CM is gamma itself
        value = entropy_f(max(np.sqrt(np.linalg.det(g[ai, ai])), 1.0))
        return GEoFResult(value=value, optimal_pure_cm=CovMatrix(g),
                          feasibility_gap=0.0, converged=True)

    if n == 2:
        from .core import ppt_min_eig  # two-mode separability shortcut
        if ppt_min_eig(g) >= -PHYSICALITY_TOL:
            product = _product_pure_feasible(g, rng)
            if product is not None:
                gap = float(np.linalg.eigvalsh(g - product).min())
                return GEoFResult(value=0.0, optimal_pure_cm=CovMatrix(product),
                                  feasibility_gap=gap, converged=True)

    gs = big[:2 * n, :2 * n]
    gr = big[2 * n:, 2 * n:]
    gsr = big[:2 * n, 2 * n:]
    gs_a, gsr_a = gs[ai, ai], gsr[ai]

    def objective(params):
        e = gs_a - gsr_a @ np.linalg.solve(gr + _pure_cm_from_params(params, k), gsr_a.T)
        det_a = e[0, 0] * e[1, 1] - e[0, 1] * e[1, 0]
        if not np.isfinite(det_a):
            return 1e9
        return entropy_f(max(np.sqrt(max(det_a, 0.0)), 1.0))

    values = []
    best_val, best_params = np.inf, None
    starts = [np.zeros(k + k * k)]
    for _ in range(restarts):
        starts.append(np.concatenate([rng.uniform(-1.5, 1.5, k),
                                      rng.uniform(-1.5, 1.5, k * k)]))
    for p0 in starts:
        res = minimize(objective, p0, method="Nelder-Mead",
                       options={"xatol": 1e-10, "fatol": 1e-12,
                                "maxiter": 6000, "maxfev": 9000})
        values.append(res.fun)
        if res.fun < best_val:
            best_val, best_params = res.fun, res.x
    # polish from the winner
    res = minimize(objective, best_params, method="Nelder-Mead",
                   options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 6000})
    if res.fun < best_val:
        best_val, best_params = res.fun, res.x

    sigma = _pure_cm_from_params(best_params, k)
    gamma_p = gs - gsr @ np.linalg.solve(gr + sigma, gsr.T)
    gamma_p = (gamma_p + gamma_p.T) / 2
    gap = float(np.linalg.eigvalsh(g - gamma_p).min())
    values.sort()
    converged = len(values) >= 2 and values[1] - values[0] <= 1e-5
    return GEoFResult(value=float(best_val), optimal_pure_cm=CovMatrix(gamma_p),
                      feasibility_gap=gap, converged=bool(converged))


__all__ = [
    "entropy_f", "von_neumann_entropy", "MeasurementSeed", "DiscordReport",
    "GEoFResult", "KWFlowPoint", "conditional_cm", "discord", "discord_oracle",
    "mutual_information", "classical_correlation", "kw_audit", "geof",
]
