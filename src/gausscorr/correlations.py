"""Entropic functionals for Gaussian states.

All entropies are in nats.  Discord uses the two-mode closed form in terms of
the local invariants A = det alpha, B = det beta, C = det delta, D = det gamma
(measurement on the second subsystem), with an independent numerical oracle
that minimizes the conditional entropy over pure Gaussian measurement seeds.
The oracle charts the seeds as P_u / e + e P_v (u = (cos theta, sin theta),
v perpendicular to u, e in [0, 1]), one chart that runs from heterodyne
(e = 1) to the homodyne limit (e = 0), and evaluates det eps on it in plain
float arithmetic.  det eps = num / den with den > 0 on the chart, and at any
level d the minimum of num - d den over all of (theta, e) is exact: 2theta
along a known vector, e at a clipped parabola vertex.  Dinkelbach's
iteration on d therefore reaches the global infimum in a few such steps,
with no grid.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .channels import PURE_TOL, _purify
from .core import (SPECTRUM_CLAMP_TOL, CovMatrix, symplectic_spectrum, _EPS, _blocks, _checked,
                   _integer, _oriented_invariants, _physical, _quadrature_indices,
                   _standard_form, _symplectic_values, _two_mode, _williamson_frame)
from .errors import InvalidInputError, NonPhysicalStateError, NumericalError

BRANCH_TIE_TOL = 1e-12


def entropy_f(x: float) -> float:
    """Bosonic entropy function of a symplectic eigenvalue, in nats.

    f(x) = ((x+1)/2) ln((x+1)/2) - ((x-1)/2) ln((x-1)/2); f(1) = 0.
    Arguments within 1e-6 below 1 are clamped to 1; NaN raises.
    """
    if not x >= 1.0 - SPECTRUM_CLAMP_TOL:
        raise InvalidInputError(f"entropy argument {x} below 1 - 1e-6")
    return float(_f(max(x, 1.0)))


def _f(x: float) -> float:
    """:func:`entropy_f` of an argument already known to be >= 1, without its checks.

    With v = (x - 1)/2, f = (v + 1) ln(v + 1) - v ln v = log1p(v) + v log1p(1/v),
    which keeps full relative precision on the whole range: near x = 1, v is
    exact where (x + 1)/2 would round, and the two large terms never cancel.
    From x = 2^53 (about 9e15) on, x - 1 is no longer exact and entropy
    differences of such arguments keep no digit: such an argument (inf too)
    raises NumericalError instead of returning a value.
    """
    if x >= 2.0 ** 53:
        raise NumericalError(f"entropy argument {x:.6g} is beyond float precision")
    v = (x - 1) / 2
    return math.log1p(v) + v * math.log1p(1 / v) if v else 0.0


def von_neumann_entropy(cm) -> float:
    """Sum of f over the symplectic eigenvalues."""
    return float(sum(entropy_f(v) for v in symplectic_spectrum(cm)))


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
    nfev: int = 0            # Nelder-Mead evaluations, or the x-p candidates scored
    # how the value was obtained: "k1-closed-form", "xp-search" or "nelder-mead"
    method: str = "nelder-mead"


def _inf_det_eps_heterodyne_case(a, b, c, d):
    inner = max(c * c + (b - 1) * (d - a), 0.0)
    return (2 * c * c + (b - 1) * (d - a) + 2 * abs(c) * math.sqrt(inner)) / (b - 1) ** 2


def _inf_det_eps_homodyne_case(a, b, c, d):
    inner = max(c ** 4 + (d - a * b) ** 2 - 2 * c * c * (a * b + d), 0.0)
    return (a * b - c * c + d - math.sqrt(inner)) / (2 * b)


def _inf_det_eps(a, b, c, d):
    """Closed-form infimum of det eps over Gaussian measurements, with branch label.

    Branch condition (D - AB)^2 <= (1 + B) C^2 (A + D) selects the
    heterodyne-like case; ties within 1e-12 relative evaluate both branches
    and keep the minimum (continuity at the boundary).  A power that
    overflows a float (CM entries near 1e38 and above) raises NumericalError.
    """
    if abs(b - 1.0) < 1e-13:
        # pure measured mode carries no correlations: eps = alpha; the branch
        # formulas lose their digits to the (b - 1) denominators below this
        return a, "heterodyne-case"
    try:
        lhs = (d - a * b) ** 2
        rhs = (1 + b) * c * c * (a + d)
        scale = max(abs(lhs), abs(rhs))
        if abs(lhs - rhs) <= BRANCH_TIE_TOL * scale:
            het = _inf_det_eps_heterodyne_case(a, b, c, d)
            hom = _inf_det_eps_homodyne_case(a, b, c, d)
            return (het, "heterodyne-case") if het <= hom else (hom, "homodyne-case")
        if lhs <= rhs:
            return _inf_det_eps_heterodyne_case(a, b, c, d), "heterodyne-case"
        return _inf_det_eps_homodyne_case(a, b, c, d), "homodyne-case"
    except OverflowError:
        raise NumericalError("the discord closed form overflows a float: "
                             "CM entries too large") from None


def _discord_report(a, b, c, d, allow_measured: bool) -> DiscordReport:
    """Discord decomposition from the oriented invariants A, B, C, D (Python floats).

    The symplectic values come from :func:`~gausscorr.core._symplectic_values`,
    the measurement term from :func:`_inf_det_eps`.  Entropy arguments below
    1 - 1e-6 raise unless allow_measured, which clamps them to 1 and flags
    the report; an undefined symplectic value (A <= 0, B <= 0 or nu_plus^2 < 0)
    always raises.  This is the one scalar closed form behind :func:`discord`
    and every :func:`~gausscorr.scenarios.attenuation_sweep` row.
    """
    nu_minus, nu_plus = _symplectic_values(a, b, c, d)
    inf_det, branch = _inf_det_eps(a, b, c, d)

    args = (math.sqrt(a), math.sqrt(b), nu_minus, nu_plus, math.sqrt(max(inf_det, 0.0)))
    # args[0] is a number, and min skips a NaN that comes after one
    clamped = min(args) < 1.0 - SPECTRUM_CLAMP_TOL
    if clamped and not allow_measured:
        raise NonPhysicalStateError("entropy arguments below 1; state not physical")
    # each argument is >= 0, +inf or NaN, so the sum is NaN only for a NaN argument
    if math.isnan(sum(args)):
        raise InvalidInputError("entropy argument nan below 1 - 1e-6")
    sa, sb, fm, fp, fc = (_f(x if x > 1.0 else 1.0) for x in args)

    mutual_info = sa + sb - fm - fp
    classical_corr = sa - fc
    return DiscordReport(mutual_info=mutual_info, classical_corr=classical_corr,
                         discord=mutual_info - classical_corr, branch=branch,
                         inf_det_eps=float(inf_det), clamped=clamped)


def discord(cm, measured_mode: int = 1, allow_measured: bool = False) -> DiscordReport:
    """Gaussian discord of a two-mode CM with measurement on the given mode.

    Validation (the CovMatrix checks, once, in both modes), then the four
    local invariants A, B, C, D (:func:`_oriented_invariants`), then the
    closed form on them (:func:`_discord_report`).  allow_measured accepts
    slightly nonphysical reconstructed matrices; symplectic values below 1
    are then clamped and flagged in the report.
    """
    _integer(measured_mode, 0, "measured_mode", 2)
    g = _two_mode(cm)
    if not allow_measured:
        _physical(g, "; use allow_measured for reconstructed data")
    return _discord_report(*_oriented_invariants(g, measured_mode), allow_measured)


# ---------------------------------------------------------------------------
# numerical oracle for the measurement infimum
#
# Pure seeds are charted as sigma = P_u / e + e P_v, with u = (cos theta,
# sin theta), v = (-sin theta, cos theta), P_w = w w^T and e in [0, 1]:
# e = 1 is heterodyne, e = 0 is homodyne of the quadrature v, and the seeds
# squeezed the other way are the same chart at theta + pi/2.  With
# N = e beta + P_u + e^2 P_v, (beta + sigma)^-1 = adj(N) / den where
# den = v^T beta v + e (1 + det beta) + e^2 u^T beta u = det(N) / e stays
# finite at e = 0.  Since adj is linear on 2x2 matrices, adj(N) =
# e adj(beta) + P_v + e^2 P_u; with det(alpha - K) = det alpha -
# tr(adj(alpha) K) + det K and det(delta adj(N) delta^T) = C^2 e den,
#
#   det eps = [v^T M v + e m1 + e^2 u^T M u] / den,
#   M = A beta - Q,  m1 = A (1 + B) - tr(adj(beta) Q) + C^2,
#
# where Q = delta^T adj(alpha) delta and A, B, C are the determinants of
# alpha, beta, delta.  The cancellation between A and the measurement term is
# taken once, in M and m1, so rounding noise between evaluations stays at a
# few ulps of det eps rather than of A.  Written in cos 2theta and sin 2theta,
# num - d den is minimized exactly over the whole chart at any level d
# (:func:`_chart_argmin`), which is all the Dinkelbach iteration of
# :func:`_oracle_infimum` needs.  No closed-form branch enters.

def _adj(m):
    """Adjugate of a 2x2 matrix, adj(m) = tr(m) I - m."""
    return np.array([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]])


def _chart_coefficients(alpha, beta, delta):
    """Numerator (mt, mc, ms, m1) and denominator (bt, bc, bs, 1 + B) of det eps on the chart.

    The coefficients are returned as Python floats.
    """
    a, b, c = _det2(alpha), _det2(beta), _det2(delta)
    q = delta.T @ _adj(alpha) @ delta
    m1 = a * (1.0 + b) - float(np.sum(_adj(beta) * q)) + c * c
    (m00, m01), (_, m11) = (a * beta - q).tolist()
    (b00, b01), (_, b11) = beta.tolist()
    # w^T x w = tr(x) / 2 +- ((x00 - x11) / 2 cos 2theta + x01 sin 2theta) for w = u, v
    return (((m00 + m11) / 2, (m00 - m11) / 2, m01, m1),
            ((b00 + b11) / 2, (b00 - b11) / 2, b01, 1.0 + b))


def _chart_argmin(coefficients, d):
    """(theta, e) on the seed chart minimizing num - d den, exactly.

    coefficients are those of :func:`_chart_coefficients`.  With P = mt - d bt,
    Q = (mc - d bc, ms - d bs) and R = m1 - d (1 + B), num - d den =
    P (1 + e^2) + R e - (1 - e^2) Q.(cos 2theta, sin 2theta).  Since
    1 - e^2 >= 0, its minimum over theta puts 2theta along Q, and e then
    minimizes (P + |Q|) e^2 + R e + P - |Q| on [0, 1]: at the vertex clipped
    to [0, 1] if that parabola opens upward, else at the better end.  At the
    infimum d = d* the minimum is 0 and the argmin attains d*.  The one
    inner step of the oracle's iteration and of :func:`_k1_geof`.
    """
    (mt, mc, ms, m1), (bt, bc, bs, b1) = coefficients
    p, qc, qs, r = mt - d * bt, mc - d * bc, ms - d * bs, m1 - d * b1
    lead = p + math.hypot(qc, qs)
    e = min(max(-r / (2.0 * lead), 0.0), 1.0) if lead > 0 else float(lead + r < 0)
    return 0.5 * math.atan2(qs, qc), e


# Dinkelbach steps after which the oracle gives up; thousands of random and hot
# CMs took at most 15
_ORACLE_MAX_STEPS = 64


def _oracle_infimum(alpha, beta, delta):
    """(inf det eps, theta, e) over pure seeds P_u / e + e P_v, by Dinkelbach's iteration.

    det eps = num / den on the chart with den > 0.  If d is a value the chart
    takes, the exact minimum of num - d den over all of (theta, e)
    (:func:`_chart_argmin`) is at most 0, and below 0 unless d is already
    the global infimum, so the chart value at that argmin is below d
    (Dinkelbach, Management Science 13, 492, 1967).  Starting from the
    heterodyne seed (theta = 0, e = 1), each step moves to the argmin at
    the current value; the values fall superlinearly (about 7 steps), and
    the iteration stops at the first step that does not lower the value
    strictly.  The value returned is the chart's own expression at the
    returned (theta, e), theta in (-pi/2, pi/2], so it is attained.  More
    than _ORACLE_MAX_STEPS steps raise NumericalError.
    """
    coefficients = _chart_coefficients(alpha, beta, delta)
    (mt, mc, ms, m1), (bt, bc, bs, b1) = coefficients

    def chart(theta, e):
        cos2, sin2 = math.cos(2.0 * theta), math.sin(2.0 * theta)
        mh, bh = mc * cos2 + ms * sin2, bc * cos2 + bs * sin2
        return ((mt - mh) + e * (m1 + e * (mt + mh))) / ((bt - bh) + e * (b1 + e * (bt + bh)))

    best = chart(0.0, 1.0), 0.0, 1.0
    for _ in range(_ORACLE_MAX_STEPS):
        theta, e = _chart_argmin(coefficients, best[0])
        det = chart(theta, e)
        if not det < best[0]:
            return best
        best = det, theta, e
    raise NumericalError(f"discord oracle: no convergence in {_ORACLE_MAX_STEPS} Dinkelbach steps")


def discord_oracle(cm, measured_mode: int = 1) -> float:
    """Discord with the measurement infimum found numerically.

    Minimizes det of the conditional CM over pure seeds P_u / e + e P_v, with
    u = (cos theta, sin theta), v perpendicular to u and e in [0, 1].  The
    chart contains the homodyne limit e = 0 (homodyne of the quadrature v)
    and the heterodyne seed e = 1; seeds squeezed the other way sit at
    theta + pi/2.  det eps is a ratio num / den on the chart, and
    num - d den is minimized exactly over all of (theta, e) at any level d,
    so Dinkelbach's iteration on d reaches the global infimum without a
    grid (:func:`_oracle_infimum`).  No closed-form branch, branch condition
    or Nelder-Mead is used.  Entropy terms outside the infimum reuse the
    exact symplectic values, so the comparison isolates the measurement
    term.  The input rule is that of :func:`discord` without
    allow_measured: a nonphysical CM raises NonPhysicalStateError, and one
    beyond float range NumericalError.
    """
    _integer(measured_mode, 0, "measured_mode", 2)
    g = _physical(_two_mode(cm))
    a, b, c, d = _oriented_invariants(g, measured_mode)
    nu_minus, nu_plus = _symplectic_values(a, b, c, d)
    best = _oracle_infimum(*_blocks(g, measured_mode))[0]
    return (entropy_f(max(math.sqrt(b), 1.0)) - entropy_f(max(nu_minus, 1.0))
            - entropy_f(nu_plus) + entropy_f(max(math.sqrt(best), 1.0)))


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
# feasibility penalty.  The route follows k alone.  With k <= 1 the minimum is
# the closed-form discord infimum on the two-mode (A, P) block (Adesso & Datta,
# PRL 105, 030501, 2010; a pure input has P decoupled); a two-mode input with
# k = 2 reduces to one angle in its standard form (Marian & Marian, PRL 101,
# 220403, 2008), so only 1x2 inputs with k >= 2 search.

def _seed_frame(params, k):
    """Frame O and weights W, D W of the pure k-mode seed O D O^T.

    params holds w (k values) and the k^2 angles of the passive unitary
    U = diag(e^{i phi_m}) T_01 T_02 ... T_(k-2)(k-1), where T_ij mixes modes i
    and j with angle theta and phase phi; this covers U(k) for the k <= 3
    that GEoF needs.  O is U in (x1, p1, x2, p2, ...) form, whose (m, n)
    block is [[Re U_mn, -Im U_mn], [Im U_mn, Re U_mn]], so zero angles give
    the identity.  D = diag(tan^2 w_1, cot^2 w_1, ..., tan^2 w_k, cot^2 w_k):
    w = pi/4 is the vacuum, the squeezing runs smoothly through it, and
    w = 0 and w = pi/2 are the homodyne limits of the frame's x and p
    quadratures.  Returns O and the diagonals W = (cos^2 w_1, sin^2 w_1, ...)
    and D W = (sin^2 w_1, cos^2 w_1, ...), all finite on the whole chart.
    U is formed in scalar arithmetic and converted once, which keeps the
    objective's per-evaluation cost down.
    """
    params = params.tolist()
    angles = params[k:]
    u = [[0j] * k for _ in range(k)]
    for m in range(k):
        u[m][m] = cmath.exp(1j * angles[m])
    pos = k
    for i in range(k):
        for j in range(i + 1, k):
            c, sn = math.cos(angles[pos]), math.sin(angles[pos])
            ph = cmath.exp(1j * angles[pos + 1])
            pos += 2
            for row in u:
                row[i], row[j] = ph * (c * row[i] + sn * row[j]), c * row[j] - sn * row[i]
    flat = []
    for row in u:
        flat += [v for z in row for v in (z.real, -z.imag)]
        flat += [v for z in row for v in (z.imag, z.real)]
    cs = [(math.cos(w) ** 2, math.sin(w) ** 2) for w in params[:k]]
    for c2, s2 in cs:
        flat += (c2, s2)
    for c2, s2 in cs:
        flat += (s2, c2)
    flat = np.array(flat)
    n2 = 4 * k * k
    return flat[:n2].reshape(2 * k, 2 * k), flat[n2:n2 + 2 * k], flat[n2 + 2 * k:]


def _seed_inverse(gr, params, k):
    """(gr + sigma)^-1 for the seed sigma = O D O^T of :func:`_seed_frame`.

    (gr + sigma)^-1 = O W (O^T gr O W + D W)^-1 O^T = O W (gr O W + O D W)^-1:
    one 2k x 2k solve that stays finite in the homodyne limits.
    """
    o, w, dw = _seed_frame(params, k)
    ow = o * w
    try:
        inv = np.linalg.solve(gr @ ow + o * dw, np.eye(2 * k))
    except np.linalg.LinAlgError:
        raise NumericalError("seed system is singular") from None
    return ow @ inv


def _geof_objective(gs_a, gr, gsr_a, k):
    """f(sqrt(det gamma_p,A)) as a function of the k + k^2 seed parameters.

    gamma_p,A = gs_a - gsr_a (gr + sigma)^-1 gsr_a^T for the seed sigma of
    :func:`_seed_frame`.
    """
    def objective(params):
        e = gs_a - gsr_a @ _seed_inverse(gr, params, k) @ gsr_a.T
        det_a = e[0, 0] * e[1, 1] - e[0, 1] * e[1, 0]
        return entropy_f(max(math.sqrt(max(det_a, 0.0)), 1.0))
    return objective


def _congruence(t, u, d1, d2):
    """Rows of T diag(d1, d2) U^T for 2x2 float tuples T and U."""
    return [[d1 * t[i][0] * u[j][0] + d2 * t[i][1] * u[j][1] for j in (0, 1)] for i in (0, 1)]


def _xp_pure_cm(s_a, s_b, x11, x22, x12):
    """Pure CM X (+) X^-1 of a standard form's x-p picture, mapped back to gamma's frame.

    X = [[x11, x12], [x12, x22]] is the covariance of (x_A, x_B) and X^-1
    that of (p_A, p_B); the inverses of the local ops S_A and S_B of
    :func:`~gausscorr.core._standard_form`, their adjugates since det S = 1,
    then undo the reduction to standard form.
    """
    det_x = x11 * x22 - x12 * x12
    ia, ib = (((s11, -s01), (-s10, s00)) for (s00, s01), (s10, s11) in (s_a, s_b))
    # per mode, X gives the x entry and X^-1 the p entry
    aa = _congruence(ia, ia, x11, x22 / det_x)
    bb = _congruence(ib, ib, x22, x11 / det_x)
    ab = _congruence(ia, ib, x12, -x12 / det_x)
    pure = np.array([aa[0] + ab[0], aa[1] + ab[1],
                     [ab[0][0], ab[1][0]] + bb[0], [ab[0][1], ab[1][1]] + bb[1]])
    return (pure + pure.T) / 2


# seeded Nelder-Mead starts beside the vacuum start, and their generator's seed (1x2, k >= 2)
GEOF_RESTARTS = 8
GEOF_SEED = 0


def _polymul(a, b) -> list:
    """Product of two coefficient lists (lowest degree first), in plain floats."""
    out = [0.0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _roots(p) -> list:
    """Real parts of the roots of p (lowest degree first), less zero top coefficients.

    They are the companion matrix's eigenvalues; callers score each with their
    own evaluator, so a misplaced root can only raise their minimum.  A
    coefficient beyond float range raises NumericalError.
    """
    while p and p[-1] == 0.0:
        p = p[:-1]
    if len(p) < 2:
        return []
    column = [-c / p[-1] for c in p[:-1]]
    if not all(map(math.isfinite, column + p[-1:])):
        raise NumericalError("polynomial has a coefficient beyond float range")
    companion = np.eye(len(column), k=-1)
    companion[:, -1] = column
    return np.linalg.eigvals(companion).real.tolist()


def _stationary_points(num, den) -> list:
    """:func:`_roots` of num' den - num den': the stationary points of num / den.

    Coefficients run from the lowest degree up.  The terms (i - j) num_i den_j
    t^(i + j - 1) vanish exactly for i = j, so equal degrees drop the top one.
    """
    p = [0.0] * (len(num) + len(den) - 2)
    for i, x in enumerate(num):
        for j, y in enumerate(den):
            p[i + j - 1] += (i - j) * x * y
    return _roots(p)


def _xp_geof(g):
    """GEoF of a two-mode CM with both symplectic eigenvalues above 1, minimized exactly in 1-D.

    In standard form, ordered (x_A, x_B | p_A, p_B), gamma = Gx (+) Gp with
    Gx = [[a, c_plus], [c_plus, b]] and Gp = [[a, c_minus], [c_minus, b]].
    The pure x-p block CM X (+) X^-1 lies below gamma iff Gp^-1 <= X <= Gx,
    and both its marginals have det X11 X22 / det X.  M = Gx - Gp^-1 = L L^T
    is positive definite, and the optimum has both constraints tight (Marian
    & Marian, PRL 101, 220403, 2008): X(phi) = Gp^-1 + L n n^T L^T with
    n = (cos phi, sin phi), so that Gx - X = L n' n'^T L^T for n' perpendicular
    to n.  This is X = Gx - u u^T / (u^T M^-1 u) with u = L^-T n'.  Charting
    by n rather than u spreads the angle evenly when M is nearly singular
    (near k = 1), and forms no det M, whose rounding would leave X infeasible
    there.  With t = tan phi, (1 + t^2) X is quadratic in t, so the marginal
    det is a ratio of two quartics: its minimum over [0, pi) lies at one of
    their stationary points (:func:`_stationary_points`) or at phi = pi/2.
    Each candidate is scored in phi; one whose det X is at or below the
    rounding bound 4 eps (X11 X22 + X12^2) of X11 X22 - X12^2 has no digit
    left and raises NumericalError.  The standard form is the plain-float
    kernel :func:`~gausscorr.core._standard_form`, its local ops checked as
    symplectic by |det S - 1| <= 1e-10.  Returns the marginal det, the
    certifying pure CM in gamma's frame and the number of scored candidates.
    """
    a, b, c_plus, c_minus, s_a, s_b = _standard_form(g)
    for (s00, s01), (s10, s11) in (s_a, s_b):
        # a 2x2 S has S Omega S^T = det(S) Omega: symplectic within 1e-10 is this
        if not abs(s00 * s11 - s01 * s10 - 1.0) <= 1e-10:
            raise NumericalError("standard form: a local op is not symplectic within 1e-10")
    dp = a * b - c_minus * c_minus         # det Gp
    p11, p22, p12 = b / dp, a / dp, -c_minus / dp
    # M = Gx - Gp^-1 = L L^T, factored in floats
    m11, m21 = a - p11, c_plus - p12
    m22 = b - p22 - m21 * m21 / m11 if m11 > 0.0 else math.nan
    if not 0.0 < m22 < math.inf:
        raise NumericalError("x-p GEoF search lost Gx - Gp^-1 > 0 to rounding")
    l11, l22 = math.sqrt(m11), math.sqrt(m22)
    l21 = m21 / l11

    def tight(c, s):
        v1, v2 = l11 * c, l21 * c + l22 * s
        return p11 + v1 * v1, p22 + v2 * v2, p12 + v1 * v2

    # (1 + t^2) (x11, x22, x12) as quadratics in t = tan phi
    num = _polymul([p11 + l11 * l11, 0.0, p11],
                   [p22 + l21 * l21, 2.0 * l21 * l22, p22 + l22 * l22])
    q12 = [p12 + l11 * l21, l11 * l22, p12]
    den = [x - y for x, y in zip(num, _polymul(q12, q12))]
    phis = [math.atan(t) for t in _stationary_points(num, den)] + [math.pi / 2]
    scored = []
    for phi in phis:
        x11, x22, x12 = tight(math.cos(phi), math.sin(phi))
        det_x = x11 * x22 - x12 * x12
        if not 4.0 * _EPS * (x11 * x22 + x12 * x12) < det_x < math.inf:
            # det X >= 1 / det Gp > 0 is at or below the rounding of x11 x22 - x12^2
            raise NumericalError("x-p GEoF search lost det X to rounding: CM entries too large")
        scored.append((x11 * x22 / det_x, phi))
    det, phi = min(scored)
    return det, _xp_pure_cm(s_a, s_b, *tight(math.cos(phi), math.sin(phi))), len(phis)


def _k1_geof(g, s, nus, a_mode: int = 0):
    """(E_F, certifying pure CM, feasibility gap) of a CM with at most one mixed mode.

    g is a physical 2n x 2n array with Williamson frame (s, nus); only its
    largest nu may exceed 1 + PURE_TOL.  The minimal purification adds one
    mode P with gamma_P = nu I, coupled through that mode's two frame columns
    F times sqrt(nu^2 - 1) diag(1, -1) (for a pure g, nu = 1 and P is
    decoupled).  E_F is f(sqrt(d*)) for the measurement infimum d* on (A, P);
    the certificate is the conditional state of the chart's argmin seed
    P_u / e + e P_v.  With R the pure modes' frame columns, the Schur
    complement of (A, P) on gamma_P and the certificate are formed as sums
    of positive terms, R_A R_A^T + F_A F_A^T / nu and R R^T + F W F^T with
    W = (nu + e) / (nu e + 1) P_u' + (nu e + 1) / (nu + e) P_v' for u, v
    reflected by diag(1, -1), so that nothing cancels on hot states such as
    thermal x vacuum.  No CovMatrix is built.
    """
    ai = slice(2 * a_mode, 2 * a_mode + 2)
    nu = float(nus[-1]) if nus[-1] > 1.0 + PURE_TOL else 1.0
    frame, rest = s[:, -2:], s[:, :-2]
    pure_part = rest @ rest.T       # every pure mode's nu set to exactly 1
    frame_a = frame[ai]
    ff_a = frame_a @ frame_a.T
    gs_a = pure_part[ai, ai] + nu * ff_a
    gsr_a = frame_a * (math.sqrt(nu * nu - 1.0) * np.array([1.0, -1.0]))
    schur = pure_part[ai, ai] + ff_a / nu
    d_star = _inf_det_eps(_det2(gs_a), nu * nu, _det2(gsr_a), nu * nu * _det2(schur))[0]
    theta, e = _chart_argmin(_chart_coefficients(gs_a, nu * np.eye(2), gsr_a), d_star)
    u = np.array([math.cos(theta), -math.sin(theta)])
    v = np.array([-u[1], u[0]])
    w = (nu + e) / (nu * e + 1.0) * np.outer(u, u) + (nu * e + 1.0) / (nu + e) * np.outer(v, v)
    gamma_p = pure_part + frame @ w @ frame.T
    gamma_p = (gamma_p + gamma_p.T) / 2
    return (entropy_f(max(math.sqrt(max(d_star, 0.0)), 1.0)), gamma_p,
            float(np.linalg.eigvalsh(g - gamma_p).min()))


def _det2(m) -> float:
    return float(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0])


def geof(cm, a_mode: int = 0) -> GEoFResult:
    """Gaussian entanglement of formation across (a_mode | rest).

    min over pure gamma_p <= gamma of f(sqrt(det gamma_p restricted to the
    single a_mode)); the rest side must have 1 or 2 modes.  The route follows
    k, the number of symplectic eigenvalues above 1 + PURE_TOL.  A two-mode
    input reads k from its closed-form symplectic values (the ones
    :func:`discord` uses), and with k = 2 takes the exact 1-D minimization in
    the standard form's x-p picture (:func:`_xp_geof`) without a Williamson
    frame.  Every other input reads k from its Williamson frame: k <= 1 (pure
    inputs included) is the closed form :func:`_k1_geof`, and a 1x2 input
    with k >= 2 takes the best Nelder-Mead optimum over the vacuum start and
    GEOF_RESTARTS seeded ones; there converged asks that two starts end
    within 1e-9 of the value.  A PPT input gets GEoF = 0 from whichever
    route its k selects.  Returns the value with the certifying pure CM, the
    number of objective evaluations (0 for the closed form, the scored
    candidates for the x-p search) and the method that produced it.
    """
    g = _checked(cm)
    n = g.shape[0] // 2
    _quadrature_indices(n, [a_mode])  # a_mode in range
    if n - 1 not in (1, 2):
        raise InvalidInputError("rest side must have 1 or 2 modes")
    _physical(g)

    # two modes: nu_minus > 1 + PURE_TOL is k = 2, read from the closed-form values
    if n == 2 and _symplectic_values(*_oriented_invariants(g, 1))[0] > 1.0 + PURE_TOL:
        # both marginals of a pure two-mode CM have the same det: a_mode drops out
        det_a, gamma_p, nfev = _xp_geof(g)
        return GEoFResult(value=entropy_f(max(math.sqrt(det_a), 1.0)),
                          optimal_pure_cm=CovMatrix(gamma_p),
                          feasibility_gap=float(np.linalg.eigvalsh(g - gamma_p).min()),
                          converged=True, nfev=nfev, method="xp-search")

    s, nus = _williamson_frame(g)
    k = int(np.count_nonzero(nus > 1.0 + PURE_TOL))
    if k <= 1 or n == 2:
        # a two-mode input here has k <= 1 by its closed-form values
        value, gamma_p, gap = _k1_geof(g, s, nus, a_mode)
        return GEoFResult(value=value, optimal_pure_cm=CovMatrix(gamma_p),
                          feasibility_gap=gap, converged=True, method="k1-closed-form")

    from scipy.optimize import minimize  # the only scipy import: 1x2 inputs with k >= 2

    big = _purify(s, nus)
    gs = big[:2 * n, :2 * n]
    gr = big[2 * n:, 2 * n:]
    gsr = big[:2 * n, 2 * n:]
    ai = slice(2 * a_mode, 2 * a_mode + 2)
    objective = _geof_objective(gs[ai, ai], gr, gsr[ai], k)
    rng = np.random.default_rng(GEOF_SEED)
    # the seeds tan^2 w = e^{2z} of squeezings z drawn in [-1.5, 1.5]; z = 0 is the vacuum
    starts = [np.concatenate([np.full(k, np.pi / 4), np.zeros(k * k)])]
    for _ in range(GEOF_RESTARTS):
        starts.append(np.concatenate([np.arctan(np.exp(rng.uniform(-1.5, 1.5, k))),
                                      rng.uniform(-1.5, 1.5, k * k)]))
    runs = [minimize(objective, p0, method="Nelder-Mead",
                     options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 6000, "maxfev": 9000})
            for p0 in starts]
    best = min(runs, key=lambda r: r.fun)
    # polish from the winner
    res = minimize(objective, best.x, method="Nelder-Mead",
                   options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 6000})
    best = res if res.fun < best.fun else best
    # two starts must reach the returned value: starts stalled near it are no evidence
    converged = sum(r.fun <= best.fun + 1e-9 for r in runs) >= 2

    gamma_p = gs - gsr @ _seed_inverse(gr, best.x, k) @ gsr.T
    gamma_p = (gamma_p + gamma_p.T) / 2
    gap = float(np.linalg.eigvalsh(g - gamma_p).min())
    return GEoFResult(value=float(best.fun), optimal_pure_cm=CovMatrix(gamma_p),
                      feasibility_gap=gap, converged=bool(converged),
                      nfev=int(sum(r.nfev for r in runs) + res.nfev), method="nelder-mead")


__all__ = [
    "entropy_f", "von_neumann_entropy", "DiscordReport",
    "GEoFResult", "discord", "discord_oracle",
    "kw_audit", "geof",
]
