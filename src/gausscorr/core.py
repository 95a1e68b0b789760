"""Multimode covariance matrices and symplectic linear algebra.

Conventions, fixed once for the whole package:

* quadrature ordering is (x1, p1, x2, p2, ...);
* covariance matrices are kept in gamma-units where the vacuum mode is the
  2x2 identity, i.e. gamma_ij = <xi_i xi_j + xi_j xi_i> - 2<xi_i><xi_j>.
  Raw quadrature covariances are gamma/2.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, NonPhysicalStateError, NumericalError

SYMMETRY_RTOL = 1e-12
PHYSICALITY_TOL = 1e-9
SPECTRUM_CLAMP_TOL = 1e-6   # symplectic values this far below 1 read as 1; lower is nonphysical
_EPS = sys.float_info.epsilon


def _checked(cm) -> np.ndarray:
    """Entries of cm after the CovMatrix checks, run at most once; every CM argument enters here.

    A CovMatrix was checked when it was built, so its entries are returned
    as they are; anything else is checked by building the one CovMatrix.
    """
    return cm.entries if isinstance(cm, CovMatrix) else CovMatrix(cm).entries


def _two_mode(cm) -> np.ndarray:
    """:func:`_checked` entries of a two-mode (4x4) CM."""
    g = _checked(cm)
    if g.shape != (4, 4):
        raise InvalidInputError(f"needs a two-mode (4x4) CM, got {g.shape}")
    return g


def _blocks(g: np.ndarray, measured_mode: int):
    """(alpha, beta, delta): kept, measured and cross blocks of a two-mode CM or stack."""
    k, m = 2 * (1 - measured_mode), 2 * measured_mode
    return g[..., k:k + 2, k:k + 2], g[..., m:m + 2, m:m + 2], g[..., k:k + 2, m:m + 2]


def _embedding(measured_mode: int) -> np.ndarray:
    """Indices into (g_00, ..., g_33, 0, 1) of alpha + I2, beta + I2, delta + I2 and g itself."""
    out = np.full((4, 4, 4), 16)
    out[:3, :2, :2] = _blocks(np.arange(16).reshape(4, 4), measured_mode)
    out[:3, 2, 2] = out[:3, 3, 3] = 17
    out[3] = np.arange(16).reshape(4, 4)
    return out


_EMBEDDING = (_embedding(0), _embedding(1))


def _oriented_invariants(g: np.ndarray, measured_mode: int):
    """(A, B, C, D) with the measured mode in the beta slot, as Python floats.

    g is one 4x4 CM or an (N, 4, 4) stack; a stack gives each invariant as
    a list of N.  A, B and C are the dets of the 2x2 blocks alpha, beta and
    delta, D = det g, and one det call takes all four: each block is embedded
    as block + I2 (direct sum) beside g.  The bits are those of a det call
    on the 2x2 blocks themselves: LU with partial pivoting does the block's
    own arithmetic on block + I2 (the I2 rows hold zeros under the block,
    so they never pivot, take zero multipliers and keep their exact ones),
    and numpy's det, sign times exp of the sum of ln|u_ii|, adds ln 1 = 0
    for them.
    """
    ext = np.empty(g.shape[:-2] + (18,))
    ext[..., :16] = g.reshape(g.shape[:-2] + (16,))
    ext[..., 16:] = (0.0, 1.0)
    return tuple(np.linalg.det(ext.take(_EMBEDDING[measured_mode], axis=-1)).T.tolist())


def _physical(g: np.ndarray, hint: str = "") -> np.ndarray:
    """The checked entries g of one CM, after the bona-fide test :func:`_bona_fide`."""
    low, failed = _bona_fide(g)
    if failed:
        raise NonPhysicalStateError(
            f"CM is not physical: min eig of gamma + i Omega is {low:.6g}{hint}")
    return g


def _bona_fide(g: np.ndarray):
    """(min eig of g + i Omega, failed) per matrix of a checked CM or stack g.

    The one bona-fide test: a matrix fails below -max(PHYSICALITY_TOL, 8 eps s), s its largest
    diagonal entry.  Rounding moves the min eig by a few eps max|g_ij|, which s bounds for a
    positive g.
    """
    low = _min_eig(g)
    failed = low < -PHYSICALITY_TOL
    if any(failed.flat):  # the scaled bound is formed only where the fixed one fails
        failed &= low < -8.0 * _EPS * np.diagonal(g, axis1=-2, axis2=-1).max(axis=-1)
    return low, failed


@dataclass(frozen=True)
class CovMatrix:
    """Real symmetric 2n x 2n covariance matrix in gamma-units.

    Entries must be finite real numbers.  Symmetry is validated to relative
    tolerance 1e-12 and the stored array is exactly symmetric, read-only and
    shares no memory with the argument: an exactly symmetric argument is
    copied, any other stored as its finite mean (:func:`_symmetrized`).
    Physicality is *not* enforced here (measured matrices may violate it
    slightly); use :func:`validate_physical`.
    """

    entries: np.ndarray

    def __post_init__(self):
        g = self.entries
        if type(g) is not np.ndarray or g.dtype != np.float64:
            try:
                g = np.asarray(g)
                if g.dtype.kind not in "iuf":  # complex, string and object entries
                    raise TypeError(f"entries of dtype {g.dtype} are not real numbers")
            except (TypeError, ValueError) as exc:  # ragged rows raise ValueError
                raise InvalidInputError(f"bad covariance matrix entries: {exc}") from None
            g = g.astype(float, copy=False)
        if g.ndim != 2 or g.shape[0] != g.shape[1] or g.shape[0] % 2 or g.shape[0] == 0:
            raise InvalidInputError(f"covariance matrix must be 2n x 2n, got {g.shape}")
        # the decisions run on Python floats, which costs less than numpy's
        # per-call overhead for the small matrices of this package
        n = g.shape[0]
        flat = g.ravel().tolist()
        if not all(map(math.isfinite, flat)):
            raise InvalidInputError("covariance matrix has non-finite entries")
        if g.tobytes() == g.T.tobytes():  # the mean's bits, without its overflow from 2^1023
            g = g.copy()
        else:
            peak = max(map(abs, flat))
            tol = SYMMETRY_RTOL * max(1.0, peak)
            # |x - y| = |y - x| in IEEE arithmetic, so one triangle decides
            for i in range(1, n):
                for j in range(i):
                    if abs(flat[i * n + j] - flat[j * n + i]) > tol:
                        raise InvalidInputError("covariance matrix is not symmetric within 1e-12")
            g = _symmetrized(g, peak)
        if min(flat[::n + 1]) <= 0:
            raise InvalidInputError("covariance matrix has non-positive diagonal entries")
        g.flags.writeable = False
        object.__setattr__(self, "entries", g)

    @property
    def n_modes(self) -> int:
        return self.entries.shape[0] // 2


def _symmetrized(g: np.ndarray, peak: float) -> np.ndarray:
    """(g + g^T) / 2 of a finite g whose largest |entry| is peak, kept finite.

    A pair sum overflows only if an entry reaches 2^1023.  An entry where
    it does is g_ij / 2 + g_ji / 2 instead; every other entry is bit for
    bit (g_ij + g_ji) / 2.
    """
    if peak < 2.0 ** 1023:
        return (g + g.T) / 2
    with np.errstate(over="ignore"):
        mean = (g + g.T) / 2
    return np.where(np.isfinite(mean), mean, g / 2 + g.T / 2)


@functools.cache
def symplectic_form(n_modes: int) -> np.ndarray:
    """Read-only block-diagonal form Omega = direct sum of [[0, 1], [-1, 0]].

    One shared array per mode count: the physicality and symplecticity
    checks ask for it on every call.
    """
    if n_modes < 1:
        raise InvalidInputError("n_modes must be positive")
    out = np.kron(np.eye(n_modes), np.array([[0.0, 1.0], [-1.0, 0.0]]))
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class SymplecticTransform:
    """Real 2n x 2n matrix S with S Omega S^T = Omega (checked to 1e-10)."""

    entries: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.entries, dtype=float)
        if s.ndim != 2 or s.shape[0] != s.shape[1] or s.shape[0] % 2:
            raise InvalidInputError(f"symplectic matrix must be 2n x 2n, got {s.shape}")
        om = symplectic_form(s.shape[0] // 2)
        if np.abs(s @ om @ s.T - om).max() > 1e-10:
            raise InvalidInputError("matrix is not symplectic within 1e-10")
        s = s.copy()
        s.flags.writeable = False
        object.__setattr__(self, "entries", s)

    @property
    def n_modes(self) -> int:
        return self.entries.shape[0] // 2


@dataclass(frozen=True)
class StandardForm:
    """Two-mode standard form diag(a, a, b, b) with off-diagonal (c_plus, c_minus).

    ``local_ops`` holds the pair (S_A, S_B) of single-mode symplectics such
    that (S_A + S_B applied locally) gamma (.)^T reproduces the standard form.
    Canonical ordering: c_plus >= |c_minus|.
    """

    a: float
    b: float
    c_plus: float
    c_minus: float
    local_ops: tuple

    def matrix(self) -> np.ndarray:
        g = np.diag([self.a, self.a, self.b, self.b])
        g[0, 2] = g[2, 0] = self.c_plus
        g[1, 3] = g[3, 1] = self.c_minus
        return g


def validate_physical(cm) -> float:
    """Minimum eigenvalue of the Hermitian gamma + i Omega; :func:`_bona_fide` judges it."""
    return float(_min_eig(_checked(cm)))


@functools.cache
def _i_symplectic_form(n_modes: int) -> np.ndarray:
    """Read-only i Omega, shared per mode count like :func:`symplectic_form`."""
    out = 1j * symplectic_form(n_modes)
    out.flags.writeable = False
    return out


def _min_eig(g: np.ndarray):
    """Minimum eigenvalue of g + i Omega per matrix of an already checked array or stack g.

    eigvalsh returns the eigenvalues in ascending order, so the first is the minimum.
    """
    return np.linalg.eigvalsh(g + _i_symplectic_form(g.shape[-1] // 2))[..., 0]


def symplectic_spectrum(cm) -> np.ndarray:
    """Symplectic eigenvalues, ascending, read from the Williamson frame (:func:`_williamson_frame`).

    A CM that is not positive definite raises NonPhysicalStateError there.
    Values in [1 - SPECTRUM_CLAMP_TOL, 1) are clamped to 1 (pure states sit
    exactly on the boundary); anything lower raises NonPhysicalStateError.
    The returned array is read-only.
    """
    values = _williamson_frame(_checked(cm))[1]
    if values[0] < 1.0 - SPECTRUM_CLAMP_TOL:
        raise NonPhysicalStateError(
            f"minimum symplectic value {values[0]:.6g} < 1 - {SPECTRUM_CLAMP_TOL:g}")
    values = np.maximum(values, 1.0)
    values.flags.writeable = False
    return values


def two_mode_symplectic_values(cm) -> tuple[float, float]:
    """Closed-form (nu_minus, nu_plus) for a two-mode CM, no clamping (:func:`_symplectic_values`)."""
    return _symplectic_values(*_oriented_invariants(_two_mode(cm), 1))


def _symplectic_values(a, b, c, d) -> tuple[float, float]:
    """(nu_minus, nu_plus) from the oriented invariants A, B, C, D, no clamping.

    The one two-mode symplectic-value routine.  With the Seralian
    delta = A + B + 2C, nu_plus^2 = (delta + sqrt(delta^2 - 4D)) / 2 and
    nu_minus^2 = D / nu_plus^2, which avoids the cancellation in
    (delta - sqrt(...)) / 2: that difference loses about eps * delta, which
    near a pure mode (nu_minus -> 1, where f is steep) moves f(nu_minus) by
    a few 1e-13.  A negative discriminant (nonphysical input) gives
    nu_minus = nu_plus.  An invariant that overflowed a float (det gamma
    first, from CM entries near 1e77) raises NumericalError, and so does a
    delta whose square overflows (from about 1e154, as on
    diag(1e100, 1e100, 1, 1)), which would give nu_plus = inf and
    nu_minus = 0.  Finite A <= 0, B <= 0 or nu_plus^2 < 0 leaves a value
    undefined and raises NonPhysicalStateError; other nonphysical input
    keeps its unclamped values.
    """
    if not (math.isfinite(a) and math.isfinite(b) and math.isfinite(c) and math.isfinite(d)):
        raise NumericalError("a local invariant overflows a float: CM entries too large")
    delta = a + b + 2 * c
    root = math.sqrt(max(delta * delta - 4 * d, 0.0))
    plus_sq = (delta + root) / 2
    if plus_sq == math.inf:
        raise NumericalError("the squared Seralian overflows a float: CM entries too large")
    if not (a > 0 and b > 0 and plus_sq >= 0):
        raise NonPhysicalStateError("a symplectic value is undefined; state not physical")
    minus_sq = min(d / plus_sq, plus_sq) if plus_sq > 0 else 0.0
    return math.sqrt(max(minus_sq, 0.0)), math.sqrt(plus_sq)


def seralian(cm) -> float:
    """Sum of the determinants of the four 2x2 subblocks of a two-mode CM: A + B + 2C."""
    a, b, c, _ = _oriented_invariants(_two_mode(cm), 1)
    return a + b + 2 * c


def standard_form(cm) -> StandardForm:
    """Reduce a physical two-mode CM to standard form by local symplectics.

    The plain-float kernel :func:`_standard_form` gives the values and the
    local ops, which are returned as checked SymplecticTransforms.  A local
    block whose determinant overflows a float raises NumericalError.
    """
    a, b, c_plus, c_minus, s_a, s_b = _standard_form(_physical(_two_mode(cm)))
    return StandardForm(a=a, b=b, c_plus=c_plus, c_minus=c_minus,
                        local_ops=(SymplecticTransform(s_a), SymplecticTransform(s_b)))


def _inverse_root(p: float, q: float, r: float):
    """(sqrt(det), S) of a 2x2 block [[p, q], [q, r]] > 0, S symmetric with S block S = sqrt(det) I.

    S has det 1.  With M = block / sqrt(det), det M = 1 and sqrt(M) = (M + I) / sqrt(tr M + 2),
    so S = sqrt(M)^-1 = adj(sqrt(M)) = [[r + a, -q], [-q, p + a]] / sqrt(a (p + r + 2a))
    for a = sqrt(det).  A det or norm beyond float range raises NumericalError.
    """
    det = p * r - q * q
    if not 0.0 < det < math.inf:
        raise NumericalError("standard form: a local determinant is beyond float range")
    a = math.sqrt(det)
    norm = math.sqrt(a * (p + r + 2.0 * a))
    if norm == math.inf:
        raise NumericalError("standard form: a local block is beyond float range")
    return a, (((r + a) / norm, -q / norm), (-q / norm, (p + a) / norm))


def _standard_form(g: np.ndarray):
    """(a, b, c_plus, c_minus, S_A, S_B) of the checked entries g of a physical two-mode CM.

    The plain-float kernel behind :func:`standard_form` and the x-p GEoF.
    Each local block is brought to a multiple of the identity by its
    symmetric det-1 inverse square root (:func:`_inverse_root`).  The cross
    block K = S_a delta S_b is then split as R(phi) diag(c_plus, c_minus)
    R(theta), R a rotation, by the closed-form 2x2 proper SVD: with
    E, F = (k00 +- k11) / 2 and G, H = (k10 +- k01) / 2, c_plus =
    hypot(E, H) + hypot(F, G) is the largest singular value and
    2 phi, 2 theta = atan2(H, E) +- atan2(G, F).  c_minus = det delta / c_plus
    takes its sign and digits from det delta rather than from the difference
    hypot(E, H) - hypot(F, G), and c_plus >= |c_minus| is the canonical
    order.  The local ops S_A = R(phi)^T S_a and S_B = R(theta) S_b are
    2x2 tuples of floats.
    """
    (g00, g01, g02, g03), (_, g11, g12, g13), (_, _, g22, g23), (_, _, _, g33) = g.tolist()
    a, sa = _inverse_root(g00, g01, g11)
    b, sb = _inverse_root(g22, g23, g33)
    # K = (S_a delta) S_b, S_b symmetric
    t = [(sa[i][0] * g02 + sa[i][1] * g12, sa[i][0] * g03 + sa[i][1] * g13) for i in (0, 1)]
    (k00, k01), (k10, k11) = ((r0 * sb[0][0] + r1 * sb[1][0], r0 * sb[0][1] + r1 * sb[1][1])
                              for r0, r1 in t)
    e, f, gg, h = (k00 + k11) / 2, (k00 - k11) / 2, (k10 + k01) / 2, (k10 - k01) / 2
    c_plus = math.hypot(e, h) + math.hypot(f, gg)
    # clipped to [-c_plus, c_plus]: |det| / c_plus may round one ulp above c_plus
    c_minus = max(-c_plus, min((g02 * g13 - g03 * g12) / c_plus, c_plus)) if c_plus > 0.0 else 0.0
    turn, flip = math.atan2(h, e), math.atan2(gg, f)
    cp, sp = math.cos((turn + flip) / 2), math.sin((turn + flip) / 2)
    ct, st = math.cos((turn - flip) / 2), math.sin((turn - flip) / 2)
    s_a = ((cp * sa[0][0] + sp * sa[1][0], cp * sa[0][1] + sp * sa[1][1]),
           (cp * sa[1][0] - sp * sa[0][0], cp * sa[1][1] - sp * sa[0][1]))
    s_b = ((ct * sb[0][0] - st * sb[1][0], ct * sb[0][1] - st * sb[1][1]),
           (st * sb[0][0] + ct * sb[1][0], st * sb[0][1] + ct * sb[1][1]))
    return a, b, c_plus, c_minus, s_a, s_b


def partial_transpose(cm, mode: int) -> CovMatrix:
    """Sign-flip the p-quadrature of one mode: L gamma L^T, L = diag(..,-1,..)."""
    g = _checked(cm)
    signs = np.ones(g.shape[0])
    signs[_quadrature_indices(g.shape[0] // 2, [mode])[1]] = -1.0
    return CovMatrix(g * np.outer(signs, signs))


# L L^T for L = diag(1, -1, 1, 1): flips the sign of mode A's p row and column
_FLIP_P_A = np.outer([1.0, -1.0, 1.0, 1.0], [1.0, -1.0, 1.0, 1.0])
_FLIP_P_A.flags.writeable = False


def ppt_min_eig(cm) -> float:
    """Simon separability witness: min eig of (gamma^(T_A) + i Omega).

    Nonnegative values certify separability for two-mode (1x1) Gaussian
    states; negative values certify entanglement.  The checked entries are
    sign-flipped in place of :func:`partial_transpose`, which would check
    them a second time.
    """
    return float(_min_eig(_two_mode(cm) * _FLIP_P_A))


def _quadrature_indices(n: int, modes) -> np.ndarray:
    """x, p row indices of the listed modes (distinct, in [0, n)) of an n-mode CM, in order."""
    modes = [_integer(m, 0, "mode", n) for m in modes]
    if not modes or len(set(modes)) != len(modes):
        raise InvalidInputError(f"invalid mode selection {modes} for {n} modes")
    return np.concatenate([[2 * m, 2 * m + 1] for m in modes]).astype(int)


def _integer(value, least: int, what: str, below=math.inf):
    """value, an int or numpy integer (not a bool) in [least, below); least is 0 or 1."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or not least <= value < below):
        kind = "positive" if least else "nonnegative"
        limit = "" if below == math.inf else f" below {below}"
        raise InvalidInputError(f"{what} must be a {kind} integer{limit}, got {value!r}")
    return value


def _real(value) -> bool:
    """Whether value is a real number, not a bool (NaN and infinities are real numbers here)."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def reduce(cm, modes) -> CovMatrix:
    """Reduced CM of the listed modes (in the listed order)."""
    g = _checked(cm)
    idx = _quadrature_indices(g.shape[0] // 2, modes)
    return CovMatrix(g[np.ix_(idx, idx)])


def _symplectic(s) -> SymplecticTransform:
    """s as a SymplecticTransform: a raw S is checked (to 1e-10) once, a checked one not again."""
    return s if isinstance(s, SymplecticTransform) else SymplecticTransform(s)


def apply_symplectic(cm, s) -> CovMatrix:
    """Congruence S gamma S^T; a raw S must be symplectic within 1e-10."""
    g, sm = _checked(cm), _symplectic(s).entries
    if sm.shape != g.shape:
        raise InvalidInputError(f"shape mismatch: S {sm.shape} vs gamma {g.shape}")
    return CovMatrix(sm @ g @ sm.T)


def tensor(cm1, cm2) -> CovMatrix:
    """Direct sum of two CMs (modes of cm2 appended after cm1)."""
    g1, g2 = _checked(cm1), _checked(cm2)
    out = np.zeros((g1.shape[0] + g2.shape[0],) * 2)
    out[:g1.shape[0], :g1.shape[0]] = g1
    out[g1.shape[0]:, g1.shape[0]:] = g2
    return CovMatrix(out)


def williamson(cm):
    """Williamson decomposition gamma = S diag(nu_1, nu_1, ...) S^T.

    Returns (S, nus) with S a checked SymplecticTransform and nus the
    symplectic eigenvalues, ascending, in the order of the diagonal
    (:func:`_williamson_frame`).  A CM that is not positive definite raises
    NonPhysicalStateError.
    """
    s, nus = _williamson_frame(_checked(cm))
    return SymplecticTransform(s), nus


def _williamson_frame(g: np.ndarray):
    """(S, nus) of the Williamson decomposition of the raw 2n x 2n array g.

    S is a plain array and nus are ascending.  A g that is not positive
    definite has no such decomposition and raises NonPhysicalStateError,
    before its square root is taken.  With R = gamma^(1/2) (from eigh),
    the Hermitian i R Omega R has eigenvalues +-nu; for a unit eigenvector
    a + i b of +nu, R Omega R maps a to nu b and b to -nu a, and
    sqrt(2) (b, a) is an orthonormal real pair.  These pairs are the real Schur
    frame Z of R Omega R, with Z^T R Omega R Z = oplus nu [[0, 1], [-1, 0]],
    also for repeated nu (eigh returns an orthonormal basis of each
    eigenspace), and S = R Z diag(nu)^(-1/2).  Each eigenvector's free phase
    is a rotation of its mode; it is fixed so that the largest x entry is
    i |u_x|, which gives S = I for gamma = oplus nu_i I with distinct nu_i.
    """
    n = g.shape[0] // 2
    w, v = np.linalg.eigh(g)
    if not w[0] > 0:
        raise NonPhysicalStateError(f"CM is not positive definite: min eigenvalue {w[0]:.6g}")
    root = (v * np.sqrt(w)) @ v.T
    nus, u = np.linalg.eigh(1j * (root @ symplectic_form(n) @ root))
    nus, u = nus[n:], math.sqrt(2.0) * u[:, n:]
    # fix each eigenvector's free phase: its largest x entry becomes i |u_x|
    ph = u[2 * np.argmax(np.abs(u[0::2]), axis=0), np.arange(n)]
    u *= 1j * np.exp(-1j * np.angle(ph))
    z = np.empty((2 * n, 2 * n))
    z[:, 0::2], z[:, 1::2] = u.imag, u.real
    return root @ z / np.repeat(np.sqrt(nus), 2), nus


# ---------------------------------------------------------------------------
# file format: JSON object {"n_modes": int, "gamma": [[...]]}

def cm_to_dict(cm) -> dict:
    g = _checked(cm)
    return {"n_modes": g.shape[0] // 2, "gamma": g.tolist()}


def cm_from_dict(obj: dict, allow_nonphysical: bool = False) -> CovMatrix:
    if not isinstance(obj, dict) or set(obj) != {"n_modes", "gamma"}:
        raise InvalidInputError('CM file must be {"n_modes": int, "gamma": [[...]]}')
    cm = CovMatrix(obj["gamma"])
    if cm.n_modes != obj["n_modes"]:
        raise InvalidInputError(
            f'n_modes={obj["n_modes"]} inconsistent with a {cm.entries.shape} gamma')
    if not allow_nonphysical:
        _physical(cm.entries, "; pass the skip-physicality flag for measured data")
    return cm


def _open(path, mode: str = "r", **kwargs):
    """open(path, mode, **kwargs); an OSError (a missing file, a directory, no
    permission) becomes an InvalidInputError naming the path."""
    try:
        return open(path, mode, **kwargs)
    except OSError as exc:
        raise InvalidInputError(f"cannot open {path}: {exc.strerror or exc}") from None


def _read_json(path):
    """The JSON value in the file at path; undecodable bytes are not valid JSON either."""
    with _open(path) as fh:
        try:
            return json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise InvalidInputError(f"{path} is not valid JSON: {exc}") from None


def read_cm_file(path, allow_nonphysical: bool = False) -> CovMatrix:
    return cm_from_dict(_read_json(path), allow_nonphysical=allow_nonphysical)


def write_cm_file(path, cm):
    obj = cm_to_dict(cm)  # before open, so that a rejected CM leaves no file behind
    with _open(path, "w") as fh:
        json.dump(obj, fh, indent=1)
        fh.write("\n")
