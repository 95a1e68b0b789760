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
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, NonPhysicalStateError

SYMMETRY_RTOL = 1e-12
PHYSICALITY_TOL = 1e-9
SPECTRUM_CLAMP_TOL = 1e-6


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


def _physical(g: np.ndarray, hint: str = "") -> np.ndarray:
    """The checked entries g, after the bona-fide test gamma + i Omega >= -PHYSICALITY_TOL."""
    low = _min_eig(g)
    if low < -PHYSICALITY_TOL:
        raise NonPhysicalStateError(
            f"CM is not physical: min eig of gamma + i Omega is {low:.6g}{hint}")
    return g


@dataclass(frozen=True)
class CovMatrix:
    """Real symmetric 2n x 2n covariance matrix in gamma-units.

    Entries must be finite real numbers.  Symmetry is validated to relative
    tolerance 1e-12 and the stored array is exactly symmetrized and read-only.
    Physicality is *not* enforced here (measured matrices may violate it
    slightly); use :func:`validate_physical`.
    """

    entries: np.ndarray

    def __post_init__(self):
        try:
            g = np.asarray(self.entries)
            if g.dtype.kind not in "iuf":  # complex, string and object entries
                raise TypeError(f"entries of dtype {g.dtype} are not real numbers")
        except (TypeError, ValueError) as exc:  # ragged rows raise ValueError
            raise InvalidInputError(f"bad covariance matrix entries: {exc}") from None
        g = g.astype(float, copy=False)
        if g.ndim != 2 or g.shape[0] != g.shape[1] or g.shape[0] % 2 or g.shape[0] == 0:
            raise InvalidInputError(f"covariance matrix must be 2n x 2n, got {g.shape}")
        peak = np.abs(g).max()
        if not peak < np.inf:  # NaN fails every comparison, so ask for the true case
            raise InvalidInputError("covariance matrix has non-finite entries")
        gt = g.T
        if np.abs(g - gt).max() > SYMMETRY_RTOL * max(1.0, peak):
            raise InvalidInputError("covariance matrix is not symmetric within 1e-12")
        if g.diagonal().min() <= 0:
            raise InvalidInputError("covariance matrix has non-positive diagonal entries")
        g = (g + gt) / 2
        g.flags.writeable = False
        object.__setattr__(self, "entries", g)

    @property
    def n_modes(self) -> int:
        return self.entries.shape[0] // 2


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
    """Minimum eigenvalue of the Hermitian gamma + i Omega; >= -PHYSICALITY_TOL is physical."""
    return float(_min_eig(_checked(cm)))


def _min_eig(g: np.ndarray):
    """Minimum eigenvalue of g + i Omega per matrix of an already checked array or stack g."""
    return np.linalg.eigvalsh(g + 1j * symplectic_form(g.shape[-1] // 2)).min(axis=-1)


def symplectic_spectrum(cm) -> np.ndarray:
    """Symplectic eigenvalues as |eig(i Omega gamma)|, paired and sorted ascending.

    Values in [1 - SPECTRUM_CLAMP_TOL, 1) are clamped to 1 (pure states sit
    exactly on the boundary); anything lower raises NonPhysicalStateError.
    The returned array is read-only.
    """
    g = _checked(cm)
    n = g.shape[0] // 2
    ev = np.abs(np.linalg.eigvals(1j * symplectic_form(n) @ g))
    ev.sort()
    values = 0.5 * (ev[0::2] + ev[1::2])  # average degenerate pairs
    if values.min() < 1.0 - SPECTRUM_CLAMP_TOL:
        raise NonPhysicalStateError(
            f"minimum symplectic value {values.min():.6g} < 1 - {SPECTRUM_CLAMP_TOL:g}")
    values = np.maximum(values, 1.0)
    values.flags.writeable = False
    return values


def two_mode_symplectic_values(cm) -> tuple[float, float]:
    """Closed-form (nu_minus, nu_plus) for a two-mode CM, no clamping."""
    g = _two_mode(cm)
    return _symplectic_pair(_seralian(g), float(np.linalg.det(g)))


def _symplectic_pair(delta: float, det_g: float) -> tuple[float, float]:
    """(nu_minus, nu_plus) from the Seralian delta and det gamma, no clamping.

    nu_plus^2 = (delta + sqrt(delta^2 - 4 det)) / 2 and nu_minus^2 =
    det / nu_plus^2, which avoids the cancellation in (delta - sqrt(...)) / 2:
    that difference loses about eps * delta, which near a pure mode
    (nu_minus -> 1, where f is steep) moves f(nu_minus) by a few 1e-13.
    A negative discriminant (nonphysical input) gives nu_minus = nu_plus,
    and a negative nu_plus^2 gives nu_plus = NaN.
    """
    root = math.sqrt(max(delta * delta - 4 * det_g, 0.0))
    plus_sq = (delta + root) / 2
    minus_sq = min(det_g / plus_sq, plus_sq) if plus_sq > 0 else 0.0
    return math.sqrt(max(minus_sq, 0.0)), math.sqrt(plus_sq) if plus_sq >= 0 else math.nan


def seralian(cm) -> float:
    """Sum of the determinants of the four 2x2 subblocks of a two-mode CM."""
    return _seralian(_two_mode(cm))


def _seralian(g: np.ndarray) -> float:
    return float(np.linalg.det(g[:2, :2]) + np.linalg.det(g[2:, 2:])
                 + 2 * np.linalg.det(g[:2, 2:]))


def _rotation(theta: float) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def _proper_svd(m: np.ndarray):
    """m = u diag(d) vt with u, vt proper rotations; d[1] may be negative."""
    u, sv, vt = np.linalg.svd(m)
    d = sv.copy()
    if np.linalg.det(u) < 0:
        u = u @ np.diag([1.0, -1.0])
        d[1] = -d[1]
    if np.linalg.det(vt) < 0:
        vt = np.diag([1.0, -1.0]) @ vt
        d[1] = -d[1]
    return u, d, vt


def _sqrt_2x2(m: np.ndarray) -> np.ndarray:
    """(M + sqrt(det M) I) / sqrt(tr M + 2 sqrt(det M)): the square root of a 2x2 M > 0."""
    s = math.sqrt(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0])
    return (m + s * np.eye(2)) / math.sqrt(m[0, 0] + m[1, 1] + 2.0 * s)


def standard_form(cm) -> StandardForm:
    """Reduce a physical two-mode CM to standard form by local symplectics.

    Each local block is Williamson-diagonalized to a multiple of the
    identity, the cross block is then diagonalized with local rotations, and
    the signs/order are fixed to the canonical convention c_plus >= |c_minus|.
    """
    return _standard_form(_physical(_two_mode(cm)))


def _standard_form(g: np.ndarray) -> StandardForm:
    """:func:`standard_form` of the checked entries g of a physical two-mode CM."""
    alpha, beta, delta = g[:2, :2], g[2:, 2:], g[:2, 2:]
    a = float(np.sqrt(np.linalg.det(alpha)))
    b = float(np.sqrt(np.linalg.det(beta)))
    # symmetric det-1 congruence bringing each block to a multiple of identity
    sa = np.linalg.inv(_sqrt_2x2(alpha / a))
    sb = np.linalg.inv(_sqrt_2x2(beta / b))

    u, d, vt = _proper_svd(sa @ delta @ sb.T)
    ra, rb = u.T, vt  # rotations with ra (sa delta sb^T) rb^T = diag(d)
    c1, c2 = float(d[0]), float(d[1])
    if abs(c2) > abs(c1):
        quarter = _rotation(np.pi / 2)
        ra, rb = quarter @ ra, quarter @ rb
        c1, c2 = c2, c1
    if c1 < 0:
        ra = -ra  # pi rotation on mode A flips both cross entries
        c1, c2 = -c1, -c2

    s_a = SymplecticTransform(ra @ sa)
    s_b = SymplecticTransform(rb @ sb)
    return StandardForm(a=a, b=b, c_plus=c1, c_minus=c2, local_ops=(s_a, s_b))


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
    """x, p row indices of the listed modes of an n-mode CM (in the listed order)."""
    modes = list(modes)
    if not modes or any(not 0 <= m < n for m in modes) or len(set(modes)) != len(modes):
        raise InvalidInputError(f"invalid mode selection {modes} for {n} modes")
    return np.concatenate([[2 * m, 2 * m + 1] for m in modes]).astype(int)


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
    (:func:`_williamson_frame`).
    """
    s, nus = _williamson_frame(_checked(cm))
    return SymplecticTransform(s), nus


def _williamson_frame(g: np.ndarray):
    """(S, nus) of the Williamson decomposition of the raw 2n x 2n array g.

    S is a plain array and nus are ascending.  With R = gamma^(1/2) (from eigh),
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
# random physical states (seeded; used by property tests and the oracle suite)

def random_symplectic(rng, n_modes: int, squeeze_scale: float = 0.6) -> SymplecticTransform:
    """Random symplectic built from rotations, local squeezers and beamsplitters."""
    from .channels import beamsplitter, squeezer  # local import avoids a cycle

    s = np.eye(2 * n_modes)
    for i in range(n_modes):
        sq = np.exp(rng.uniform(-squeeze_scale, squeeze_scale))
        loc = (_rotation(rng.uniform(0, 2 * np.pi))
               @ np.diag([sq, 1.0 / sq])
               @ _rotation(rng.uniform(0, 2 * np.pi)))
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


def read_cm_file(path, allow_nonphysical: bool = False) -> CovMatrix:
    with open(path) as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InvalidInputError(f"not valid JSON: {exc}") from None
    return cm_from_dict(obj, allow_nonphysical=allow_nonphysical)


def write_cm_file(path, cm):
    obj = cm_to_dict(cm)  # before open, so that a rejected CM leaves no file behind
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1)
        fh.write("\n")
