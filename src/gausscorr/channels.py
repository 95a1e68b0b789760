"""Gaussian channels and state constructors.

Beamsplitter sign convention, fixed for the whole package:

    x'_i = sqrt(t) x_i + sqrt(1-t) x_j
    x'_j = sqrt(1-t) x_i - sqrt(t) x_j

(and identically for p), where t is the power transmittance toward the first
listed mode.  t=1 is treated as the exact identity: full transmission means
the second port never interacts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import CovMatrix, SymplecticTransform, _checked, _integer, _quadrature_indices, _real
from .errors import InvalidInputError

DB_SQUEEZING_FACTOR = 10.0  # variance factor is 10**(dB/10)
PURE_TOL = 1e-6            # symplectic eigenvalues up to 1 + PURE_TOL count as pure


def db_to_variance(db: float) -> float:
    """Variance factor for a squeezing level in dB (-3 dB -> 0.501)."""
    return float(10.0 ** (db / DB_SQUEEZING_FACTOR))


@dataclass(frozen=True)
class InputSpec:
    """Input mode of the splitting scheme: coherent or squeezed, then modulated.

    v_x and v_p are the gamma-unit variances *after* modulation; for squeezed
    kind the quantum part is the pure squeezed state diag(s, 1/s) with
    s = 10**(squeezing_db/10), the rest is classical noise.
    """

    kind: str
    squeezing_db: float
    v_x: float
    v_p: float

    def __post_init__(self):
        if self.kind not in ("coherent", "squeezed"):
            raise InvalidInputError(f"kind must be coherent|squeezed, got {self.kind!r}")
        if self.kind == "coherent" and self.squeezing_db != 0:
            raise InvalidInputError("coherent input must have squeezing_db = 0")
        if self.squeezing_db > 0:
            raise InvalidInputError("squeezing_db must be <= 0")
        sx, sp = self.quantum_variances()
        if self.v_x < sx - 1e-12:
            raise InvalidInputError(f"v_x={self.v_x} below squeezed x-variance {sx:.4g}")
        if self.v_p < sp - 1e-12:
            raise InvalidInputError(f"v_p={self.v_p} below anti-squeezed p-variance {sp:.4g}")

    def quantum_variances(self) -> tuple[float, float]:
        s = db_to_variance(self.squeezing_db)
        return s, 1.0 / s

    def modulation_variances(self) -> tuple[float, float]:
        """Classical (w_x, w_p) on top of the pure squeezed part."""
        sx, sp = self.quantum_variances()
        return max(self.v_x - sx, 0.0), max(self.v_p - sp, 0.0)


def beamsplitter(t: float, n_modes: int = 2, modes: tuple = (0, 1)) -> SymplecticTransform:
    """Beamsplitter with power transmittance t on the given pair of distinct modes."""
    (t,) = _transmittances([t])
    idx = _quadrature_indices(_integer(n_modes, 1, "n_modes"), modes)
    if len(idx) != 4:
        raise InvalidInputError(f"a beamsplitter acts on a pair of modes, got {modes!r}")
    s = np.eye(2 * n_modes)
    if t == 1.0:
        return SymplecticTransform(s)
    tt, rr = np.sqrt(t), np.sqrt(1.0 - t)
    for i, j in (idx[::2], idx[1::2]):     # the x rows, then the p rows
        s[i, i], s[i, j], s[j, i], s[j, j] = tt, rr, rr, -tt
    return SymplecticTransform(s)


def squeezer(s: float, n_modes: int = 1, mode: int = 0) -> SymplecticTransform:
    """Local squeezer diag(sqrt(s), 1/sqrt(s)) on one mode."""
    if not (_real(s) and math.isfinite(s) and s > 0):
        raise InvalidInputError(
            f"squeezing parameter must be a positive finite real number, got {s!r}")
    idx = _quadrature_indices(_integer(n_modes, 1, "n_modes"), [mode])
    m = np.eye(2 * n_modes)
    m[idx, idx] = np.sqrt(s), 1.0 / np.sqrt(s)
    return SymplecticTransform(m)


def rotation(theta: float, n_modes: int = 1, mode: int = 0) -> SymplecticTransform:
    """Local phase rotation on one mode."""
    if not (_real(theta) and math.isfinite(theta)):
        raise InvalidInputError(f"rotation angle must be a finite real number, got {theta!r}")
    idx = _quadrature_indices(_integer(n_modes, 1, "n_modes"), [mode])
    c, sn = np.cos(theta), np.sin(theta)
    m = np.eye(2 * n_modes)
    m[np.ix_(idx, idx)] = [[c, -sn], [sn, c]]
    return SymplecticTransform(m)


def attenuate(cm, mode: int, t: float) -> CovMatrix:
    """Attenuation of one mode with power transmittance t via a traced vacuum ancilla.

    The one loss map :func:`_loss_stack` at a single t.  Keeping the ancilla
    as a new last mode is ``apply_symplectic(tensor(cm, np.eye(2)),
    beamsplitter(t, n + 1, (mode, n)))``.
    """
    g = _checked(cm)
    _quadrature_indices(g.shape[0] // 2, [mode])  # raises for a mode the CM lacks
    return CovMatrix(_loss_stack(g, [t], mode)[0])


def _transmittances(t_grid) -> list:
    """t_grid as Python floats, after the one transmittance rule.

    Every t is a real number, not a bool, in [0, 1] (NaN is not).
    """
    out = []
    for t in t_grid:
        if not (_real(t) and 0.0 <= t <= 1.0):
            raise InvalidInputError(f"transmittance must be a real number in [0, 1], got {t!r}")
        out.append(float(t))
    return out


def _loss_stack(g: np.ndarray, t_grid, mode: int) -> np.ndarray:
    """Stack of g with one mode sent through loss, one CM per transmittance t.

    A beamsplitter with a vacuum port scales the mode's rows and columns by
    sqrt(t) and turns its block beta into t beta + (1 - t) I; the other
    blocks stay.  The package's only loss channel: :func:`attenuate`, the
    attenuation sweep and the correlation flow all call it.
    """
    t = np.array(_transmittances(t_grid))[:, None, None]
    q = slice(2 * mode, 2 * mode + 2)
    out = np.repeat(g[None], len(t), axis=0)
    out[:, :, q] = np.sqrt(t) * g[:, q]
    out[:, q, :] = np.swapaxes(out[:, :, q], 1, 2)
    out[:, q, q] = t * g[q, q] + (1.0 - t) * np.eye(2)
    return out


def _purify(s, nus) -> np.ndarray:
    """Pure CM, as a symmetric array, of the Williamson frame (s, nus) of an n-mode CM.

    Each nu_i > 1 + PURE_TOL gets a two-mode squeezed vacuum core with
    m = nu_i whose partner mode is appended after the n system modes (in
    Williamson order); the other nu_i are set to exactly 1, so their modes
    need no purifier.  s is then applied on the system modes, whose reduction
    is the CM up to that tolerance.
    """
    n = len(nus)
    mixed = np.flatnonzero(nus > 1.0 + PURE_TOL)
    size = 2 * (n + len(mixed))
    core = np.eye(size)
    for j, i in enumerate(mixed):
        m = nus[i]
        c = np.sqrt(max(m * m - 1.0, 0.0))
        idx = [2 * i, 2 * i + 1, 2 * (n + j), 2 * (n + j) + 1]
        core[np.ix_(idx, idx)] = [[m, 0.0, c, 0.0], [0.0, m, 0.0, -c],
                                  [c, 0.0, m, 0.0], [0.0, -c, 0.0, m]]
    ext = np.eye(size)
    ext[:2 * n, :2 * n] = s
    pure = ext @ core @ ext.T
    return (pure + pure.T) / 2


def tmsv_cm(m: float) -> CovMatrix:
    """Two-mode squeezed vacuum with diagonal blocks m*I and cross sqrt(m^2-1)*sigma_z."""
    if not (_real(m) and m >= 1.0 - 1e-12):
        raise InvalidInputError(f"TMSV parameter must be a real number >= 1, got {m!r}")
    c = np.sqrt(max(m * m - 1.0, 0.0))
    sz = np.diag([1.0, -1.0])
    g = np.block([[m * np.eye(2), c * sz], [c * sz, m * np.eye(2)]])
    return CovMatrix(g)


__all__ = [
    "InputSpec", "db_to_variance", "beamsplitter",
    "squeezer", "rotation", "attenuate", "tmsv_cm",
]
