"""Gaussian channels and state constructors.

Beamsplitter sign convention, fixed for the whole package:

    x'_i = sqrt(t) x_i + sqrt(1-t) x_j
    x'_j = sqrt(1-t) x_i - sqrt(t) x_j

(and identically for p), where t is the power transmittance toward the first
listed mode.  t=1 is treated as the exact identity: full transmission means
the second port never interacts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (CovMatrix, SymplecticTransform, _checked, _physical, _quadrature_indices,
                   _two_mode, _williamson_frame)
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
    """Beamsplitter with power transmittance t on the given mode pair."""
    if not 0.0 <= t <= 1.0:
        raise InvalidInputError(f"transmittance must be in [0, 1], got {t}")
    i, j = modes
    if i == j or not (0 <= i < n_modes and 0 <= j < n_modes):
        raise InvalidInputError(f"bad mode pair {modes} for {n_modes} modes")
    s = np.eye(2 * n_modes)
    if t == 1.0:
        return SymplecticTransform(s)
    tt, rr = np.sqrt(t), np.sqrt(1.0 - t)
    for q in range(2):
        s[2 * i + q, 2 * i + q] = tt
        s[2 * i + q, 2 * j + q] = rr
        s[2 * j + q, 2 * i + q] = rr
        s[2 * j + q, 2 * j + q] = -tt
    return SymplecticTransform(s)


def squeezer(s: float, n_modes: int = 1, mode: int = 0) -> SymplecticTransform:
    """Local squeezer diag(sqrt(s), 1/sqrt(s)) on one mode."""
    if s <= 0:
        raise InvalidInputError("squeezing parameter must be positive")
    m = np.eye(2 * n_modes)
    m[2 * mode, 2 * mode] = np.sqrt(s)
    m[2 * mode + 1, 2 * mode + 1] = 1.0 / np.sqrt(s)
    return SymplecticTransform(m)


def rotation(theta: float, n_modes: int = 1, mode: int = 0) -> SymplecticTransform:
    """Local phase rotation on one mode."""
    c, sn = np.cos(theta), np.sin(theta)
    m = np.eye(2 * n_modes)
    m[2 * mode:2 * mode + 2, 2 * mode:2 * mode + 2] = [[c, -sn], [sn, c]]
    return SymplecticTransform(m)


def attenuate(cm, mode: int, t: float, keep_environment: bool = False) -> CovMatrix:
    """Attenuation with power transmittance t via a vacuum ancilla.

    With keep_environment the ancilla is appended as a new last mode and the
    beamsplitter applied (global purity preserved); without, the ancilla is
    traced out: the mode's rows and columns scale by sqrt(t) and its block
    gains (1-t) I.
    """
    g = _checked(cm)
    n = g.shape[0] // 2
    q = _quadrature_indices(n, [mode])
    if not 0.0 <= t <= 1.0:
        raise InvalidInputError(f"transmittance must be in [0, 1], got {t}")
    if keep_environment:
        extended = np.eye(2 * n + 2)
        extended[:2 * n, :2 * n] = g
        bs = beamsplitter(t, n + 1, (mode, n)).entries
        return CovMatrix(bs @ extended @ bs.T)
    scale = np.ones(2 * n)
    scale[q] = np.sqrt(t)
    out = g * scale[:, None] * scale
    out[np.ix_(q, q)] += (1.0 - t) * np.eye(2)
    return CovMatrix(out)


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


def minimal_purification(cm) -> CovMatrix:
    """Pure CM of the given n modes plus one purifying mode per mixed Williamson mode.

    Williamson-decompose gamma = S (oplus nu_i I) S^T.  Each nu_i > 1 + 1e-6
    gets a two-mode squeezed vacuum core with m = nu_i whose partner mode is
    appended after the n system modes (in Williamson order); the other nu_i
    are set to exactly 1, so their modes need no purifier.  S is then applied
    on the system modes.  The system reduction is gamma up to that tolerance.
    The input's physicality is checked once; the cores are written in place
    and the frame is applied on plain arrays (:func:`_purify`).
    """
    return CovMatrix(_purify(*_williamson_frame(_physical(_checked(cm)))))


def _purify(s, nus) -> np.ndarray:
    """Symmetric :func:`minimal_purification` array of a Williamson frame (s, nus)."""
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
    if m < 1.0 - 1e-12:
        raise InvalidInputError("TMSV parameter must be >= 1")
    c = np.sqrt(max(m * m - 1.0, 0.0))
    sz = np.diag([1.0, -1.0])
    g = np.block([[m * np.eye(2), c * sz], [c * sz, m * np.eye(2)]])
    return CovMatrix(g)


__all__ = [
    "InputSpec", "db_to_variance", "beamsplitter",
    "squeezer", "rotation", "attenuate", "modulate", "cmr_noise",
    "minimal_purification", "tmsv_cm",
]
