"""Certificate that Gaussian measurements are optimal for split squeezed states.

For a modulated squeezed input with V_p > V_x > 1 split on a balanced
beamsplitter, the two-mode state admits a decomposition as a local squeezer
and a phase-conjugating channel acting on one half of a two-mode squeezed
vacuum.  When the decomposition parameters satisfy all the required
conditions, the Gaussian discord of the split state equals its unrestricted
discord, so interpreting the Gaussian value as discord is exact.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .core import _real
from .errors import InvalidInputError, NumericalError

CERTIFY_TOL = 1e-9


@dataclass(frozen=True)
class DecompositionParams:
    m: float
    tau_channel: float
    eta: float
    r: float
    xi: float


@dataclass(frozen=True)
class OptimalityCertificate(DecompositionParams):
    cond_tau_real: bool
    cond_eta: bool
    cond_r_range: bool
    cond_vx_threshold: bool

    @property
    def certified(self) -> bool:
        return (self.cond_tau_real and self.cond_eta
                and self.cond_r_range and self.cond_vx_threshold)

    def to_dict(self) -> dict:
        return {**asdict(self), "certified": self.certified}


def _check_ordering(v_x: float, v_p: float):
    if not (_real(v_x) and _real(v_p)):
        raise InvalidInputError(f"v_x and v_p must be real numbers, got v_x={v_x!r}, v_p={v_p!r}")
    if not (math.isfinite(v_p) and v_p > v_x > 1.0):
        raise InvalidInputError(f"need finite v_p > v_x > 1, got v_x={v_x}, v_p={v_p}")


def decomposition_params(v_x: float, v_p: float) -> DecompositionParams:
    """Channel decomposition (m, tau, eta, r, xi) of the split squeezed state.

    v_x and v_p must be real numbers (not bools) with v_p > v_x > 1 and v_p
    finite (InvalidInputError); a parameter that overflows a float raises
    NumericalError.
    """
    _check_ordering(v_x, v_p)
    denom = (v_x + 1) * (v_p + 1) - 4
    m = np.sqrt((v_x + 1) * (v_p + 1)) / 2
    tau = -(v_x - 1) * (v_p - 1) / denom
    eta = 2 * (v_x * v_p - 1) / denom
    r = np.sqrt((v_x + 1) / (v_p + 1)) * (v_p - 1) / (v_x - 1)
    xi = r * np.sqrt(eta * (1 / r) + abs(tau) * m) / np.sqrt(eta * r + abs(tau) * m)
    values = tuple(map(float, (m, tau, eta, r, xi)))
    if not all(map(math.isfinite, values)):
        raise NumericalError(f"decomposition parameters overflow a float at v_x={v_x}, v_p={v_p}")
    return DecompositionParams(*values)


def vx_threshold(v_p: float) -> float:
    """Smallest v_x for which the r <= m condition holds; approaches 3 for large v_p."""
    return 3.0 - 4.0 / (v_p + 1.0)


def certify(v_x: float, v_p: float) -> OptimalityCertificate:
    """Evaluate all decomposition conditions for the split squeezed state.

    certified=True means the Gaussian discord of the state equals the
    unrestricted discord.  Split modulated *coherent* states are outside the
    proven family; no certificate exists for them.
    """
    p = decomposition_params(v_x, v_p)
    return OptimalityCertificate(
        **asdict(p),
        cond_tau_real=bool(np.isfinite(p.tau_channel)),
        cond_eta=p.eta >= abs(1.0 - p.tau_channel) - CERTIFY_TOL,
        cond_r_range=(1.0 / p.m - CERTIFY_TOL <= p.r <= p.m + CERTIFY_TOL),
        cond_vx_threshold=v_x >= vx_threshold(v_p) - CERTIFY_TOL,
    )


__all__ = [
    "DecompositionParams", "OptimalityCertificate", "decomposition_params",
    "vx_threshold", "certify",
]
