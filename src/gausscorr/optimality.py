"""Certificate that Gaussian measurements are optimal for split squeezed states.

For a modulated squeezed input with V_p > V_x > 1 split on a balanced
beamsplitter, the two-mode state admits a decomposition as a local squeezer
and a phase-conjugating channel acting on one half of a two-mode squeezed
vacuum.  When the decomposition parameters satisfy all the required
conditions, the Gaussian discord of the split state equals its unrestricted
discord, so interpreting the Gaussian value as discord is exact.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import InvalidInputError

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
    if not v_p > v_x > 1.0:
        raise InvalidInputError(f"need v_p > v_x > 1, got v_x={v_x}, v_p={v_p}")


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


def decomposition_params(v_x: float, v_p: float) -> DecompositionParams:
    """Channel decomposition (m, tau, eta, r, xi) of the split squeezed state."""
    _check_ordering(v_x, v_p)
    denom = (v_x + 1) * (v_p + 1) - 4
    m = np.sqrt((v_x + 1) * (v_p + 1)) / 2
    tau = -(v_x - 1) * (v_p - 1) / denom
    eta = 2 * (v_x * v_p - 1) / denom
    r = np.sqrt((v_x + 1) / (v_p + 1)) * (v_p - 1) / (v_x - 1)
    theta = _theta_factory(m, tau, eta)
    xi = r * theta(1 / r) / theta(r)
    return DecompositionParams(m=float(m), tau_channel=float(tau), eta=float(eta),
                               r=float(r), xi=float(xi))


def _theta_factory(m, tau, eta):
    def theta(r):
        return np.sqrt(eta * r + abs(tau) * m)
    return theta


def reconstructed_standard_form(params: DecompositionParams):
    """Standard-form elements (a, c_x, c_p) rebuilt from the decomposition.

    a = theta(r) theta(1/r), c entries from |tau| (m^2 - 1) and the theta
    ratio; signs follow the phase-conjugating channel (tau < 0).
    """
    m, tau, r = params.m, params.tau_channel, params.r
    theta = _theta_factory(m, tau, params.eta)
    a = theta(r) * theta(1 / r)
    c_x = np.sqrt(abs(tau) * (m * m - 1) * theta(1 / r) / theta(r))
    c_p = -np.sign(tau) * np.sqrt(abs(tau) * (m * m - 1) * theta(r) / theta(1 / r))
    return float(a), float(c_x), float(c_p)


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
    "DecompositionParams", "OptimalityCertificate", "split_standard_form",
    "decomposition_params", "reconstructed_standard_form", "vx_threshold",
    "certify",
]
