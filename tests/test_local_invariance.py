"""GEoF, J and I under local operations.

GEoF does not change under local symplectics and does not increase under
local Gaussian channels (Wolf et al., PRA 69, 052320, 2004); for A|BC,
"local" includes any two-mode symplectic on BC.  I(A:B) and Gaussian
J(A|B) do not increase under a Gaussian channel on either side, since a
Gaussian channel followed by a Gaussian measurement is a Gaussian
measurement.  Discord can increase under local loss, which is the paper's
effect, so it gets no monotonicity test here.
"""

import numpy as np
import pytest

from gausscorr.channels import attenuate
from gausscorr.core import apply_symplectic
from gausscorr.correlations import discord, geof

from helpers import random_physical_cm, random_symplectic

N_STATES = 100
TOL = 1e-12


def _local(rng, sizes):
    """Block-diagonal random symplectic with one block per group of modes."""
    dim = 2 * sum(sizes)
    s = np.zeros((dim, dim))
    start = 0
    for m in sizes:
        s[start:start + 2 * m, start:start + 2 * m] = random_symplectic(rng, m).entries
        start += 2 * m
    return s


def _correlations(cm):
    """GEoF, I and J with the measurement on B and on A."""
    on_b, on_a = discord(cm, 1), discord(cm, 0)
    return np.array([geof(cm).value, on_b.mutual_info, on_b.classical_corr,
                     on_a.classical_corr])


def test_two_mode_correlations_invariant_under_local_symplectics():
    rng = np.random.default_rng(2024)
    for _ in range(N_STATES):
        cm = random_physical_cm(rng, 2)
        moved = apply_symplectic(cm, _local(rng, (1, 1)))
        assert np.abs(_correlations(moved) - _correlations(cm)).max() <= TOL


def test_one_by_two_geof_invariant_under_local_symplectics():
    # one symplectic eigenvalue above 1 keeps geof on its closed form (k = 1)
    rng = np.random.default_rng(2025)
    for _ in range(N_STATES):
        nu = rng.uniform(1.2, 3.0)
        cm = apply_symplectic(np.diag([nu, nu, 1, 1, 1, 1]), random_symplectic(rng, 3))
        before = geof(cm)
        after = geof(apply_symplectic(cm, _local(rng, (1, 2))))
        assert before.method == after.method == "k1-closed-form"
        assert abs(after.value - before.value) <= TOL


@pytest.mark.parametrize("mode", [0, 1])
def test_two_mode_correlations_do_not_rise_under_local_loss(mode):
    rng = np.random.default_rng(2026 + mode)
    for _ in range(N_STATES):
        cm = random_physical_cm(rng, 2)
        t = rng.uniform(0.05, 1.0)
        before, after = _correlations(cm), _correlations(attenuate(cm, mode, t))
        assert after[0] <= before[0] + TOL, (t, before, after)
        assert np.all(after[1:] <= before[1:]), (t, before, after)


@pytest.mark.parametrize("seed, loss_mode", [(20, 0), (21, 1)])
def test_one_by_two_nelder_mead_geof_under_local_operations(seed, loss_mode):
    # two symplectic eigenvalues above 1 (k = 2) put geof on its Nelder-Mead
    # route; loss on A or B makes the state k = 3, still Nelder-Mead
    rng = np.random.default_rng(seed)
    nus = np.repeat(rng.uniform(1.1, 2.0, 2), 2)
    cm = apply_symplectic(np.diag([*nus, 1.0, 1.0]), random_symplectic(rng, 3, 1.0))
    before = geof(cm)
    moved = geof(apply_symplectic(cm, _local(rng, (1, 2))))
    lossy = geof(attenuate(cm, loss_mode, rng.uniform(0.3, 0.9)))
    assert before.value > 0.1
    assert before.method == moved.method == lossy.method == "nelder-mead"
    assert before.converged and moved.converged and lossy.converged
    assert abs(moved.value - before.value) <= TOL
    assert lossy.value <= before.value + TOL
