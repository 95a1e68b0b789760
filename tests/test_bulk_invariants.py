"""Large seeded sweeps of the package-wide invariants (1000 samples each)."""

import numpy as np

from gausscorr.channels import attenuate
from gausscorr.core import (ppt_min_eig, two_mode_symplectic_values, symplectic_spectrum,
                            validate_physical)
from gausscorr.correlations import discord

from helpers import cmr_noise, make_coherent_mixture_cm, modulate, random_physical_cm


def test_channels_preserve_physicality_1000():
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        cm = random_physical_cm(rng, 2)
        t = rng.uniform(0.0, 1.0)
        out = attenuate(cm, int(rng.integers(0, 2)), t)
        out = modulate(out, int(rng.integers(0, 2)),
                       rng.uniform(0, 5), rng.uniform(0, 5))
        out = cmr_noise(out, rng.uniform(0, 0.1), t)
        assert validate_physical(out) >= -1e-9


def test_closed_form_spectrum_pairing_1000():
    rng = np.random.default_rng(77)
    for _ in range(1000):
        cm = random_physical_cm(rng, 2)
        nu_m, nu_p = two_mode_symplectic_values(cm)
        general = symplectic_spectrum(cm)
        assert abs(general[0] - max(nu_m, 1.0)) <= 1e-8
        assert abs(general[1] - nu_p) <= 1e-8


def test_discord_and_classical_nonnegative_1000():
    rng = np.random.default_rng(99)
    for _ in range(1000):
        rep = discord(random_physical_cm(rng, 2))
        assert rep.discord >= -1e-9
        assert rep.classical_corr >= -1e-9
        assert rep.discord == rep.mutual_info - rep.classical_corr


def test_coherent_mixtures_ppt_1000():
    rng = np.random.default_rng(123)
    for _ in range(1000):
        assert ppt_min_eig(make_coherent_mixture_cm(rng)) >= -1e-9
