import importlib
import inspect
import json
import pkgutil
import re

import numpy as np
import pytest

import gausscorr
from gausscorr.core import CovMatrix, cm_to_dict
from gausscorr.reference import (MEASURED_CM_STD_ERRORS,
                                 MEASURED_SPLIT_SQUEEZED_CM)


@pytest.fixture
def measured_cm() -> CovMatrix:
    return MEASURED_SPLIT_SQUEEZED_CM


@pytest.fixture
def measured_errors() -> np.ndarray:
    return MEASURED_CM_STD_ERRORS


@pytest.fixture
def measured_cm_file(tmp_path, measured_cm):
    path = tmp_path / "measured_cm.json"
    path.write_text(json.dumps(cm_to_dict(measured_cm)))
    return path


def make_separable_cm(rng, n_loadings=3):
    """Two-mode CM separable by construction: product pure plus classical noise."""
    blocks = []
    for _ in range(2):
        th = rng.uniform(0, 2 * np.pi)
        z = rng.uniform(-0.4, 0.4)
        c, s = np.cos(th), np.sin(th)
        r = np.array([[c, -s], [s, c]])
        blocks.append(r @ np.diag([np.exp(2 * z), np.exp(-2 * z)]) @ r.T)
    g = np.zeros((4, 4))
    g[:2, :2], g[2:, 2:] = blocks
    for _ in range(n_loadings):
        vec = rng.normal(0, 1, 4)
        g += rng.uniform(0.1, 3.0) * np.outer(vec, vec)
    return CovMatrix(g)


def make_coherent_mixture_cm(rng, n_loadings=3):
    """Classical mixture of two-mode coherent states: identity plus classical noise."""
    g = np.eye(4)
    for _ in range(n_loadings):
        vec = rng.normal(0, 1, 4)
        g += rng.uniform(0.1, 4.0) * np.outer(vec, vec)
    return CovMatrix(g)


def cm_entry_points() -> dict:
    """{name: (function, CM parameter names)} for every public function of the
    gausscorr namespace or of a module's __all__ that takes a covariance
    matrix: a parameter named cm, cm1, cm2, ..."""
    names = {name: gausscorr for name in dir(gausscorr) if not name.startswith("_")}
    for info in pkgutil.iter_modules(gausscorr.__path__):
        module = importlib.import_module(f"gausscorr.{info.name}")
        names.update(dict.fromkeys(getattr(module, "__all__", ()), module))
    found = {}
    for name, module in names.items():
        obj = getattr(module, name)
        if not inspect.isfunction(obj):
            continue
        params = [p for p in inspect.signature(obj).parameters if re.fullmatch(r"cm\d*", p)]
        if params:
            found[name] = (obj, params)
    return found


def cm_call_args(tmp_path) -> dict:
    """Arguments besides the CMs for calling each entry point on two-mode CMs."""
    return {
        "apply_symplectic": {"s": np.eye(4)},
        "attenuate": {"mode": 1, "t": 0.3},
        "cm_resampling_pipeline": {"n": 100, "scalars": {}},
        "cmr_noise": {"a": 0.1, "t": 0.5},
        "duan_value": {"g": 1.0},
        "matched_sample_size": {"std_errors": np.full((4, 4), 0.1)},
        "modulate": {"mode": 0, "w_x": 0.1, "w_p": 0.1},
        "partial_transpose": {"mode": 1},
        "reduce": {"modes": [1, 0]},
        "write_cm_file": {"path": tmp_path / "cm.json"},
    }
