import json

import numpy as np
import pytest

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
