"""Reference measured data used by the golden tests, scripts and CLI examples.

The covariance matrix below was reconstructed from Stokes measurements on a
randomly displaced -3 dB squeezed beam split on a balanced beamsplitter
(modes A, B; quadrature ordering x_A, p_A, x_B, p_B; gamma-units).  The
companion matrix holds the one-sigma statistical errors of each entry.
"""

import numpy as np

from .core import CovMatrix

MEASURED_SPLIT_SQUEEZED_CM = CovMatrix(np.array([
    [5.42, 0.23, 4.06, 0.04],
    [0.23, 19.28, 0.45, 17.29],
    [4.06, 0.45, 4.73, 0.55],
    [0.04, 17.29, 0.55, 17.70],
]))

MEASURED_CM_STD_ERRORS = np.array([
    [0.05, 0.02, 0.03, 0.01],
    [0.02, 0.17, 0.01, 0.15],
    [0.03, 0.01, 0.04, 0.02],
    [0.01, 0.15, 0.02, 0.16],
])
MEASURED_CM_STD_ERRORS.flags.writeable = False
