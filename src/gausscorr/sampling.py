"""Monte-Carlo emulation of the measured-data pipeline.

Samples are raw quadrature values (covariance = effective gamma / 2), with the
per-shot draws of every classical noise source recorded alongside, the way the
experiment records its applied displacements.  CM estimates are returned in
gamma-units with analytic Gaussian fourth-moment standard errors.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace

import numpy as np

from .core import CovMatrix, validate_physical, PHYSICALITY_TOL, _as_matrix
from .errors import InvalidInputError, NonPhysicalStateError
from .scenarios import MODULATION_SOURCE, ScenarioState


@dataclass(frozen=True)
class SampleBatch:
    """Shot-by-shot quadrature samples plus the classical displacement record."""

    columns: np.ndarray            # shape (n, 2m), raw units
    quadrature_labels: tuple       # e.g. ("x_A", "p_A", "x_B", "p_B")
    displacement_record: dict      # source_id -> per-shot values, shape (n,)
    seed: int

    def __post_init__(self):
        cols = np.asarray(self.columns, dtype=float)
        if cols.ndim != 2 or cols.shape[1] != len(self.quadrature_labels):
            raise InvalidInputError("columns shape does not match quadrature labels")
        cols.flags.writeable = False
        object.__setattr__(self, "columns", cols)

    @property
    def n(self) -> int:
        return self.columns.shape[0]

    def column(self, label: str) -> np.ndarray:
        try:
            return self.columns[:, self.quadrature_labels.index(label)]
        except ValueError:
            raise InvalidInputError(f"no quadrature {label!r}") from None


@dataclass(frozen=True)
class CMEstimate:
    cm: CovMatrix
    std_errors: np.ndarray


@dataclass(frozen=True)
class ScalarSummary:
    mean: float
    std: float
    values: np.ndarray


def _physical_cm(state: ScenarioState) -> CovMatrix:
    cm = state.effective_cm()
    if validate_physical(cm) < -PHYSICALITY_TOL:
        raise NonPhysicalStateError("effective CM is not physical; cannot sample")
    return cm


def sample(state: ScenarioState, n: int, seed: int) -> SampleBatch:
    """Draw n shots from a scenario state, recording each classical source.

    The quantum part is drawn from N(0, gamma_q/2); each classical
    source contributes its loading vector times a recorded N(0, W/2) draw.
    Bit-reproducible for a fixed seed.
    """
    if n < 1:
        raise InvalidInputError("sample size must be positive")
    _physical_cm(state)
    rng = np.random.default_rng(seed)
    raw_cov = state.quantum_cm.entries / 2.0
    chol = np.linalg.cholesky(raw_cov + 1e-15 * np.eye(raw_cov.shape[0]))
    shots = rng.standard_normal((n, raw_cov.shape[0])) @ chol.T
    record = {}
    for ld in state.loadings:
        draws = rng.normal(0.0, np.sqrt(ld.variance / 2.0), n)
        for j in np.flatnonzero(ld.vector):   # a loading touches few columns
            shots[:, j] += draws * ld.vector[j]
        record[ld.source_id] = draws
    labels = tuple(f"{q}_{m}" for m in state.mode_names for q in ("x", "p"))
    return SampleBatch(columns=shots, quadrature_labels=labels,
                       displacement_record=record, seed=seed)


def estimate_cm(batch: SampleBatch) -> CMEstimate:
    """Gamma-unit CM estimate (2 x sample covariance) with analytic standard errors.

    For Gaussian data, var(cov_ij) = (cov_ii cov_jj + cov_ij^2)/n, which in
    gamma-units becomes se(gamma_ij) = sqrt((gamma_ii gamma_jj + gamma_ij^2)/n).
    """
    g = 2.0 * np.cov(batch.columns.T, ddof=1)
    se = np.sqrt((np.outer(np.diag(g), np.diag(g)) + g * g) / batch.n)
    return CMEstimate(cm=CovMatrix(g), std_errors=se)


def electronic_demodulation(batch: SampleBatch, g: float, big_t: float,
                            big_r: float) -> SampleBatch:
    """Subtract (g T + R) xbar from the measured x_B column, shot by shot."""
    if MODULATION_SOURCE not in batch.displacement_record:
        raise InvalidInputError("batch has no recorded modulation displacements")
    xbar = batch.displacement_record[MODULATION_SOURCE]
    cols = batch.columns.copy()
    try:
        jb = batch.quadrature_labels.index("x_B")
    except ValueError:
        raise InvalidInputError("batch has no x_B column") from None
    cols[:, jb] = cols[:, jb] - (g * big_t + big_r) * xbar
    return replace(batch, columns=cols)


def error_monte_carlo(pipeline, trials: int, seed: int) -> dict:
    """Run a pipeline callable(rng) -> {name: value} and summarize each scalar.

    Returns {name: ScalarSummary(mean, std, values)}; std is the spread of
    the derived quantity over trials (an error bar, not a standard error of
    the mean).  Deterministic for a fixed seed.
    """
    if trials < 1:
        raise InvalidInputError("trials must be positive")
    rng = np.random.default_rng(seed)
    rows = [pipeline(rng) for _ in range(trials)]
    names = list(rows[0])
    out = {}
    for name in names:
        vals = np.array([r[name] for r in rows], dtype=float)
        out[name] = ScalarSummary(mean=float(vals.mean()),
                                  std=float(vals.std(ddof=0)), values=vals)
    return out


def perturbed_cm_pipeline(cm, std_errors, scalars: dict):
    """Pipeline resampling each CM entry with its standard error (symmetrized).

    scalars maps a name to a function of the perturbed 2n x 2n array; the
    returned callable fits :func:`error_monte_carlo`.
    """
    g = _as_matrix(cm)
    err = np.asarray(std_errors, dtype=float)
    if err.shape != g.shape:
        raise InvalidInputError("error matrix shape must match the CM")

    def pipeline(rng):
        pert = rng.normal(0.0, 1.0, g.shape) * err
        pert = np.triu(pert) + np.triu(pert, 1).T
        noisy = g + pert
        return {name: float(fn(noisy)) for name, fn in scalars.items()}

    return pipeline


def sampling_pipeline(state: ScenarioState, n: int, scalars: dict):
    """Pipeline re-measuring the scenario with n shots per trial.

    The CM estimate of each trial is one Wishart draw on the state's effective
    CM, as in :func:`cm_resampling_pipeline`, so n must exceed the 2m
    quadratures (n > 6 for the split state).  Nonphysical states are refused,
    as by :func:`sample`.
    """
    return cm_resampling_pipeline(_physical_cm(state), n, scalars)


def matched_sample_size(cm, std_errors) -> int:
    """Sample size whose statistical CM errors best match a given error matrix.

    Inverts se_ij^2 = (gamma_ii gamma_jj + gamma_ij^2)/n in the least-squares
    sense (ratio of sums, dominated by the large entries).  Useful when an
    experiment reports per-entry errors: re-measuring with this n reproduces
    their scale while keeping the entry errors correlated the way real CM
    estimates are.
    """
    g = _as_matrix(cm)
    err = np.asarray(std_errors, dtype=float)
    if err.shape != g.shape or np.any(err <= 0):
        raise InvalidInputError("error matrix must match the CM shape with positive entries")
    fourth = np.outer(np.diag(g), np.diag(g)) + g * g
    return int(round(fourth.sum() / (err ** 2).sum()))


def cm_resampling_pipeline(cm, n: int, scalars: dict):
    """Pipeline re-estimating a CM as if from n Gaussian draws per trial.

    Each trial draws the estimate 2 x sample covariance of n shots with raw
    covariance gamma / 2, whose law is W / (n - 1) with W ~ Wishart(gamma, n - 1),
    by the Bartlett decomposition W = (L A)(L A)^T: L is the Cholesky factor
    of gamma and A is lower-triangular with A_ii = sqrt(chi2(n - 1 - i)) and
    standard normal entries below the diagonal.  A trial therefore costs
    d(d + 1)/2 random numbers instead of n x d, and the estimates have the
    distribution of the shot-by-shot ones; the random stream, and so the
    values for a given seed, differ from drawing the shots.

    Unlike :func:`perturbed_cm_pipeline` the entry fluctuations carry the
    correlations of a real covariance estimate, which is what keeps the
    derived-scalar spreads at the experimentally observed scale.
    """
    g = _as_matrix(cm)
    d = g.shape[0]
    df = n - 1
    if df < d:
        raise InvalidInputError(f"sample size {n} too small for a {d} x {d} CM estimate "
                                f"(need n > {d})")
    chol = np.linalg.cholesky(g + 2e-15 * np.eye(d))
    chi2_dofs = df - np.arange(d)
    below = np.tril_indices(d, -1)

    def pipeline(rng):
        a = np.diag(np.sqrt(rng.chisquare(chi2_dofs)))
        a[below] = rng.standard_normal(below[0].size)
        la = chol @ a
        est = la @ la.T / df
        return {name: float(fn(est)) for name, fn in scalars.items()}

    return pipeline


_CSV_CHUNK_ROWS = 4096


def write_batch_csv(batch: SampleBatch, path):
    """CSV export: one header row naming quadratures, then displacement columns.

    Values are written as %.10g with \\r\\n line ends, as :mod:`csv`'s default
    dialect would, formatting one chunk of rows per string operation.
    """
    sources = sorted(batch.displacement_record)
    header = list(batch.quadrature_labels) + [f"xbar_{s}" for s in sources]
    extra = [batch.displacement_record[s] for s in sources]
    row_fmt = ",".join(["%.10g"] * len(header)) + "\r\n"
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        for start in range(0, batch.n, _CSV_CHUNK_ROWS):
            rows = slice(start, start + _CSV_CHUNK_ROWS)
            chunk = np.column_stack([batch.columns[rows]] + [col[rows] for col in extra])
            fh.write((row_fmt * chunk.shape[0]) % tuple(chunk.ravel().tolist()))


__all__ = [
    "SampleBatch", "CMEstimate", "ScalarSummary", "sample", "estimate_cm",
    "electronic_demodulation", "error_monte_carlo", "perturbed_cm_pipeline",
    "sampling_pipeline", "matched_sample_size", "cm_resampling_pipeline",
    "write_batch_csv",
]
