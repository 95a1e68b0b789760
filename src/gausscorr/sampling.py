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

from .core import CovMatrix, _checked, _physical
from .errors import InvalidInputError
from .scenarios import MODULATION_SOURCE, ScenarioState


_SHOT_CHUNK_ROWS = 65536


@dataclass(frozen=True)
class SampleBatch:
    """Shot-by-shot quadrature samples plus the classical displacement record.

    Storage is quadrature-major: one read-only 1-D array of n shots per
    quadrature.  :func:`sample` makes them rows of one (d, n) buffer, and
    :func:`electronic_demodulation` replaces one array and shares the rest,
    so a batch and its demodulated copy hold d + 1 arrays of n shots
    between them.  :attr:`columns` and :meth:`rows` stack shots on demand.
    The quadratures and the record are read-only views of the arrays passed
    in, which stay writable.
    """

    quadratures: tuple             # one (n,) array per label, raw units
    quadrature_labels: tuple       # e.g. ("x_A", "p_A", "x_B", "p_B")
    displacement_record: dict      # source_id -> per-shot values, shape (n,)
    seed: int

    def __post_init__(self):
        quads = tuple(_read_only(q) for q in self.quadratures)
        if (not quads or len(quads) != len(self.quadrature_labels)
                or any(q.ndim != 1 or q.shape != quads[0].shape for q in quads)):
            raise InvalidInputError("quadratures must be one equal-length 1-D array per label")
        object.__setattr__(self, "quadratures", quads)
        object.__setattr__(self, "displacement_record",
                           {k: _read_only(v) for k, v in self.displacement_record.items()})

    @property
    def n(self) -> int:
        return self.quadratures[0].shape[0]

    @property
    def columns(self) -> np.ndarray:
        """All shots as a new (n, d) array, one column per quadrature."""
        return self.rows(slice(None))

    def rows(self, block: slice) -> np.ndarray:
        """The shots in one block of rows as a new (k, d) array."""
        return np.column_stack([q[block] for q in self.quadratures])

    def column(self, label: str) -> np.ndarray:
        try:
            return self.quadratures[self.quadrature_labels.index(label)]
        except ValueError:
            raise InvalidInputError(f"no quadrature {label!r}") from None


def _read_only(a) -> np.ndarray:
    """A read-only float view of a (no copy when a is already a float array)."""
    view = np.asarray(a, dtype=float).view()
    view.flags.writeable = False
    return view


@dataclass(frozen=True)
class CMEstimate:
    cm: CovMatrix
    std_errors: np.ndarray


@dataclass(frozen=True)
class ScalarSummary:
    mean: float
    std: float
    values: np.ndarray


def sample(state: ScenarioState, n: int, seed: int) -> SampleBatch:
    """Draw n shots from a scenario state, recording each classical source.

    The quantum part is drawn from N(0, gamma_q/2); each classical
    source contributes its loading vector times a recorded N(0, W/2) draw.
    Bit-reproducible for a fixed seed.  The quantum part is drawn
    _SHOT_CHUNK_ROWS shots at a time into one quadrature-major (d, n)
    buffer; the chunks consume the random stream in the order one (n, d)
    draw would, so the shots do not depend on the chunk size.  The
    loadings are drawn after all the shots.
    """
    if n < 1:
        raise InvalidInputError("sample size must be positive")
    _physical(state.effective_cm().entries, "; cannot sample")
    rng = np.random.default_rng(seed)
    raw_cov = state.quantum_cm.entries / 2.0
    chol = np.linalg.cholesky(raw_cov + 1e-15 * np.eye(raw_cov.shape[0]))
    shots = np.empty((raw_cov.shape[0], n))
    for start in range(0, n, _SHOT_CHUNK_ROWS):
        k = min(_SHOT_CHUNK_ROWS, n - start)
        shots[:, start:start + k] = (rng.standard_normal((k, raw_cov.shape[0])) @ chol.T).T
    record = {}
    for ld in state.loadings:
        draws = rng.normal(0.0, np.sqrt(ld.variance / 2.0), n)
        for j in np.flatnonzero(ld.vector):   # a loading touches few quadratures
            shots[j] += draws * ld.vector[j]
        record[ld.source_id] = draws
    labels = tuple(f"{q}_{m}" for m in state.mode_names for q in ("x", "p"))
    return SampleBatch(quadratures=tuple(shots), quadrature_labels=labels,
                       displacement_record=record, seed=seed)


def estimate_cm(batch: SampleBatch) -> CMEstimate:
    """Gamma-unit CM estimate (2 x sample covariance) with analytic standard errors.

    For Gaussian data, var(cov_ij) = (cov_ii cov_jj + cov_ij^2)/n, which in
    gamma-units becomes se(gamma_ij) = sqrt((gamma_ii gamma_jj + gamma_ij^2)/n).
    A sample covariance needs at least two shots.  The estimate streams:
    the per-quadrature means come first, then c^T c of the centred shots
    is summed over blocks of _SHOT_CHUNK_ROWS rows, so no centred copy of
    the batch is made.
    """
    if batch.n < 2:
        raise InvalidInputError(f"CM estimate needs at least 2 shots, got {batch.n}")
    mean = np.array([q.mean() for q in batch.quadratures])
    scatter = np.zeros((mean.size, mean.size))
    for start in range(0, batch.n, _SHOT_CHUNK_ROWS):
        c = batch.rows(slice(start, start + _SHOT_CHUNK_ROWS))
        c -= mean
        scatter += c.T @ c
    g = 2.0 * scatter / (batch.n - 1)
    se = np.sqrt((np.outer(np.diag(g), np.diag(g)) + g * g) / batch.n)
    return CMEstimate(cm=CovMatrix(g), std_errors=se)


def electronic_demodulation(batch: SampleBatch, g: float, big_t: float,
                            big_r: float) -> SampleBatch:
    """Subtract (g T + R) xbar from the measured x_B quadrature, shot by shot.

    Only x_B is new; every other quadrature is shared with the input batch.
    """
    if MODULATION_SOURCE not in batch.displacement_record:
        raise InvalidInputError("batch has no recorded modulation displacements")
    xbar = batch.displacement_record[MODULATION_SOURCE]
    try:
        jb = batch.quadrature_labels.index("x_B")
    except ValueError:
        raise InvalidInputError("batch has no x_B column") from None
    quads = list(batch.quadratures)
    quads[jb] = quads[jb] - (g * big_t + big_r) * xbar
    return replace(batch, quadratures=tuple(quads))


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


def matched_sample_size(cm, std_errors) -> int:
    """Sample size whose statistical CM errors best match a given error matrix.

    Inverts se_ij^2 = (gamma_ii gamma_jj + gamma_ij^2)/n in the least-squares
    sense (ratio of sums, dominated by the large entries).  Useful when an
    experiment reports per-entry errors: re-measuring with this n reproduces
    their scale while keeping the entry errors correlated the way real CM
    estimates are.
    """
    g = _checked(cm)
    try:
        err = np.asarray(std_errors, dtype=float)
    except (TypeError, ValueError):   # ragged or non-numeric rows
        raise InvalidInputError("error matrix must be a numeric array") from None
    if err.shape != g.shape or not np.all(err > 0):  # NaN fails err > 0
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
    values for a given seed, differ from drawing the shots.  The entry
    fluctuations carry the correlations of a real covariance estimate, which
    is what keeps the derived-scalar spreads at the experimentally observed
    scale.
    """
    g = _checked(cm)
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
    columns = batch.quadratures + tuple(batch.displacement_record[s] for s in sources)
    row_fmt = ",".join(["%.10g"] * len(header)) + "\r\n"
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        for start in range(0, batch.n, _CSV_CHUNK_ROWS):
            rows = slice(start, start + _CSV_CHUNK_ROWS)
            chunk = np.column_stack([col[rows] for col in columns])
            fh.write((row_fmt * chunk.shape[0]) % tuple(chunk.ravel().tolist()))


__all__ = [
    "SampleBatch", "CMEstimate", "ScalarSummary", "sample", "estimate_cm",
    "electronic_demodulation", "error_monte_carlo", "matched_sample_size",
    "cm_resampling_pipeline", "write_batch_csv",
]
