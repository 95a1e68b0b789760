"""Monte-Carlo emulation of the measured-data pipeline.

Samples are raw quadrature values (covariance = effective gamma / 2), with the
per-shot draws of every classical noise source recorded alongside, the way the
experiment records its applied displacements.  CM estimates are returned in
gamma-units with analytic Gaussian fourth-moment standard errors.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from types import MappingProxyType

import numpy as np

from .core import CovMatrix, _checked, _integer, _open, _physical
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
    in, which stay writable; the record itself is a read-only mapping.
    """

    quadratures: tuple             # one (n,) array per label, raw units
    quadrature_labels: tuple       # e.g. ("x_A", "p_A", "x_B", "p_B")
    displacement_record: MappingProxyType  # source_id -> per-shot values, shape (n,)
    seed: int

    def __post_init__(self):
        quads = tuple(_read_only(q) for q in self.quadratures)
        if (not quads or len(quads) != len(self.quadrature_labels)
                or any(q.ndim != 1 or q.shape != quads[0].shape for q in quads)):
            raise InvalidInputError("quadratures must be one equal-length 1-D array per label")
        object.__setattr__(self, "quadratures", quads)
        object.__setattr__(self, "displacement_record", MappingProxyType(
            {k: _read_only(v) for k, v in self.displacement_record.items()}))

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
    loadings are drawn after all the shots, and each one's draws times
    its vector are added in blocks of the same size.
    """
    _integer(n, 1, "sample size")
    rng = _rng(seed)
    _physical(state.effective_cm().entries, "; cannot sample")
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
            for start in range(0, n, _SHOT_CHUNK_ROWS):  # no temporary of n shots
                block = slice(start, start + _SHOT_CHUNK_ROWS)
                shots[j, block] += draws[block] * ld.vector[j]
        record[ld.source_id] = draws
    labels = tuple(f"{q}_{m}" for m in state.mode_names for q in ("x", "p"))
    return SampleBatch(quadratures=tuple(shots), quadrature_labels=labels,
                       displacement_record=record, seed=seed)


def _rng(seed) -> np.random.Generator:
    """The generator of a seed, which must be a nonnegative integer."""
    _integer(seed, 0, "seed")
    return np.random.default_rng(seed)


def estimate_cm(batch: SampleBatch) -> CMEstimate:
    """Gamma-unit CM estimate (2 x sample covariance) with analytic standard errors.

    For Gaussian data, var(cov_ij) = (cov_ii cov_jj + cov_ij^2)/n, which in
    gamma-units becomes se(gamma_ij) = sqrt((gamma_ii gamma_jj + gamma_ij^2)/n).
    A sample covariance needs at least two shots.  The estimate streams:
    the per-quadrature means come first, then c^T c of the centred shots
    is summed over blocks of _SHOT_CHUNK_ROWS rows, one block held at a
    time, so no centred copy of the batch is made.
    """
    if batch.n < 2:
        raise InvalidInputError(f"CM estimate needs at least 2 shots, got {batch.n}")
    mean = np.array([q.mean() for q in batch.quadratures])
    scatter = np.zeros((mean.size, mean.size))
    for start in range(0, batch.n, _SHOT_CHUNK_ROWS):
        c = batch.rows(slice(start, start + _SHOT_CHUNK_ROWS))
        c -= mean
        scatter += c.T @ c
        del c   # else the next block is built while this one is still held
    g = 2.0 * scatter / (batch.n - 1)
    se = np.sqrt((np.outer(np.diag(g), np.diag(g)) + g * g) / batch.n)
    return CMEstimate(cm=CovMatrix(g), std_errors=se)


def electronic_demodulation(batch: SampleBatch, g: float, big_t: float,
                            big_r: float) -> SampleBatch:
    """Subtract (g T + R) xbar from the measured x_B quadrature, shot by shot.

    Only x_B is new, built in one buffer; every other quadrature is shared
    with the input batch.
    """
    if MODULATION_SOURCE not in batch.displacement_record:
        raise InvalidInputError("batch has no recorded modulation displacements")
    xbar = batch.displacement_record[MODULATION_SOURCE]
    try:
        jb = batch.quadrature_labels.index("x_B")
    except ValueError:
        raise InvalidInputError("batch has no x_B column") from None
    quads = list(batch.quadratures)
    x_b = np.multiply(g * big_t + big_r, xbar)
    quads[jb] = np.subtract(quads[jb], x_b, out=x_b)
    return replace(batch, quadratures=tuple(quads))


def error_monte_carlo(pipeline, trials: int, seed: int) -> dict:
    """Run a pipeline callable(rng) -> {name: value} and summarize each scalar.

    Returns {name: ScalarSummary(mean, std, values)}; std is the spread of
    the derived quantity over trials (an error bar, not a standard error of
    the mean).  Deterministic for a fixed seed.
    """
    _integer(trials, 1, "trials")
    rng = _rng(seed)
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
    _integer(n, 1, "sample size")
    d = g.shape[0]
    df = n - 1
    if df < d:
        raise InvalidInputError(f"sample size {n} too small for a {d} x {d} CM estimate "
                                f"(need n > {d})")
    chol = np.linalg.cholesky(g + 2e-15 * np.eye(d))
    # one scalar chi2 draw per degree of freedom takes the random stream,
    # and gives the bits, of one array draw over all of them, at less cost
    chi2_dofs = range(df, df - d, -1)
    diagonal = np.arange(0, d * d, d + 1)
    below = np.ravel_multi_index(np.tril_indices(d, -1), (d, d))

    def pipeline(rng):
        a = np.zeros(d * d)
        a[diagonal] = [math.sqrt(rng.chisquare(k)) for k in chi2_dofs]
        a[below] = rng.standard_normal(below.size)
        la = chol @ a.reshape(d, d)
        est = la @ la.T / df
        return {name: float(fn(est)) for name, fn in scalars.items()}

    return pipeline


_CSV_CHUNK_ROWS = 512   # keeps a chunk's temporaries in cache: 4096 rows wrote 1.5x slower

# The text of one CSV value is built in a slot of three 8-byte words, null
# bytes marking the empty places, which the writer deletes:
#   word 0: sign | "0." and leading zeros (e < 0) | d0 | dot (e = 0)
#   word 1: d1 | dot (e = 1) | d2 | dot (e = 2) | d3 | dot (e = 3) | d4 | dot (e = 4)
#   word 2: d5 | d6 | d7 | d8 | d9 | "," or "\r" | "\n" (last column) | null
# Each word is an OR of rows of small tables, so the bytes are the same on
# either byte order.  d0..d9 are the ten digits of the mantissa, trailing
# zeros null; i = e + 5 indexes the decade, e the decimal exponent.
_TEXT = 21                                  # slot bytes that hold the value's text
# |x| * 10 ** (9 - e) for decade i; exact powers of ten only, 0 off the fast range
_SCALES = np.array([0.0] + [float(10 ** (14 - i)) for i in range(1, 10)] + [0.0])


def _words(rows) -> np.ndarray:
    """Rows of 8 bytes as one 8-byte word each."""
    return np.ascontiguousarray(rows, np.uint8).view(np.uint64).ravel()


def _digit_table(width: int):
    """The digit characters of 0..10**width - 1, and the same with trailing zeros null."""
    k = np.arange(10 ** width)
    powers = 10 ** np.arange(width - 1, -1, -1)
    digits = (k[:, None] // powers % 10 + ord("0")).astype(np.uint8)
    return digits, np.where(k[:, None] % (10 * powers) == 0, 0, digits)


def _slot_tables():
    dig3, strip3 = _digit_table(3)
    dig2, strip2 = _digit_table(2)
    head = np.zeros((2, 11, 10, 8), np.uint8)       # (sign, i, d0)
    mid = np.zeros((11, 10, 8), np.uint8)           # (i, d4)
    for e in range(-4, 5):
        if e < 0:
            head[:, e + 5, :, 1:2 - e] = list(b"0." + b"0" * (-e - 1))
        elif e == 0:
            head[:, e + 5, :, 7] = ord(".")
        else:
            mid[e + 5, :, 2 * e - 1] = ord(".")
    head[1, ..., 0] = ord("-")
    head[..., 6] = mid[..., 6] = np.arange(10) + ord("0")
    g1 = np.zeros((1000, 8), np.uint8)
    g1[:, 0:5:2] = dig3
    tail = np.zeros((2, 100, 8), np.uint8)          # (d7..d9 all zero, d5 d6): only
    tail[:, :, 0:2] = dig2, strip2                  # then can d5 d6 end in zeros
    g3 = np.zeros((1000, 8), np.uint8)
    g3[:, 2:5] = strip3
    return _words(head.reshape(-1, 8)), _words(mid.reshape(-1, 8)), _words(g1), \
        _words(tail.reshape(-1, 8)), _words(g3)


_HEAD, _MID, _G1, _TAIL, _G3 = _slot_tables()
_ZEROS = np.array([b"0", b"-0"], dtype=f"S{_TEXT}").view(np.uint8).reshape(2, _TEXT)
_PADDED = b"%%-%d.10g" % _TEXT              # %.10g is at most 17 bytes; pad it to _TEXT
_SPACE_TO_NULL = bytes.maketrans(b" ", b"\0")


def _format_slots(x: np.ndarray, words: np.ndarray, sep: np.ndarray):
    """Write the %.10g text of each value of x into its slot, words[..., :3],
    the separator word sep of its column OR'd into word 2.

    The fast path takes a value only where float arithmetic provably gives
    Python's digits: 1e-4 <= |x| < 1e5, its scaled value s = |x| 10^(9 - e)
    (one rounding, under 1e-6 off) more than 1e-5 from a rounding tie and
    from the decade edges, and a mantissa whose last five digits are not all
    zero, so that trailing zeros end before the dot.  Zeros take their own
    text; every other value is formatted by Python, one batch per call.
    """
    a = np.abs(x)
    i = np.fmin(np.fmax(np.floor(np.log10(a)) + 5, 0), 10).astype(np.intp)  # NaN -> 0
    s = a * _SCALES[i]
    f = np.floor(s)
    frac = s - f
    fast = (s >= 1e9 + 1e-5) & (s < 1e10 - 1) & (np.abs(frac - 0.5) > 1e-5)
    m = np.where(fast, f + (frac > 0.5), 1e9).astype(np.int64)  # table rows in range
    hi = m // 100000                        # d0..d4
    lo = m - hi * 100000                    # d5..d9
    fast &= lo != 0
    t = hi // 10
    d0 = hi // 10000
    d56 = lo // 1000
    g3 = lo - d56 * 1000
    sign = np.signbit(x)
    words[..., 0] = _HEAD.take((i + 11 * sign) * 10 + d0)
    words[..., 1] = _MID.take(i * 10 + hi - t * 10) | _G1.take(t - d0 * 1000)
    words[..., 2] = _TAIL.take(d56 + 100 * (g3 == 0)) | _G3.take(g3) | sep
    text = words.view(np.uint8).reshape(-1, 8 * words.shape[-1])[:, :_TEXT]
    zero = np.flatnonzero(x == 0)
    if zero.size:
        text[zero] = _ZEROS[sign.ravel()[zero].astype(np.intp)]
    slow = np.flatnonzero(~fast & (x != 0))
    if slow.size:
        rest = x.ravel()[slow].tolist()
        padded = (_PADDED * len(rest) % tuple(rest)).translate(_SPACE_TO_NULL)
        text[slow] = np.frombuffer(padded, np.uint8).reshape(-1, _TEXT)


def write_batch_csv(batch: SampleBatch, path):
    """CSV export: one header row naming quadratures, then displacement columns.

    Values are written as %.10g with \\r\\n line ends, as :mod:`csv`'s default
    dialect would, byte for byte.  A chunk of rows at a time, numpy builds
    each value's text in a fixed-width slot of bytes: its decimal exponent
    e, its correctly rounded ten-digit mantissa floor(|x| 10^(9 - e) + 1/2),
    the digits from tables of at most 1000 three-digit groups, and the sign,
    "0." prefix and dot from a per-(sign, e) template; the null bytes of the
    empty places are then deleted.  Values the fast path cannot prove exact
    (see :func:`_format_slots`: |x| outside [1e-4, 1e5), near a rounding tie
    or a decade edge, at most five significant digits, inf and NaN) are
    formatted by Python's own %.10g, one batch per chunk.
    """
    sources = sorted(batch.displacement_record)
    header = list(batch.quadrature_labels) + [f"xbar_{s}" for s in sources]
    columns = batch.quadratures + tuple(batch.displacement_record[s] for s in sources)
    sep = np.zeros((len(columns), 8), np.uint8)    # word 2 of each column's slot
    sep[:, 5] = ord(",")
    sep[-1, 5:7] = list(b"\r\n")
    sep = _words(sep)
    words = np.empty((min(batch.n, _CSV_CHUNK_ROWS), len(columns), 3), np.uint64)
    with _open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for start in range(0, batch.n, _CSV_CHUNK_ROWS):
                rows = slice(start, start + _CSV_CHUNK_ROWS)
                chunk = words[:len(columns[0][rows])]
                _format_slots(np.column_stack([col[rows] for col in columns]), chunk, sep)
                fh.write(chunk.tobytes().translate(None, b"\0").decode("ascii"))


__all__ = [
    "SampleBatch", "CMEstimate", "ScalarSummary", "sample", "estimate_cm",
    "electronic_demodulation", "error_monte_carlo", "matched_sample_size",
    "cm_resampling_pipeline", "write_batch_csv",
]
