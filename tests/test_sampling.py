import csv
import tracemalloc

import numpy as np
import pytest
from scipy.stats import ks_2samp

from gausscorr.channels import InputSpec
from gausscorr.core import ppt_min_eig, reduce
from gausscorr.correlations import discord
from gausscorr.core import CovMatrix
from gausscorr.errors import InvalidInputError, NonPhysicalStateError
from gausscorr.sampling import (_SHOT_CHUNK_ROWS, cm_resampling_pipeline,
                                electronic_demodulation, error_monte_carlo, estimate_cm,
                                matched_sample_size, sample, SampleBatch, write_batch_csv)
from gausscorr.scenarios import (MODULATION_SOURCE, ScenarioState, build_split_state,
                                 duan_value, recover_demodulate)

SQUEEZED = InputSpec(kind="squeezed", squeezing_db=-3.0, v_x=9.84, v_p=38.4)


def vacuum_state():
    spec = InputSpec(kind="coherent", squeezing_db=0.0, v_x=1.0, v_p=1.0)
    return build_split_state(spec, 0.5)


def test_vacuum_batch_statistics():
    batch = sample(vacuum_state(), 100000, seed=1)
    est = estimate_cm(batch)
    dev = np.abs(est.cm.entries - np.eye(6)) / est.std_errors
    assert dev.max() <= 5.0
    # raw per-quadrature variance is 1/2 in the gamma/2 convention
    assert batch.columns.var(axis=0, ddof=1) == pytest.approx(np.full(6, 0.5), abs=0.02)


def test_estimate_cm_needs_two_shots():
    with pytest.raises(InvalidInputError):
        estimate_cm(sample(vacuum_state(), 1, seed=1))


def test_seeded_determinism():
    st = build_split_state(SQUEEZED, 0.5)
    b1 = sample(st, 5000, seed=77)
    b2 = sample(st, 5000, seed=77)
    assert np.array_equal(b1.columns, b2.columns)
    assert np.array_equal(b1.displacement_record[MODULATION_SOURCE],
                          b2.displacement_record[MODULATION_SOURCE])
    b3 = sample(st, 5000, seed=78)
    assert not np.array_equal(b1.columns, b3.columns)


def test_sample_equals_outer_product_formula():
    # each loading adds draws * v only where v is nonzero: the same array as
    # adding the full outer product draws v^T; the chunked draws of the
    # quantum part are the one (n, d) draw
    coherent = InputSpec(kind="coherent", squeezing_db=0.0, v_x=7.1, v_p=1.4)
    states = [build_split_state(SQUEEZED, 0.5),
              build_split_state(coherent, 0.3).attenuate_mode("B", 0.6, keep_environment=True)]
    for st in states:
        for n in (3000, 2 * _SHOT_CHUNK_ROWS + 7):
            batch = sample(st, n, seed=21)
            rng = np.random.default_rng(21)
            raw_cov = st.quantum_cm.entries / 2.0
            chol = np.linalg.cholesky(raw_cov + 1e-15 * np.eye(raw_cov.shape[0]))
            shots = rng.standard_normal((n, raw_cov.shape[0])) @ chol.T
            for ld in st.loadings:
                shots += np.outer(rng.normal(0.0, np.sqrt(ld.variance / 2.0), n), ld.vector)
            assert np.array_equal(batch.columns, shots), n


@pytest.mark.parametrize("n", [2, 100000])
def test_estimate_cm_matches_sample_covariance(n):
    batch = sample(build_split_state(SQUEEZED, 0.5), n, seed=13)
    ref = 2.0 * np.cov(batch.columns.T, ddof=1)
    got = estimate_cm(batch).cm.entries
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


def test_sample_matches_analytic_effective_cm():
    st = build_split_state(SQUEEZED, 0.5).attenuate_mode("B", 0.6, keep_environment=False)
    batch = sample(st, 150000, seed=5)
    est = estimate_cm(batch)
    dev = np.abs(est.cm.entries - st.effective_cm().entries) / est.std_errors
    assert dev.max() <= 5.0


def test_estimate_bias_over_trials():
    st = vacuum_state()
    means = []
    for k in range(30):
        est = estimate_cm(sample(st, 2000, seed=1000 + k))
        means.append(est.cm.entries[0, 0])
    pooled_se = np.sqrt(2.0 / 2000) * 1.0 / np.sqrt(30)
    assert abs(np.mean(means) - 1.0) <= 3 * pooled_se


def test_std_errors_scale_with_n():
    st = build_split_state(SQUEEZED, 0.5)
    ratios = []
    for k in range(20):
        se_n = estimate_cm(sample(st, 4000, seed=2000 + k)).std_errors
        se_2n = estimate_cm(sample(st, 8000, seed=3000 + k)).std_errors
        ratios.append((se_2n / se_n).mean())
    mean_ratio = np.mean(ratios)
    assert abs(mean_ratio - 1 / np.sqrt(2)) <= 0.1 / np.sqrt(2)


def test_electronic_demodulation_matches_cm_level():
    st = build_split_state(SQUEEZED, 0.5)
    g = 1.0
    batch = sample(st, 200000, seed=9)
    demod = electronic_demodulation(batch, g, np.sqrt(0.5), np.sqrt(0.5))
    est = estimate_cm(demod)
    target = recover_demodulate(st, g).effective_cm()
    dev = np.abs(est.cm.entries - target.entries) / est.std_errors
    assert dev.max() <= 5.0


def test_electronic_demodulation_zero_modulation_is_identity():
    spec = InputSpec(kind="coherent", squeezing_db=0.0, v_x=1.0, v_p=1.0)
    st = build_split_state(spec, 0.5)
    batch = sample(st, 1000, seed=2)
    demod = electronic_demodulation(batch, 1.0, np.sqrt(0.5), np.sqrt(0.5))
    # x_B shifts by (gT+R)*xbar with xbar drawn at zero variance
    assert np.array_equal(demod.columns, batch.columns)


def test_electronic_demodulation_shares_unchanged_quadratures():
    batch = sample(build_split_state(SQUEEZED, 0.5), 1000, seed=4)
    before = batch.columns
    demod = electronic_demodulation(batch, 1.0, np.sqrt(0.5), np.sqrt(0.5))
    assert np.array_equal(batch.columns, before)
    for label, q in zip(batch.quadrature_labels, demod.quadratures):
        assert np.shares_memory(q, batch.column(label)) == (label != "x_B"), label


def test_batch_stores_read_only_views_of_the_callers_arrays():
    # the batch is immutable, but the arrays it is built from stay the caller's
    quads = tuple(np.arange(3.0) + k for k in range(4))
    xbar = np.arange(3.0)
    batch = SampleBatch(quadratures=quads, quadrature_labels=("x_A", "p_A", "x_B", "p_B"),
                        displacement_record={"mod": xbar}, seed=0)
    stored = (*batch.quadratures, batch.displacement_record["mod"])
    for mine, kept in zip((*quads, xbar), stored):
        assert mine.flags.writeable and not kept.flags.writeable
        assert np.shares_memory(mine, kept)
    quads[0][0] = 7.0
    assert batch.column("x_A")[0] == 7.0


def test_shot_pipeline_memory_is_one_batch():
    # sample -> demodulate -> estimate holds the batch, the displacement
    # record, the new x_B and one temporary of n shots, plus a few chunks
    st = build_split_state(SQUEEZED, 0.5)
    n, d, sources = 500000, 6, len(st.loadings)
    assert sources == 2
    tracemalloc.start()
    try:
        batch = sample(st, n, seed=1)
        estimate_cm(electronic_demodulation(batch, 1.0, np.sqrt(0.5), np.sqrt(0.5)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= (d + sources + 2) * n * 8 + 4 * _SHOT_CHUNK_ROWS * d * 8


def test_electronic_demodulation_prefactor():
    st = build_split_state(SQUEEZED, 0.5)
    batch = sample(st, 100, seed=3)
    demod = electronic_demodulation(batch, 1.0, np.sqrt(0.5), np.sqrt(0.5))
    xbar = batch.displacement_record[MODULATION_SOURCE]
    shift = batch.column("x_B") - demod.column("x_B")
    assert np.allclose(shift, np.sqrt(2.0) * xbar)


def test_sample_refuses_nonphysical_state():
    st = ScenarioState(mode_names=("A",), quantum_cm=CovMatrix(np.diag([0.5, 0.5])))
    with pytest.raises(NonPhysicalStateError):
        sample(st, 10, seed=0)


def test_sampled_duan_consistent_with_cm_value():
    st = build_split_state(SQUEEZED, 0.5)
    g = 1.0
    batch = sample(st, 300000, seed=21)
    demod = electronic_demodulation(batch, g, np.sqrt(0.5), np.sqrt(0.5))
    est = estimate_cm(demod)
    sample_rep = duan_value(reduce(est.cm, [0, 1]), g)
    cm_rep = duan_value(recover_demodulate(st, g).effective_cm(["A", "B"]), g)
    rel_se = 2.0 / np.sqrt(batch.n)
    assert abs(sample_rep.value - cm_rep.value) <= 5 * rel_se * cm_rep.value
    assert sample_rep.entangled


def test_error_monte_carlo_point_value(measured_cm, measured_errors):
    pipe = cm_resampling_pipeline(measured_cm, matched_sample_size(measured_cm, measured_errors),
                                  {"d": lambda m: discord(m, 1, allow_measured=True).discord})
    summ = error_monte_carlo(pipe, trials=1, seed=0)
    assert summ["d"].std == 0.0
    assert summ["d"].values.shape == (1,)


def test_error_monte_carlo_deterministic(measured_cm, measured_errors):
    pipe = cm_resampling_pipeline(measured_cm, matched_sample_size(measured_cm, measured_errors),
                                  {"d": lambda m: discord(m, 1, allow_measured=True).discord})
    s1 = error_monte_carlo(pipe, trials=50, seed=4)
    s2 = error_monte_carlo(pipe, trials=50, seed=4)
    assert np.array_equal(s1["d"].values, s2["d"].values)


def test_error_monte_carlo_std_estimates_spread_not_sem(measured_cm, measured_errors):
    scalars = {"d": lambda m: discord(m, 1, allow_measured=True).discord}
    pipe = cm_resampling_pipeline(measured_cm, matched_sample_size(measured_cm, measured_errors),
                                  scalars)
    few = error_monte_carlo(pipe, trials=120, seed=8)["d"].std
    many = error_monte_carlo(pipe, trials=480, seed=8)["d"].std
    assert few == pytest.approx(many, rel=0.35)  # spread, not ~1/sqrt(trials)


def test_matched_sample_size_reference(measured_cm, measured_errors):
    n = matched_sample_size(measured_cm, measured_errors)
    assert 10000 <= n <= 100000


@pytest.mark.parametrize("bad", [np.nan, 0.0, -0.1])
def test_matched_sample_size_rejects_non_positive_errors(measured_cm, measured_errors, bad):
    err = np.array(measured_errors)
    err[1, 2] = bad
    with pytest.raises(InvalidInputError):
        matched_sample_size(measured_cm, err)


@pytest.mark.parametrize("bad", [[[1, 2], [3]], [["a"] * 4] * 4])
def test_matched_sample_size_rejects_malformed_errors(measured_cm, bad):
    with pytest.raises(InvalidInputError):
        matched_sample_size(measured_cm, bad)


def test_resampling_pipeline_scale(measured_cm, measured_errors):
    n = matched_sample_size(measured_cm, measured_errors)
    scalars = {
        "discord": lambda m: discord(m, 1, allow_measured=True).discord,
        "min_eig": lambda m: ppt_min_eig(m),
    }
    summ = error_monte_carlo(cm_resampling_pipeline(measured_cm, n, scalars),
                             trials=150, seed=12)
    assert summ["discord"].mean == pytest.approx(0.49, abs=0.01)
    assert summ["min_eig"].mean == pytest.approx(0.84, abs=0.02)
    assert 0.002 <= summ["discord"].std <= 0.03
    assert 0.002 <= summ["min_eig"].std <= 0.04


def test_resampling_pipeline_entry_moments(measured_cm, measured_errors):
    g = measured_cm.entries
    n = matched_sample_size(measured_cm, measured_errors)
    trials = 20000
    entries = {(i, j): (lambda m, i=i, j=j: m[i, j]) for i in range(4) for j in range(i, 4)}
    summ = error_monte_carlo(cm_resampling_pipeline(measured_cm, n, entries),
                             trials=trials, seed=31)
    for (i, j), s in summ.items():
        var = (g[i, i] * g[j, j] + g[i, j] ** 2) / (n - 1)
        assert abs(s.mean - g[i, j]) <= 5.0 * np.sqrt(var / trials), (i, j)
        assert s.std ** 2 == pytest.approx(var, rel=0.05), (i, j)


def _direct_resampling_pipeline(cm, n, scalars):
    """Reference: 2 x sample covariance of n drawn shots with covariance gamma / 2."""
    chol = np.linalg.cholesky(cm / 2)

    def pipeline(rng):
        z = rng.standard_normal((n, cm.shape[0])) @ chol.T
        est = 2.0 * np.cov(z.T, ddof=1)
        return {name: float(fn(est)) for name, fn in scalars.items()}

    return pipeline


def test_resampling_pipeline_matches_direct_draws(measured_cm):
    scalars = {
        "discord": lambda m: discord(m, 1, allow_measured=True).discord,
        "min_eig": lambda m: ppt_min_eig(m),
    }
    n, trials = 2000, 2000
    wishart = error_monte_carlo(cm_resampling_pipeline(measured_cm, n, scalars),
                                trials=trials, seed=41)
    direct = error_monte_carlo(_direct_resampling_pipeline(measured_cm.entries, n, scalars),
                               trials=trials, seed=42)
    for name in scalars:
        assert ks_2samp(wishart[name].values, direct[name].values).pvalue > 1e-3, name


def test_resampling_pipeline_seeded(measured_cm):
    pipe = cm_resampling_pipeline(measured_cm, 1000, {"g01": lambda m: m[0, 1]})
    a = error_monte_carlo(pipe, trials=20, seed=5)["g01"].values
    b = error_monte_carlo(pipe, trials=20, seed=5)["g01"].values
    c = error_monte_carlo(pipe, trials=20, seed=6)["g01"].values
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("n", [1, 4])
def test_resampling_pipeline_rejects_small_samples(measured_cm, n):
    with pytest.raises(InvalidInputError):
        cm_resampling_pipeline(measured_cm, n, {})


def test_sampling_pipeline_runs():
    st = build_split_state(SQUEEZED, 0.5)
    pipe = cm_resampling_pipeline(st.effective_cm(), 5000, {"d": lambda m: discord(
        m[:4, :4], 1, allow_measured=True).discord})
    summ = error_monte_carlo(pipe, trials=5, seed=1)
    assert summ["d"].values.shape == (5,)


def _shot_sampling_pipeline(state, n, scalars):
    """Reference: the CM estimate of a fresh n-shot batch per trial."""

    def pipeline(rng):
        est = estimate_cm(sample(state, n, int(rng.integers(0, 2 ** 63 - 1)))).cm.entries
        return {name: float(fn(est)) for name, fn in scalars.items()}

    return pipeline


def test_sampling_pipeline_matches_shot_draws():
    st = build_split_state(SQUEEZED, 0.5)
    scalars = {
        "discord": lambda m: discord(m[:4, :4], 1, allow_measured=True).discord,
        "min_eig": lambda m: ppt_min_eig(m[:4, :4]),
    }
    n, trials = 2000, 1000
    wishart = error_monte_carlo(cm_resampling_pipeline(st.effective_cm(), n, scalars),
                                trials=trials, seed=43)
    shots = error_monte_carlo(_shot_sampling_pipeline(st, n, scalars), trials=trials, seed=44)
    for name in scalars:
        assert ks_2samp(wishart[name].values, shots[name].values).pvalue > 1e-3, name


def test_sampling_pipeline_needs_more_shots_than_quadratures():
    st = build_split_state(SQUEEZED, 0.5)
    with pytest.raises(InvalidInputError):
        cm_resampling_pipeline(st.effective_cm(), 6, {})
    cm_resampling_pipeline(st.effective_cm(), 7, {})


def test_batch_csv_export(tmp_path):
    st = build_split_state(SQUEEZED, 0.5)
    batch = sample(st, 50, seed=6)
    path = tmp_path / "batch.csv"
    write_batch_csv(batch, path)
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    assert header[:6] == ["x_A", "p_A", "x_B", "p_B", "x_E", "p_E"]
    assert any(c.startswith("xbar_") for c in header)
    assert len(lines) == 51


def test_sample_rejects_bad_sizes():
    with pytest.raises(InvalidInputError):
        sample(vacuum_state(), 0, seed=1)


def test_batch_csv_matches_csv_writer(tmp_path):
    rng = np.random.default_rng(9)
    n = 4096 + 5  # crosses the writer's chunk boundary
    cols = rng.normal(0.0, 3.0, (n, 4))
    cols[:4] = [[-0.0, 1e-300, -1e-300, 1.2345678901234e300],
                [-1e300, 0.0, -2.5, 123456789012.5],
                [5e-324, -7.0, 1e-5, 0.1],
                [np.inf, -np.inf, np.nan, -0.0]]
    xbar = rng.normal(0.0, 1.0, n)
    xbar[:2] = [-0.0, 1e-300]
    batch = SampleBatch(quadratures=tuple(cols.T), quadrature_labels=("x_A", "p_A", "x_B", "p_B"),
                        displacement_record={"mod": xbar, "aux": -xbar}, seed=0)
    ref = tmp_path / "ref.csv"
    with open(ref, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x_A", "p_A", "x_B", "p_B", "xbar_aux", "xbar_mod"])
        for i in range(n):
            writer.writerow([f"{v:.10g}" for v in cols[i]]
                            + [f"{-xbar[i]:.10g}", f"{xbar[i]:.10g}"])
    path = tmp_path / "batch.csv"
    write_batch_csv(batch, path)
    assert path.read_bytes() == ref.read_bytes()
