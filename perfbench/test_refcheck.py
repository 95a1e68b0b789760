"""Tests of the benchmark's reference computations on the vacuum and a TMSV.

    python3 -m pytest perfbench
"""

import json
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import inputs  # noqa: E402
import refcheck as ref  # noqa: E402

VACUUM = np.eye(4)


def tmsv(m):
    c = np.sqrt(m * m - 1)
    sz = np.diag([1.0, -1.0])
    return np.block([[m * np.eye(2), c * sz], [c * sz, m * np.eye(2)]])


def test_vacuum():
    assert np.allclose(ref.symplectic_eigenvalues(VACUUM), [1.0, 1.0])
    assert ref.entropy(VACUUM) == 0.0
    assert ref.mutual_information(VACUUM) == 0.0
    th, s = ref.seed_grid()
    for mode in (0, 1):
        assert np.allclose(ref.conditional_dets(VACUUM, mode, th, s), 1.0)
    assert ref.symmetric_geof(VACUUM) == 0.0
    assert np.array_equal(ref.balanced_split_cm(1.0, 1.0), VACUUM)
    assert np.array_equal(ref.balanced_split_cm(1.0, 1.0, t=0.3), VACUUM)


@pytest.mark.parametrize("m", [1.25, 2.0, 5.0])
def test_two_mode_squeezed_vacuum(m):
    g = tmsv(m)
    assert np.allclose(ref.symplectic_eigenvalues(g), [1.0, 1.0])
    assert ref.symplectic_eigenvalues(g[:2, :2]) == pytest.approx([m])
    s_local = ((m + 1) / 2) * np.log((m + 1) / 2) - ((m - 1) / 2) * np.log((m - 1) / 2)
    assert ref.entropy_f(m) == pytest.approx(s_local, rel=1e-14)
    assert ref.mutual_information(g) == pytest.approx(2 * s_local, rel=1e-12)
    # a pure measurement on a pure state leaves a pure conditional state
    th, s = ref.seed_grid()
    for mode in (0, 1):
        assert np.allclose(ref.conditional_dets(g, mode, th, s), 1.0, rtol=1e-9)
    # GEoF of a pure state is the entropy of its marginal
    assert ref.symmetric_geof(g) == pytest.approx(s_local, rel=1e-9)
    assert ref.symmetric_geof(inputs.symmetric_lossy_tmsv(0.0, 0.7)) == 0.0


def test_conditional_det_matches_direct_solve():
    g = inputs.random_two_mode_cm(np.random.default_rng(3))
    th, s = np.array([0.3, 1.1]), np.array([1.0, 1e6])
    for mode in (0, 1):
        kept = 1 - mode
        a = g[2 * kept:2 * kept + 2, 2 * kept:2 * kept + 2]
        b = g[2 * mode:2 * mode + 2, 2 * mode:2 * mode + 2]
        d = g[2 * kept:2 * kept + 2, 2 * mode:2 * mode + 2]
        for t, ss in zip(th, s):
            r = np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])
            sigma = r @ np.diag([ss, 1 / ss]) @ r.T
            direct = np.linalg.det(a - d @ np.linalg.solve(b + sigma, d.T))
            got = ref.conditional_dets(g, mode, np.array([t]), np.array([ss]))[0]
            assert got == pytest.approx(direct, rel=1e-9)


def test_split_blocks_and_demodulation():
    g = ref.balanced_split_cm(9.84, 38.4)
    assert np.allclose(g[:2, :2], (np.diag([9.84, 38.4]) + np.eye(2)) / 2)
    assert np.allclose(g[:2, 2:], (np.diag([9.84, 38.4]) - np.eye(2)) / 2)
    # with gain 1 on a balanced split the x record cancels in x_A + x_B
    d = ref.demodulated_split_cm(9.84, 38.4, -3.0, 1.0)
    vx = np.array([1.0, 0.0, 1.0, 0.0])
    assert vx @ d @ vx == pytest.approx(2 * 10 ** -0.3, rel=1e-12)


def test_csv_read_back(tmp_path):
    rows = np.random.default_rng(0).normal(size=(50, 3))
    path = tmp_path / "batch.csv"
    path.write_text("a,b,c\n" + "".join(",".join(f"{v:.10g}" for v in row) + "\n" for row in rows))
    header, data = ref.read_csv(path)
    assert header == ["a", "b", "c"]
    assert np.allclose(data, rows, rtol=1e-9)
    assert np.allclose(ref.cm_estimate(data), 2 * np.cov(rows.T), rtol=1e-8)


def test_inputs_are_seeded_and_balanced():
    a, b = inputs.oracle_items(5), inputs.oracle_items(5)
    assert [x[0] for x in a] == [x[0] for x in b]
    assert all(np.array_equal(x[1], y[1]) for x, y in zip(a, b))
    labels = [inputs.branch(g, mode) for name, g, mode in a if "-het-" in name or "-hom-" in name]
    assert labels.count("homodyne-case") == labels.count("heterodyne-case") == 8
    near = [g for name, g, _ in a if "nearpure" in name]
    assert len(near) == 2
    assert all(1.0 < np.sqrt(np.linalg.det(g[2:, 2:])) < 1.1 for g in near)
    for _, g, _ in a:
        assert np.linalg.eigvalsh(g + 1j * ref.omega(2)).min() >= -1e-9


def test_benchmark_json_names_match_the_worker():
    import worker
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(os.path.dirname(here), "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    import run
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == worker.PER_LAYER
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
