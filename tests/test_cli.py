import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gausscorr import cli, scenarios
from gausscorr.cli import main
from gausscorr.core import CovMatrix
from gausscorr.errors import NumericalError
from gausscorr.channels import InputSpec, tmsv_cm
from gausscorr.scenarios import (ScenarioState, attenuation_sweep, build_split_state,
                                 correlation_flow)

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def fig3_config(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({
        "input": {"kind": "squeezed", "squeezing_db": -3.0, "v_x": 9.84, "v_p": 38.4},
        "bs_t": 0.5,
        "attenuation_grid": [1.0, 0.7, 0.4],
        "cmr_a": 0.047,
    }))
    return path


def test_discord_command(measured_cm_file, capsys):
    assert main(["discord", "--cm", str(measured_cm_file)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["discord"] == pytest.approx(0.49, abs=0.01)
    assert out["ppt_min_eig"] == pytest.approx(0.84, abs=0.02)
    assert out["units"] == "nats"


def test_discord_command_bits(measured_cm_file, capsys):
    main(["discord", "--cm", str(measured_cm_file)])
    nats = json.loads(capsys.readouterr().out)
    main(["discord", "--cm", str(measured_cm_file), "--bits"])
    bits = json.loads(capsys.readouterr().out)
    assert bits["discord"] == pytest.approx(nats["discord"] / np.log(2), rel=1e-12)
    assert bits["ppt_min_eig"] == nats["ppt_min_eig"]  # not an entropy


def test_discord_command_product_state(tmp_path, capsys):
    path = tmp_path / "prod.json"
    path.write_text(json.dumps({"n_modes": 2,
                                "gamma": np.diag([2.0, 2.0, 3.0, 3.0]).tolist()}))
    assert main(["discord", "--cm", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert abs(out["discord"]) <= 1e-10
    assert abs(out["mutual_info"]) <= 1e-10


def test_discord_command_nonphysical_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n_modes": 2,
                                "gamma": np.diag([0.5, 0.5, 1.0, 1.0]).tolist()}))
    assert main(["discord", "--cm", str(path)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "NonPhysicalStateError"
    assert main(["discord", "--cm", str(path), "--allow-measured"]) == 0


def test_discord_command_non_finite_exit_code(tmp_path, capsys):
    # json reads NaN, and a report holding NaN would not be valid JSON
    path = tmp_path / "nan.json"
    path.write_text('{"n_modes": 2, "gamma": [[NaN, 0, 0, 0], [0, 1, 0, 0], '
                    '[0, 0, 1, 0], [0, 0, 0, 1]]}')
    assert main(["discord", "--cm", str(path), "--allow-measured"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == "InvalidInputError"


def test_discord_command_undefined_symplectic_value_exit_code(tmp_path, capsys):
    # nu_plus^2 < 0: the report would print "discord": NaN, which is not JSON
    g = np.eye(4)
    g[0, 2] = g[2, 0] = 5.0
    g[1, 3] = g[3, 1] = -5.0
    path = tmp_path / "undefined.json"
    path.write_text(json.dumps({"n_modes": 2, "gamma": g.tolist()}))
    assert main(["discord", "--cm", str(path), "--allow-measured"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == "NonPhysicalStateError"


@st.composite
def _malformed_cm_file(draw):
    """(JSON text of a malformed or nonphysical CM file, whether to pass --allow-measured)."""
    gamma = tmsv_cm(draw(st.floats(1.0, 5.0))).entries.tolist()
    n_modes = 2
    kind = draw(st.sampled_from(["ragged", "string", "non-finite", "asymmetric", "n_modes",
                                 "nonphysical", "undefined"]))
    i, j = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    if kind == "ragged":
        del gamma[i][j]
    elif kind == "string":
        gamma[i][j] = draw(st.sampled_from([str(gamma[i][j]), "x", ""]))
    elif kind == "non-finite":
        gamma[i][j] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    elif kind == "asymmetric":
        j = (i + draw(st.integers(1, 3))) % 4
        gamma[i][j] += draw(st.sampled_from([1.0, -1.0])) * draw(st.floats(1e-9, 1.0))
    elif kind == "n_modes":
        n_modes = draw(st.sampled_from([0, 1, 3, -2, "2", None, 2.5, [2]]))
    elif kind == "nonphysical":  # a pure state scaled below the uncertainty bound
        gamma = (draw(st.floats(0.1, 0.99)) * np.array(gamma)).tolist()
    else:  # a symplectic value is undefined: nu_plus^2 < 0, or a local det <= 0
        g = np.eye(4)
        c = draw(st.floats(1.01, 5.0))
        if draw(st.booleans()):
            g[:2, 2:] = g[2:, :2] = np.diag([c, -c])
        else:
            g[draw(st.sampled_from([np.s_[:2, :2], np.s_[2:, 2:]]))] = [[1.0, c], [c, 1.0]]
        gamma = g.tolist()
    allow = kind != "nonphysical" and draw(st.booleans())
    # json writes NaN and Infinity tokens, which its reader accepts
    return json.dumps({"n_modes": n_modes, "gamma": gamma}), allow


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_malformed_cm_file())
def test_discord_command_malformed_cm_exit_code(tmp_path, capsys, case):
    text, allow = case
    path = tmp_path / "cm.json"
    path.write_text(text)
    argv = ["discord", "--cm", str(path)] + ["--allow-measured"] * allow
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")
    err = json.loads(captured.err)
    assert set(err) == {"error", "message"}
    assert err["error"] in ("InvalidInputError", "NonPhysicalStateError")


def test_discord_command_numerical_exit_code(measured_cm_file, capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise NumericalError("optimizer did not converge")

    monkeypatch.setattr(cli, "discord", fail)
    assert main(["discord", "--cm", str(measured_cm_file)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err == {"error": "NumericalError", "message": "optimizer did not converge"}


@pytest.mark.parametrize("flags", [[], ["--allow-measured"], ["--measured-mode", "A"]])
def test_discord_command_beyond_float_range_exit_code(tmp_path, capsys, flags):
    # a physical CM whose closed form overflows a float: exit 1 with a traceback before;
    # at 1e100 det gamma overflows, and that exited 2 ("state not physical"), as
    # did diag(s, s, 1, 1) from s = 1e77, whose squared Seralian overflows
    g0 = np.array([[2.0, 0.0, 1.0, 0.0], [0.0, 2.0, 0.0, -1.0],
                   [1.0, 0.0, 2.0, 0.0], [0.0, -1.0, 0.0, 2.0]])
    for g in (1e70 * g0, 1e100 * g0, np.diag([1e100, 1e100, 1.0, 1.0]),
              np.diag([1e150, 1e150, 1.0, 1.0])):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"n_modes": 2, "gamma": g.tolist()}))
        with np.errstate(all="ignore"):
            assert main(["discord", "--cm", str(path), *flags]) == 3, g[0, 0]
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert json.loads(captured.err)["error"] == "NumericalError"


def test_discord_command_overflow_prints_one_json_line(tmp_path, capsys):
    # det gamma overflows inside numpy.linalg: numpy's RuntimeWarning and its
    # source line were printed to stderr before the JSON error line
    g = 1e100 * np.array([[2.0, 0.0, 1.0, 0.0], [0.0, 2.0, 0.0, -1.0],
                          [1.0, 0.0, 2.0, 0.0], [0.0, -1.0, 0.0, 2.0]])
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"n_modes": 2, "gamma": g.tolist()}))
    settings = np.geterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["discord", "--cm", str(path)]) == 3
    assert caught == []
    # the CLI leaves numpy's error settings as it found them
    assert np.geterr() == settings
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")
    assert json.loads(captured.err)["error"] == "NumericalError"


def test_discord_command_missing_file(tmp_path, capsys):
    assert main(["discord", "--cm", str(tmp_path / "nope.json")]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "InvalidInputError"


def test_sweep_command(fig3_config, tmp_path, capsys):
    out = tmp_path / "curve.csv"
    assert main(["sweep", "--config", str(fig3_config), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,discord,mutual_info,classical_corr"
    assert len(lines) == 4
    state = build_split_state(
        InputSpec(kind="squeezed", squeezing_db=-3.0, v_x=9.84, v_p=38.4), 0.5)
    rows = attenuation_sweep(state, [1.0, 0.7, 0.4], cmr_a=0.047)
    got = [float(line.split(",")[1]) for line in lines[1:]]
    assert got == pytest.approx([r.discord for r in rows], rel=1e-9)


def test_sweep_command_empty_grid(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({
        "input": {"kind": "coherent", "squeezing_db": 0.0, "v_x": 7.1, "v_p": 1.0},
        "bs_t": 0.5, "attenuation_grid": []}))
    out = tmp_path / "empty.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    assert out.read_text().splitlines() == ["t,discord,mutual_info,classical_corr"]


def test_sweep_command_byte_identical_reruns(fig3_config, tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["sweep", "--config", str(fig3_config), "--out", str(out1)])
    main(["sweep", "--config", str(fig3_config), "--out", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()


def test_sweep_command_residual_on_fixed_grid(tmp_path):
    # the flow residual is rounding noise near 1e-15: written on an absolute
    # 1e-12 grid it reads 0 (never -0), so last-ulp changes keep the bytes
    cfg = tmp_path / "flow.json"
    cfg.write_text(json.dumps({
        "input": {"kind": "squeezed", "squeezing_db": -3.0, "v_x": 9.84, "v_p": 38.4},
        "bs_t": 0.5, "attenuation_grid": [1.0, 0.9, 0.7, 0.5, 0.2], "kw_columns": True}))
    out = tmp_path / "flow.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].endswith("E_F_AE,S_A,residual")
    assert [line.split(",")[-1] for line in lines[1:]] == ["0"] * 5


def test_sweep_command_joins_the_sweep_and_the_flow(tmp_path):
    # kw_columns appends the flow's columns to the discord sweep's, row by row
    spec = {"kind": "coherent", "squeezing_db": 0.0, "v_x": 7.1, "v_p": 1.0}
    grid = [0.95, 0.65, 0.35, 0.05, 0.0]
    csvs = []
    for kw in (False, True):
        cfg = tmp_path / f"kw_{kw}.json"
        cfg.write_text(json.dumps({"input": spec, "bs_t": 0.3, "attenuation_grid": grid,
                                   "kw_columns": kw}))
        out = tmp_path / f"kw_{kw}.csv"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        csvs.append([line.split(",") for line in out.read_text().splitlines()])
    plain, joined = csvs
    assert [row[:4] for row in joined] == plain
    flow = correlation_flow(build_split_state(InputSpec(**spec), 0.3), grid)
    assert [row[4:6] for row in joined[1:]] == [[f"{p.e_f_ae:.10g}", f"{p.s_a:.10g}"]
                                                for p in flow]


@pytest.mark.parametrize("kw", [False, True])
def test_sweep_command_computes_the_discord_rows_once(tmp_path, monkeypatch, kw):
    # the flow's columns reuse the sweep's rows instead of sweeping again
    calls, sweep = [], scenarios._sweep

    def counted(*args):
        calls.append(args)
        return sweep(*args)

    monkeypatch.setattr(scenarios, "_sweep", counted)
    cfg = tmp_path / "flow.json"
    cfg.write_text(json.dumps({
        "input": {"kind": "coherent", "squeezing_db": 0.0, "v_x": 7.1, "v_p": 1.0},
        "bs_t": 0.5, "attenuation_grid": [1.0, 0.6, 0.2], "kw_columns": kw}))
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "flow.csv")]) == 0
    assert len(calls) == 1


def test_sweep_command_rejects_kw_columns_with_cmr_noise(tmp_path, capsys):
    # J on the noisy CM against E_F on the noiseless pure model would leave a
    # residual of about 0.03 nats that is no property of the state
    cfg = tmp_path / "flow.json"
    cfg.write_text(json.dumps({
        "input": {"kind": "squeezed", "squeezing_db": -3.0, "v_x": 9.84, "v_p": 38.4},
        "bs_t": 0.5, "attenuation_grid": [1.0, 0.5], "cmr_a": 0.047, "kw_columns": True}))
    out = tmp_path / "flow.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "InvalidInputError"
    assert not out.exists()


_GOOD_SWEEP = {"input": {"kind": "squeezed", "squeezing_db": -3.0, "v_x": 9.84, "v_p": 38.4},
               "bs_t": 0.5, "attenuation_grid": [1.0, 0.5]}


@pytest.mark.parametrize("path, value", [
    pytest.param(("bs_t",), None, id="bs_t-null"),
    pytest.param(("attenuation_grid",), ["x"], id="grid-string-entry"),
    pytest.param(("attenuation_grid",), 1.0, id="grid-number"),
    pytest.param(("input", "v_x"), "abc", id="v_x-string"),
    pytest.param(("input", "v_p"), None, id="v_p-null"),
    pytest.param(("input", "v_x"), float("nan"), id="v_x-nan"),
    pytest.param(("cmr_a",), float("inf"), id="cmr_a-infinity"),
    pytest.param(("input", "squeezing_db"), "abc", id="squeezing_db-string"),
    pytest.param(("cmr_a",), "abc", id="cmr_a-string"),
    pytest.param(("cmr_a",), True, id="cmr_a-bool"),
    pytest.param(("kw_columns",), "false", id="kw_columns-string"),
    pytest.param(("recovery",), {"gain": "abc"}, id="gain-string"),
    pytest.param(("recovery",), {"bs_t_be": [0.5]}, id="bs_t_be-array"),
    pytest.param(("recovery",), {"mode": "demodulate"}, id="recovery-mode-key"),
])
def test_sweep_command_malformed_config_exit_code(tmp_path, capsys, path, value):
    obj = json.loads(json.dumps(_GOOD_SWEEP))
    target = obj
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(obj))
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert json.loads(err)["error"] == "InvalidInputError"


@pytest.mark.parametrize("grid", [[], [1.0, 0.5]])
def test_sweep_command_rejects_negative_cmr_noise(tmp_path, capsys, grid):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(dict(_GOOD_SWEEP, attenuation_grid=grid, cmr_a=-1.0)))
    out = tmp_path / "x.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "InvalidInputError"
    assert not out.exists()


def test_sweep_command_nonphysical_point_exit_code(tmp_path, capsys, monkeypatch):
    # no config builds a nonphysical split state, so the state is swapped in:
    # mode B below the vacuum, physical after attenuation only at t = 0; the
    # stacked physicality check must reject it before any closed form runs
    def below_vacuum(spec, bs_t):
        g = np.eye(6)
        g[2:4, 2:4] = 0.5 * np.eye(2)
        return ScenarioState(mode_names=("A", "B", "E"), quantum_cm=CovMatrix(g))

    def forbidden(*args, **kwargs):
        raise AssertionError("a nonphysical point reached the closed form")
    monkeypatch.setattr(cli, "build_split_state", below_vacuum)
    monkeypatch.setattr(scenarios, "_discord_report", forbidden)
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(dict(_GOOD_SWEEP, attenuation_grid=[0.0, 0.5, 1.0])))
    out = tmp_path / "x.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "NonPhysicalStateError" and "t = 0.5 " in err["message"]
    assert not out.exists()


def test_sweep_command_rejects_unknown_config_keys(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"input": {"v_x": 7.1, "v_p": 1.0}, "bs_t": 0.5,
                               "bogus": True}))
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 2


def test_recover_command_demodulate(fig3_config, capsys):
    assert main(["recover", "--config", str(fig3_config), "--mode", "demodulate"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["entangled"] is True
    assert out["value"] < 1.0
    assert out["value"] == pytest.approx(0.5012, abs=1e-3)


def test_recover_command_interfere(fig3_config, capsys):
    assert main(["recover", "--config", str(fig3_config), "--mode", "interfere"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["entangled"] is True
    assert 0.0 < out["bs_t_be"] < 1.0


@pytest.mark.parametrize("mode", ["demodulate", "interfere"])
@pytest.mark.parametrize("huge", [("v_x",), ("v_x", "v_p")])
def test_recover_command_beyond_float_range_exit_code(tmp_path, capsys, mode, huge):
    # v_x = 1e200 read "value": 0.0, "entangled": true (interfere) or 1.27e180
    # (demodulate); v_x = v_p = 1e200 wrote "value": Infinity, which is not JSON
    cfg = json.loads((ROOT / "scripts" / "configs" / "recovery.json").read_text())
    cfg["input"].update(dict.fromkeys(huge, 1e200))
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(cfg))
    assert main(["recover", "--config", str(path), "--mode", mode]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert json.loads(captured.err)["error"] == "NumericalError"


def test_recover_command_no_modulation_not_entangled(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({
        "input": {"kind": "coherent", "squeezing_db": 0.0, "v_x": 1.0, "v_p": 1.0},
        "bs_t": 0.5}))
    assert main(["recover", "--config", str(cfg), "--mode", "demodulate"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["entangled"] is False


def test_certify_command(capsys):
    assert main(["certify", "--vx", "9.84", "--vp", "38.4"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["certified"] is True
    assert main(["certify", "--vx", "1.5", "--vp", "2.0"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["certified"] is False
    assert out["cond_vx_threshold"] is False


_CERTIFY_JSON = {
    ("9.84", "38.4"): """{
 "m": 10.33315053601756,
 "tau_channel": -0.7814207650273224,
 "eta": 1.7814207650273224,
 "r": 2.2191459565832323,
 "xi": 1.9064853387486274,
 "cond_tau_real": true,
 "cond_eta": true,
 "cond_r_range": true,
 "cond_vx_threshold": true,
 "certified": true
}
""",
    ("1.5", "2.0"): """{
 "m": 1.3693063937629153,
 "tau_channel": -0.14285714285714285,
 "eta": 1.1428571428571428,
 "r": 1.8257418583505538,
 "xi": 1.095445115010332,
 "cond_tau_real": true,
 "cond_eta": true,
 "cond_r_range": false,
 "cond_vx_threshold": false,
 "certified": false
}
""",
}


@pytest.mark.parametrize("vx, vp", list(_CERTIFY_JSON))
def test_certify_command_output_bytes(tmp_path, vx, vp):
    out = tmp_path / "cert.json"
    assert main(["certify", "--vx", vx, "--vp", vp, "--out", str(out)]) == 0
    assert out.read_bytes() == _CERTIFY_JSON[vx, vp].encode()


def test_certify_command_ordering_exit_code(capsys):
    assert main(["certify", "--vx", "5.0", "--vp", "3.0"]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "InvalidInputError"


@pytest.mark.parametrize("vx, vp, code, error", [
    ("5", "inf", 2, "InvalidInputError"), ("5", "1e308", 3, "NumericalError"),
    ("1e200", "1e300", 3, "NumericalError")])
def test_certify_command_beyond_float_range_exit_code(capsys, vx, vp, code, error):
    # each exited 0 and printed NaN or Infinity, which is not JSON
    assert main(["certify", "--vx", vx, "--vp", vp]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert json.loads(captured.err)["error"] == error


def test_emit_refuses_nan_and_infinity(tmp_path):
    # no command writes a NaN or Infinity literal, to stdout or to a file
    out = tmp_path / "report.json"
    for value in (math.nan, math.inf):
        with pytest.raises(NumericalError):
            cli._emit({"value": value}, str(out))
    assert not out.exists()


def test_simulate_command(fig3_config, tmp_path, capsys):
    out = tmp_path / "batch.csv"
    est_out = tmp_path / "est.json"
    assert main(["simulate", "--config", str(fig3_config), "--n", "2000",
                 "--seed", "7", "--out", str(out), "--estimate-out", str(est_out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 2001
    est = json.loads(est_out.read_text())
    assert est["n"] == 2000 and est["seed"] == 7
    assert np.array(est["gamma"]).shape == (6, 6)


def test_simulate_command_one_shot_exit_code(fig3_config, tmp_path, capsys):
    # one shot has no sample covariance: no all-NaN gamma, and no CSV either
    out = tmp_path / "batch.csv"
    assert main(["simulate", "--config", str(fig3_config), "--n", "1",
                 "--out", str(out)]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "InvalidInputError"
    assert not out.exists() and not (tmp_path / "batch.csv.estimate.json").exists()


def test_simulate_command_deterministic(fig3_config, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        main(["simulate", "--config", str(fig3_config), "--n", "500",
              "--seed", "11", "--out", str(path)])
    assert a.read_bytes() == b.read_bytes()
