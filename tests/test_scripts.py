"""The experiment scripts regenerate the committed results and print the headline numbers."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _load_script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("script, outputs", [
    ("run_attenuation_sweeps",
     ["discord_vs_loss_coherent.csv", "discord_vs_loss_squeezed.csv"]),
    ("run_correlation_flow", ["correlation_flow.csv"]),
])
def test_script_reproduces_committed_results(tmp_path, capsys, script, outputs):
    module = _load_script(script)
    module.OUT_DIR = str(tmp_path)
    assert module.main() == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(outputs)
    for name in outputs:
        assert (tmp_path / name).read_bytes() == (ROOT / "results" / name).read_bytes(), name
    assert f"wrote {tmp_path / outputs[-1]}" in capsys.readouterr().out


@pytest.mark.parametrize("script, lines", [
    ("run_headline", ["discord (measure B):   0.4919  [heterodyne-case]",
                      "PPT witness min eig:   0.8446  (>= 0: separable)",
                      "  discord: 0.4920 +- 0.0063"]),
    ("run_recovery", ["Gaussian-measurement optimality certified: True",
                      "demodulate: value=0.5012 at g=1.0000 (entangled: True)",
                      "interfere:  value=0.7473 at g=0.5876, mix t=0.3453 (entangled: True)",
                      "sampled demodulation (1000000 shots): value=0.5002 vs CM-level 0.5012"]),
])
def test_script_prints_headline_numbers(capsys, script, lines):
    _load_script(script).main()
    out = capsys.readouterr().out.splitlines()
    for line in lines:
        assert line in out
