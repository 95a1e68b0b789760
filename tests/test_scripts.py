"""The experiment scripts regenerate the committed results byte for byte."""

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
