"""Start-up: the package and its warm paths import none of scipy's submodules.

Each check runs in a fresh interpreter, so that modules imported by the rest
of the suite (the tests themselves use scipy) do not hide an import.
"""

import json
import os
import subprocess
import sys
import textwrap

import gausscorr

SRC = os.path.dirname(os.path.dirname(os.path.abspath(gausscorr.__file__)))
HEAVY = ("scipy.optimize", "scipy.linalg", "scipy.special")


def _run(code, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([SRC] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


WARM_PATHS = """
    import json, sys
    import numpy as np
    import gausscorr as gc
    from gausscorr import cli

    rng = np.random.default_rng(5)
    g = gc.random_physical_cm(rng, 2).entries
    gc.discord(g), gc.discord(g, 0), gc.discord_oracle(g), gc.ppt_min_eig(g)
    separable = gc.tensor(np.diag([2.0, 3.0]), np.diag([1.5, 1.5]))
    entangled = gc.attenuate(gc.attenuate(gc.tmsv_cm(3.0), 0, 0.8), 1, 0.8)
    methods = [gc.geof(separable).method, gc.geof(entangled).method]

    spec = gc.InputSpec(kind="squeezed", squeezing_db=-3.0, v_x=9.84, v_p=38.4)
    state = gc.build_split_state(spec, 0.5)
    flow = gc.correlation_flow(state, [0.6])
    gc.attenuation_sweep(state, np.linspace(1.0, 0.2, 9), cmr_a=0.05)
    gc.run_recovery(state, "demodulate"), gc.run_recovery(state, "interfere")

    gc.write_cm_file("cm.json", g)
    codes = [cli.main(["discord", "--cm", "cm.json", "--out", "discord.json"]),
             cli.main(["certify", "--vx", "9.84", "--vp", "38.4", "--out", "certify.json"])]
    batch = gc.sample(state, 2000, 3)
    gc.estimate_cm(batch)
    gc.write_batch_csv(batch, "batch.csv")
    scalars = {"discord": lambda m: gc.discord(m, 1, allow_measured=True).discord}
    gc.error_monte_carlo(gc.cm_resampling_pipeline(g, 5000, scalars), trials=2, seed=0)

    print(json.dumps({"methods": methods, "flow_residual": flow[0].residual, "codes": codes,
                      "loaded": sorted(m for m in sys.modules if m.startswith("scipy."))}))
"""


def test_warm_paths_import_no_scipy_submodule(tmp_path):
    out = _run(WARM_PATHS, tmp_path)
    assert out["methods"] == ["xp-search", "xp-search"]
    assert abs(out["flow_residual"]) <= 1e-12 and out["codes"] == [0, 0]
    assert not [m for m in out["loaded"] if m.startswith(HEAVY)], out["loaded"]


def test_nelder_mead_path_imports_scipy_on_demand(tmp_path):
    # 1x2 GEoF with two purifying modes is the one path that needs scipy.optimize
    out = _run("""
        import json, sys
        import numpy as np
        import gausscorr as gc

        before = "scipy.optimize" in sys.modules
        g = gc.random_physical_cm(np.random.default_rng(3), 3, max_thermal=1.3,
                                  squeeze_scale=1.0)
        res = gc.geof(g)
        print(json.dumps({"before": before, "after": "scipy.optimize" in sys.modules,
                          "method": res.method, "value": res.value,
                          "gap": res.feasibility_gap}))
    """, tmp_path)
    assert not out["before"] and out["after"]
    assert out["method"] == "nelder-mead"
    assert out["value"] > 0.1 and out["gap"] >= -1e-9
