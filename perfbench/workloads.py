"""The three workloads: inputs, warm-up, and one round of checked operations.

A round attempts the same operations every time.  Each operation either
passes its checks, fails a check (counted as failed and making the run
incorrect) or raises (counted as failed).  Checks compare against
:mod:`refcheck` or against properties the method must have, never against
stored output.
"""

import json
import os
import sys
import traceback
from contextlib import contextmanager
from time import perf_counter

import numpy as np

import gausscorr as gc
from gausscorr import cli

import inputs
import refcheck as ref


class CheckFailed(Exception):
    pass


def check(ok, what):
    if not ok:
        raise CheckFailed(what)


class Round:
    """Operation counts, timings and accuracy figures of one round.

    ``ops`` holds (name, start, end, item seconds) per operation, in wall
    time; :mod:`speed` rescales them afterwards.
    """

    def __init__(self, tracer):
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.ops = []
        self.figures = {}
        self.pending_items = []      # seconds of items inside the current operation

    @contextmanager
    def op(self, name, weight=1, item=False):
        """One operation (weight operations if it stands for several items)."""
        self.attempted += weight
        self.tracer.item = name
        self.pending_items = []
        start = perf_counter()
        try:
            yield
        except CheckFailed as exc:
            self.failed += weight
            self.correct = False
            sys.stderr.write(f"check failed in {name}: {exc}\n")
        except Exception:
            self.failed += weight
            sys.stderr.write(f"operation {name} raised:\n{traceback.format_exc()}")
        finally:
            end = perf_counter()
            self.ops.append((name, start, end,
                             self.pending_items + ([end - start] if item else [])))
            self.tracer.item = None

    def worst(self, key, value):
        self.figures[key] = max(self.figures.get(key, 0.0), float(value))

    def add(self, key, n):
        self.figures[key] = self.figures.get(key, 0) + n


def check_pure_feasible(g, pure):
    """gamma - gamma_p >= 0 and gamma_p pure, both to the benchmark's tolerances."""
    gap = np.linalg.eigvalsh(g - pure).min()
    check(gap >= -1e-9, f"min eig(gamma - gamma_p) = {gap:.2e}")
    nus = ref.symplectic_eigenvalues(pure)
    check(np.abs(nus - 1.0).max() <= 1e-6, f"gamma_p not pure: {nus}")


class OracleAudit:
    """Closed-form discord against the measurement oracle, one (CM, mode) per item."""

    def __init__(self, seed, workdir):
        self.items = inputs.oracle_items(seed)
        self.thetas, self.s = ref.seed_grid()

    def warm(self):
        g = inputs.MEASURED_CM
        gc.discord(g), gc.discord_oracle(g), gc.ppt_min_eig(g)

    def round(self, tr, r):
        for item_id, g, mode in self.items:
            with r.op(item_id, item=True):
                rep = tr.call("correlations.discord", gc.discord, g, measured_mode=mode)
                oracle = tr.call("correlations.discord_oracle", gc.discord_oracle, g,
                                 measured_mode=mode)
                ppt = tr.call("core.ppt_min_eig", gc.ppt_min_eig, g)
                gap = abs(rep.discord - oracle)
                r.worst("correlations.oracle_gap_max", gap)
                check(gap <= 1e-4, f"|closed form - oracle| = {gap:.2e}")
                mi = ref.mutual_information(g)
                check(abs(rep.mutual_info - mi) <= 1e-9,
                      f"mutual info {rep.mutual_info!r} vs eigenvalues {mi!r}")
                det_min = ref.conditional_dets(g, mode, self.thetas, self.s).min()
                check(det_min >= rep.inf_det_eps * (1 - 1e-9) - 1e-12,
                      f"seed det {det_min!r} below inf_det_eps {rep.inf_det_eps!r}")
                check(rep.discord >= -1e-12, f"discord {rep.discord!r} < 0")
                nu_pt = ref.symplectic_eigenvalues(ref.partial_transpose(g))[0]
                if abs(nu_pt - 1.0) > 1e-6:
                    check((ppt >= 0) == (nu_pt > 1),
                          f"PPT witness {ppt!r} disagrees with PT eigenvalue {nu_pt!r}")


# The ends of the paper's nine-point attenuation grid, and a -6 dB two-mode
# squeezed vacuum with 20% loss on each mode.  Both are fixed: the
# GEoF search time per state jumps between about 1.3 s and 12 s when t moves
# by 0.01, so seeded states would swamp a run-to-run comparison.
FLOW_T = (1.0, 0.2)
SYMMETRIC_STATE = (-6.0, 0.8)


class GeofFlow:
    """Correlation-flow points (1x2 GEoF), a symmetric state and a seeded separable state."""

    def __init__(self, seed, workdir):
        rng = np.random.default_rng(seed)
        run = inputs.SQUEEZED_RUN
        self.state = gc.build_split_state(gc.InputSpec(**run), 0.5)
        self.s_a = ref.single_mode_entropy(ref.balanced_split_cm(run["v_x"], run["v_p"])[:2, :2])
        items = [(f"flow-t{t:.2f}", "flow", t) for t in FLOW_T]
        items.append(("symmetric", "symmetric", inputs.symmetric_lossy_tmsv(*SYMMETRIC_STATE)))
        items.append(("separable", "separable", inputs.separable_cm(rng)))
        self.items = [items[i] for i in rng.permutation(len(items))]
        self.warm_cm = inputs.separable_cm(np.random.default_rng(inputs.CORE_SEED))

    def warm(self):
        gc.geof(self.warm_cm)

    def round(self, tr, r):
        for item_id, kind, x in self.items:
            with r.op(item_id, item=True):
                if kind == "flow":
                    p = tr.call("scenarios.correlation_flow", gc.correlation_flow,
                                self.state, [x])[0]
                    resid = abs(self.s_a - p.j_ab - p.e_f_ae)
                    r.worst("scenarios.flow_residual_max", resid)
                    check(resid <= 1e-2, f"|S(A) - J - E_F| = {resid:.2e}")
                    check(abs(p.s_a - self.s_a) <= 1e-9, f"S(A) {p.s_a!r} vs {self.s_a!r}")
                    continue
                res = tr.call("correlations.geof", gc.geof, x)
                if not res.converged:
                    r.add("correlations.geof.unconverged", 1)
                check_pure_feasible(x, res.optimal_pure_cm.entries)
                if kind == "symmetric":
                    gap = abs(res.value - ref.symmetric_geof(x))
                    r.worst("correlations.geof_ref_gap_max", gap)
                    check(gap <= 1e-6, f"|GEoF - closed form| = {gap:.2e}")
                else:
                    check(res.value <= 1e-4, f"separable GEoF {res.value!r}")


class MeasuredPipeline:
    """The measured-data path: CLI, sweeps, recovery, sampling and error bars."""

    TRIALS = 300
    GRID_POINTS = 401
    CSV_SHOTS = 100_000
    CHECK_SHOTS = 1_000_000

    def __init__(self, seed, workdir):
        rng = np.random.default_rng(seed)
        self.mc_seed, self.sim_seed, self.sample_seed = (int(x) for x in rng.integers(0, 2**31, 3))
        self.dir = workdir
        self.grid = inputs.stratified_grid(rng, self.GRID_POINTS)
        self.runs = {}
        for run in (inputs.COHERENT_RUN, inputs.SQUEEZED_RUN):
            kind = run["kind"]
            config = {"input": run, "bs_t": 0.5, "attenuation_grid": self.grid.tolist(),
                      "cmr_a": inputs.CMR[kind]}
            self.runs[kind] = (gc.build_split_state(gc.InputSpec(**run), 0.5),
                               self._write(f"{kind}_sweep.json", config))
        self.cm_file = self._write("measured_cm.json", {"n_modes": 2,
                                                        "gamma": inputs.MEASURED_CM.tolist()})
        self.squeezed = self.runs["squeezed"][0]
        self.n_matched = gc.matched_sample_size(inputs.MEASURED_CM, inputs.MEASURED_CM_ERRORS)
        self.marks = []
        self.clamped = 0

    def _write(self, name, obj):
        path = self._path(name)
        with open(path, "w") as fh:
            json.dump(obj, fh)
        return path

    def _path(self, name):
        return os.path.join(self.dir, name)

    def _cli(self, tr, name, argv):
        code = tr.call(f"cli.{name}", cli.main, argv)
        check(code == 0, f"cli {name} exited with {code}")

    def _read(self, name):
        with open(self._path(name)) as fh:
            return json.load(fh)

    def warm(self):
        g = inputs.MEASURED_CM
        gc.discord(g, 1, allow_measured=True), gc.ppt_min_eig(g)
        cli.main(["certify", "--vx", "9.84", "--vp", "38.4", "--out", self._path("warm.json")])
        batch = gc.sample(self.squeezed, 1000, 0)
        gc.estimate_cm(batch)
        gc.write_batch_csv(batch, self._path("warm.csv"))
        scalars = {"discord": lambda m: gc.discord(m, 1, allow_measured=True).discord}
        gc.error_monte_carlo(gc.cm_resampling_pipeline(g, self.n_matched, scalars),
                             trials=2, seed=0)

    # scalar functions of the error-bar Monte Carlo; the last one marks a trial's end
    def _discord(self, m):
        rep = self.tracer.call("correlations.discord", gc.discord, m, 1, allow_measured=True)
        self.clamped += rep.clamped
        return rep.discord

    def _ppt(self, m):
        value = self.tracer.call("core.ppt_min_eig", gc.ppt_min_eig, m)
        self.marks.append(perf_counter())
        return value

    def round(self, tr, r):
        self.tracer = tr
        self.error_bars(tr, r)
        self.cli_discord(tr, r)
        for kind in self.runs:
            self.sweep(tr, r, kind)
        demod, inter = self.recovery(tr, r)
        self.certify(tr, r)
        self.simulate(tr, r)
        self.demodulation_cross_check(tr, r, demod)

    def error_bars(self, tr, r):
        self.marks, self.clamped = [], 0
        scalars = {"discord": self._discord, "min_eig": self._ppt}
        with r.op("error-bars", weight=self.TRIALS):
            pipeline = gc.cm_resampling_pipeline(inputs.MEASURED_CM, self.n_matched, scalars)
            start = perf_counter()
            summary = tr.call("sampling.error_monte_carlo", gc.error_monte_carlo, pipeline,
                              trials=self.TRIALS, seed=self.mc_seed)
            check(len(self.marks) == self.TRIALS, f"{len(self.marks)} trials ran")
            r.pending_items = list(np.diff([start] + self.marks))
        r.add("correlations.discord.clamped", self.clamped)
        with r.op("error-bar-summary"):
            d, m = summary["discord"], summary["min_eig"]
            check(abs(d.mean - inputs.MEASURED_DISCORD) <= 0.01, f"MC discord mean {d.mean!r}")
            check(abs(m.mean - inputs.MEASURED_PPT_MIN_EIG) <= 0.02, f"MC witness mean {m.mean!r}")
            check(0.002 <= d.std <= 0.03, f"MC discord spread {d.std!r}")
            check(0.002 <= m.std <= 0.04, f"MC witness spread {m.std!r}")

    def cli_discord(self, tr, r):
        with r.op("cli-discord"):
            self._cli(tr, "discord", ["discord", "--cm", self.cm_file,
                                      "--out", self._path("discord.json")])
            out = self._read("discord.json")
            check(abs(out["discord"] - inputs.MEASURED_DISCORD) <= 0.01,
                  f"discord {out['discord']!r}")
            check(abs(out["ppt_min_eig"] - inputs.MEASURED_PPT_MIN_EIG) <= 0.02,
                  f"PPT witness {out['ppt_min_eig']!r}")
            mi = ref.mutual_information(inputs.MEASURED_CM)
            check(abs(out["mutual_info"] - mi) <= 1e-9,
                  f"mutual info {out['mutual_info']!r} vs {mi!r}")

    def sweep(self, tr, r, kind):
        run = inputs.COHERENT_RUN if kind == "coherent" else inputs.SQUEEZED_RUN
        state, config = self.runs[kind]
        cmr = inputs.CMR[kind]
        with r.op(f"sweep-{kind}"):
            rows = tr.call("scenarios.attenuation_sweep", gc.attenuation_sweep, state,
                           self.grid, cmr_a=cmr)
            mi = np.array([ref.mutual_information(
                ref.balanced_split_cm(run["v_x"], run["v_p"], t, cmr)) for t in self.grid])
            check(len(rows) == len(self.grid), f"{len(rows)} sweep rows")
            got = np.array([(row.t, row.mutual_info, row.discord) for row in rows])
            check(np.array_equal(got[:, 0], self.grid), "sweep t values differ from the grid")
            check(np.abs(got[:, 1] - mi).max() <= 1e-9,
                  "sweep mutual info off the eigenvalue value")
            check(got[:, 2].min() >= -1e-12, "negative discord in sweep")
        with r.op(f"cli-sweep-{kind}"):
            out = self._path(f"{kind}_sweep.csv")
            self._cli(tr, "sweep", ["sweep", "--config", config, "--out", out])
            header, data = ref.read_csv(out)
            check(header == ["t", "discord", "mutual_info", "classical_corr"], f"header {header}")
            check(data.shape == (len(self.grid), 4), f"sweep CSV shape {data.shape}")
            check(np.allclose(data[:, 0], self.grid, rtol=1e-9, atol=0), "CSV t column")
            check(np.allclose(data[:, 2], mi, rtol=1e-9, atol=1e-9), "CSV mutual info column")
            check(data[:, 1].min() >= -1e-12, "negative discord in CSV")

    def recovery(self, tr, r):
        run = inputs.SQUEEZED_RUN
        reports = {}
        for mode in ("demodulate", "interfere"):
            with r.op(f"recover-{mode}"):
                _, rep = tr.call("scenarios.run_recovery", gc.run_recovery, self.squeezed, mode)
                check(rep.value < 1.0, f"{mode} Duan value {rep.value!r} >= 1")
                if mode == "demodulate":
                    cm = ref.demodulated_split_cm(run["v_x"], run["v_p"], run["squeezing_db"],
                                                  rep.g)
                    expect = ref.duan_value(cm, rep.g, rep.signs[0])
                    check(abs(rep.value - expect) <= 1e-9, f"Duan {rep.value!r} vs {expect!r}")
                else:
                    check(reports["demodulate"].value <= rep.value + 1e-12,
                          "demodulation does worse than interference")
                reports[mode] = rep
            with r.op(f"cli-recover-{mode}"):
                self._cli(tr, "recover", ["recover", "--config", self.runs["squeezed"][1],
                                          "--mode", mode, "--out", self._path(f"{mode}.json")])
                out = self._read(f"{mode}.json")
                check(abs(out["value"] - reports[mode].value) <= 1e-9,
                      f"CLI {mode} {out['value']!r}")
        return reports.get("demodulate"), reports.get("interfere")

    def certify(self, tr, r):
        with r.op("certify"):
            cert = tr.call("optimality.certify", gc.certify, 9.84, 38.4)
            check(cert.certified, "squeezed run not certified")
            check(abs(cert.eta - (1.0 - cert.tau_channel)) <= 1e-12, "eta != 1 - tau")
        with r.op("cli-certify"):
            self._cli(tr, "certify", ["certify", "--vx", "9.84", "--vp", "38.4",
                                      "--out", self._path("certify.json")])
            check(self._read("certify.json")["certified"] is True, "CLI certify not certified")

    def simulate(self, tr, r):
        run = inputs.SQUEEZED_RUN
        with r.op("cli-simulate"):
            out = self._path("batch.csv")
            self._cli(tr, "simulate", ["simulate", "--config", self.runs["squeezed"][1],
                                       "--n", str(self.CSV_SHOTS), "--seed", str(self.sim_seed),
                                       "--out", out])
            est = self._read("batch.csv.estimate.json")
            labels = ["x_A", "p_A", "x_B", "p_B", "x_E", "p_E"]
            check(est["n"] == self.CSV_SHOTS and est["seed"] == self.sim_seed, "estimate n/seed")
            check(est["quadratures"] == labels, f"quadratures {est['quadratures']}")
            gamma, se = np.array(est["gamma"]), np.array(est["std_errors"])
            dev = np.abs(gamma - ref.split_state_cm(run["v_x"], run["v_p"])) / se
            check(dev.max() <= 5.0, f"estimate {dev.max():.2f} standard errors off")
            header, data = ref.read_csv(out)
            r.add("sampling.csv_bytes", os.path.getsize(out))
            check(header[:6] == labels and len(header) == 8
                  and all(h.startswith("xbar_") for h in header[6:]), f"CSV header {header}")
            check(data.shape == (self.CSV_SHOTS, 8), f"CSV shape {data.shape}")
            back = ref.cm_estimate(data[:, :6])
            check(np.abs(back - gamma).max() <= 1e-6 * np.abs(gamma).max(),
                  "CSV read-back estimate differs from the estimate JSON")

    def demodulation_cross_check(self, tr, r, demod):
        with r.op("demodulation-cross-check"):
            check(demod is not None, "no demodulation gain")
            g = demod.g
            batch = tr.call("sampling.sample", gc.sample, self.squeezed, self.CHECK_SHOTS,
                            self.sample_seed)
            half = np.sqrt(0.5)
            demodulated = tr.call("sampling.electronic_demodulation", gc.electronic_demodulation,
                                  batch, g, half, half)
            est = tr.call("sampling.estimate_cm", gc.estimate_cm, demodulated)
            sampled = ref.duan_value(est.cm.entries[:4, :4], g, demod.signs[0])
            tol = 5 * (2.0 / np.sqrt(batch.n)) * demod.value
            check(sampled < 1.0, f"sampled Duan value {sampled!r} >= 1")
            check(abs(sampled - demod.value) <= tol,
                  f"sampled Duan {sampled!r} vs CM level {demod.value!r} (tol {tol:.2e})")


WORKLOADS = {"oracle_audit": OracleAudit, "geof_flow": GeofFlow,
             "measured_pipeline": MeasuredPipeline}
