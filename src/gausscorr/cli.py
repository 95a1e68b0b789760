"""Command-line front end.

Subcommands compute the headline correlation numbers and sweep curves as JSON/CSV:

    gausscorr discord  --cm state.json [--measured-mode B] [--bits] [--allow-measured]
    gausscorr sweep    --config scenario.json --out curve.csv
    gausscorr recover  --config scenario.json --mode demodulate|interfere --out report.json
    gausscorr certify  --vx 9.84 --vp 38.4
    gausscorr simulate --config scenario.json --n 100000 --seed 7 --out batch.csv

Exit codes: 0 success, 2 invalid input, 3 numerical failure.  Errors go to
stderr as one JSON object.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .core import ppt_min_eig, read_cm_file, validate_physical
from .correlations import discord
from .errors import (GausscorrError, InvalidInputError, NonPhysicalStateError,
                     NumericalError)
from .optimality import certify
from .sampling import estimate_cm, sample, write_batch_csv
from .scenarios import (ScenarioConfig, attenuation_sweep, build_split_state,
                        correlation_flow, measurement_optimality_note, run_recovery)

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NUMERICAL = 3


def _load_config(path) -> ScenarioConfig:
    if not os.path.exists(path):
        raise InvalidInputError(f"config file not found: {path}")
    with open(path) as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InvalidInputError(f"config is not valid JSON: {exc}") from None
    return ScenarioConfig.from_dict(obj)


def _check_out_path(path):
    parent = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(parent):
        raise InvalidInputError(f"output directory does not exist: {parent}")


def _emit(obj, out_path=None):
    try:
        text = json.dumps(obj, indent=1, allow_nan=False)
    except ValueError as exc:  # NaN or Infinity, which JSON has no literal for
        raise NumericalError(f"output is not finite: {exc}") from None
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def cmd_discord(args) -> int:
    if not os.path.exists(args.cm):
        raise InvalidInputError(f"CM file not found: {args.cm}")
    cm = read_cm_file(args.cm, allow_nonphysical=args.allow_measured)
    measured = {"A": 0, "B": 1}[args.measured_mode]
    rep = discord(cm, measured_mode=measured, allow_measured=args.allow_measured)
    unit = math.log(2.0) if args.bits else 1.0
    out = {
        "discord": rep.discord / unit,
        "mutual_info": rep.mutual_info / unit,
        "classical_corr": rep.classical_corr / unit,
        "branch": rep.branch,
        "inf_det_eps": rep.inf_det_eps,
        "clamped": rep.clamped,
        "measured_mode": args.measured_mode,
        "units": "bits" if args.bits else "nats",
        "ppt_min_eig": ppt_min_eig(cm),
        "min_eig_physical": validate_physical(cm),
    }
    _emit(out, args.out)
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = _load_config(args.config)
    _check_out_path(args.out)
    if cfg.kw_columns and cfg.cmr_a != 0.0:
        # E_F rests on the pure global model: J on the noisy CM against it
        # would leave a residual that is no property of the state
        raise InvalidInputError("kw_columns relies on global purity: needs cmr_a = 0")
    state = build_split_state(cfg.input_spec, cfg.bs_t)
    header = ["t", "discord", "mutual_info", "classical_corr"]
    if cfg.kw_columns:
        rows = correlation_flow(state, cfg.attenuation_grid)
        header += ["E_F_AE", "S_A", "residual"]
    else:
        rows = attenuation_sweep(state, cfg.attenuation_grid, cmr_a=cfg.cmr_a)
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            rec = [f"{row.t:.10g}", f"{row.discord:.10g}", f"{row.mutual_info:.10g}",
                   f"{row.classical_corr:.10g}"]
            if cfg.kw_columns:
                # rounding noise near 1e-15 must not rewrite the file: an absolute
                # 1e-12 grid, far below the audit's 1e-10 gate, with -0.0 made 0
                resid = round(row.residual, 12) + 0.0
                rec += [f"{row.e_f_ae:.10g}", f"{row.s_a:.10g}", f"{resid:.10g}"]
            writer.writerow(rec)
    return EXIT_OK


def cmd_recover(args) -> int:
    cfg = _load_config(args.config)
    state = build_split_state(cfg.input_spec, cfg.bs_t)
    final, rep = run_recovery(state, args.mode)
    out = {
        "mode": args.mode,
        "g": rep.g,
        "signs": list(rep.signs),
        "value": rep.value,
        "entangled": rep.entangled,
        "measurement_optimality": measurement_optimality_note(cfg.input_spec),
    }
    out.update({k: v for k, v in final.meta.items()})
    _emit(out, args.out)
    return EXIT_OK


def cmd_certify(args) -> int:
    cert = certify(args.vx, args.vp)
    _emit(cert.to_dict(), args.out)
    return EXIT_OK


def cmd_simulate(args) -> int:
    cfg = _load_config(args.config)
    _check_out_path(args.out)
    estimate_out = args.estimate_out or args.out + ".estimate.json"
    _check_out_path(estimate_out)
    state = build_split_state(cfg.input_spec, cfg.bs_t)
    batch = sample(state, args.n, args.seed)
    est = estimate_cm(batch)  # before the CSV, so that a rejected batch writes no file
    write_batch_csv(batch, args.out)
    _emit({
        "n": batch.n,
        "seed": batch.seed,
        "quadratures": list(batch.quadrature_labels),
        "gamma": est.cm.entries.tolist(),
        "std_errors": est.std_errors.tolist(),
    }, estimate_out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gausscorr",
                                     description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("discord", help="discord report for a CM file")
    p.add_argument("--cm", required=True, help="JSON CM file")
    p.add_argument("--measured-mode", choices=["A", "B"], default="B")
    p.add_argument("--bits", action="store_true", help="display entropies in bits")
    p.add_argument("--allow-measured", action="store_true",
                   help="accept slightly nonphysical reconstructed matrices")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_discord)

    p = sub.add_parser("sweep", help="discord-vs-attenuation curve as CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("recover", help="entanglement recovery Duan report")
    p.add_argument("--config", required=True)
    p.add_argument("--mode", choices=["demodulate", "interfere"], required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_recover)

    p = sub.add_parser("certify", help="Gaussian-measurement optimality certificate")
    p.add_argument("--vx", type=float, required=True)
    p.add_argument("--vp", type=float, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("simulate", help="draw quadrature samples and estimate the CM")
    p.add_argument("--config", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="batch CSV path")
    p.add_argument("--estimate-out", default=None,
                   help="CM estimate JSON path (default: <out>.estimate.json)")
    p.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # a float overflow surfaces once, as the package's NumericalError on
        # stderr, not also as numpy's RuntimeWarning printed before it
        with np.errstate(over="ignore"):
            return args.func(args)
    except (InvalidInputError, NonPhysicalStateError) as exc:
        _print_error(exc)
        return EXIT_INVALID
    except NumericalError as exc:
        _print_error(exc)
        return EXIT_NUMERICAL
    except GausscorrError as exc:  # future error kinds default to invalid input
        _print_error(exc)
        return EXIT_INVALID


def _print_error(exc):
    sys.stderr.write(json.dumps({"error": type(exc).__name__, "message": str(exc)}) + "\n")


if __name__ == "__main__":
    sys.exit(main())
