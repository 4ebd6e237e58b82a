"""Command-line front end.

Subcommands: `run` executes a full experiment, or with --dry-run only prints
its plan; `bounds` prints error/cost tables, `certify` runs the classical
integrator certificates, and `compare` prints the quantum-vs-classical
resource comparison.  The model and run flags mirror config fields; a JSON
config file can supply any of them, with explicit flags taking precedence.
ELASTOQ_THREADS caps the number of parallel step-size jobs in `run`.

Each of those jobs also runs OpenBLAS threads.  numpy and scipy load separate
OpenBLAS builds and the Trotter step alternates between them, so with more
than one BLAS thread the two thread pools contend and a step runs several
times slower.  Set OPENBLAS_NUM_THREADS=1 and take parallelism from
ELASTOQ_THREADS instead.  The worker count does not change the output bytes,
nor does running at one or two OpenBLAS threads.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from collections.abc import Iterable

from .classical import (
    cost_model,
    global_error_certificate,
    local_error_certificate,
    make_leapfrog_config,
    power_bound_certificate,
)
from .experiments import INITS, ExperimentConfig, plan_experiment, run_experiment
from .hamiltonian import BOUNDS, SWEEPS, HamiltonianModel, build_model, steps_and_cost
from .media import MaterialParams

FULL_SCALE = {"n": 5, "T": 30.0, "taus": (0.1, 0.2, 0.5, 1.0)}


def _add_model_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n", type=int, default=None, help="qubits per spatial axis")
    parser.add_argument("--h", type=float, default=None, help="grid spacing")
    parser.add_argument("--rho", type=float, default=None, help="mass density")
    parser.add_argument("--E", type=float, default=None, help="Young's modulus")
    parser.add_argument("--nu", type=float, default=None, help="Poisson ratio")
    parser.add_argument("--T", type=float, default=None, help="total simulation time")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="elastoq")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a fidelity/field experiment")
    _add_model_flags(run)
    run.add_argument("--tau", type=float, action="append", default=None,
                     help="Trotter step size (repeatable)")
    run.add_argument("--init", choices=INITS, default=None)
    run.add_argument("--scheme", choices=SWEEPS, default=None)
    run.add_argument("--out", default=None, help="output directory")
    run.add_argument("--clip", type=float, default=None,
                     help="clip fraction for exported field values")
    run.add_argument("--dry-run", action="store_true",
                     help="print the plan and gate accounts, produce no output")
    run.add_argument("--config", default=None, help="JSON config file")
    run.add_argument("--full-scale", action="store_true",
                     help="n=5, T=30 full-scale run (19 qubits)")

    bounds = sub.add_parser("bounds", help="print error bound and gate cost tables")
    _add_model_flags(bounds)
    bounds.add_argument("--eps", type=float, default=0.1, help="target accuracy")
    bounds.add_argument("--scheme", choices=[*BOUNDS, "all"], default="all",
                        help="the row of hamiltonian.BOUNDS to price, or all of them")

    certify = sub.add_parser("certify", help="classical integrator certificates")
    _add_model_flags(certify)
    certify.add_argument("--tau", type=float, default=0.1, help="leapfrog step size")
    certify.add_argument("--eta", type=float, default=1.0, help="stability margin")
    certify.add_argument("--steps", type=int, default=1000,
                         help="steps for the power-bound probe evolution")

    compare = sub.add_parser("compare", help="quantum vs classical resource report")
    _add_model_flags(compare)
    compare.add_argument("--eps", type=float, default=0.1, help="target accuracy")

    return parser


_RUN_DEFAULTS = ExperimentConfig(n=2)

#: Config fields a JSON file or a flag may set, and the flags whose name differs.
_CONFIG_FIELDS = tuple(f.name for f in dataclasses.fields(ExperimentConfig))
_FLAG_NAMES = {"taus": "tau", "out_dir": "out"}

_MODEL_FIELDS = ("n", "h", "rho", "E", "nu", "T")


def _given_flags(args: argparse.Namespace, names: tuple[str, ...]) -> dict:
    """Config fields set explicitly on the command line."""
    values = {name: getattr(args, _FLAG_NAMES.get(name, name)) for name in names}
    return {name: value for name, value in values.items() if value is not None}


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object's members, refusing a key given twice (json keeps the last)."""
    keys = [key for key, _ in pairs]
    repeated = sorted({key for key in keys if keys.count(key) > 1})
    if repeated:
        raise ValueError(f"repeated keys {repeated}")
    return dict(pairs)


def _merged_run_config(args: argparse.Namespace) -> ExperimentConfig:
    values = {}
    if args.config:
        try:
            with open(args.config) as fh:
                loaded = json.load(fh, object_pairs_hook=_unique_keys)
        except (OSError, ValueError) as exc:  # a JSONDecodeError is a ValueError
            raise ValueError(f"config file {args.config}: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ValueError(f"config must be a JSON object of field values, "
                             f"got a {type(loaded).__name__}")
        unknown = set(loaded) - set(_CONFIG_FIELDS)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        values.update(loaded)
    if args.full_scale:
        values.update(FULL_SCALE)
        print("warning: full-scale run (19 qubits, T=30); expect a long wall time",
              file=sys.stderr)
    values.update(_given_flags(args, _CONFIG_FIELDS))
    if isinstance(values.get("taus"), list):  # JSON and repeated --tau give lists
        values["taus"] = tuple(values["taus"])
    return dataclasses.replace(_RUN_DEFAULTS, **values)


def _model_from_args(args: argparse.Namespace) -> tuple[HamiltonianModel, float]:
    """Model and horizon of bounds/certify/compare; no run config, so any n and T go."""
    values = dataclasses.asdict(_RUN_DEFAULTS) | _given_flags(args, _MODEL_FIELDS)
    params = MaterialParams(rho=values["rho"], E=values["E"], nu=values["nu"])
    return build_model(values["n"], values["h"], params), values["T"]


def _cmd_run(args: argparse.Namespace) -> int:
    (plan_experiment if args.dry_run else run_experiment)(_merged_run_config(args))
    return 0


def _budget_blocks(model: HamiltonianModel, t: float, eps: float,
                   bounds: Iterable[str]) -> list[str]:
    """One cost record per bound, all built before the caller prints any."""
    return [steps_and_cost(model, t, eps, bound).to_text() for bound in bounds]


def _cmd_bounds(args: argparse.Namespace) -> int:
    model, t = _model_from_args(args)
    bounds = BOUNDS if args.scheme == "all" else (args.scheme,)
    print("\n\n".join(_budget_blocks(model, t, args.eps, bounds)))
    return 0


def _cmd_certify(args: argparse.Namespace) -> int:
    model, t = _model_from_args(args)
    config = make_leapfrog_config(model, tau=args.tau, eta=args.eta, T=t)
    # the spectral certificates walk nothing, so a bad horizon is refused before the probes walk
    spectral = []
    if config.tau * config.l_norm <= 1.0:
        spectral = [local_error_certificate(config), global_error_certificate(config)]
    else:
        print(f"warning: skipped certificates local-error and global-error, which need "
              f"tau*||L|| <= 1, got {config.tau * config.l_norm:.6g}", file=sys.stderr)
    reports = [power_bound_certificate(config, m_max=args.steps)] + spectral
    print("\n\n".join(rep.to_text() for rep in reports))
    return 0 if all(rep.passed for rep in reports) else 1


def _cmd_compare(args: argparse.Namespace) -> int:
    model, t = _model_from_args(args)
    blocks = ["# Resource comparison on the same semidiscrete system.\n"
              "# Excludes spatial discretization error, source terms, state\n"
              "# preparation, readout, and fault-tolerance overhead.",
              cost_model(model, t, args.eps).to_text()]
    blocks += _budget_blocks(model, t, args.eps, BOUNDS)
    print("\n\n".join(blocks))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {"run": _cmd_run, "bounds": _cmd_bounds,
                "certify": _cmd_certify, "compare": _cmd_compare}
    try:
        return handlers[args.command](args)
    except Exception as exc:  # structured error record, nonzero exit
        record = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(record), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
