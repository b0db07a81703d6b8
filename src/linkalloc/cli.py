"""Command-line interface.

Subcommands:
  run           iterate the pairing+allocation loop on a scenario
  sweep         Monte Carlo over SNR/MCS grids
  validate-dcf  compare the contention model against the slot simulation
  oracle        compare the two-stage pipeline against the exact joint optimum
  check-tu      verify total unimodularity of assignment constraint matrices

Exit codes: 0 success, 1 invalid configuration or input, 2 solver or
feasibility failure (including a failed validation threshold).
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import __version__
from .errors import (
    InfeasibleError,
    InvalidInputError,
    SizeLimitError,
    SolverError,
    ValidationError,
)
from .harness import (
    emit_results,
    emit_sweep_stats,
    run_apc_loop,
    run_monte_carlo,
    write_table,
)
from .repro import (
    build_incidence,
    check_total_unimodularity,
    compare_joint_vs_two_stage,
    validate_dcf,
)
from .scenario import bundled_scenario_path, list_bundled_scenarios, load_scenario


def _resolve_scenario(token: str):
    path = Path(token)
    if path.exists():
        return load_scenario(path)
    if "/" not in token and not token.endswith(".yaml"):
        return load_scenario(bundled_scenario_path(token))
    raise ValidationError(f"scenario file not found: {token}")


def _comma_list(convert):
    def parse(text: str) -> list:
        try:
            return [convert(tok) for tok in text.split(",") if tok.strip() != ""]
        except ValueError as exc:
            what = "integers" if convert is int else "numbers"
            raise argparse.ArgumentTypeError(f"expected comma-separated {what}: {text!r}") from exc
    return parse


class _Parser(argparse.ArgumentParser):
    """argparse whose usage errors exit 1, the configuration-error code (not 2).

    Subparsers are built from the root parser's class, so they inherit it.
    """

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_output_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", metavar="PATH", default=None,
                   help="write results to a file instead of stdout")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="linkalloc",
        description="Multi-link AP-STA pairing and channel allocation toolkit.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="iterate the allocation loop on one scenario")
    run.add_argument("--scenario", required=True,
                     help="scenario YAML path, or a bundled name "
                          f"({', '.join(list_bundled_scenarios())})")
    run.add_argument("--solver", choices=("optimal", "greedy"), default="optimal")
    run.add_argument("--allocator", choices=("pf", "rr", "slo"), default="pf",
                     help="'slo' runs the single-link baseline (optimal solver only)")
    run.add_argument("--iterations", type=int, default=30)
    run.add_argument("--seed", type=int, default=None,
                     help="override the scenario RNG seed")
    run.add_argument("--snr-base", type=float, default=None, metavar="DB")
    run.add_argument("--mcs", type=int, default=None,
                     help="force a single MCS on every channel")
    run.add_argument("--timing", action="store_true",
                     help="record real wall times (breaks byte-for-byte determinism)")
    _add_output_args(run)

    sweep = sub.add_parser("sweep", help="Monte Carlo over an SNR x MCS grid")
    sweep.add_argument("--scenario", required=True)
    sweep.add_argument("--snr", type=_comma_list(float), default=None, metavar="DB,DB,...")
    sweep.add_argument("--mcs", type=_comma_list(int), default=None, metavar="I,I,...")
    sweep.add_argument("--rounds", type=int, default=None)
    sweep.add_argument("--iterations", type=int, default=30)
    sweep.add_argument("--solver", choices=("optimal", "greedy"), default="optimal")
    sweep.add_argument("--allocator", choices=("pf", "rr"), default="pf")
    sweep.add_argument("--workers", type=int, default=1)
    _add_output_args(sweep)

    vdcf = sub.add_parser("validate-dcf",
                          help="slot-simulate contention and compare to the model")
    vdcf.add_argument("--contenders", type=_comma_list(int), default=[2, 5, 10, 20])
    vdcf.add_argument("--per", type=_comma_list(float), default=[0.0, 0.1, 0.3])
    vdcf.add_argument("--slots", type=int, default=200_000)
    vdcf.add_argument("--seed", type=int, default=1)
    vdcf.add_argument("--mcs", type=int, default=6)
    vdcf.add_argument("--bandwidth", type=int, default=40, choices=(20, 40, 80, 160))
    vdcf.add_argument("--tolerance", type=float, default=None,
                      help="fail (exit 2) if any relative error exceeds this")
    _add_output_args(vdcf)

    oracle = sub.add_parser("oracle",
                            help="exact joint optimum vs two-stage, small instances")
    oracle.add_argument("--scenario", default="scenario_2ap_joint")
    oracle.add_argument("--stas", type=_comma_list(int), default=None, metavar="M,M,...",
                        help="station-count prefixes to evaluate")
    oracle.add_argument("--seed", type=int, default=None)
    oracle.add_argument("--timing", action="store_true",
                        help="report measured wall times (non-deterministic)")
    _add_output_args(oracle)

    tu = sub.add_parser("check-tu",
                        help="determinant check of assignment incidence matrices")
    tu.add_argument("--aps", type=int, default=6)
    tu.add_argument("--stas", type=int, default=6)
    tu.add_argument("--submatrix", type=int, default=5,
                    help="largest square submatrix order to enumerate")
    _add_output_args(tu)

    return parser


def _cmd_run(args) -> int:
    scenario = _resolve_scenario(args.scenario)
    result = run_apc_loop(scenario, solver=args.solver, allocator=args.allocator,
                          iterations=args.iterations, snr_base_db=args.snr_base,
                          mcs_override=args.mcs, rng_seed=args.seed, timing=args.timing)
    emit_results(result.reports, fmt=args.format, out=args.out or sys.stdout)
    return 0


def _cmd_sweep(args) -> int:
    scenario = _resolve_scenario(args.scenario)
    stats = run_monte_carlo(scenario, snr_points=args.snr, mcs_points=args.mcs,
                            rounds=args.rounds, solver=args.solver,
                            allocator=args.allocator, iterations=args.iterations,
                            workers=args.workers)
    emit_sweep_stats(stats, fmt=args.format, out=args.out or sys.stdout)
    return 0


def _cmd_validate_dcf(args) -> int:
    if args.tolerance is not None and not args.tolerance >= 0:     # NaN compares false
        raise ValidationError(f"--tolerance must be a number >= 0, got {args.tolerance}")
    records = validate_dcf(contenders=args.contenders, pers=args.per, mcs_index=args.mcs,
                           bandwidth_mhz=args.bandwidth, n_slots=args.slots, seed=args.seed)
    write_table(records, "validate_dcf", args.format, args.out or sys.stdout)
    if args.tolerance is not None:
        worst = max(r["rel_err"] for r in records)
        if worst > args.tolerance:
            print(f"validate-dcf: worst relative error {worst:.4f} exceeds "
                  f"tolerance {args.tolerance}", file=sys.stderr)
            return 2
    return 0


def _cmd_oracle(args) -> int:
    scenario = _resolve_scenario(args.scenario)
    counts = args.stas if args.stas is not None else [scenario.m_stas]
    records = []
    for m in counts:
        rec = compare_joint_vs_two_stage(scenario, m_stas=m, rng_seed=args.seed)
        if not args.timing:
            rec = dict(rec, two_stage_wall_s=0.0, joint_wall_s=0.0)
        records.append(rec)
    write_table(records, "oracle", args.format, args.out or sys.stdout)
    return 0


def _cmd_check_tu(args) -> int:
    records = []
    worst_ok = True
    for n in range(1, args.aps + 1):
        for m in range(1, args.stas + 1):
            res = check_total_unimodularity(build_incidence(n, m), max_submatrix=args.submatrix)
            records.append({"n_aps": n, "m_stas": m, "is_tu": res.is_tu})
            worst_ok = worst_ok and res.is_tu
    write_table(records, "check_tu", args.format, args.out or sys.stdout)
    return 0 if worst_ok else 2


_COMMANDS = {
    "run": _cmd_run,
    "sweep": _cmd_sweep,
    "validate-dcf": _cmd_validate_dcf,
    "oracle": _cmd_oracle,
    "check-tu": _cmd_check_tu,
}


def _check_writable(path: str) -> None:
    """Raise `ValidationError` now, before any work, if `path` cannot be
    written. An existing file keeps its bytes; a new one is not left behind."""
    existed = os.path.lexists(path)
    try:
        with open(path, "a"):
            pass
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc.strerror}") from exc
    if not existed:
        os.remove(path)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.out is not None:
            _check_writable(args.out)
        return _COMMANDS[args.command](args)
    except (ValidationError, InvalidInputError) as exc:
        print(f"linkalloc: {exc}", file=sys.stderr)
        return 1
    except (SolverError, InfeasibleError, SizeLimitError) as exc:
        print(f"linkalloc: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
