"""Command-line entry point.

Subcommands: simulate, sweep, fit, excite.  Exit codes: 0 success,
1 validation error (bad config/arguments/trace), 2 numerical failure.
"""

import argparse
import sys

from .atom import excite as run_excite
from .config import _SCHEMA, load_config
from .errors import FitError, ValidationError
from .pipeline import fit_trace, run_chain, sweep
from .waveform import read_trace


class _Parser(argparse.ArgumentParser):
    # argparse uses exit code 2 for usage errors; those are validation errors here
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser():
    p = _Parser(prog="pulsechain",
                description="Simulate the exponentially rising optical pulse "
                            "preparation chain and analyze its traces.")
    sub = p.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", parents=[], help="run the full chain",
                         description="Run the full chain from a config file.")
    sim.add_argument("config")
    sim.add_argument("--outdir", default=None,
                     help="directory for trace CSVs and reports "
                          "(default: <config stem>_out)")

    sw = sub.add_parser("sweep", help="run the chain over a parameter sweep")
    sw.add_argument("config")
    sw.add_argument("--param", required=True,
                    help="parameter path, e.g. circuit.v_in_v")
    sw.add_argument("--values", required=True,
                    help="comma-separated values")
    sw.add_argument("--outdir", default=None)

    ft = sub.add_parser("fit", help="fit an exponential to a trace CSV")
    ft.add_argument("trace")
    ft.add_argument("--window", required=True, help="t_a,t_b in seconds")
    ft.add_argument("--direction", required=True,
                    choices=["rising", "falling"])

    ex = sub.add_parser("excite", help="excitation probability of a pulse")
    ex.add_argument("config")
    ex.add_argument("--pulse", default=None,
                    help="trace CSV to use as the pulse mode (default: "
                         "the chain's filtered output)")
    return p


def _parse_values(raw):
    # values stay strings: the config layer parses them per-key (int keys
    # would reject a blanket float conversion)
    values = [v.strip() for v in raw.split(",") if v.strip()]
    if not values:
        raise ValidationError("--values: no values given")
    return values


def _cmd_simulate(args):
    cfg = load_config(args.config)
    outdir = args.outdir
    if outdir is None:
        stem = args.config.rsplit("/", 1)[-1]
        stem = stem[:-4] if stem.endswith(".ini") else stem
        outdir = f"{stem}_out"
    report = run_chain(cfg, outdir)
    sys.stdout.write(report.to_text())
    print(f"traces and reports written to {outdir}/")


def _cmd_sweep(args):
    cfg = load_config(args.config)
    section, _, key = args.param.partition(".")
    if (key, "rej") in [item[:2] for item in _SCHEMA.get(section, ())]:
        raise ValidationError(f"--values: {args.param} takes a list, which "
                              "a comma-separated sweep cannot set")
    values = _parse_values(args.values)
    reports = sweep(cfg, args.param, values, args.outdir)
    for v, rep in zip(values, reports):
        env = rep.data["envelope"]
        fit = env.get("fit") or {}
        fitted = fit.get("tau_s")
        print(f"{args.param} = {v}: tau_design = {env['tau_design_s']:.4g} s,"
              f" fitted tau = "
              f"{format(fitted, '.4g') if fitted else 'n/a'} s")
    if args.outdir:
        print(f"sweep outputs written to {args.outdir}/")


def _cmd_fit(args):
    parts = args.window.split(",")
    if len(parts) != 2:
        raise ValidationError("--window must be 't_a,t_b' in seconds")
    try:
        window = (float(parts[0]), float(parts[1]))
    except ValueError as exc:
        raise ValidationError(f"--window: {exc}") from None
    result = fit_trace(args.trace, window, args.direction)
    print(f"tau = {result.tau:.6g} s")
    print(f"amplitude = {result.amplitude:.6g}")
    print(f"offset = {result.offset:.6g}")
    print(f"residual_norm = {result.residual_norm:.3g}")


def _cmd_excite(args):
    cfg = load_config(args.config)
    if args.pulse is not None:
        pulse = read_trace(args.pulse, unit="sqrtW")
        result = run_excite(pulse, cfg.atom)
        print(f"p_max = {result.p_max:.6g}")
        print(f"t_at_max = {result.t_at_max:.6g} s")
        return
    if not cfg.run_excitation:
        raise ValidationError(
            "config disables [atom] run_excitation and no --pulse given")
    atom_block = run_chain(cfg, None).data["atom"]
    print(f"p_max = {atom_block['p_max']:.6g}")
    print(f"t_at_max = {atom_block['t_at_max_s']:.6g} s")
    print(f"efficiency_vs_matched = {atom_block['efficiency_vs_matched']:.6g}")


def main(argv=None):
    args = _build_parser().parse_args(argv)
    handlers = {"simulate": _cmd_simulate, "sweep": _cmd_sweep,
                "fit": _cmd_fit, "excite": _cmd_excite}
    try:
        handlers[args.command](args)
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (FitError, ValueError) as exc:
        # a ValueError that is not a ValidationError is a numerical one,
        # e.g. a non-finite value refused by the strict-JSON report
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
