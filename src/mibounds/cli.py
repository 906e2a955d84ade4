"""Command-line front end: bounds, figures, invariant checks, optimization.

Subcommands
    bound     evaluate an information upper bound for a channel or a model
              file, emitting a JSON report
    figure    write a named dataset (CSV, optionally SVG)
    check     run an invariant suite and report pass/fail lines
    optimize  minimize the covariant-posterior entropy over input states
    two-seed  run the seeded two-measurement comparison trials

Exit codes: 0 success, 1 failed checks, 2 bad input (arguments,
unreadable or unwritable files), 3 numerical divergence. Every option is
declared once, in COMMANDS, which yields argparse, defaults, minimums and
figure keywords; its flag is the only way to set it. CSV outputs carry
`#` metadata lines (command, seed, version) and are byte-identical across
reruns with the same seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from collections import namedtuple
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from ._lazy import np
from .bounds import (
    BoundReport,
    EstimationModel,
    PriorDensity,
    fisher_bound,
    fisher_bound_from_model,
    fourier_bound_from_overlap,
)
from .channels import (
    CHANNEL_KINDS,
    NoisyQpeModel,
    chi_closed_form,
    dephasing_qfi,
)
from .checks import SUITES, run_suite
from .errors import ValidationError
from .figures import FIGURES
from .numerics import PeriodicGridFunction, fisher_sigma2
from .protocols import (
    EntangledState,
    check_two_seed_grid,
    fourier_bound_ceiling,
    optimize_en_state,
    posterior_entropy,
    random_seed_pair,
    two_seed_experiment,
)
from .svgplot import render_line_plot


def _format_cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        return repr(float(v))
    return str(v)


def _write_csv(path: Path, command: str, seed, columns, rows):
    lines = [
        f"# command: {command}",
        f"# seed: {'none' if seed is None else seed}",
        f"# version: {__version__}",
        ",".join(columns),
    ]
    lines.extend(",".join(_format_cell(v) for v in row) for row in rows)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def _read_text(path) -> str:
    """An input file's text; one that is not UTF-8 is bad input."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError:
        raise ValidationError(f"{path}: not UTF-8 text") from None


def _emit(payload, command, seed, out):
    """Write the JSON report to the file out, or print it."""
    report = dict(payload)
    report["command"] = command
    report["timestamp"] = datetime.now(timezone.utc).isoformat()
    report["seed"] = seed
    text = json.dumps(report, indent=2, sort_keys=True)
    if out:
        Path(out).write_text(text + "\n", encoding="utf-8", newline="\n")
    else:
        print(text)


def _read_table(path):
    """Numeric CSV (optional header, `#` comments) -> columns."""
    lines = [raw.strip() for raw in _read_text(path).splitlines()]
    lines = [line for line in lines if line and not line.startswith("#")]
    rows = []
    for i, line in enumerate(lines):
        try:
            rows.append([float(c) for c in line.split(",")])
        except ValueError:
            if i > 0:  # only the first line may be a header
                raise ValidationError(f"{path}: non-numeric row {line!r}")
    if not rows:
        raise ValidationError(f"{path}: no data rows")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise ValidationError(f"{path}: ragged rows")
    return np.asarray(rows, dtype=float)


def _uniform_grid_period(phis, path):
    # inf or NaN from an overflow stays quiet; the period check refuses a
    # period that is not finite, and `not <=` refuses a NaN phi on a finite one
    with np.errstate(over="ignore", invalid="ignore"):
        step = phis[1] - phis[0] if phis.size > 1 else 0.0
        period = step * phis.size
        off_grid = np.max(np.abs(phis - phis[0] - step * np.arange(phis.size)))
    if step <= 0.0:
        raise ValidationError(f"{path}: phi column must be increasing")
    if np.isfinite(period) and not off_grid <= 1e-9 * period:
        raise ValidationError(f"{path}: phi values must form a uniform grid")
    if abs(phis[0]) > 1e-12 * period:
        raise ValidationError(f"{path}: phi grid must start at 0")
    return period


def cmd_bound(args, command):
    sources = [name for name in ("channel", "model", "overlap")
               if getattr(args, name)]
    if len(sources) != 1:
        raise ValidationError("pass exactly one of --channel/--model/--overlap")
    if not args.channel:
        # a file takes neither channel parameter, and its kind sets the
        # method (default fourier): a contradiction fails before the read
        for name in ("M", "eta"):
            if name in args.flags:
                raise ValidationError(f"--{sources[0]} takes no {_flag(name)}")
        if args.overlap and args.method != "fourier":
            raise ValidationError("an overlap file implies --method fourier")
        if args.model and "method" in args.flags and args.method != "fisher":
            raise ValidationError("a conditional model implies --method fisher")

    if args.channel:
        if args.M is None or args.eta is None:
            raise ValidationError("--channel needs --M and --eta")
        model = NoisyQpeModel(args.channel, args.M, args.eta)
        if args.method == "fourier":
            # the spectrum is a product of per-qubit binaries on k = 0..2^M - 1,
            # so its entropy is a sum of binary entropies; no grid is needed
            report = BoundReport(
                method="fourier", bound_bits=chi_closed_form(model),
                prior_entropy_bits=0.0, tail_mass_bound=0.0,
            )
        else:
            # a constant Fisher information; the uniform prior adds nothing
            report = fisher_bound(fisher_sigma2(dephasing_qfi(model)))
    elif args.overlap:
        data = _read_table(args.overlap)
        if not 2 <= data.shape[1] <= 3:
            raise ValidationError("overlap file needs phi and re[,im] columns")
        period = _uniform_grid_period(data[:, 0], args.overlap)
        vals = data[:, 1] + (1j * data[:, 2] if data.shape[1] > 2 else 0.0)
        f = PeriodicGridFunction(period, vals.astype(complex))
        report = fourier_bound_from_overlap(f)
    else:
        data = _read_table(args.model)
        if data.shape[1] < 2:
            raise ValidationError("model file needs phi plus outcome columns")
        period = _uniform_grid_period(data[:, 0], args.model)
        prior = PriorDensity.uniform(period, data.shape[0])
        report = fisher_bound_from_model(EstimationModel(prior, data[:, 1:]))

    # bound draws no random numbers; the report keeps its seed field
    _emit(report.to_json_dict(), command, None, args.out)
    return 3 if "divergent" in report.flags else 0


def cmd_figure(args, command):
    # each builder takes the options named like its parameters; --seed,
    # --out-dir and --svg are common to every figure; any other flag the
    # builder does not take is an error
    import inspect  # only here: lean commands start without it

    takes = inspect.signature(FIGURES[args.name]).parameters
    for name in args.flags:
        if name not in takes and name not in ("seed", "out_dir", "svg"):
            raise ValidationError(f"figure {args.name} takes no {_flag(name)}")
    kwargs = {name: getattr(args, name) for name in args.flags if name in takes}
    # the CSVs record the seed the builder ran with, its default included
    seed = args.seed
    if seed is None and "seed" in takes:
        seed = takes["seed"].default
    out_dir = Path(args.out_dir)
    # a directory under a file fails before the figure is built; missing
    # parents are made only after the builder has accepted its inputs
    existing = next(path for path in (out_dir, *out_dir.parents) if path.exists())
    if not existing.is_dir():
        raise ValidationError(f"--out-dir {out_dir}: {existing} is not a directory")
    datasets = FIGURES[args.name](**kwargs)
    out_dir.mkdir(parents=True, exist_ok=True)
    for data in datasets:
        csv_path = out_dir / f"{data.name}.csv"
        _write_csv(csv_path, command, seed, data.columns, data.rows)
        print(csv_path)
        if args.svg:
            svg_path = out_dir / f"{data.name}.svg"
            svg_path.write_text(
                render_line_plot(
                    data.series, title=data.title, x_label=data.x_label,
                    y_label=data.y_label, log_x=data.log_x,
                ),
                encoding="utf-8", newline="\n",
            )
            print(svg_path)
    return 0


def cmd_check(args, command):
    rows = run_suite(args.suite, seed=args.seed, trials=args.trials)
    for r in rows:
        print(f"{'PASS' if r.passed else 'FAIL'}  {r.suite}.{r.name}  {r.detail}")
    n_fail = sum(not r.passed for r in rows)
    print(f"{len(rows) - n_fail}/{len(rows)} checks passed")
    if args.out:
        _write_csv(
            Path(args.out), command, args.seed,
            ("suite", "name", "passed", "detail"),
            [(r.suite, r.name, r.passed, r.detail.replace(",", ";"))
             for r in rows],
        )
    return 1 if n_fail else 0


def cmd_optimize(args, command):
    if args.N is None:
        raise ValidationError("--N is required")
    state, entropy_bits, mi_bits, trace = optimize_en_state(
        args.N, restarts=args.restarts, seed=args.seed, n_grid=args.grid
    )
    payload = {
        "n_calls": args.N,
        "entropy_bits": entropy_bits,
        "mi_bits": mi_bits,
        "ceiling_bits": fourier_bound_ceiling(state),
        "uniform_entropy_bits": posterior_entropy(
            EntangledState.uniform(args.N), args.grid
        ),
        "trace": list(trace),
        "coefficients": [float(c) for c in state.coefficients],
    }
    _emit(payload, command, args.seed, args.out)
    return 0


def cmd_two_seed(args, command):
    if args.n_min > args.n_max:
        raise ValidationError("need n-min <= n-max")
    # checked before the first draw, so no seed decides the exit code
    check_two_seed_grid(args.n_max, args.grid)
    rng = np.random.default_rng(args.seed)
    trials = []
    for _ in range(args.trials):
        n_calls = int(rng.integers(args.n_min, args.n_max + 1))
        res = two_seed_experiment(random_seed_pair(n_calls, rng), args.grid)
        trials.append({"n_calls": n_calls, **res._asdict()})
    summary = {
        "n_trials": args.trials,
        "always_violations": sum(not t["always_ok"] for t in trials),
        "fromconv_violations": sum(not t["fromconv_ok"] for t in trials),
        "wonder_satisfied": sum(t["wonder_violated"] for t in trials),
    }
    _emit({"trials": trials, "summary": summary}, command, args.seed, args.out)
    if args.out:
        print(
            f"{args.trials} trials: {summary['always_violations']} "
            f"merged>single, {summary['fromconv_violations']} convexity "
            f"violations, {summary['wonder_satisfied']} split>single"
        )
    return 0


Param = namedtuple("Param", "name cast default minimum help",
                   defaults=(None, None, None))
KINDS = tuple(sorted(CHANNEL_KINDS))

# subcommand -> (handler, help, positional argument, option table). Each
# option row declares its --flag (underscores become dashes), type (a
# tuple: its choices; bool: a bare flag), default, minimum and help;
# figure passes it to the builder parameter of the same name.
COMMANDS = {
    "bound": (cmd_bound, "evaluate a single bound, report JSON", None, (
        Param("channel", KINDS),
        Param("M", int, None, 1, "qubit count of the channel model"),
        Param("eta", float, help="noise parameter in [0, 1]"),
        Param("method", ("fourier", "fisher"), "fourier"),
        Param("model", str, help="CSV of phi plus conditional outcome columns"),
        Param("overlap", str, help="CSV of phi, re[, im] overlap samples"),
        Param("out", str, help="write the JSON report here"),
    )),
    "figure": (cmd_figure, "emit a dataset as CSV (and SVG)",
               Param("name", tuple(FIGURES)), (
        Param("kind", KINDS),
        Param("M_max", int, None, 1),
        Param("eta_min", float),
        Param("eta_max", float),
        Param("n_eta", int, None, 1),
        Param("sigma_min", float),
        Param("sigma_max", float),
        Param("n_sigma", int, None, 1),
        Param("N", int, None, 0, "call budget for entropy2"),
        Param("restarts", int, None, 1),
        Param("grid", int, None, 1),
        Param("out_dir", str, "."),
        Param("svg", bool, False, help="also render an SVG line plot"),
        Param("seed", int, None, 0),
    )),
    "check": (cmd_check, "run an invariant suite",
              Param("suite", ("all", *SUITES)), (
        Param("trials", int, 100, 1, "two-seed trial count"),
        Param("seed", int, 0, 0),
        Param("out", str, help="also write the report as CSV"),
    )),
    "optimize": (cmd_optimize, "optimize the input state", None, (
        Param("N", int, None, 0, "call budget N"),
        Param("restarts", int, 8, 1),
        Param("grid", int, None, 1),
        Param("seed", int, 0, 0),
        Param("out", str, help="write the JSON report here"),
    )),
    "two-seed": (cmd_two_seed, "run seeded two-measurement trials", None, (
        Param("trials", int, 100, 1),
        Param("n_min", int, 2, 1),
        Param("n_max", int, 4, 1),
        Param("grid", int, 256, 1),
        Param("seed", int, 0, 0),
        Param("out", str, help="write the JSON trial log here"),
    )),
}


def _flag(name):
    return "--" + name.replace("_", "-")


def _argparse_type(param):
    if param.cast is bool:
        return {"action": "store_const", "const": True}
    if isinstance(param.cast, tuple):
        return {"choices": param.cast}
    return {"type": param.cast}


def _resolve(args, params):
    """Record the options given as flags in args.flags, fill the others
    from their defaults, then hold every option to its row's minimum."""
    args.flags = [param.name for param in params
                  if getattr(args, param.name) is not None]
    for param in params:
        if getattr(args, param.name) is None:
            setattr(args, param.name, param.default)
        value = getattr(args, param.name)
        if (param.minimum is not None and value is not None
                and value < param.minimum):
            raise ValidationError(
                f"{_flag(param.name)} must be at least {param.minimum}"
            )


@functools.cache
def build_parser():
    # built once per process: parse_args leaves the parser unchanged and
    # returns a fresh namespace on every call
    parser = argparse.ArgumentParser(
        prog="mibounds",
        description="Information bounds for phase-estimation strategies.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="cmd", required=True)
    for cmd, (func, help_text, positional, params) in COMMANDS.items():
        p = sub.add_parser(cmd, help=help_text)
        if positional:
            p.add_argument(positional.name, help=positional.help,
                           **_argparse_type(positional))
        for param in params:
            p.add_argument(_flag(param.name), dest=param.name,
                           help=param.help, **_argparse_type(param))
        p.set_defaults(func=func, params=params)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = build_parser().parse_args(argv)
    command = " ".join(["mibounds"] + argv)
    try:
        _resolve(args, args.params)
        out = getattr(args, "out", None)
        if out and not os.path.isdir(os.path.dirname(out) or "."):
            # an output in a missing directory fails before the work
            raise ValidationError(f"{out}: no directory {os.path.dirname(out)}")
        return args.func(args, command)
    except (ValidationError, OSError) as exc:
        # bad arguments and files that cannot be read or written
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
