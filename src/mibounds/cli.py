"""Command-line front end: bounds, figures, invariant checks, optimization.

Subcommands
    bound     evaluate an information upper bound for a channel or a model
              file, emitting a JSON report
    figure    write a named dataset (CSV, optionally SVG)
    check     run an invariant suite and report pass/fail lines
    optimize  minimize the covariant-posterior entropy over input states
    two-seed  run the seeded two-measurement comparison trials

Exit codes: 0 success, 1 failed checks, 2 validation error, 3 numerical
divergence. Parameters may come from an INI-style flat key=value config
file; explicit flags win. CSV outputs carry `#` metadata lines (command,
seed, version) and are byte-identical across reruns with the same seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .bounds import (
    BoundReport,
    EstimationModel,
    PriorDensity,
    fisher_bound,
    fourier_bound_from_overlap,
)
from .channels import (
    CHANNEL_KINDS,
    NoisyQpeModel,
    chi_closed_form,
    dephasing_qfi,
)
from .checks import run_suite
from .errors import ValidationError
from .figures import FIGURES, entropy2_datasets
from .numerics import PeriodicGridFunction, _check_alias_window, check_periodic_grid
from .protocols import (
    EntangledState,
    fourier_bound_ceiling,
    optimize_en_state,
    posterior_entropy,
    random_seed_pair,
    two_seed_experiment,
)
from .svgplot import render_line_plot


def _parse_bool(text) -> bool:
    lowered = str(text).strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValidationError(f"expected a boolean, got {text!r}")


def _format_cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
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


def _load_config(path) -> dict:
    """Flat key=value file; `#` comments and blank lines are skipped."""
    values = {}
    for lineno, raw in enumerate(
        Path(path).read_text(encoding="utf-8").splitlines(), start=1
    ):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(f"{path}:{lineno}: expected key=value")
        key, val = line.split("=", 1)
        values[key.strip().replace("-", "_")] = val.strip()
    return values


def _merge_config(args, parser_keys):
    """Fill argparse gaps from --config; unknown config keys are rejected."""
    if not getattr(args, "config", None):
        return
    values = _load_config(args.config)
    unknown = sorted(set(values) - set(parser_keys))
    if unknown:
        raise ValidationError(f"unknown config keys: {', '.join(unknown)}")
    for key, (cast, _default) in parser_keys.items():
        if key in values and getattr(args, key, None) is None:
            setattr(args, key, cast(values[key]))

def _apply_defaults(args, parser_keys):
    for key, (_cast, default) in parser_keys.items():
        if getattr(args, key, None) is None:
            setattr(args, key, default)


def _json_report(report_dict, command, seed) -> str:
    out = dict(report_dict)
    out["command"] = command
    out["timestamp"] = datetime.now(timezone.utc).isoformat()
    out["seed"] = seed
    return json.dumps(out, indent=2, sort_keys=True)


def _read_table(path):
    """Numeric CSV (optional header, `#` comments) -> (names, columns)."""
    names = None
    rows = []
    for raw in Path(path).read_text(encoding="utf-8").splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        cells = [c.strip() for c in line.split(",")]
        try:
            rows.append([float(c) for c in cells])
        except ValueError:
            if names is None and not rows:
                names = cells
            else:
                raise ValidationError(f"{path}: non-numeric row {line!r}")
    if not rows:
        raise ValidationError(f"{path}: no data rows")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise ValidationError(f"{path}: ragged rows")
    data = np.asarray(rows, dtype=float)
    return names, data


def _uniform_grid_period(phis, path):
    step = phis[1] - phis[0] if phis.size > 1 else 0.0
    if step <= 0.0:
        raise ValidationError(f"{path}: phi column must be increasing")
    period = step * phis.size
    if np.max(np.abs(phis - phis[0] - step * np.arange(phis.size))) > 1e-9 * period:
        raise ValidationError(f"{path}: phi values must form a uniform grid")
    if abs(phis[0]) > 1e-12 * period:
        raise ValidationError(f"{path}: phi grid must start at 0")
    return period


BOUND_KEYS = {
    "channel": (str, None),
    "M": (int, None),
    "eta": (float, None),
    "method": (str, "fourier"),
    "model": (str, None),
    "overlap": (str, None),
    "prior": (str, "uniform"),
    "grid": (int, None),
    "out": (str, None),
    "seed": (int, None),
}


def cmd_bound(args, command):
    sources = [s for s in (args.channel, args.model, args.overlap) if s]
    if len(sources) != 1:
        raise ValidationError("pass exactly one of --channel/--model/--overlap")
    if args.method not in ("fourier", "fisher"):
        raise ValidationError("method must be fourier or fisher")
    if args.prior != "uniform":
        raise ValidationError("only the uniform prior is supported here")
    if args.grid is not None and args.grid < 1:
        raise ValidationError("--grid must be positive")

    if args.channel:
        if args.M is None or args.eta is None:
            raise ValidationError("--channel needs --M and --eta")
        model = NoisyQpeModel(args.channel, args.M, args.eta)
        if args.method == "fourier":
            # the spectrum is a product of per-qubit binaries on k = 0..2^M - 1,
            # so its entropy is a sum of binary entropies; no grid is needed,
            # and an explicit one must still resolve those modes
            if args.grid is not None:
                _check_alias_window(args.grid, 0, model.n_calls)
            report = BoundReport(
                method="fourier", bound_bits=chi_closed_form(model),
                prior_entropy_bits=0.0, tail_mass_bound=0.0,
            )
        else:
            if args.channel != "dephasing":
                raise ValidationError(
                    "the Fisher route needs the channel Fisher information, "
                    "available for dephasing only"
                )
            prior = PriorDensity.uniform(1.0, args.grid or 4096)
            report = fisher_bound(
                prior, fisher_avg=dephasing_qfi(args.M, args.eta)
            )
    elif args.overlap:
        names, data = _read_table(args.overlap)
        if data.shape[1] < 2:
            raise ValidationError("overlap file needs phi and re[,im] columns")
        period = _uniform_grid_period(data[:, 0], args.overlap)
        vals = data[:, 1] + (1j * data[:, 2] if data.shape[1] > 2 else 0.0)
        f = PeriodicGridFunction(period, vals.astype(complex))
        if args.method != "fourier":
            raise ValidationError("an overlap file implies --method fourier")
        report = fourier_bound_from_overlap(f)
    else:
        names, data = _read_table(args.model)
        if data.shape[1] < 2:
            raise ValidationError("model file needs phi plus outcome columns")
        period = _uniform_grid_period(data[:, 0], args.model)
        prior = PriorDensity.uniform(period, data.shape[0])
        est = EstimationModel(prior, data[:, 1:])
        if args.method != "fisher":
            raise ValidationError("a conditional model implies --method fisher")
        report = fisher_bound(prior, model=est)

    text = _json_report(report.to_json_dict(), command, args.seed)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8", newline="\n")
    else:
        print(text)
    return 3 if "divergent" in report.flags else 0


FIGURE_KEYS = {
    "kind": (str, None),
    "M_max": (int, None),
    "eta_min": (float, None),
    "eta_max": (float, None),
    "n_eta": (int, None),
    "sigma_min": (float, None),
    "sigma_max": (float, None),
    "n_sigma": (int, None),
    "N": (int, None),
    "restarts": (int, None),
    "grid": (int, None),
    "out_dir": (str, "."),
    "svg": (_parse_bool, False),
    "seed": (int, None),
}

_FIGURE_KWARGS = {
    "chi_qpe": {"kind": "kind", "M_max": "m_max", "eta_min": "eta_min",
                "eta_max": "eta_max", "n_eta": "n_eta"},
    "transition": {"eta_min": "eta_min", "eta_max": "eta_max",
                   "M_max": "m_max", "n_eta": "n_eta"},
    "b_sigma": {"sigma_min": "sigma_min", "sigma_max": "sigma_max",
                "n_sigma": "n_sigma"},
    "entropy2": {"N": "n_calls", "restarts": "restarts", "seed": "seed",
                 "grid": "n_grid"},
}


def cmd_figure(args, command):
    if args.name not in FIGURES:
        raise ValidationError(
            f"unknown figure {args.name!r}; choose from "
            f"{', '.join(sorted(FIGURES))}"
        )
    kwargs = {}
    for flag, kw in _FIGURE_KWARGS[args.name].items():
        val = getattr(args, flag)
        if val is not None:
            if flag in ("n_eta", "n_sigma") and val < 1:
                raise ValidationError(f"--{flag.replace('_', '-')} must be at least 1")
            kwargs[kw] = val
    _write_datasets(FIGURES[args.name](**kwargs), Path(args.out_dir),
                    command, args.seed, args.svg)
    return 0


def _write_datasets(datasets, out_dir, command, seed, svg):
    out_dir.mkdir(parents=True, exist_ok=True)
    for data in datasets:
        csv_path = out_dir / f"{data.name}.csv"
        _write_csv(csv_path, command, seed, data.columns, data.rows)
        print(csv_path)
        if svg:
            svg_path = out_dir / f"{data.name}.svg"
            svg_path.write_text(
                render_line_plot(
                    data.series, title=data.title, x_label=data.x_label,
                    y_label=data.y_label, log_x=data.log_x, log_y=data.log_y,
                ),
                encoding="utf-8", newline="\n",
            )
            print(svg_path)


CHECK_KEYS = {
    "trials": (int, 100),
    "seed": (int, 0),
    "out": (str, None),
}


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


OPTIMIZE_KEYS = {
    "N": (int, None),
    "restarts": (int, 8),
    "grid": (int, None),
    "seed": (int, 0),
    "out": (str, None),
    "emit_csv": (str, None),
}


def cmd_optimize(args, command):
    if args.N is None:
        raise ValidationError("--N is required")
    if args.emit_csv and args.grid is not None:
        check_periodic_grid(args.grid)  # the plot needs it: fail before optimizing
    state, entropy_bits, mi_bits, trace = optimize_en_state(
        args.N, restarts=args.restarts, seed=args.seed, n_grid=args.grid
    )
    datasets = entropy2_datasets(state, args.grid) if args.emit_csv else ()
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
    text = _json_report(payload, command, args.seed)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8", newline="\n")
    else:
        print(text)
    if args.emit_csv:
        _write_datasets(datasets, Path(args.emit_csv), command, args.seed, svg=False)
    return 0


TWO_SEED_KEYS = {
    "trials": (int, 100),
    "n_min": (int, 2),
    "n_max": (int, 4),
    "grid": (int, 256),
    "seed": (int, 0),
    "out": (str, None),
}


def cmd_two_seed(args, command):
    if args.trials < 1:
        raise ValidationError("--trials must be at least 1")
    if not 1 <= args.n_min <= args.n_max:
        raise ValidationError("need 1 <= n-min <= n-max")
    rng = np.random.default_rng(args.seed)
    trials = []
    counts = {"always": 0, "fromconv": 0, "wonder": 0}
    for _ in range(args.trials):
        n_calls = int(rng.integers(args.n_min, args.n_max + 1))
        res = two_seed_experiment(random_seed_pair(n_calls, rng), args.grid)
        trials.append({
            "n_calls": n_calls,
            "lambda_1": res.lambda_1,
            "lambda_2": res.lambda_2,
            "mi_single": res.mi_single,
            "mi_split": res.mi_split,
            "mi_merged": res.mi_merged,
            "always_ok": res.always_ok,
            "fromconv_ok": res.fromconv_ok,
            "wonder_violated": res.wonder_violated,
        })
        counts["always"] += not res.always_ok
        counts["fromconv"] += not res.fromconv_ok
        counts["wonder"] += res.wonder_violated
    payload = {
        "trials": trials,
        "summary": {
            "n_trials": args.trials,
            "always_violations": counts["always"],
            "fromconv_violations": counts["fromconv"],
            "wonder_satisfied": counts["wonder"],
        },
    }
    text = _json_report(payload, command, args.seed)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8", newline="\n")
        print(
            f"{args.trials} trials: {counts['always']} merged>single, "
            f"{counts['fromconv']} convexity violations, "
            f"{counts['wonder']} split>single"
        )
    else:
        print(text)
    return 0


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

    p = sub.add_parser("bound", help="evaluate a single bound, report JSON")
    p.add_argument("--channel", choices=sorted(CHANNEL_KINDS))
    p.add_argument("--M", type=int, help="qubit count of the channel model")
    p.add_argument("--eta", type=float, help="noise parameter in [0, 1]")
    p.add_argument("--method", choices=("fourier", "fisher"))
    p.add_argument("--model", help="CSV of phi plus conditional outcome columns")
    p.add_argument("--overlap", help="CSV of phi, re[, im] overlap samples")
    p.add_argument("--prior", help="prior name (uniform)")
    p.add_argument("--grid", type=int, help="quadrature grid override")
    p.add_argument("--out", help="write the JSON report here")
    p.add_argument("--seed", type=int)
    p.add_argument("--config", help="flat key=value parameter file")
    p.set_defaults(func=cmd_bound, keys=BOUND_KEYS)

    p = sub.add_parser("figure", help="emit a dataset as CSV (and SVG)")
    p.add_argument("name", help="chi_qpe | transition | b_sigma | entropy2")
    p.add_argument("--kind", choices=sorted(CHANNEL_KINDS))
    p.add_argument("--M-max", dest="M_max", type=int)
    p.add_argument("--eta-min", dest="eta_min", type=float)
    p.add_argument("--eta-max", dest="eta_max", type=float)
    p.add_argument("--n-eta", dest="n_eta", type=int)
    p.add_argument("--sigma-min", dest="sigma_min", type=float)
    p.add_argument("--sigma-max", dest="sigma_max", type=float)
    p.add_argument("--n-sigma", dest="n_sigma", type=int)
    p.add_argument("--N", type=int, help="call budget for entropy2")
    p.add_argument("--restarts", type=int)
    p.add_argument("--grid", type=int)
    p.add_argument("--out-dir", dest="out_dir")
    p.add_argument("--svg", action="store_const", const=True,
                   help="also render an SVG line plot")
    p.add_argument("--seed", type=int)
    p.add_argument("--config", help="flat key=value parameter file")
    p.set_defaults(func=cmd_figure, keys=FIGURE_KEYS)

    p = sub.add_parser("check", help="run an invariant suite")
    p.add_argument("suite",
                   choices=("all", "bounds", "channels", "protocols",
                            "numerics"))
    p.add_argument("--trials", type=int, help="two-seed trial count")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", help="also write the report as CSV")
    p.add_argument("--config", help="flat key=value parameter file")
    p.set_defaults(func=cmd_check, keys=CHECK_KEYS)

    p = sub.add_parser("optimize", help="optimize the input state")
    p.add_argument("--N", type=int, help="call budget N")
    p.add_argument("--restarts", type=int)
    p.add_argument("--grid", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", help="write the JSON report here")
    p.add_argument("--emit-csv", dest="emit_csv",
                   help="directory for the posterior/weights datasets")
    p.add_argument("--config", help="flat key=value parameter file")
    p.set_defaults(func=cmd_optimize, keys=OPTIMIZE_KEYS)

    p = sub.add_parser("two-seed", help="run seeded two-measurement trials")
    p.add_argument("--trials", type=int)
    p.add_argument("--n-min", dest="n_min", type=int)
    p.add_argument("--n-max", dest="n_max", type=int)
    p.add_argument("--grid", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", help="write the JSON trial log here")
    p.add_argument("--config", help="flat key=value parameter file")
    p.set_defaults(func=cmd_two_seed, keys=TWO_SEED_KEYS)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    command = " ".join(["mibounds"] + argv)
    try:
        _merge_config(args, args.keys)
        _apply_defaults(args, args.keys)
        if args.seed is not None and args.seed < 0:
            raise ValidationError("--seed must be nonnegative")
        return args.func(args, command)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
