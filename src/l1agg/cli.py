"""Command-line entry point.

Subcommands: fit, diagnose, oracle, bounds, experiment, summary. Machine
output goes to files (written atomically) or stdout; human-readable
reports go to stderr. Exit codes: 0 ok, 1 usage error, 2 non-convergence,
3 I/O error, 4 numeric error. Configuration comes only from flags and
files, never from environment variables; all randomness flows from the
explicit seed in the experiment config.

Dictionary shorthand: ``fourier:<M>``, ``coordinate:<d>[:<lo>,<hi>]``,
``tabulated:<path>``. Truth shorthand: ``l0k:<k>``, ``sobolev:<beta>``,
``theta:<v@j,v@j,...>`` (1-based indices), ``tabulated:<path>``. Indices
in CSV artifacts are 1-based (function f_1 is column j=1).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import sys

import numpy as np

from . import __version__
from ._util import atomic_write_text, fmt
from .dictionary import (
    build_coordinate,
    build_fourier,
    evaluate,
    grid_density_measure,
    load_points_csv,
    load_tabulated_csv,
    uniform_measure,
    validate_a2,
)
from .errors import (
    ConfigError,
    ConvergenceError,
    DegenerateDictionaryError,
    DictionaryError,
    DomainError,
    L1AggError,
    NumericError,
    ShapeError,
    UnsupportedOperationError,
    ValidationError,
)
from .experiments import (
    load_config,
    rate_slope,
    read_rows_csv,
    run,
    summarize,
    summary_csv_text,
)
from .gram import GramPair, diagnostics, gram_pair, write_gram_csv
from .oracles import fourier_truth
from .solver import fit as solver_fit, penalty_config


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors mapped to exit code 1 (2 is reserved
    for solver non-convergence)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


class _UsageError(Exception):
    pass


def _parse_dictionary(spec: str):
    kind, _, rest = spec.partition(":")
    if kind == "fourier":
        return build_fourier(int(rest))
    if kind == "coordinate":
        d, _, box = rest.partition(":")
        if box:
            lo, hi = (float(v) for v in box.split(","))
            return build_coordinate(int(d), domain=[lo, hi])
        return build_coordinate(int(d))
    if kind == "tabulated":
        return load_tabulated_csv(rest)
    raise ConfigError(f"unknown dictionary shorthand {spec!r}")


def _parse_measure(spec: str):
    if spec == "uniform":
        return uniform_measure()
    kind, _, path = spec.partition(":")
    if kind == "density" and path:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or [h.strip() for h in header] != ["x", "density"]:
                raise ConfigError("density CSV must have header x,density")
            rows = [(float(a), float(b)) for a, b in reader]
        grid = np.array([r[0] for r in rows])
        dens = np.array([r[1] for r in rows])
        return grid_density_measure(grid, dens)
    raise ConfigError(f"unknown measure shorthand {spec!r}")


def _parse_truth(spec: str):
    from .experiments import l0k_truth, sobolev_truth
    from .oracles import tabulated_truth

    kind, _, rest = spec.partition(":")
    if kind == "l0k":
        return l0k_truth(int(rest))
    if kind == "sobolev":
        return sobolev_truth(float(rest))
    if kind == "theta":
        entries = []
        for chunk in rest.split(","):
            value, _, index = chunk.partition("@")
            j = int(index)
            if j < 1:
                raise ConfigError("theta indices are 1-based")
            entries.append((j, float(value)))
        theta = np.zeros(max(j for j, _ in entries))
        for j, value in entries:
            theta[j - 1] = value
        return fourier_truth(theta)
    if kind == "tabulated":
        with open(rest, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or [h.strip() for h in header] != ["x", "f"]:
                raise ConfigError("tabulated truth CSV must have header x,f")
            rows = [(float(a), float(b)) for a, b in reader]
        return tabulated_truth([r[0] for r in rows], [r[1] for r in rows])
    raise ConfigError(f"unknown truth shorthand {spec!r}")


def _parse_rate(spec: str):
    if spec == "logM":
        return "log_M", None
    if spec == "logn":
        return "log_n", None
    kind, _, value = spec.partition(":")
    if kind == "explicit" and value:
        return "explicit", float(value)
    raise ConfigError(f"unknown rate {spec!r}; expected logM, logn or explicit:<v>")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_fit(args) -> int:
    dictionary = _parse_dictionary(args.dict)
    points, y = load_points_csv(args.data)
    if y is None:
        raise ConfigError("fit needs a response column y in the data CSV")
    design = evaluate(dictionary, points)
    rate_kind, explicit_r = _parse_rate(args.rate)
    penalty = penalty_config(design, args.A, rate_kind, explicit_r)

    exit_code = 0
    try:
        result = solver_fit(design, y, penalty, tol=args.tol, max_sweeps=args.max_sweeps)
    except ConvergenceError as exc:
        result = exc.partial_fit
        exit_code = 2
        print(f"warning: {exc}", file=sys.stderr)

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["j", "lambda", "omega"])
    for j in range(design.M):
        writer.writerow([j + 1, fmt(float(result.lambda_hat[j])), fmt(float(penalty.weights[j]))])
    atomic_write_text(args.out, buf.getvalue())

    for line in (
        f"objective={result.objective!r}",
        f"kkt_residual={result.kkt_residual!r}",
        f"sweeps={result.sweeps}",
        f"support_size={result.m_hat}",
        f"converged={1 if exit_code == 0 else 0}",
    ):
        print(line)
    return exit_code


def _cmd_diagnose(args) -> int:
    dictionary = _parse_dictionary(args.dict)
    measure = _parse_measure(args.measure)
    support = (
        [int(tok) - 1 for tok in args.support.split(",")] if args.support else []
    )

    from .dictionary import population_gram

    psi = population_gram(dictionary, measure)
    if args.data:
        points, _ = load_points_csv(args.data)
        design = evaluate(dictionary, points)
        pair = gram_pair(dictionary, measure, design)
    else:
        pair = GramPair(psi_M=psi, psi_nM=psi)
    report = diagnostics(pair, support)

    validation = validate_a2(dictionary, measure)
    lines = [
        f"kappa_M={report.kappa_M!r}",
        f"rho_lambda={report.rho_lambda!r}",
        f"L={validation.L!r}",
        f"c0={validation.c0!r}",
        f"L0={validation.L0!r}",
        f"a2_bounded={1 if validation.bounded_ok else 0}",
        f"a2_norms={1 if validation.norms_ok else 0}",
        f"a2_moments={1 if validation.moments_ok else 0}",
    ]
    if args.data:
        lines.append(f"eta_nM={report.eta_nM!r}")
        if report.rho_lambda_empirical is not None:
            lines.append(f"rho_lambda_empirical={report.rho_lambda_empirical!r}")
    for line in lines:
        print(line)
    if args.gram_out:
        write_gram_csv(args.gram_out, pair.psi_M)
    if args.empirical_gram_out:
        if not args.data:
            raise ConfigError("--empirical-gram-out needs --data")
        write_gram_csv(args.empirical_gram_out, pair.psi_nM)
    return 0


def _cmd_oracle(args) -> int:
    from .oracles import oracle_at_k, population_dist2, sparsity

    dictionary = _parse_dictionary(args.dict)
    measure = _parse_measure(args.measure)
    truth = _parse_truth(args.truth)
    if args.kmax < args.kmin or args.kmin < 0:
        raise ConfigError("need 0 <= kmin <= kmax")

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["k", "residual2", "support", "exact"])
    for k in range(args.kmin, min(args.kmax, dictionary.M) + 1):
        lam, exact = oracle_at_k(dictionary, measure, truth, k)
        dist2 = population_dist2(dictionary, measure, truth, lam)
        support, _ = sparsity(lam)
        writer.writerow(
            [k, fmt(dist2), "|".join(str(j + 1) for j in support), fmt(exact)]
        )
    atomic_write_text(args.out, buf.getvalue())
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


def _cmd_bounds(args) -> int:
    from .oracles import LEMMA_KINDS, lemma_bounds

    params: dict[str, float] = {}
    with open(args.params, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{args.params}:{lineno}: expected key = value")
            key, value = (part.strip() for part in line.split("=", 1))
            params[key] = float(value)
    if "n" not in params:
        raise ConfigError("bounds parameter file needs n")

    allowed = {
        "L4": ("M", "c0", "L"),
        "L5": ("M", "r_nM", "b", "c0", "L"),
        "L6": ("r_nM", "m_lambda", "L_lambda"),
        "L7": ("M", "m_lambda", "c0", "L", "L0", "kappa_M", "C_f"),
        "L9": ("M", "r_nM", "c0", "L", "L0"),
    }
    which = args.which.split(",") if args.which else list(LEMMA_KINDS)
    n = int(params["n"])
    for lemma in which:
        if lemma not in allowed:
            raise ConfigError(f"unknown lemma {lemma!r}")
        kwargs = {key: params[key] for key in allowed[lemma] if key in params}
        if lemma in ("L4", "L5", "L7", "L9") and "M" in kwargs:
            kwargs["M"] = int(kwargs["M"])
        value = lemma_bounds(lemma, n, **kwargs)
        print(f"{lemma}={value!r}")
    return 0


def _cmd_experiment(args) -> int:
    config = load_config(args.config)
    if args.out:
        config = dataclasses.replace(config, out=args.out)
    if not config.out:
        raise ConfigError("experiment needs an output path (config key out or --out)")
    rows = run(config)
    nonconverged = sum(1 for r in rows if not r.converged)
    print(f"wrote {len(rows)} rows to {config.out}", file=sys.stderr)
    if nonconverged:
        print(f"warning: {nonconverged} non-convergent replicates", file=sys.stderr)
    return 0


def _cmd_summary(args) -> int:
    config = load_config(args.config)
    rows = read_rows_csv(args.rows)
    summaries = summarize(config, rows)
    atomic_write_text(args.out, summary_csv_text(summaries))
    print(f"wrote {args.out}", file=sys.stderr)
    slope_records = []
    for y_field, label in (("risk", "risk"), ("l1_err", "l1")):
        try:
            slope, intercept, stderr = rate_slope(config, rows, y_field)
        except ConfigError as exc:
            print(f"note: no {label} slope ({exc})", file=sys.stderr)
            continue
        slope_records.append((y_field, slope, intercept, stderr))
        print(f"{label}_slope={slope!r}")
        print(f"{label}_intercept={intercept!r}")
        print(f"{label}_stderr={stderr!r}")
    if args.slopes_out:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["quantity", "slope", "intercept", "stderr"])
        for y_field, slope, intercept, stderr in slope_records:
            writer.writerow([y_field, fmt(slope), fmt(intercept), fmt(stderr)])
        atomic_write_text(args.slopes_out, buf.getvalue())
    return 0


# ---------------------------------------------------------------------------
# Parser / dispatch
# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(
        prog="l1agg",
        description="Weighted l1-penalized least squares aggregation toolkit",
    )
    parser.add_argument("--version", action="version", version=f"l1agg {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("fit", help="fit the weighted l1 estimator to a data CSV")
    p.add_argument("--dict", required=True, help="fourier:<M> | coordinate:<d>[:<lo>,<hi>] | tabulated:<csv>")
    p.add_argument("--data", required=True, help="points CSV x1,...,xd,y")
    p.add_argument("--A", type=float, required=True, help="penalty tuning constant")
    p.add_argument("--rate", default="logM", help="logM | logn | explicit:<v>")
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--max-sweeps", type=int, default=100_000)
    p.add_argument("--out", required=True, help="coefficient CSV j,lambda,omega")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("diagnose", help="Gram, coherence and kappa diagnostics")
    p.add_argument("--dict", required=True)
    p.add_argument("--measure", default="uniform", help="uniform | density:<csv>")
    p.add_argument("--data", help="optional points CSV for the empirical Gram")
    p.add_argument("--support", help="comma-separated 1-based support indices")
    p.add_argument("--gram-out", help="write the population Gram as CSV")
    p.add_argument("--empirical-gram-out", help="write the empirical Gram as CSV")
    p.set_defaults(func=_cmd_diagnose)

    p = sub.add_parser("oracle", help="best k-sparse population approximations")
    p.add_argument("--dict", required=True)
    p.add_argument("--measure", default="uniform")
    p.add_argument("--truth", required=True, help="l0k:<k> | sobolev:<b> | theta:<v@j,...> | tabulated:<csv>")
    p.add_argument("--kmin", type=int, default=0)
    p.add_argument("--kmax", type=int, required=True)
    p.add_argument("--out", required=True, help="CSV k,residual2,support,exact")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("bounds", help="evaluate explicit tail bounds")
    p.add_argument("--params", required=True, help="key=value parameter file")
    p.add_argument("--which", help="comma-separated subset of L4,L5,L6,L7,L9")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("experiment", help="run a replicated experiment grid")
    p.add_argument("--config", required=True, help="key=value config file")
    p.add_argument("--out", help="rows CSV (overrides the config's out)")
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("summary", help="per-cell medians and rate slopes")
    p.add_argument("--config", required=True)
    p.add_argument("--rows", required=True, help="rows CSV from `experiment`")
    p.add_argument("--out", required=True, help="summary CSV")
    p.add_argument("--slopes-out", help="rate-slope results as CSV")
    p.set_defaults(func=_cmd_summary)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:
        return 0 if (exc.code == 0 or exc.code is None) else 1
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (
        ConfigError,
        DictionaryError,
        ShapeError,
        DomainError,
        UnsupportedOperationError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (
        NumericError,
        ValidationError,
        DegenerateDictionaryError,
        np.linalg.LinAlgError,
        FloatingPointError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except L1AggError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
