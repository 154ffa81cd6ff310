"""Command-line entry point.

Subcommands: fit, diagnose, oracle, bounds, experiment, summary. Machine
output goes to files (written atomically) or stdout; human-readable
reports go to stderr, library warnings as one ``warning:`` line per
distinct message. Exit codes: 0 ok; 1 usage error, ConfigError (or another
L1AggError) or a request too large for memory; 2 non-convergence of
``fit`` (ConvergenceError); 3 I/O error; 4 NumericError, its subclass
DegenerateDictionaryError included.
Configuration comes only from flags and files, never from environment
variables; all randomness flows from the explicit seed in the experiment
config.

Dictionary shorthand: ``fourier:<M>``, ``coordinate:<d>[:<lo>,<hi>]``,
``tabulated:<path>``. Truth shorthand: ``l0k:<k>``, ``sobolev:<beta>``,
``theta:<v@j,v@j,...>`` (1-based indices), ``tabulated:<path>``. Indices
in CSV artifacts are 1-based (function f_1 is column j=1).
"""

from __future__ import annotations

import argparse
import math
import sys
import warnings

from . import __version__
from ._util import atomic_write_text, csv_text, parse_value, read_key_values
from .errors import ConfigError, ConvergenceError, L1AggError, NumericError

# Each command imports the layer modules it runs when it runs, so a call
# pays for no module it does not use.


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors mapped to exit code 1 (2 is reserved
    for solver non-convergence) and to one ``error:`` line, with no usage
    block before it."""

    def error(self, message):
        raise _UsageError(message)


class _UsageError(Exception):
    pass


def _parse_dictionary(spec: str):
    from .dictionary import build_coordinate, build_fourier, load_tabulated_csv

    kind, _, rest = spec.partition(":")
    if kind == "fourier":
        return build_fourier(parse_value(rest, int, spec))
    if kind == "coordinate":
        d, _, box = rest.partition(":")
        domain = [parse_value(v, float, spec) for v in box.split(",")] if box else None
        return build_coordinate(parse_value(d, int, spec), domain=domain)
    if kind == "tabulated":
        return load_tabulated_csv(rest)
    raise ConfigError(f"unknown dictionary shorthand {spec!r}")


def _read_table(path, header: list[str]):
    """The columns of a numeric CSV whose header must be ``header``."""
    from .dictionary import read_numeric_csv

    names, data = read_numeric_csv(path)
    if names != header:
        raise ConfigError(f"{path}: CSV must have header {','.join(header)}")
    return data.T


def _parse_measure(spec: str):
    from .dictionary import grid_density_measure, uniform_measure

    if spec == "uniform":
        return uniform_measure()
    kind, _, path = spec.partition(":")
    if kind == "density" and path:
        return grid_density_measure(*_read_table(path, ["x", "density"]))
    raise ConfigError(f"unknown measure shorthand {spec!r}")


def _parse_truth(spec: str):
    from .oracles import fourier_truth, l0k_truth, sobolev_truth, tabulated_truth

    kind, _, rest = spec.partition(":")
    if kind == "l0k":
        return l0k_truth(parse_value(rest, int, spec))
    if kind == "sobolev":
        return sobolev_truth(parse_value(rest, float, spec))
    if kind == "theta":
        entries = {}
        for chunk in rest.split(","):
            value, _, index = chunk.partition("@")
            j = parse_value(index, int, spec)
            if j < 1:
                raise ConfigError("theta indices are 1-based")
            if j in entries:
                raise ConfigError(f"theta index {j} is given twice")
            entries[j] = parse_value(value, float, spec)
        theta = [0.0] * max(entries)
        for j, value in entries.items():
            theta[j - 1] = value
        return fourier_truth(theta)
    if kind == "tabulated":
        return tabulated_truth(*_read_table(rest, ["x", "f"]))
    raise ConfigError(f"unknown truth shorthand {spec!r}")


def _rate_value(spec: str, A: float, n: int, M: int) -> float:
    """The rate r_{n,M} that ``--rate`` names: :func:`rate` for ``logM``
    and ``logn``, the value itself for ``explicit:<v>``. A bad ``--A`` is
    refused under every rate, although an explicit rate does not read it."""
    from .solver import rate

    kinds = {"logM": "log_M", "logn": "log_n"}
    if spec in kinds:
        return rate(A, n, M, kinds[spec])
    kind, _, value = spec.partition(":")
    if kind != "explicit" or not value:
        raise ConfigError(f"unknown rate {spec!r}; expected logM, logn or explicit:<v>")
    r_nM = parse_value(value, float, spec)
    if not (math.isfinite(A) and A > 0):
        raise ConfigError(f"tuning constant A must be finite and positive, got {A}")
    return r_nM


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_fit(args) -> int:
    from .dictionary import evaluate, load_points_csv
    from .solver import fit, penalty_weights

    dictionary = _parse_dictionary(args.dict)
    points, y = load_points_csv(args.data)
    if y is None:
        raise ConfigError("fit needs a response column y in the data CSV")
    design = evaluate(dictionary, points)
    weights = penalty_weights(design, _rate_value(args.rate, args.A, design.n, design.M))

    # --tol and --max-sweeps, when not given, take fit's own defaults.
    options = {key: value for key, value in vars(args).items() if key in ("tol", "max_sweeps")}
    try:
        result = fit(design, y, weights, **options)
    except ConvergenceError as exc:
        result = exc.partial_fit
        print(f"warning: {exc}", file=sys.stderr)

    table = zip(range(1, design.M + 1), result.lambda_hat, weights)
    atomic_write_text(args.out, csv_text(["j", "lambda", "omega"], table))

    for line in (
        f"objective={result.objective!r}",
        f"kkt_residual={result.kkt_residual!r}",
        f"duality_gap={result.duality_gap!r}",
        f"sweeps={result.sweeps}",
        f"support_size={result.m_hat}",
        f"converged={int(result.converged)}",
    ):
        print(line)
    return 0 if result.converged else 2


def _cmd_diagnose(args) -> int:
    from .dictionary import evaluate, load_points_csv, population_constants
    from .gram import diagnostics, empirical_gram, write_gram_csv

    if args.empirical_gram_out and not args.data:
        raise ConfigError("--empirical-gram-out needs --data")
    dictionary = _parse_dictionary(args.dict)
    measure = _parse_measure(args.measure)
    tokens = args.support.split(",") if args.support else []
    support = [parse_value(tok, int, "--support") - 1 for tok in tokens]
    if any(not 0 <= j < dictionary.M for j in support):
        raise ConfigError(f"--support indices must lie in [1, {dictionary.M}]")
    # Raises on a non-finite L or L0, so a2_bounded and a2_moments hold below;
    # diagnostics raises DegenerateDictionaryError on a nonpositive diagonal
    # of Psi, so c0 > 0 and a2_norms holds too.
    constants = population_constants(dictionary, measure)
    psi_n = None
    if args.data:
        points, _ = load_points_csv(args.data)
        psi_n = empirical_gram(evaluate(dictionary, points))
    report = diagnostics(constants.psi, support, psi_n)
    lines = [
        f"kappa_M={report.kappa_M!r}",
        f"rho_lambda={report.rho_lambda!r}",
        f"L={constants.L!r}",
        f"c0={constants.c0!r}",
        f"L0={constants.L0!r}",
        "a2_bounded=1",
        "a2_norms=1",
        "a2_moments=1",
    ]
    if args.data:
        lines.append(f"eta_nM={report.eta_nM!r}")
        if report.rho_lambda_empirical is not None:
            lines.append(f"rho_lambda_empirical={report.rho_lambda_empirical!r}")
    for line in lines:
        print(line)
    if args.gram_out:
        write_gram_csv(args.gram_out, constants.psi)
    if args.empirical_gram_out:
        write_gram_csv(args.empirical_gram_out, psi_n)
    return 0


def _cmd_oracle(args) -> int:
    from .oracles import oracle_path, population_problem, sparsity

    dictionary = _parse_dictionary(args.dict)
    measure = _parse_measure(args.measure)
    truth = _parse_truth(args.truth)
    if args.kmax < args.kmin or args.kmin < 0:
        raise ConfigError("need 0 <= kmin <= kmax")
    if args.kmin > dictionary.M:
        raise ConfigError(f"--kmin {args.kmin} exceeds M = {dictionary.M}")

    ks = range(args.kmin, min(args.kmax, dictionary.M) + 1)
    problem = population_problem(dictionary, measure, truth)
    table = [
        [k, dist2, "|".join(str(j + 1) for j in sparsity(lam)[0]), exact]
        for k, lam, dist2, exact in oracle_path(problem, ks)
    ]
    atomic_write_text(args.out, csv_text(["k", "residual2", "support", "exact"], table))
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


def _count(text: str) -> int:
    """An integer written as an integer or an integral float (``1e3``)."""
    value = float(text)
    if not value.is_integer():  # also false for nan and inf
        raise ValueError(text)
    return int(value)


def _cmd_bounds(args) -> int:
    from .tails import LEMMA_KINDS, LEMMA_PARAMS, lemma_bounds

    known = {"n"}.union(*LEMMA_PARAMS.values())
    params = {}
    for key, (line, value) in read_key_values(args.params).items():
        where = f"{args.params}:{line}: {key}"
        if key not in known:
            raise ConfigError(f"{where}: unknown parameter")
        convert = _count if key in ("n", "M", "m_lambda") else float
        params[key] = parse_value(value, convert, where)
    if "n" not in params:
        raise ConfigError("bounds parameter file needs n")
    n = params.pop("n")
    which = args.which.split(",") if args.which else LEMMA_KINDS
    # Every requested lemma is evaluated before anything is printed.
    print("\n".join([f"{lemma}={lemma_bounds(lemma, n, **params)!r}" for lemma in which]))
    return 0


def _cmd_experiment(args) -> int:
    import dataclasses

    from .experiments import load_config, run

    config = load_config(args.config)
    if args.out:
        config = dataclasses.replace(config, out=args.out)
    if not config.out:
        raise ConfigError("experiment needs an output path (config key out or --out)")
    rows = run(config)
    nonconverged = sum(1 for r in rows if r.nonconverged)
    print(f"wrote {len(rows)} rows to {config.out}", file=sys.stderr)
    if nonconverged:
        print(f"warning: {nonconverged} non-convergent replicates", file=sys.stderr)
    return 0


def _cmd_summary(args) -> int:
    from .experiments import _summary_slope, load_config, read_rows_csv, summarize, summary_csv_text

    config = load_config(args.config)
    rows = read_rows_csv(args.rows)
    summaries = summarize(config, rows)
    atomic_write_text(args.out, summary_csv_text(summaries))
    print(f"wrote {args.out}", file=sys.stderr)
    slope_records = []
    for y_field, label in (("risk", "risk"), ("l1_err", "l1")):
        try:
            slope, intercept, stderr = _summary_slope(summaries, y_field)
        except ConfigError as exc:
            print(f"note: no {label} slope ({exc})", file=sys.stderr)
            continue
        slope_records.append((y_field, slope, intercept, stderr))
        print(f"{label}_slope={slope!r}")
        print(f"{label}_intercept={intercept!r}")
        print(f"{label}_stderr={stderr!r}")
    if args.slopes_out:
        header = ["quantity", "slope", "intercept", "stderr"]
        atomic_write_text(args.slopes_out, csv_text(header, slope_records))
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
    p.add_argument("--tol", type=float, default=argparse.SUPPRESS,
                   help="stop when every KKT violation is <= tol * ||f_j||_n * ||y||_n")
    p.add_argument("--max-sweeps", type=int, default=argparse.SUPPRESS)
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


# Exit code of each error class; an error takes the code of the first
# class in its MRO that is listed here.
_EXIT_CODES = {
    _UsageError: 1,
    L1AggError: 1,
    OSError: 3,
    NumericError: 4,
    MemoryError: 1,
}


def main(argv=None) -> int:
    with warnings.catch_warnings():
        # "once" per message and category; entering resets what was shown.
        warnings.simplefilter("once")
        warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
        try:
            args = build_parser().parse_args(argv)
            return args.func(args)
        except SystemExit:  # --help and --version; usage errors raise _UsageError
            return 0
        except tuple(_EXIT_CODES) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return next(_EXIT_CODES[cls] for cls in type(exc).__mro__ if cls in _EXIT_CODES)


if __name__ == "__main__":
    sys.exit(main())
