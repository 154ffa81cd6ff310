"""One measured process: an experiment grid, or one in-process CLI round.

    python child.py grid --config CFG --rows OUT.csv --result RES.json
        [--check-config REF_CFG] [--spans S.json --base-seed N]
    python child.py cli --mix MIX.json --result RES.json [--spans S.json]

``grid`` mirrors ``l1agg experiment`` followed by ``l1agg summary``: import,
set up every cell, run the replicates with the rows CSV written, read the
rows back, then summarize, fit the rate slopes and check the bounds.
``cli`` imports ``l1agg.cli`` and calls ``main`` once per command of the
mix, capturing stdout and stderr.

Times are taken from before ``import l1agg``; the host-speed probe
(probe.py) samples the process from then until its last step. With
``--spans`` the public layer functions are wrapped (see tracer.py) after
the import, and the spans are written out at the end.
"""

import argparse
import contextlib
import dataclasses
import io
import json
import time

from probe import Probe
from tracer import Tracer


def _grid(args, tracer):
    probe = Probe().start()
    t0 = time.perf_counter()
    span = tracer.open("bench.import") if tracer else None
    import l1agg  # noqa: F401
    from l1agg import experiments as ex
    from l1agg.errors import ConfigError

    if tracer:
        tracer.close(span)
        tracer.install()
    t_import = time.perf_counter()
    config = ex.load_config(args.config)
    config = dataclasses.replace(config, out=args.rows)
    for cell in range(len(config.n_values)):
        ex.cell_context(config, cell)
    t_setup = time.perf_counter()
    rows = ex.run(config)
    t_run = time.perf_counter()
    back = ex.read_rows_csv(config.out)
    summaries = ex.summarize(config, back)
    slopes = {}
    for field in ("risk", "l1_err"):
        try:
            slopes[field] = list(ex.rate_slope(config, back, field))
        except ConfigError as exc:
            # Same outcome as `l1agg summary`, which prints a note instead.
            slopes[field] = f"ConfigError: {exc}"
    bounds = ex.bound_check(config, back, kind="t21_risk", fit_scale=True)
    t_end = time.perf_counter()
    probe_s = probe.stop()
    check_rows = None
    if args.check_config:
        # Untimed: two replicates of the first cell at the reference config,
        # recomputed in isolation, for comparison with the committed rows.
        reference = ex.load_config(args.check_config)
        check_rows = ex.rows_csv_text([ex.run_single(reference, 0, rep) for rep in (0, 1)])
    return {
        "import_s": t_import - t0,
        "setup_s": t_setup - t0,
        "run_s": t_run - t_setup,
        "grid_s": t_end - t0,
        "probe_s": probe_s,
        "reps": len(rows),
        "runtime_ms": [r.runtime_ms for r in rows],
        "converged": [bool(r.converged) for r in rows],
        "cells": [
            [s.n, s.M, s.reps, s.valid, s.regime_ok, s.k_star] for s in summaries
        ],
        "slopes": slopes,
        "bounds": [[b.n, b.M, b.fraction, b.satisfied] for b in bounds],
        "check_rows": check_rows,
    }


def _cli(args, tracer):
    with open(args.mix, encoding="utf-8") as fh:
        mix = json.load(fh)
    probe = Probe().start()
    t0 = time.perf_counter()
    span = tracer.open("bench.import") if tracer else None
    import l1agg.cli as cli

    if tracer:
        tracer.close(span)
        tracer.install()
    t_import = time.perf_counter()
    calls = []
    for index, argv in enumerate(mix):
        out, err = io.StringIO(), io.StringIO()
        span = tracer.open(f"cli.main.{argv[0]}", op=index) if tracer else None
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        wall = time.perf_counter() - start
        if tracer:
            tracer.close(span)
            tracer.op = None
        calls.append({"argv": argv, "code": code, "stdout": out.getvalue(),
                      "stderr": err.getvalue(), "wall_s": wall})
    t_end = time.perf_counter()
    return {"import_s": t_import - t0, "round_s": t_end - t_import,
            "grid_s": t_end - t0, "probe_s": probe.stop(), "calls": calls}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("grid", "cli"))
    parser.add_argument("--config")
    parser.add_argument("--rows")
    parser.add_argument("--mix")
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans")
    parser.add_argument("--base-seed", type=int)
    parser.add_argument("--check-config", help="also recompute two replicates of this config")
    args = parser.parse_args()
    tracer = Tracer(base_seed=args.base_seed) if args.spans else None
    result = (_grid if args.mode == "grid" else _cli)(args, tracer)
    if tracer:
        tracer.dump(args.spans)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
