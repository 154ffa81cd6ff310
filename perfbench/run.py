"""l1agg benchmark: replicated experiment grids and single-shot CLI calls.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree; the library is imported from ``src``
through ``PYTHONPATH`` in every child process, never installed. The last
line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it is a report with the
environment, the workload's stated size and properties, and the sample
count behind each metric. See perfbench/README.md for the metrics.

Bounded times are wall times adjusted to a reference host speed with the
probe in probe.py; the report line gives the unadjusted ones too.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

import numpy as np

import checks
from probe import scale
from tracer import aggregate

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
WORK = BENCH / "_work"
REFERENCE = BENCH / "reference"
DEFAULT_SEED = 0
MIN_GRIDS = 3
MIN_ROUNDS = 2
IMPORT_REPEATS = 3
RUN_DEADLINE_S = 170.0  # every child is killed by then; a run must end within 180 s
DEADLINE = time.perf_counter() + RUN_DEADLINE_S

MC_WORKLOADS = {
    "mc_sobolev": {
        "preset": "fourier-sobolev", "n_values": (256, 512, 1024, 2048),
        "m_rule": "fixed:25", "k_or_beta": 1.0, "A": 4.0, "rate_kind": "log_n", "R": 30,
    },
    "mc_wide": {
        "preset": "fourier-L0k", "n_values": (256, 512, 1024, 2048),
        "m_rule": "power:0.75", "k_or_beta": 3.0, "A": 4.0, "rate_kind": "log_n", "R": 30,
    },
    "mc_dense": {
        "preset": "linear", "n_values": (512, 1024, 2048, 4096, 8192),
        "m_rule": "fixed:20", "k_or_beta": 20.0, "A": 4.0, "rate_kind": "log_n", "R": 100,
    },
}
CLI_WORKLOAD = "cli_oneshot"
CLI_ROWS = 8192
WORKLOADS = (*MC_WORKLOADS, CLI_WORKLOAD)


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(argv, tag: str) -> dict:
    """Run one child to completion; wall time and peak RSS from wait4."""
    out_path, err_path = WORK / f"{tag}.out", WORK / f"{tag}.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=WORK, env=child_env())
        timer = threading.Timer(max(1.0, DEADLINE - start), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "code": proc.returncode,
        "wall_s": wall,
        "rss_mb": usage.ru_maxrss / 1024.0,
        "stdout": out_path.read_text(encoding="utf-8", errors="replace"),
        "stderr": err_path.read_text(encoding="utf-8", errors="replace"),
    }


def spawn_probed(argv, tag: str) -> dict:
    """``spawn`` of ``python -m ...`` or ``python -c ...`` under the
    host-speed probe; ``scale`` adjusts its wall time to the reference speed
    (1.0 for a child that failed before the first sample)."""
    probe_path = WORK / f"{tag}.probe.json"
    probe_path.unlink(missing_ok=True)
    proc = spawn([sys.executable, str(BENCH / "probe.py"), str(probe_path), *argv], tag)
    samples = json.loads(probe_path.read_text(encoding="utf-8")) if probe_path.exists() else []
    proc["scale"] = scale(samples) if samples else 1.0
    return proc


def run_child(mode: str, tag: str, extra) -> dict:
    result_path = WORK / f"{tag}.result.json"
    result_path.unlink(missing_ok=True)
    proc = spawn([sys.executable, str(BENCH / "child.py"), mode, "--result", str(result_path), *extra], tag)
    proc["result"] = (
        json.loads(result_path.read_text(encoding="utf-8"))
        if proc["code"] == 0 and result_path.exists()
        else None
    )
    return proc


# ---------------------------------------------------------------------------
# Inputs (numpy and the standard library only, never l1agg code)
# ---------------------------------------------------------------------------


def config_seed(workload: str, seed: int) -> int:
    digest = hashlib.sha256(f"{workload}:{seed}".encode()).digest()
    return int.from_bytes(digest[:4], "big") >> 1


def m_of(rule: str, n: int) -> int:
    kind, value = rule.split(":")
    return int(value) if kind == "fixed" else max(2, int(math.floor(n ** float(value))))


def write_config(workload: str, seed: int, name: str = "") -> tuple[Path, dict]:
    spec = dict(MC_WORKLOADS[workload], seed=config_seed(workload, seed), C_f=1.0)
    lines = [
        f"preset = {spec['preset']}",
        f"n_values = {','.join(str(n) for n in spec['n_values'])}",
        f"m_rule = {spec['m_rule']}",
        f"k_or_beta = {spec['k_or_beta']!r}",
        f"A = {spec['A']!r}",
        f"rate_kind = {spec['rate_kind']}",
        f"R = {spec['R']}",
        f"seed = {spec['seed']}",
        f"C_f = {spec['C_f']!r}",
    ]
    path = WORK / f"{workload}{name}.cfg"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path, spec


def write_cli_inputs(seed: int) -> dict:
    """8192-row fourier data CSV (seeded) and the bounds parameter file.

    The data follow y = sum_j theta_j f_j(x) + U(-1, 1) noise on a seeded
    5-sparse trigonometric truth, evaluated here with numpy. Floats are
    written as repr(float(v)).
    """
    rng = np.random.default_rng(config_seed(CLI_WORKLOAD, seed))
    x = rng.uniform(0.0, 1.0, CLI_ROWS)
    freqs = rng.choice(np.arange(1, 12), size=5, replace=False)
    amps = rng.uniform(0.5, 2.0, size=5) * rng.choice([-1.0, 1.0], size=5)
    f = sum(a * math.sqrt(2.0) * np.cos(2.0 * math.pi * k * x) for a, k in zip(amps, freqs))
    y = f + rng.uniform(-1.0, 1.0, CLI_ROWS)
    data = WORK / "cli_data.csv"
    data.write_text(
        "x1,y\n" + "".join(f"{float(a)!r},{float(b)!r}\n" for a, b in zip(x, y)), encoding="utf-8"
    )
    # Fixed across seeds, so its output is checked against the reference
    # on every run.
    params = WORK / "cli_bounds.txt"
    params.write_text(
        "n = 1000\nM = 16\nr_nM = 0.5\nb = 1.7182818284590453\nc0 = 1.0\nL = 1.4142135623730951\n"
        "L0 = 1.5\nkappa_M = 0.98\nC_f = 1.0\nm_lambda = 2\nL_lambda = 4.0\n",
        encoding="utf-8",
    )
    return {"data": data, "params": params}


def cli_mix(inputs: dict) -> list[list[str]]:
    return [
        ["fit", "--dict", "fourier:25", "--data", str(inputs["data"]), "--A", "2.0",
         "--out", str(WORK / "cli_fit.csv")],
        ["diagnose", "--dict", "fourier:64", "--data", str(inputs["data"]), "--support", "2,4,7"],
        ["oracle", "--dict", "fourier:25", "--truth", "sobolev:1", "--kmax", "10",
         "--out", str(WORK / "cli_oracle.csv")],
        ["bounds", "--params", str(inputs["params"])],
    ]


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def quantile(values, q: float) -> float:
    """Harrell-Davis quantile: a Beta-weighted mean of all order statistics.

    Replicate times cluster by cell, and a plain percentile that falls in
    the gap between two clusters jumps with a single sample; this estimate
    moves smoothly.
    """
    x = np.sort(np.asarray(values, dtype=float))
    n = x.size
    if n == 1:
        return float(x[0])
    a, b = q * (n + 1), (1.0 - q) * (n + 1)
    t = np.linspace(0.0, 1.0, 100_001)[1:-1]
    log_pdf = (a - 1.0) * np.log(t) + (b - 1.0) * np.log1p(-t)
    pdf = np.exp(log_pdf - log_pdf.max())
    cdf = np.concatenate(([0.0], np.cumsum(0.5 * (pdf[1:] + pdf[:-1]) * np.diff(t))))
    edges = np.interp(np.arange(n + 1) / n, t, cdf / cdf[-1])
    return float(np.diff(edges) @ x)


def op_metrics(ops_per_s, times_ms, samples) -> dict:
    """Throughput and per-operation times, at the reference speed. They
    carry no regression bound: a replicate lasts milliseconds, and the
    probe's factor for its whole grid process does not steady it enough."""
    return {
        "reps_per_s": metric(ops_per_s, "1/s", samples),
        "op_ms_p50": metric(quantile(times_ms, 0.5), "ms", samples),
        "op_ms_p90": metric(quantile(times_ms, 0.9), "ms", samples),
    }


def metric(value, unit, samples) -> dict:
    return {"value": float(value), "unit": unit, "samples": int(samples)}


# ---------------------------------------------------------------------------
# Experiment-grid workloads
# ---------------------------------------------------------------------------


def grid_child(workload, cfg_path, index, spans=None, base_seed=None):
    tag = f"{workload}-grid{index}{'-traced' if spans else ''}"
    rows_path = WORK / f"{tag}.rows.csv"
    rows_path.unlink(missing_ok=True)
    extra = ["--config", str(cfg_path), "--rows", str(rows_path)]
    if index == 0 and not spans:
        ref_cfg, _ = write_config(workload, DEFAULT_SEED, "-reference")
        extra += ["--check-config", str(ref_cfg)]
    if spans:
        extra += ["--spans", str(spans), "--base-seed", str(base_seed)]
    proc = run_child("grid", tag, extra)
    proc["rows_text"] = rows_path.read_text(encoding="utf-8") if rows_path.exists() else None
    return proc


def check_grids(workload, spec, seed, grids, problems):
    """Failed replicates per grid, plus run-wide output problems."""
    reps = spec["R"] * len(spec["n_values"])
    failed = 0
    for proc in grids:
        if proc["result"] is None or proc["rows_text"] is None:
            problems.append(f"grid child exited {proc['code']}: {proc['stderr'][-400:]}")
            failed += reps
            continue
        failed += checks.check_rows(spec, proc["rows_text"], proc["result"], m_of, problems)
        checks.check_reference_rows(workload, seed == DEFAULT_SEED, proc["rows_text"], REFERENCE, problems)
        if proc["result"]["check_rows"] is not None:
            checks.check_reference_sample(workload, proc["result"]["check_rows"], REFERENCE, problems)
    texts = {proc["rows_text"] for proc in grids if proc["rows_text"] is not None}
    if len(texts) > 1:
        problems.append("rows CSV differs between reruns of the same config (C10)")
    digests = {json.dumps([p["result"]["slopes"], p["result"]["cells"], p["result"]["bounds"]])
               for p in grids if p["result"]}
    if len(digests) > 1:
        problems.append("summary, slope or bound check differs between reruns")
    return len(grids) * reps, failed


def run_mc(workload, seed, seconds, trace, report):
    cfg_path, spec = write_config(workload, seed)
    report["workload"] = {
        "kind": "experiment grid, fresh process per grid, closed loop, one client",
        **{k: spec[k] for k in ("preset", "n_values", "m_rule", "k_or_beta", "A", "rate_kind", "R")},
        "M_range": [m_of(spec["m_rule"], n) for n in (spec["n_values"][0], spec["n_values"][-1])],
        "config_seed": spec["seed"],
    }
    problems: list[str] = []
    if trace:
        return trace_mc(workload, spec, seed, cfg_path, report, problems)

    grids, start = [], time.perf_counter()
    while True:
        grids.append(grid_child(workload, cfg_path, len(grids)))
        elapsed = time.perf_counter() - start
        typical = statistics.median(p["wall_s"] for p in grids)
        if len(grids) >= MIN_GRIDS and elapsed + typical > seconds:
            break
        if grids[-1]["result"] is None:
            break
    attempted, failed = check_grids(workload, spec, seed, grids, problems)
    done = [p["result"] for p in grids if p["result"]] or [
        {"setup_s": 0.0, "grid_s": 0.0, "run_s": 1.0, "reps": 0, "runtime_ms": [0.0], "probe_s": [1.0]}
    ]
    metrics = {
        "setup_s": metric(statistics.median(adjusted(r, "setup_s") for r in done), "s", len(done)),
        "grid_s": metric(statistics.median(adjusted(r, "grid_s") for r in done), "s", len(done)),
        "rss_peak_mb": metric(max(p["rss_mb"] for p in grids), "MB", len(grids)),
    }
    report["unadjusted"] = {
        key: metric(statistics.median(r[key] for r in done), "s", len(done)) for key in ("setup_s", "grid_s")
    }
    report["speed_scale"] = [scale(r["probe_s"]) for r in done]
    report["unbounded"] = mc_op_metrics(done)
    return attempted, failed, problems, metrics


def adjusted(result: dict, key: str) -> float:
    """A child's time ``key`` at the reference host speed."""
    return result[key] * scale(result["probe_s"])


def mc_op_metrics(done) -> dict:
    """Replicates per second of ``run``, and each replicate as the library
    times it at its median over the grid processes; at the reference speed."""
    scales = [scale(r["probe_s"]) for r in done]
    passes = np.array([np.asarray(r["runtime_ms"]) * f for r, f in zip(done, scales)])
    run_s = statistics.median(r["run_s"] * f for r, f in zip(done, scales))
    return op_metrics(done[0]["reps"] / run_s, np.median(passes, axis=0), passes.size)


def trace_mc(workload, spec, seed, cfg_path, report, problems):
    spans_path = WORK / f"{workload}-spans.json"
    plain = grid_child(workload, cfg_path, 0)
    traced = grid_child(workload, cfg_path, 1, spans=spans_path, base_seed=spec["seed"])
    attempted, failed = check_grids(workload, spec, seed, [plain, traced], problems)
    if plain["rows_text"] != traced["rows_text"]:
        problems.append("traced rows CSV is not byte-identical to the untraced one")
    layers = layer_metrics(spans_path, traced["result"], plain["result"])
    first = plain["result"] or {"reps": 0, "run_s": 1.0, "runtime_ms": [0.0], "probe_s": [1.0]}
    layers.update(mc_op_metrics([first]))
    layers.update(cli_import_profile())
    layers["failed_frac"] = metric(failed / attempted, "frac", attempted)
    report["properties"] = properties(layers)
    return attempted, failed, problems, layers


# ---------------------------------------------------------------------------
# CLI workload
# ---------------------------------------------------------------------------


def run_cli(seed, seconds, trace, report):
    inputs = write_cli_inputs(seed)
    mix = cli_mix(inputs)
    report["workload"] = {
        "kind": "fresh `python -m l1agg.cli` subprocess per call, round-robin, closed loop, one client",
        "mix": [" ".join(argv[:3]) for argv in mix],
        "data_rows": CLI_ROWS,
    }
    reference = checks.load_cli_reference(REFERENCE)
    problems: list[str] = []
    if trace:
        return trace_cli(seed, mix, inputs, reference, report, problems)

    start = time.perf_counter()
    imports = [spawn_probed(["-c", "import l1agg.cli"], f"cli-import{i}") for i in range(IMPORT_REPEATS)]
    for proc in imports:
        if proc["code"] != 0:
            problems.append(f"import l1agg.cli failed: {proc['stderr'][-400:]}")
    calls, rounds, raw_rounds = [], [], []
    while True:
        round_start = time.perf_counter()
        round_calls = cli_round(mix)
        raw_rounds.append(time.perf_counter() - round_start)
        rounds.append(sum(c["wall_s"] * c["scale"] for c in round_calls))
        calls += round_calls
        elapsed = time.perf_counter() - start
        if len(rounds) >= MIN_ROUNDS and elapsed + statistics.median(raw_rounds) > seconds:
            break
    failed = sum(
        not checks.check_cli_call(c, seed == DEFAULT_SEED, inputs, reference, problems) for c in calls
    )
    checks.check_cli_repeats(calls, problems)
    metrics = {
        "setup_s": metric(statistics.median(p["wall_s"] * p["scale"] for p in imports), "s", len(imports)),
        "grid_s": metric(statistics.median(rounds), "s", len(rounds)),
        "rss_peak_mb": metric(max(c["rss_mb"] for c in calls), "MB", len(calls)),
    }
    report["unadjusted"] = {
        "setup_s": metric(statistics.median(p["wall_s"] for p in imports), "s", len(imports)),
        "grid_s": metric(statistics.median(raw_rounds), "s", len(raw_rounds)),
    }
    report["speed_scale"] = [p["scale"] for p in imports + calls]
    report["unbounded"] = op_metrics(
        len(calls) / sum(rounds), [1000.0 * c["wall_s"] * c["scale"] for c in calls], len(calls)
    )
    return len(calls), failed, problems, metrics


def cli_round(mix) -> list[dict]:
    """One fresh `python -m l1agg.cli` process per command of the mix."""
    calls = []
    for argv in mix:
        proc = spawn_probed(["-m", "l1agg.cli", *argv], f"cli-{argv[0]}")
        proc["argv"] = argv
        proc["outputs"] = checks.cli_outputs(argv)
        calls.append(proc)
    return calls


def trace_cli(seed, mix, inputs, reference, report, problems):
    mix_path = WORK / "cli_mix.json"
    mix_path.write_text(json.dumps(mix), encoding="utf-8")
    spans_path = WORK / "cli_oneshot-spans.json"
    calls = cli_round(mix)
    failed = sum(
        not checks.check_cli_call(c, seed == DEFAULT_SEED, inputs, reference, problems) for c in calls
    )
    children = []
    for tag, extra in (("cli-inproc", []), ("cli-inproc-traced", ["--spans", str(spans_path)])):
        child = run_child("cli", tag, ["--mix", str(mix_path), *extra])
        children.append(child)
        if child["result"] is None:
            problems.append(f"in-process CLI child exited {child['code']}: {child['stderr'][-400:]}")
            failed += len(mix)
            continue
        for call in child["result"]["calls"]:
            call["outputs"] = checks.cli_outputs(call["argv"])
            failed += not checks.check_cli_call(call, seed == DEFAULT_SEED, inputs, reference, problems)
    plain, traced = children
    if plain["result"] and traced["result"]:
        for a, b in zip(plain["result"]["calls"], traced["result"]["calls"]):
            if (a["stdout"], a["outputs"]) != (b["stdout"], b["outputs"]):
                problems.append(f"traced `{a['argv'][0]}` output differs from the untraced one")
    layers = layer_metrics(spans_path, traced["result"], plain["result"])
    walls = [c["wall_s"] * c["scale"] for c in calls]
    layers.update(op_metrics(len(walls) / sum(walls), [1000.0 * w for w in walls], len(walls)))
    layers.update(cli_import_profile())
    attempted = 3 * len(mix)
    layers["failed_frac"] = metric(failed / attempted, "frac", attempted)
    report["properties"] = properties(layers)
    return attempted, failed, problems, layers


def cli_import_profile() -> dict:
    """Bare interpreter start and the `import l1agg.cli` breakdown."""
    bare = [spawn([sys.executable, "-c", "pass"], f"interp{i}")["wall_s"] for i in range(IMPORT_REPEATS)]
    groups = {"total_s": [], "scipy_s": [], "numpy_s": [], "l1agg_s": []}
    for i in range(IMPORT_REPEATS):
        proc = spawn([sys.executable, "-X", "importtime", "-c", "import l1agg.cli"], f"importtime{i}")
        sums = dict.fromkeys(groups, 0.0)
        for line in proc["stderr"].splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            self_us, _, name = (part.strip() for part in line[len("import time:"):].split("|"))
            if not self_us.isdigit():
                continue
            top = name.split(".")[0]
            sums["total_s"] += int(self_us) / 1e6
            if top in ("scipy", "numpy", "l1agg"):
                sums[f"{top}_s"] += int(self_us) / 1e6
        for key, value in sums.items():
            groups[key].append(value)
    out = {"cli.interp_s": metric(statistics.median(bare), "s", len(bare))}
    for key, values in groups.items():
        out[f"cli.import.{key}"] = metric(statistics.median(values), "s", len(values))
    return out


# ---------------------------------------------------------------------------
# Per-layer metrics from spans
# ---------------------------------------------------------------------------

SELF_ONLY = (
    "dictionary.validate_a2", "dictionary.population_gram", "dictionary.sup_norm_grid",
    "dictionary.empirical_norms", "dictionary.load_points_csv", "gram.diagnostics",
    "solver.kkt_residual", "experiments.generate", "experiments.sample_noise", "experiments.run",
    "experiments.write_rows_csv", "experiments.read_rows_csv", "experiments.summarize",
    "experiments.rate_slope", "experiments.bound_check",
)
CALLS_AND_SELF = (
    "gram.kappa", "oracles.evaluate_truth", "oracles.fourier_truth", "oracles.sup_norm_error",
    "oracles.population_dist2", "oracles.event_flags", "oracles.oracle_fourier",
    "oracles.oracle_general",
)
CLI_COMMANDS = ("fit", "diagnose", "oracle", "bounds")


def layer_metrics(spans_path, traced, plain) -> dict:
    """Per-layer metrics from the traced child's spans; ``traced`` and
    ``plain`` are the two children's results, ``None`` if one failed (every
    metric then still appears, reading 0)."""
    spans = json.loads(spans_path.read_text(encoding="utf-8"))["spans"] if traced else []
    stats, root_s = aggregate(spans)
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "attrs": {}, "setup_attrs": {}}

    def get(name):
        return stats.get(name, empty)

    out = {}
    ev = get("dictionary.evaluate")
    entries = ev["attrs"].get("entries", 0)
    out["dictionary.evaluate.calls"] = metric(ev["calls"], "count", ev["calls"])
    out["dictionary.evaluate.self_s"] = metric(ev["self_s"], "s", ev["calls"])
    out["dictionary.evaluate.entries"] = metric(entries, "count", ev["calls"])
    out["dictionary.evaluate.bytes"] = metric(ev["attrs"].get("bytes", 0), "B", ev["calls"])
    out["dictionary.evaluate.setup_share"] = metric(
        ev["setup_attrs"].get("entries", 0) / entries if entries else 0.0, "frac", ev["calls"]
    )
    fit = get("solver.fit")
    fa = fit["attrs"]
    out["solver.fit.calls"] = metric(fit["calls"], "count", fit["calls"])
    out["solver.fit.self_s"] = metric(fit["self_s"], "s", fit["calls"])
    out["solver.fit.sweeps"] = metric(fa.get("sweeps", 0), "count", fit["calls"])
    out["solver.fit.sweeps_per_fit"] = metric(
        fa.get("sweeps", 0) / fit["calls"] if fit["calls"] else 0.0, "count", fit["calls"]
    )
    out["solver.fit.coord_visits"] = metric(fa.get("coord_visits", 0), "count", fit["calls"])
    out["solver.fit.col_bytes"] = metric(fa.get("col_bytes", 0), "B", fit["calls"])
    out["solver.fit.active_frac"] = metric(
        fa.get("m_hat", 0) / fa["M"] if fa.get("M") else 0.0, "frac", fit["calls"]
    )
    out["solver.fit.nonconverged"] = metric(fa.get("nonconverged", 0), "count", fit["calls"])
    for name in SELF_ONLY:
        out[f"{name}.self_s"] = metric(get(name)["self_s"], "s", get(name)["calls"])
    for name in CALLS_AND_SELF:
        out[f"{name}.calls"] = metric(get(name)["calls"], "count", get(name)["calls"])
        out[f"{name}.self_s"] = metric(get(name)["self_s"], "s", get(name)["calls"])
    cc = get("experiments.cell_context")
    out["experiments.cell_context.calls"] = metric(cc["calls"], "count", cc["calls"])
    out["experiments.cell_context.self_s"] = metric(cc["self_s"], "s", cc["calls"])
    out["experiments.cell_context.total_s"] = metric(cc["total_s"], "s", cc["calls"])
    for command in CLI_COMMANDS:
        span = get(f"cli.main.{command}")
        out[f"cli.main.{command}.self_s"] = metric(span["self_s"], "s", span["calls"])
    ok = bool(traced and plain)
    out["trace.overhead_frac"] = metric(
        adjusted(traced, "grid_s") / adjusted(plain, "grid_s") - 1.0 if ok else 0.0,
        "frac", 1,
    )
    out["trace.root_cover_frac"] = metric(root_s / traced["grid_s"] if traced else 0.0, "frac", len(spans))
    return out


def properties(layers: dict) -> dict:
    """Input properties a later performance claim may depend on."""
    keys = ("solver.fit.active_frac", "solver.fit.sweeps_per_fit", "dictionary.evaluate.setup_share")
    return {k: layers[k]["value"] for k in keys if k in layers}


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text(encoding="utf-8").strip()
        return ref
    except OSError:
        return None


def cpu_info() -> dict:
    info = {"nproc": os.cpu_count(), "model": platform.processor() or None}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    cache = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if level in ("2", "3") and kind in ("Unified", "Data"):
            info[f"L{level}"] = size
    return info


def env_block() -> dict:
    versions = {}
    for package in ("numpy", "scipy"):
        try:
            versions[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            versions[package] = None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_version = None
    return {
        "git_commit": git_commit(),
        "python": platform.python_version(),
        **versions,
        "blas": blas_version,
        "threads_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        **cpu_info(),
    }


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="record this tree's outputs at the default seed as the reference")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "l1agg" / "__init__.py").is_file():
        print(f"error: no l1agg source tree at {ROOT / 'src'}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    if args.write_reference:
        return write_reference(args.workload)

    report = {"env": env_block(), "seed": args.seed, "trace": args.trace}
    if args.workload in MC_WORKLOADS:
        attempted, failed, problems, metrics = run_mc(
            args.workload, args.seed, args.seconds, args.trace, report
        )
    else:
        attempted, failed, problems, metrics = run_cli(args.seed, args.seconds, args.trace, report)
    report["problems"] = problems
    report["metrics"] = metrics
    report["labels"] = {
        "dictionary.evaluate.bytes": "computed from array shapes (8 B per entry), not measured",
        "solver.fit.col_bytes": "computed as 8*n*M*sweeps, not measured",
    }
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in metrics.items()},
    }))
    return 0


def write_reference(workload: str) -> int:
    REFERENCE.mkdir(exist_ok=True)
    if workload in MC_WORKLOADS:
        cfg_path, _ = write_config(workload, DEFAULT_SEED)
        proc = grid_child(workload, cfg_path, 0)
        if proc["rows_text"] is None:
            print(proc["stderr"], file=sys.stderr)
            return 1
        (REFERENCE / f"{workload}-seed{DEFAULT_SEED}.csv").write_text(proc["rows_text"], encoding="utf-8")
        return 0
    inputs = write_cli_inputs(DEFAULT_SEED)
    record = {}
    for argv in cli_mix(inputs):
        proc = spawn([sys.executable, "-m", "l1agg.cli", *argv], f"ref-{argv[0]}")
        if proc["code"] != 0:
            print(proc["stderr"], file=sys.stderr)
            return 1
        record[argv[0]] = {"stdout": proc["stdout"], "outputs": checks.cli_outputs(argv)}
    (REFERENCE / f"{CLI_WORKLOAD}-seed{DEFAULT_SEED}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
