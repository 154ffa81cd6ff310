"""Output checks: rows CSVs of the grid workloads and CLI call outputs.

Each check appends a one-line description of what is wrong to
``problems`` and returns whether the operation (a replicate or a call)
counts as failed. Floats are compared to a relative 1e-6 because later
changes may move the last bits; integers, flags and supports exactly.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

import numpy as np

from tracer import SEED_CELL_STRIDE

KKT_LIMIT = 1e-6
REL_TOL = 1e-6
ABS_TOL = 1e-12
EXACT_FIELDS = ("preset", "n", "M", "k_or_beta", "A", "rep", "seed", "m_hat", "e1", "e2", "e3")
FLOAT_FIELDS = ("risk", "l1_err", "rhs_t21_risk", "rhs_t21_l1")
CELL_FIELDS = ("preset", "n", "M", "k_or_beta", "A", "rhs_t21_risk", "rhs_t21_l1")


def close(a: float, b: float) -> bool:
    # The absolute floor admits rounding noise on values that are zero in
    # exact arithmetic, such as the coherence of an orthonormal dictionary.
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b)) + ABS_TOL


def parse_rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def _same(field: str, a: str, b: str) -> bool:
    if field in FLOAT_FIELDS:
        return close(float(a), float(b))
    if field in ("k_or_beta", "A"):
        return float(a) == float(b)
    return a == b


# ---------------------------------------------------------------------------
# Experiment rows
# ---------------------------------------------------------------------------


def check_rows(spec: dict, text: str, result: dict, m_of, problems: list) -> int:
    """Rows match the config's (cell, rep) layout; count failed replicates.

    A replicate fails if it did not converge or its KKT residual exceeds
    1e-6; a row that is missing or malformed also counts as failed.
    """
    rows = parse_rows(text)
    expected = [
        (n, m_of(spec["m_rule"], n), rep, spec["seed"] + SEED_CELL_STRIDE * cell + rep)
        for cell, n in enumerate(spec["n_values"])
        for rep in range(spec["R"])
    ]
    if len(rows) != len(expected) or len(result["converged"]) != len(expected):
        problems.append(f"expected {len(expected)} rows, got {len(rows)}")
        return len(expected)
    failed = 0
    for row, want, converged in zip(rows, expected, result["converged"]):
        try:
            got = (int(row["n"]), int(row["M"]), int(row["rep"]), int(row["seed"]))
            values = [float(row[f]) for f in ("risk", "l1_err", "kkt")]
            layout_ok = (
                got == want
                and row["preset"] == spec["preset"]
                and float(row["k_or_beta"]) == spec["k_or_beta"]
                and float(row["A"]) == spec["A"]
                and 0 <= int(row["m_hat"]) <= want[1]
                and all(row[e] in ("0", "1") for e in ("e1", "e2", "e3"))
                and float(row["runtime_ms"]) == 0.0
                and all(math.isfinite(v) and v >= 0.0 for v in values)
            )
        except (KeyError, ValueError):
            layout_ok = False
        if not layout_ok:
            problems.append(f"malformed row for (n, M, rep, seed) = {want}")
            failed += 1
        elif not converged or float(row["kkt"]) > KKT_LIMIT:
            failed += 1
    return failed


def _reference_rows(workload: str, reference_dir: Path, problems: list):
    path = reference_dir / f"{workload}-seed0.csv"
    if not path.exists():
        problems.append(f"missing reference {path.name}")
        return None
    return parse_rows(path.read_text(encoding="utf-8"))


def check_reference_rows(workload: str, full: bool, text: str, reference_dir: Path, problems: list) -> None:
    """Compare with the committed rows of the default seed.

    Per-cell columns (sizes, tuning and theorem right-hand sides) do not
    depend on the seed and are compared on every run; every column except
    ``kkt`` (which only has to stay below 1e-6) is compared at the default
    seed.
    """
    ref_rows = _reference_rows(workload, reference_dir, problems)
    if ref_rows is None:
        return
    rows = parse_rows(text)
    if full:
        if len(rows) != len(ref_rows):
            problems.append("row count differs from the reference")
            return
        for row, ref in zip(rows, ref_rows):
            bad = [f for f in EXACT_FIELDS + FLOAT_FIELDS if not _same(f, row[f], ref[f])]
            if bad:
                problems.append(f"row (n={row['n']}, rep={row['rep']}) differs from the reference in {bad}")
                return
        return
    ref_cells = {(r["n"], r["M"]): r for r in ref_rows}
    for row in rows:
        ref = ref_cells.get((row["n"], row["M"]))
        if ref is None or not all(_same(f, row[f], ref[f]) for f in CELL_FIELDS):
            problems.append(f"cell (n={row['n']}, M={row['M']}) differs from the reference cells")
            return


def check_reference_sample(workload: str, text: str, reference_dir: Path, problems: list) -> None:
    """Replicates recomputed at the reference config match their committed
    rows, so every run checks some rows in full whatever its seed."""
    ref_rows = _reference_rows(workload, reference_dir, problems)
    if ref_rows is None:
        return
    ref_rows = {(r["n"], r["rep"]): r for r in ref_rows}
    for row in parse_rows(text):
        ref = ref_rows.get((row["n"], row["rep"]))
        if ref is None or float(row["kkt"]) > KKT_LIMIT or not all(
            _same(f, row[f], ref[f]) for f in EXACT_FIELDS + FLOAT_FIELDS
        ):
            problems.append(f"reference replicate (n={row['n']}, rep={row['rep']}) differs from its committed row")
            return


# ---------------------------------------------------------------------------
# CLI calls
# ---------------------------------------------------------------------------


def load_cli_reference(reference_dir: Path):
    path = reference_dir / "cli_oneshot-seed0.json"
    return json.loads(path.read_text(encoding="utf-8")) if path.exists() else None


def _flag(argv, name):
    return argv[argv.index(name) + 1] if name in argv else None


def cli_outputs(argv) -> dict:
    """Contents of the files a call writes (its ``--out``), if any."""
    out = _flag(argv, "--out")
    if out is None:
        return {}
    path = Path(out)
    return {"out": path.read_text(encoding="utf-8") if path.exists() else None}


def key_values(text: str) -> dict:
    return dict(line.split("=", 1) for line in text.splitlines() if "=" in line)


def _values_match(got: dict, ref: dict, keys) -> bool:
    for key in keys:
        a, b = got.get(key), ref.get(key)
        if a is None or b is None:
            return False
        if a != b and not close(float(a), float(b)):
            return False
    return True


def _fourier_design(x: np.ndarray, M: int) -> np.ndarray:
    """f_1 = 1, f_2k = sqrt(2) cos(2 pi k x), f_2k+1 = sqrt(2) sin(2 pi k x)."""
    phi = np.empty((x.size, M))
    phi[:, 0] = 1.0
    for j in range(1, M):
        k = (j + 1) // 2
        trig = np.cos if j % 2 == 1 else np.sin
        phi[:, j] = math.sqrt(2.0) * trig(2.0 * math.pi * k * x)
    return phi


def _check_fit(call, full, inputs, reference, problems) -> bool:
    stdout = key_values(call["stdout"])
    text = call["outputs"].get("out")
    if text is None or stdout.get("converged") != "1" or float(stdout.get("kkt_residual", "inf")) > KKT_LIMIT:
        problems.append("fit did not converge or wrote no coefficients")
        return False
    table = list(csv.DictReader(io.StringIO(text)))
    lam = np.array([float(r["lambda"]) for r in table])
    omega = np.array([float(r["omega"]) for r in table])
    if "xy" not in inputs:
        inputs["xy"] = np.loadtxt(inputs["data"], delimiter=",", skiprows=1)
    x, y = inputs["xy"][:, 0], inputs["xy"][:, 1]
    n, M = x.size, lam.size
    phi = _fourier_design(x, M)
    A = float(_flag(call["argv"], "--A"))
    want_omega = A * math.sqrt(math.log(M) / n) * np.sqrt(np.mean(phi * phi, axis=0))
    grad = phi.T @ (y - phi @ lam) / n
    viol = np.where(lam == 0.0, np.maximum(np.abs(grad) - omega, 0.0), np.abs(grad - omega * np.sign(lam)))
    if M != 25 or not np.allclose(omega, want_omega, rtol=1e-9, atol=0.0) or viol.max() > KKT_LIMIT:
        problems.append(f"fit coefficients fail an independent KKT check (max violation {viol.max():.3e})")
        return False
    if full:
        ref_table = list(csv.DictReader(io.StringIO(reference["fit"]["outputs"]["out"])))
        ref_lam = [float(r["lambda"]) for r in ref_table]
        ref_stdout = key_values(reference["fit"]["stdout"])
        if len(ref_lam) != M or not all(
            (a == 0.0) == (b == 0.0) and close(a, b) for a, b in zip(lam, ref_lam)
        ) or not _values_match(stdout, ref_stdout, ("objective", "support_size")):
            problems.append("fit coefficients differ from the reference")
            return False
    return True


DIAGNOSE_POPULATION = ("kappa_M", "rho_lambda", "L", "c0", "L0", "a2_bounded", "a2_norms", "a2_moments")
DIAGNOSE_DATA = ("eta_nM", "rho_lambda_empirical")


def _check_diagnose(call, full, reference, problems) -> bool:
    got, ref = key_values(call["stdout"]), key_values(reference["diagnose"]["stdout"])
    keys = DIAGNOSE_POPULATION + (DIAGNOSE_DATA if full else ())
    if not _values_match(got, ref, keys):
        problems.append("diagnose output differs from the reference")
        return False
    return True


def _check_oracle(call, reference, problems) -> bool:
    text = call["outputs"].get("out")
    ref = list(csv.DictReader(io.StringIO(reference["oracle"]["outputs"]["out"])))
    got = list(csv.DictReader(io.StringIO(text))) if text else []
    ok = len(got) == len(ref) and all(
        (g["k"], g["support"], g["exact"]) == (r["k"], r["support"], r["exact"])
        and close(float(g["residual2"]), float(r["residual2"]))
        for g, r in zip(got, ref)
    )
    if not ok:
        problems.append("oracle table differs from the reference")
    return ok


def check_cli_call(call, full: bool, inputs: dict, reference, problems: list) -> bool:
    """Exit 0, no traceback, and output matching the reference.

    The oracle table, the bounds lines and the population lines of
    diagnose do not depend on the seeded data and are checked on every
    run; fit must pass an independent KKT check on every run and match
    the reference coefficients at the default seed.
    """
    command = call["argv"][0]
    if call["code"] != 0 or "Traceback" in call["stderr"]:
        problems.append(f"`{command}` exited {call['code']}: {call['stderr'][-300:]}")
        return False
    if reference is None:
        problems.append("missing reference cli_oneshot-seed0.json")
        return False
    if command == "fit":
        return _check_fit(call, full, inputs, reference, problems)
    if command == "diagnose":
        return _check_diagnose(call, full, reference, problems)
    if command == "oracle":
        return _check_oracle(call, reference, problems)
    if call["stdout"] != reference["bounds"]["stdout"]:
        problems.append("bounds lines differ from the reference")
        return False
    return True


def check_cli_repeats(calls, problems: list) -> None:
    """The same command on the same inputs prints and writes the same bytes."""
    first = {}
    for call in calls:
        key = call["argv"][0]
        seen = first.setdefault(key, (call["stdout"], call["outputs"]))
        if seen != (call["stdout"], call["outputs"]):
            problems.append(f"`{key}` output changed between repeated calls")
            return
