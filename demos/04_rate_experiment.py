"""
Monte Carlo rate verification
=============================

Run a seeded experiment grid and check the predicted convergence rate:
for a k-sparse trigonometric truth with the log-n tuning, the squared
error should scale like k log n / n, i.e. a slope of about -1 in
log median risk versus log(n / log n). Scaled down here (R = 30,
n up to 2^11) so it runs in a few seconds; the acceptance suite runs
the full configuration.
"""

import numpy as np

from l1agg import ExperimentConfig, bound_check, rate_slope, run, summarize

config = ExperimentConfig(
    preset="fourier-L0k",
    n_values=(256, 512, 1024, 2048),
    m_rule="fixed:25",
    k_or_beta=3,
    A=4.0,
    rate_kind="log_n",
    R=30,
    seed=12345,
    C_f=1.0,
)
rows = run(config)

print(" n     median risk   median l1   E1   E2   E3")
for cell in summarize(config, rows):
    print(
        f"{cell.n:5d}   {cell.median_risk:9.4f}   {cell.median_l1_err:8.4f}"
        f"   {cell.freq_e1:.2f} {cell.freq_e2:.2f} {cell.freq_e3:.2f}"
    )

slope, intercept, stderr = rate_slope(config, rows, "risk")
print(f"\nrisk slope vs log(n/log n): {slope:.3f} (se {stderr:.3f}; theory -1)")
slope_l1, _, stderr_l1 = rate_slope(config, rows, "l1_err")
print(f"l1 slope:                   {slope_l1:.3f} (se {stderr_l1:.3f}; theory -1/2)")

# Bound verification: fit the scale constant on half the replicates,
# evaluate the held-out fraction within the fitted right-hand side.
print("\nsplit-sample bound check (risk):")
for cell in bound_check(config, rows, "t21_risk", fit_scale=True):
    print(
        f"  n = {cell.n}: fitted scale {cell.scale:.2f}, held-out fraction "
        f"{cell.fraction:.2f}, tail floor {cell.prob_floor:.3f}"
    )

# One-constant check against the recorded unit-constant RHS.
cells = bound_check(config, rows, "t21_risk", 2.0)
print("\nB1 = 2 satisfied on all cells:", all(c.satisfied for c in cells))
