"""
Dictionaries, norms, and Gram diagnostics
=========================================

Build the three dictionary kinds, validate boundedness, and inspect the
matrix-level quantities that the sparsity analysis runs on: the
population and empirical Gram matrices, kappa_M, mutual coherence, and the
entrywise Gram deviation eta_{n,M}.
"""

import numpy as np

from l1agg import (
    build_coordinate,
    build_fourier,
    build_tabulated,
    diagnostics,
    empirical_gram,
    empirical_norms,
    evaluate,
    population_constants,
    uniform_measure,
)

rng = np.random.default_rng(0)
measure = uniform_measure()

# --- the trigonometric dictionary on [0, 1] -------------------------------
fourier = build_fourier(7)
design = evaluate(fourier, rng.uniform(0, 1, 2000))
print("fourier M =", fourier.M)
print("empirical norms ~ 1:", np.round(empirical_norms(design), 4))

population = population_constants(fourier, measure)
print(f"L = {population.L:.4f} (sup norm), c0 = {population.c0:.4f} "
      f"(min population norm), L0 = {population.L0:.4f}")
print("boundedness conditions satisfied:", population.c0 > 0)

# --- population and empirical Gram diagnostics ----------------------------
report = diagnostics(population.psi, [1, 3], empirical_gram(design))
print("kappa_M =", round(report.kappa_M, 6), "(orthonormal => 1)")
print("rho(lambda) for support {2, 4} =", round(report.rho_lambda, 6))
print("eta_nM (population vs empirical Gram) =", round(report.eta_nM, 4))

# --- coordinate dictionary for linear designs ------------------------------
linear = build_coordinate(4, domain=[-1.0, 1.0])
row = evaluate(linear, [[0.5, -0.25, 0.8, 0.0]]).entries
print("\ncoordinate dictionary row:", row[0])

# --- tabulated dictionary: aggregate arbitrary fitted curves ----------------
grid = np.linspace(0, 1, 41)
tables = [(grid, np.sin(2 * np.pi * grid)), (grid, grid**2)]
tabulated = build_tabulated(tables, domain=[0.0, 1.0])
print("tabulated f_2(0.5) ~ 0.25:", evaluate(tabulated, [0.5]).entries[0, 1])
