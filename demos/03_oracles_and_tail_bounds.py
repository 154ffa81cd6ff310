"""
Oracle vectors, membership sets, and explicit tail bounds
=========================================================

The analysis compares the fitted aggregate against a population oracle:
the best k-sparse approximation of the truth at the smallest k whose
squared error is within C_f r^2 k (the "weak sparsity" inequality).
This demo scans for that effective dimension, evaluates the membership
flags (including the rho(lambda) M(lambda) <= 1/45 coherence gate), and
prints the explicit tail-probability bounds for the good events.
"""

import numpy as np

from l1agg import (
    bernstein_bound,
    build_fourier,
    fourier_truth,
    lemma_bounds,
    oracle_report,
    population_problem,
    rate,
    theorem_rhs,
    uniform_measure,
)

n, M, A = 4096, 25, 4.0
dictionary = build_fourier(M)
measure = uniform_measure()

# A truth with a fast-decaying trigonometric expansion.
theta = np.array([0.0, 2.5, 0.0, 1.2, 0.0, 0.0, 0.4, 0.0, 0.1])
truth = fourier_truth(theta)
r = rate(A, n, M, "log_n")
print(f"r_nM = {r:.4f}")

problem = population_problem(dictionary, measure, truth)
report = oracle_report(problem, r, C_f=1.0, C_f_prime=1.0)
print("effective dimension k* =", report.k_star)
print("oracle support:", np.flatnonzero(report.lambda_star).tolist())
print("||f_lambda* - f||^2 =", f"{report.dist2:.5f}")
print("L(lambda*) (grid sup) =", f"{report.L_lambda:.5f}")
print("memberships:", report.memberships)

# Theorem-shaped right-hand sides with unit constants.
print("\nrisk RHS  (weak sparsity, kappa = 1):",
      f"{theorem_rhs('t21_risk', r, report.k_star, kappa_M=1.0):.5f}")
print("l1 RHS:   ",
      f"{theorem_rhs('t21_l1', r, report.k_star, kappa_M=1.0):.5f}")
print("combined RHS (weak approximation):",
      f"{theorem_rhs('t23', r, report.k_star, dist2=report.dist2):.5f}")

# Explicit tail bounds for the good events at this configuration.
b = np.e - 1.0  # E exp|W| for uniform noise on [-1, 1]
print("\nP(E2^c)        <=", lemma_bounds("L4", n, M=M, c0=1.0, L=np.sqrt(2)))
print("P((E1 n E2)^c) <=",
      lemma_bounds("L5", n, M=M, r_nM=r, b=b, c0=1.0, L=np.sqrt(2)))
print("P(E3^c)        <=",
      lemma_bounds("L6", n, r_nM=r, m_lambda=report.k_star,
                   L_lambda=report.L_lambda))
print("generic Bernstein tail, eps = 0.5, w2 = 2, d = 2:",
      bernstein_bound(n, 0.5, 2.0, 2.0))
