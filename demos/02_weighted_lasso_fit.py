"""
Weighted l1-penalized least squares
===================================

Fit the aggregate f_hat = sum_j lambda_j f_j by cyclic coordinate descent.
The penalty uses per-coordinate weights omega_j = r_{n,M} ||f_j||_n, with
the rate r_{n,M} = A sqrt(log n / n), and every fit comes back with an
exact KKT certificate. Larger tuning
constants A give sparser fits.
"""

import numpy as np

from l1agg import (
    build_fourier,
    evaluate,
    fit,
    generate,
    l0k_truth,
    noise_bounded_uniform,
    penalty_weights,
    predict,
    rate,
)

dictionary = build_fourier(25)
truth = l0k_truth(3)  # |theta| = (3, 2, 1) at basis indices 2, 4, 7
sample = generate(dictionary, truth, noise_bounded_uniform(1.0), n=2048, seed=7)
design = evaluate(dictionary, sample.x)

r_nM = rate(4.0, design.n, design.M, "log_n")
result = fit(design, sample.y, penalty_weights(design, r_nM))

print("rate r_nM =", round(r_nM, 4))
print("support (0-based):", result.support.tolist())
print("nonzero coefficients:", np.round(result.lambda_hat[result.support], 3))
print("sweeps:", result.sweeps, "| KKT residual:", f"{result.kkt_residual:.2e}")
print("objective:", round(result.objective, 5))

# Prediction at new points.
grid = np.linspace(0, 1, 5)
print("f_hat on a grid:", np.round(predict(dictionary, result.lambda_hat, grid), 3))

# The regularization ladder: support size shrinks as A grows.
print("\n A    m_hat  objective")
for a_value in (0.5, 1.0, 2.0, 4.0, 8.0, 16.0):
    weights = penalty_weights(design, rate(a_value, design.n, design.M, "log_n"))
    ladder_fit = fit(design, sample.y, weights)
    print(f"{a_value:4.1f}   {ladder_fit.m_hat:3d}   {ladder_fit.objective:.4f}")
