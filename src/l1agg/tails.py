"""Explicit tail bounds on the probability of the good events.

    E1          -- noise/dictionary correlations 2|V_j| <= omega_j,
    E2          -- empirical norms within a factor 2 of population norms,
    E3(lambda)  -- empirical approximation error controlled by its
                   population value plus r^2 M(lambda).

Each bound is a closed form in ``math.exp`` and ``math.sqrt`` of scalar
parameters, so this module imports no numpy, and ``l1agg bounds`` loads
no other layer module.
"""

from __future__ import annotations

import math

from ._util import _integral
from .errors import ConfigError, NumericError


def bernstein_bound(n: int, epsilon: float, w2: float, d: float) -> float:
    """Generic Bernstein tail exp(-n eps^2 / (2 (w^2 + d eps))), in [0, 1].

    Every argument must be finite and nonnegative, and n an integer or an
    integral float (1e3); anything else raises ConfigError naming the
    argument.
    """
    for name, value in (("n", n), ("epsilon", epsilon), ("w2", w2), ("d", d)):
        if not (value >= 0 and math.isfinite(value)):
            raise ConfigError(f"bernstein_bound needs finite {name} >= 0, got {value}")
    if not _integral(n):
        raise ConfigError(f"bernstein_bound needs an integer n, got {n}")
    if n == 0 or epsilon == 0.0:
        return 1.0
    denom = 2.0 * (w2 + d * epsilon)
    if denom == 0.0:
        return 0.0
    return float(min(1.0, math.exp(-n * epsilon * epsilon / denom)))


def _l4(n, M, c0, L):
    return 2.0 * M * math.exp(-n * c0 * c0 / (12.0 * L * L))


def _l5(n, M, r_nM, b, c0, L):
    return (
        2.0 * M * math.exp(-n * r_nM * r_nM / (16.0 * b))
        + 2.0 * M * math.exp(-n * r_nM * c0 / (8.0 * math.sqrt(2.0) * L))
        + _l4(n, M, c0, L)
    )


def _l6(n, r_nM, m_lambda, L_lambda):
    if L_lambda == 0.0:  # exact representation: E3 holds surely
        return 0.0
    return math.exp(-m_lambda * n * r_nM * r_nM / (4.0 * L_lambda * L_lambda))


def _l7(n, M, m_lambda, c0, L, L0, kappa_M, C_f):
    big_c = 2.0 / (c0 * c0) * (2.0 * C_f + 1.0 + 4.0 * math.sqrt(2.0 / kappa_M)) ** 2
    return 2.0 * M * M * (
        math.exp(-n / (16.0 * L0 * big_c * big_c * m_lambda * m_lambda))
        + math.exp(-n / (8.0 * L * L * big_c * m_lambda))
    )


def _l9(n, M, r_nM, c0, L, L0):
    big_c = 8.0 * 11.0**2 / (c0 * c0)
    return 2.0 * M * M * (
        math.exp(-n * r_nM * r_nM / (16.0 * big_c * big_c * L0))
        + math.exp(-n * r_nM / (8.0 * L * L * big_c))
    )


_LEMMAS = {"L4": _l4, "L5": _l5, "L6": _l6, "L7": _l7, "L9": _l9}
# The parameters each lemma's bound reads, besides n: its formula's arguments.
LEMMA_PARAMS = {
    which: bound.__code__.co_varnames[1 : bound.__code__.co_argcount]
    for which, bound in _LEMMAS.items()
}
LEMMA_KINDS = tuple(LEMMA_PARAMS)
# Parameters that may be 0; every other parameter must be positive.
_MAY_BE_ZERO = ("M", "m_lambda", "C_f", "L_lambda")


def lemma_bounds(which: str, n: int, **params) -> float:
    """Explicit tail-probability bound for one of the good events.

    L4 bounds P(E2^c); L5 bounds P((E1 n E2)^c); L6 bounds P(E3(lambda)^c);
    L7 and L9 bound the empirical-norm distortion events entering the
    weak-sparsity and weak-approximation results. Each lemma reads the
    parameters :data:`LEMMA_PARAMS` lists for it, and ignores those of the
    other lemmas; a keyword that no lemma reads raises ConfigError. Every
    parameter it reads must be finite and positive, except that M,
    m_lambda, C_f and L_lambda may be 0 (L7 needs m_lambda >= 1); n, M
    and m_lambda must be integers or integral floats (1e3). Values at
    which a formula divides by an underflowed 0 or overflows raise
    NumericError naming the lemma. All outputs are clamped to [0, 1]. L6
    returns 0 in the exact-representation case L(lambda) = 0, where the
    event holds surely.
    """
    if which not in _LEMMAS:
        raise ConfigError(f"unknown lemma {which!r}; expected one of {LEMMA_KINDS}")
    unknown = params.keys() - set().union(*LEMMA_PARAMS.values())
    if unknown:
        raise ConfigError(f"no lemma reads parameter {', '.join(sorted(unknown))}")
    if not (n >= 1 and _integral(n)):
        raise ConfigError(f"lemma bounds need an integer n >= 1, got {n}")
    for name in LEMMA_PARAMS[which]:
        value = params.get(name)
        if value is None:
            raise ConfigError(f"lemma {which} needs parameter {name}")
        least = 1 if (which, name) == ("L7", "m_lambda") else 0
        if name in _MAY_BE_ZERO:
            ok, need = value >= least, f">= {least}"
        else:
            ok, need = value > 0, "> 0"
        if not (ok and math.isfinite(value)):
            raise ConfigError(f"lemma {which} needs finite {name} {need}, got {value}")
        if name in ("M", "m_lambda") and not _integral(value):
            raise ConfigError(f"lemma {which} needs an integer {name}, got {value}")
    try:
        value = _LEMMAS[which](n, *(params[name] for name in LEMMA_PARAMS[which]))
    except ArithmeticError as exc:  # a square underflowing to 0, or overflowing
        raise NumericError(
            f"lemma {which} cannot be evaluated at these values ({type(exc).__name__})"
        ) from None
    return float(min(1.0, max(0.0, value)))
