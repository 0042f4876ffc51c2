"""The combinatorial coefficients of the large-offset mass expansion.

Every other special function the package needs, the upper incomplete gamma
of the concentration bound included, is a Gaussian-tilted moment, which the
log-domain kernel in _moments evaluates.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class ExpansionResult:
    """Truncated asymptotic value together with a guaranteed error bound."""

    value: float
    remainder_bound: float


@functools.lru_cache(maxsize=4096)
def expansion_coeff_exact(p: int, r: int) -> Fraction:
    """c(p, r) = sum_k C(p-1, k) (-1)^(p-1-k) ((k+1)/2 - 1)...((k+1)/2 - r), exactly."""
    if p < 1 or r < 1:
        raise ValueError("need p >= 1 and r >= 1")
    total = Fraction(0)
    for k in range(p):
        prod = Fraction(1)
        half = Fraction(k + 1, 2)
        for j in range(1, r + 1):
            prod *= half - j
        total += math.comb(p - 1, k) * (-1) ** (p - 1 - k) * prod
    return total


def expansion_coeff(p: int, r: int) -> float:
    """c(p, r) as a float; the defining alternating sum cancels catastrophically
    in floating point, so it is evaluated in exact rational arithmetic first."""
    return float(expansion_coeff_exact(p, r))
