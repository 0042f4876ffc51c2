"""Expansion coefficients against exact-arithmetic oracles."""

import math
from fractions import Fraction

import pytest

from polarlasso.radial import expansion_coeff, expansion_coeff_exact


class TestExpansionCoeff:
    def test_vanishing_below_diagonal(self):
        for p in range(2, 11):
            for r in range(1, p - 1):
                assert expansion_coeff_exact(p, r) == 0

    def test_diagonal_value(self):
        for p in range(2, 11):
            expected = Fraction(math.factorial(p - 1), 2 ** (p - 1))
            assert expansion_coeff_exact(p, p - 1) == expected
        assert expansion_coeff(7, 6) == pytest.approx(11.25)

    def test_first_superdiagonal_against_integer_oracle(self):
        # independent oracle: scale the half-integer falling products to integers
        def oracle(p, r):
            total = Fraction(0)
            for k in range(p):
                prod = 1
                for j in range(1, r + 1):
                    prod *= (k + 1) - 2 * j
                total += math.comb(p - 1, k) * (-1) ** (p - 1 - k) * Fraction(prod, 2**r)
            return total

        for p in range(2, 9):
            for r in range(1, p + 4):
                assert expansion_coeff_exact(p, r) == oracle(p, r)
        assert expansion_coeff(7, 7) == pytest.approx(-157.5)
