"""Helpers shared by the test modules."""

from fractions import Fraction

from spdeg.degeneration import random_symplectic


def rational_symplectic(rng):
    """The symplectic matrix g of random_symplectic's (d, d*g), over Fraction."""
    d, g = random_symplectic(rng)
    return [[Fraction(x, d) for x in row] for row in g]
