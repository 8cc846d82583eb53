#!/usr/bin/env python3
"""Regenerate the published modulus table in src/mst3sz/field.py.

For every odd degree n in 3..127 this prints the lexicographically least
irreducible polynomial over GF(2), encoded as an int whose bits are the
coefficients.  The output is pasted verbatim into field.IRREDUCIBLE.

Usage: PYTHONPATH=src python scripts/gen_modulus_table.py
"""

from mst3sz.field import is_irreducible


def least_irreducible(n: int) -> int:
    base = 1 << n
    for low in range(1, base, 2):  # constant term must be 1
        f = base | low
        if is_irreducible(f):
            return f
    raise AssertionError(f"no irreducible polynomial of degree {n}?")


if __name__ == "__main__":
    for n in range(3, 128, 2):
        f = least_irreducible(n)
        print(f"    {n}: 0x{f:X},")
