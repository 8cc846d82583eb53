"""Arithmetic in the binary fields GF(2^n) used by the cryptosystem.

Elements are plain Python ints whose binary digits are the coefficients of
a polynomial over GF(2), reduced modulo a published irreducible polynomial
of degree n.  One canonical modulus is fixed per degree (the
lexicographically least irreducible polynomial, table below) so that
serialized keys and ciphertexts are interoperable.

The cryptosystem itself only uses odd widths n = 2s + 1 with 3 <= n <= 127
(``FieldParams``; ``make_params(n)`` is the one cached field per width, on
the published modulus), for which q = 2^n, q0 = 2^s and the Suzuki exponents
2*q0 = 2^(s+1) and 2*q0 + 1 are provided.  The plain ``BinaryField`` class
accepts any degree and is used by tests that need extension fields.

Each primitive has one route per field size.  Fields with q <= 2^18 use
log/exp tables for mul, inv, Frobenius and a^(2q0+1), filled by walking the
powers of the first generator g, each step one read of the byte tables of
v -> v*g.  log takes its ints from exp, so the two tables hold one int
object per value (about 7 MB at n=17, against 10.5 MB for two sets).
Larger fields:

* One product routine and one reduction.  ``_product`` forms the
  carry-less product with a 4-bit window of a (16 multiples of a per call,
  one XOR and shift per nibble of b); ``_fold`` reduces it as a linear
  map: r mod m = (r mod x^n) + L(r div x^n), L: h -> h*x^n mod m, whose
  column i is x^(n+i) mod m.  L is applied through 8-bit window tables
  (``_byte_tables``), so the cost is the same for every modulus, sparse or
  dense, including one read from an untrusted key header.  mul is the
  fold of one product.  As the fold is linear, ``dot2`` = a*b + c*d folds
  the sum of two products once, and ``mul3`` = (a*x, a*y, a*z) takes one
  product of a by x, y and z packed in 2n-bit lanes of one int, then
  folds each lane; on the log/exp tables both are plain table reads.
  A longer sum of products is ``product`` by ``product``, then one
  ``fold``: above the tables the carry-less product and ``_fold``, on
  them a table read and nothing.
* Frobenius powers x -> x^(2^k) are GF(2)-linear maps too, whose column i
  is (x^(2^k))^i; each k used gets its own byte tables on first use.
* inv is the extended Euclidean algorithm.

Bit-serial shift-and-add (``_mul_mod``) is used only while a field is
built: for the columns of the log/exp walk, the reduction and the
Frobenius maps, and for the squarings of ``is_irreducible``.

WARNING: nothing here is constant-time.  This is a research artifact for
studying the scheme at desk scale; do not use it to protect real data.

Published moduli (regenerate with scripts/gen_modulus_table.py)::

    n=3   x^3+x+1              n=5   x^5+x^2+1
    n=63  x^63+x+1             n=65  x^65+x^4+x^3+x+1
    n=127 x^127+x+1            (full table in IRREDUCIBLE)
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import lru_cache

# Lexicographically least irreducible polynomial of each odd degree 3..127,
# encoded as an int with coefficient bits.
IRREDUCIBLE: dict[int, int] = {
    3: 0xB,
    5: 0x25,
    7: 0x83,
    9: 0x203,
    11: 0x805,
    13: 0x201B,
    15: 0x8003,
    17: 0x20009,
    19: 0x80027,
    21: 0x200005,
    23: 0x800021,
    25: 0x2000009,
    27: 0x8000027,
    29: 0x20000005,
    31: 0x80000009,
    33: 0x20000004B,
    35: 0x800000005,
    37: 0x200000003F,
    39: 0x8000000011,
    41: 0x20000000009,
    43: 0x80000000059,
    45: 0x20000000001B,
    47: 0x800000000021,
    49: 0x2000000000071,
    51: 0x800000000004B,
    53: 0x20000000000047,
    55: 0x80000000000047,
    57: 0x200000000000011,
    59: 0x80000000000007B,
    61: 0x2000000000000027,
    63: 0x8000000000000003,
    65: 0x2000000000000001B,
    67: 0x80000000000000027,
    69: 0x200000000000000065,
    71: 0x80000000000000002B,
    73: 0x200000000000000001D,
    75: 0x800000000000000004B,
    77: 0x20000000000000000065,
    79: 0x8000000000000000001D,
    81: 0x200000000000000000011,
    83: 0x800000000000000000095,
    85: 0x2000000000000000000107,
    87: 0x80000000000000000000A3,
    89: 0x20000000000000000000069,
    91: 0x800000000000000000000ED,
    93: 0x200000000000000000000005,
    95: 0x800000000000000000000077,
    97: 0x2000000000000000000000041,
    99: 0x800000000000000000000004B,
    101: 0x200000000000000000000000C3,
    103: 0x800000000000000000000000BD,
    105: 0x200000000000000000000000011,
    107: 0x8000000000000000000000000AF,
    109: 0x2000000000000000000000000035,
    111: 0x8000000000000000000000000095,
    113: 0x2000000000000000000000000002D,
    115: 0x800000000000000000000000000AF,
    117: 0x200000000000000000000000000027,
    119: 0x800000000000000000000000000101,
    121: 0x2000000000000000000000000000123,
    123: 0x8000000000000000000000000000005,
    125: 0x200000000000000000000000000000AF,
    127: 0x80000000000000000000000000000003,
}

# Fields up to this order get log/exp tables; larger ones use byte tables.
_TABLE_LIMIT = 1 << 18


def _polymod(a: int, m: int) -> int:
    dm = m.bit_length() - 1
    while a.bit_length() - 1 >= dm:
        a ^= m << (a.bit_length() - 1 - dm)
    return a


def _polygcd(a: int, b: int) -> int:
    while b:
        a, b = b, _polymod(a, b)
    return a


def _prime_factors(n: int) -> list[int]:
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def _mul_mod(a: int, b: int, m: int, q: int) -> int:
    """Shift-and-add product of a, b < q = 2^deg(m), reduced modulo m."""
    r = 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
        if a & q:
            a ^= m
    return r


def _byte_tables(cols: Sequence[int]) -> list[list[int]]:
    """8-bit window tables of the GF(2)-linear map with these columns.

    Table j maps byte j of the input to the XOR of columns 8j..8j+7 that
    its bits select.
    """
    tables = []
    for j in range(0, len(cols), 8):
        t = [0]
        for c in cols[j : j + 8]:
            t += [v ^ c for v in t]
        tables.append(t)
    return tables


def is_irreducible(f: int) -> bool:
    """Ben-Or irreducibility test for a GF(2) polynomial given as bits."""
    n = f.bit_length() - 1
    if n < 1 or not (f & 1):
        return False
    x = 0b10
    t = x
    q = 1 << n
    powers = {}
    for k in range(1, n + 1):
        t = _mul_mod(t, t, f, q)
        powers[k] = t
    if powers[n] != x:
        return False
    for p in _prime_factors(n):
        if _polygcd(powers[n // p] ^ x, f) != 1:
            return False
    return True


class BinaryField:
    """GF(2^n) with a given irreducible modulus.

    All operations take and return plain ints < 2^n.  Instances are
    immutable after construction and safe to share across threads.
    """

    def __init__(self, n: int, modulus: int | None = None):
        if n < 2:
            raise ValueError("field degree must be at least 2")
        if modulus is None:
            modulus = IRREDUCIBLE.get(n)
            if modulus is None:
                raise ValueError(f"no published modulus for n={n}")
        if modulus.bit_length() - 1 != n:
            raise ValueError("modulus degree does not match n")
        if not is_irreducible(modulus):
            raise ValueError(f"modulus 0x{modulus:X} is reducible")
        self.n = n
        self.q = 1 << n
        self.modulus = modulus
        self._log: list[int] | None = None
        self._exp: list[int] | None = None
        self._frob: dict[int, list[list[int]]] = {}
        if self.q <= _TABLE_LIMIT:
            self._build_tables()
        else:
            self._nbytes = (n + 7) // 8
            self._reduce = _byte_tables(self._powers(modulus ^ self.q, 0b10, n - 1))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n={self.n}, modulus=0x{self.modulus:X})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BinaryField)
            and self.n == other.n
            and self.modulus == other.modulus
        )

    def __hash__(self) -> int:
        return hash((self.n, self.modulus))

    # -- core arithmetic ------------------------------------------------

    def add(self, a: int, b: int) -> int:
        """Characteristic-2 sum; identical to subtraction."""
        return a ^ b

    def mul(self, a: int, b: int) -> int:
        if self._log is not None:
            if a == 0 or b == 0:
                return 0
            return self._exp[self._log[a] + self._log[b]]
        return self._fold(self._product(a, b))

    def _product(self, a: int, b: int) -> int:
        """The carry-less product of any a >= 0 and b < 2^n, unreduced."""
        # t[j] = a*j for every nibble j; b is read a byte (two nibbles) at a
        # time, top byte first
        a2 = a << 1
        a3 = a2 ^ a
        a4 = a << 2
        a5 = a4 ^ a
        a6 = a4 ^ a2
        a7 = a4 ^ a3
        a8 = a << 3
        t = [0, a, a2, a3, a4, a5, a6, a7,
             a8, a8 ^ a, a8 ^ a2, a8 ^ a3, a8 ^ a4, a8 ^ a5, a8 ^ a6, a8 ^ a7]
        r = 0
        for y in b.to_bytes(self._nbytes, "big"):
            r = r << 8 ^ t[y >> 4] << 4 ^ t[y & 15]
        return r

    def _fold(self, r: int) -> int:
        """r mod m for r of degree <= 2n-2, such as a product or a sum of them."""
        n = self.n
        h = r >> n  # r mod m = (r mod x^n) + (h * x^n mod m)
        r ^= h << n
        for t in self._reduce:
            r ^= t[h & 255]
            h >>= 8
        return r

    def inv(self, a: int) -> int:
        """Multiplicative inverse; raises ZeroDivisionError for 0."""
        if a == 0:
            raise ZeroDivisionError("0 has no inverse in GF(2^n)")
        if self._log is not None:
            return self._exp[self.q - 1 - self._log[a]]
        return self._inv_euclid(a)

    def _inv_euclid(self, a: int) -> int:
        """Inverse of a != 0 via the extended Euclidean algorithm on polynomials:
        u = g1*a and v = g2*a mod m, each step cancelling u's top bit by v
        (the pairs swapped first where v is longer) until u = 1.  As
        deg g1 + deg v <= n and v != 1, g1 comes out reduced."""
        u, v, g1, g2 = a, self.modulus, 1, 0
        du, dv = a.bit_length(), self.n + 1
        while du > 1:
            j = du - dv
            if j < 0:
                u, v, g1, g2, dv, j = v, u, g2, g1, du, -j
            u ^= v << j
            g1 ^= g2 << j
            du = u.bit_length()
        return g1

    def frob_pow(self, a: int, k: int) -> int:
        """a^(2^k).  Frobenius powers; a^(2^n) = a so k is taken mod n."""
        k %= self.n
        if k == 0 or a == 0 or a == 1:
            return a
        if self._log is not None:
            return self._exp[(self._log[a] << k) % (self.q - 1)]
        tables = self._frob.get(k)
        if tables is None:
            # Frobenius is a ring map, so column i of x -> x^(2^k) is
            # (x^i)^(2^k) = (x^(2^k))^i.
            y = 0b10
            for _ in range(k):
                y = _mul_mod(y, y, self.modulus, self.q)
            tables = self._frob[k] = _byte_tables(self._powers(1, y, self.n))
        r = 0
        for t in tables:
            r ^= t[a & 255]
            a >>= 8
        return r

    def _powers(self, c: int, y: int, count: int) -> list[int]:
        """[c, c*y, c*y^2, ...], count terms, by shift-and-add."""
        cols = [c]
        for _ in range(count - 1):
            cols.append(_mul_mod(cols[-1], y, self.modulus, self.q))
        return cols

    # -- helpers ---------------------------------------------------------

    def elements(self) -> range:
        return range(self.q)

    def random_element(self, rng) -> int:
        return rng.getrandbits(self.n)

    def random_nonzero(self, rng) -> int:
        while True:
            v = rng.getrandbits(self.n)
            if v:
                return v

    def _build_tables(self) -> None:
        # The generator is the first g = 2, 3, ... whose powers reach all
        # q - 1 nonzero elements before returning to 1; that walk is exp,
        # stepped through the byte tables of v -> v*g (three suffice below
        # _TABLE_LIMIT).
        q = self.q
        for g in range(2, q):
            t0, t1, t2, *_ = *_byte_tables(self._powers(g, 0b10, self.n)), [0], [0]
            exp = [1]
            v = g
            while v != 1:
                exp.append(v)
                v = t0[v & 255] ^ t1[v >> 8 & 255] ^ t2[v >> 16]
            if len(exp) == q - 1:
                break
        # log takes its values from exp: one int object per value in both
        val = [0] * q
        for v in exp:
            val[v] = v
        log = [0] * q
        for i, v in zip(val, exp):
            log[v] = i
        self._exp = exp + exp
        self._log = log


def check_width(n: int) -> None:
    """Raise ``ValueError`` unless n is a width the cryptosystem uses."""
    if n % 2 == 0:
        raise ValueError("n must be odd")
    if not 3 <= n <= 127:
        raise ValueError("n must be in 3..127")


class FieldParams(BinaryField):
    """GF(2^n) for odd n = 2s + 1, with the exponents the group law needs."""

    def __init__(self, n: int, modulus: int | None = None):
        check_width(n)
        super().__init__(n, modulus)
        self.s = (n - 1) // 2
        self.q0 = 1 << self.s
        self._e = 2 * self.q0 + 1  # the exponent of pow_2q0_plus_1

    def pow_2q0(self, a: int) -> int:
        """a^(2*q0) = a^(2^(s+1))."""
        return self.frob_pow(a, self.s + 1)

    def pow_2q0_plus_1(self, a: int) -> int:
        """a^(2*q0 + 1); on the log/exp tables one read of each, elsewhere
        a^(2q0) * a.  A caller that keeps a^(2q0) multiplies by a itself."""
        if self._log is None:
            return self.mul(self.frob_pow(a, self.s + 1), a)
        return self._exp[self._log[a] * self._e % (self.q - 1)] if a else 0

    def product(self, a: int, b: int) -> int:
        """a*b for a sum of products: above the tables unreduced (``_product``),
        so that the sum takes one ``fold``; on the tables one read."""
        log = self._log
        if log is None:
            return self._product(a, b)
        return self._exp[log[a] + log[b]] if a and b else 0

    def fold(self, r: int) -> int:
        """The field element of r, a ``product`` or a sum of them: ``_fold``
        above the tables; on the tables r, which they keep reduced."""
        return r if self._log is not None else self._fold(r)

    def dot2(self, a: int, b: int, c: int, d: int) -> int:
        """a*b + c*d; above the tables the sum is reduced once."""
        log = self._log
        if log is None:
            return self._fold(self._product(a, b) ^ self._product(c, d))
        exp = self._exp
        r = exp[log[a] + log[b]] if a and b else 0
        return r ^ exp[log[c] + log[d]] if c and d else r

    def mul3(self, a: int, x: int, y: int, z: int) -> tuple[int, int, int]:
        """(a*x, a*y, a*z).  Above the tables x, y and z ride in 2n-bit lanes
        of one int through one pass over a; a lane's product has degree
        <= 2n-2, so the lanes never overlap."""
        log = self._log
        if log is None:
            w = 2 * self.n
            r = self._product(x | y << w | z << 2 * w, a)
            m = (1 << w) - 1
            return self._fold(r & m), self._fold(r >> w & m), self._fold(r >> 2 * w)
        if a == 0:
            return 0, 0, 0
        exp, la = self._exp, log[a]
        return (
            exp[la + log[x]] if x else 0,
            exp[la + log[y]] if y else 0,
            exp[la + log[z]] if z else 0,
        )


@lru_cache(maxsize=None)
def make_params(n: int) -> FieldParams:
    """The one cached field of width n (odd, 3..127), on the published modulus.

    Repeated calls share one instance and its tables.  A field on any other
    modulus is an uncached ``FieldParams(n, modulus)``.
    """
    return FieldParams(n)
