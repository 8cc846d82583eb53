"""Logarithmic-signature machinery.

A signature type (r_1, ..., r_s) splits indexes 0 <= x < m = prod(r_i) into
mixed-radix digits (j_1, ..., j_s), j_1 least significant (``tau_inv``),
and each digit selects one entry of its block: the entries of x are
``map(getitem, blocks, tau_inv(type, x))``, for covers and tame signatures
alike.  A ``Cover`` holds s blocks of group elements as plain (a, b, c)
tuples, checked for a != 0 where they are made (the key parser and the
generators, such as ``gen_random_cover``), and maps x to the left-to-right
product of the selected entries (``induced_map``, the reference walk that
tests and the benchmark time: a fold of ``SuzukiGroup.mul`` over those
entries; like ``induced_table``, it returns ``GroupElement``s even for a
one-block cover).  ``induced_table`` lists that map for every x at once by
prefix products, for attack 1: each block steps the whole table so far by
its entries, whose step terms it takes once.  A cover keeps no state
derived from a field, so one cover can be walked in any field of its width.

A ``TameSignature`` lives over the additive group of GF(q).  Its type
covers GF(2^n) when the block sizes multiply to 2^n.  The canonical entry
for digit j of block i is j * m_i, m_i the product of the block sizes
before block i, so the canonical signature maps x to x itself; the
published entries are the canonical ones pushed through a secret
invertible GF(2)-linear map plus per-block offsets.  That map and the
offsets are the trapdoor; a signature is built from them alone, checks
that the type covers the map's width and that the map inverts, and derives
its entries and a row-echelon basis of the map (``echelon_rows``) once, on
construction; no inverse map is formed.  Evaluation (XOR of the entries
the digits select, one per block) is then a bijection Z_q -> GF(q).  The
digits of x are the bit chunks of x itself, so the trapdoor inverts it by
undoing the offsets and reducing the result against the echelon rows
(``solve_echelon``), in O(n).  Only the bit width n matters here, not the
field modulus: the construction uses nothing beyond XOR.  The scheme
places the entries in the group itself, as (1, b, 0) or (1, 0, b).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from itertools import starmap
from math import prod
from operator import getitem, xor

from .field import check_width
from .group import GroupElement, SuzukiGroup


# The most entries a type may have in all (covering_type(127) has 256), so
# that no type drives the allocation of its covers and signatures.
MAX_ENTRIES = 1 << 16


@dataclass(frozen=True)
class SignatureType:
    r: tuple[int, ...]
    m: int = field(init=False, repr=False, compare=False)  # prod(r), read on every tau_inv

    def __post_init__(self):
        if not self.r or any(ri < 2 for ri in self.r):
            raise ValueError("block sizes must all be >= 2")
        if sum(self.r) > MAX_ENTRIES:
            raise ValueError(f"type has {sum(self.r)} entries, more than {MAX_ENTRIES}")
        object.__setattr__(self, "m", prod(self.r))

    @property
    def s(self) -> int:
        return len(self.r)

    def covers_bits(self, n: int) -> bool:
        """Whether the block sizes multiply to 2^n (each is then a power of 2)."""
        return self.m == 1 << n


def covering_type(n: int) -> SignatureType:
    """Default type tiling n bits: (n-3)/2 two-bit chunks plus one 3-bit chunk."""
    check_width(n)
    return SignatureType((4,) * ((n - 3) // 2) + (8,))


def tau_inv(sig_type: SignatureType, x: int) -> tuple[int, ...]:
    """Mixed-radix decode: the digits of x, j_1 = x mod r_1 first."""
    if not 0 <= x < sig_type.m:
        raise ValueError(f"index {x} out of range for m={sig_type.m}")
    digits = []
    for ri in sig_type.r:
        digits.append(x % ri)
        x //= ri
    return tuple(digits)


# -- covers of group elements ---------------------------------------------


@dataclass(frozen=True)
class Cover:
    type: SignatureType
    # plain (a, b, c) triples, a != 0: the parser and the generators check it
    blocks: tuple[tuple[tuple[int, int, int], ...], ...]

    def __post_init__(self):
        if tuple(map(len, self.blocks)) != self.type.r:
            raise ValueError("block shapes do not match type")


def induced_map(group: SuzukiGroup, cover: Cover, x: int) -> GroupElement:
    """Product of one entry per block, selected by the digits of x."""
    first, *rest = map(getitem, cover.blocks, tau_inv(cover.type, x))
    return reduce(group.mul, rest, GroupElement(*first))


def induced_table(group: SuzukiGroup, cover: Cover) -> list[GroupElement]:
    """[induced_map(group, cover, x) for x in range(m)], by prefix products.

    Block i steps every product of the blocks before it by each of its
    entries in turn, so indexes run in ``tau_inv``'s order, j_1 fastest.
    """
    first, *rest = cover.blocks
    table = list(starmap(GroupElement, first))
    for block in rest:
        table = [group.step(p, t) for t in map(group.terms, block) for p in table]
    return table


def gen_random_cover(group: SuzukiGroup, sig_type: SignatureType, rng) -> Cover:
    """Random cover whose entries have all three coordinates nonzero."""
    f = group.params
    blocks = tuple(
        tuple(
            (f.random_nonzero(rng), f.random_nonzero(rng), f.random_nonzero(rng))
            for _ in range(ri)
        )
        for ri in sig_type.r
    )
    return Cover(sig_type, blocks)


# -- tame signatures over (GF(q), +) ---------------------------------------


def echelon_rows(cols: tuple[int, ...], n: int) -> tuple[int, ...] | None:
    """A row-echelon basis of the map on n bits, or None if it is singular.

    Row i starts as col_i | 1 << (n + i): the column below bit n, and above
    it the columns it combines.  Each row is reduced against the kept rows
    by its top set bit below n and kept under that bit, so a singular map
    shows as soon as one row reaches zero there.  rows[k] is then the kept
    row with top bit k below n, and the XOR of the columns its high part
    names is its low part; ``solve_echelon`` reads x off them.  A column
    list of any length but n raises ``ValueError``.
    """
    if len(cols) != n:
        raise ValueError(f"{len(cols)} columns for a map on {n} bits")
    low = (1 << n) - 1
    rows = [0] * n
    for i in range(n):
        row = cols[i] | 1 << (n + i)
        while (top := (row & low).bit_length()) and rows[top - 1]:
            row ^= rows[top - 1]
        if not top:
            return None
        rows[top - 1] = row
    return tuple(rows)


def solve_echelon(rows: tuple[int, ...], v: int) -> int:
    """The x that the map with columns cols sends to v, for its echelon rows.

    rows = echelon_rows(cols, n) and v < 2^n.  The kept row under v's top
    bit clears that bit; its high part names the columns that cancel it.
    """
    n = len(rows)
    low = (1 << n) - 1
    x = 0
    while v:
        r = rows[v.bit_length() - 1]
        v ^= r & low
        x ^= r >> n
    return x


@dataclass(frozen=True)
class TameSignature:
    """A tame signature given by its trapdoor; the rest is derived from it."""

    type: SignatureType
    lin_cols: tuple[int, ...]
    offsets: tuple[int, ...]
    lin_rows: tuple[int, ...] = field(init=False)
    blocks: tuple[tuple[int, ...], ...] = field(init=False)

    def __post_init__(self):
        t, n = self.type, len(self.lin_cols)
        if not t.covers_bits(n):
            raise ValueError(f"type does not cover GF(2^{n}): block sizes {t.r}")
        if len(self.offsets) != t.s:
            raise ValueError(f"{len(self.offsets)} offsets for {t.s} blocks")
        for kind, vals in (("column", self.lin_cols), ("offset", self.offsets)):
            if wide := [i for i, v in enumerate(vals) if v >> n]:  # -1 if v < 0
                raise ValueError(f"trapdoor {kind} {wide[0]} does not fit in {n} bits")
        object.__setattr__(self, "lin_rows", echelon_rows(self.lin_cols, n))
        if self.lin_rows is None:
            raise ValueError("signature trapdoor map is singular")
        # block i holds r_i = 2^b entries from bit k on: digit j selects
        # columns k..k+b-1 by its bits, so doubling the entry list once per
        # column builds the block in index order
        blocks, k = [], 0
        for ri, d in zip(t.r, self.offsets):
            b = ri.bit_length() - 1
            entries = [d]
            for col in self.lin_cols[k : k + b]:
                entries += [e ^ col for e in entries]
            blocks.append(tuple(entries))
            k += b
        object.__setattr__(self, "blocks", tuple(blocks))


def gen_tame(n: int, sig_type: SignatureType, rng) -> TameSignature:
    while echelon_rows(cols := tuple(rng.getrandbits(n) for _ in range(n)), n) is None:
        pass  # redraw: about 71% of random maps are singular
    offsets = tuple(rng.getrandbits(n) for _ in range(sig_type.s))
    return TameSignature(sig_type, cols, offsets)


def evaluate_tame(sig: TameSignature, x: int) -> int:
    """XOR of one entry per block, selected by the digits of x."""
    return reduce(xor, map(getitem, sig.blocks, tau_inv(sig.type, x)))


def factor_tame(sig: TameSignature, v: int) -> int:
    """The unique x with evaluate_tame(sig, x) = v.

    For a covering type the digits of x are the bit chunks of x itself, so
    undoing the offsets and solving the linear map on its echelon rows gives
    x directly.
    """
    return solve_echelon(sig.lin_rows, reduce(xor, sig.offsets, v))
