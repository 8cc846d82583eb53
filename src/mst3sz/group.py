"""The group of triples acting on the Suzuki curve at infinity.

Elements are triples (a, b, c) over GF(q), a != 0, composing by

    (a1,b1,c1) * (a2,b2,c2)
        = (a1*a2, a2*b1 + b2, a2^(2q0+1)*c1 + a2*b2^(2q0)*b1 + c2)

which matches composition of the affine maps

    x -> a*x + b,   y -> a^(2q0+1)*y + a*b^(2q0)*x + c

in the order "apply g1's map first, then g2's".  The law lives in ``step``,
which takes the right factor as its ``terms`` (a2, b2, c2, a2^(2q0+1),
b2^(2q0)) and forms t = a2*b1 once for both the b and the c coordinate:
4 field multiplies, c's two summed by one ``dot2``, and no Frobenius map.
``mul`` is ``step`` with g2's terms, so it costs 5 multiplies (one inside
a2^(2q0+1)) and 2 Frobenius maps; a caller that multiplies many elements
by one right factor takes its terms once.  The group has order
q^2*(q-1) and identity ``IDENTITY`` = (1, 0, 0), the same element in
every field.  The elements (1, 0, c) form
the designated q-element center (``in_center``) and (1, b, c) the
q^2-element subgroup whose products add b-coordinates -- both facts carry
the cryptosystem.  ``logsig.induced_map`` walks a cover as a fold of
``mul``, and attack 1's table of every walk (``logsig.induced_table``)
steps by each entry's terms.  The scheme walks its covers by the law on
coordinates; ``scheme`` says how.

A ``GroupElement`` is an immutable tuple (a, b, c) with named coordinates,
so building one costs about what building a tuple does.  It has one
constructor, the class call, which ``copy`` and ``pickle`` reuse, and it
rejects a = 0.  Equality and hashing are the tuple's:
``GroupElement(1, 2, 3) == (1, 2, 3)`` is true.  Group-law results,
ciphertexts and messages are ``GroupElement``s; cover entries and the
private key's masking chains are plain (a, b, c) tuples, which the methods
here take like any triple.  Their a != 0 is checked where they are made:
by the key parser's column check (``codec``) and by the generators
(``logsig.gen_random_cover``; keygen's chains, drawn with a != 0, and its
masked covers, products of elements with a != 0).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Iterator

from .field import FieldParams


class GroupElement(tuple):
    """The triple (a, b, c), a != 0."""

    __slots__ = ()

    def __new__(cls, a: int, b: int, c: int):
        if a == 0:
            raise ValueError("group element needs a != 0")
        return tuple.__new__(cls, (a, b, c))

    def __getnewargs__(self) -> tuple[int, int, int]:
        return tuple(self)

    def __repr__(self) -> str:
        return "GroupElement(a=%r, b=%r, c=%r)" % self

    a = property(itemgetter(0))
    b = property(itemgetter(1))
    c = property(itemgetter(2))


@dataclass(frozen=True, slots=True)
class CurvePoint:
    x: int
    y: int


@dataclass(frozen=True)
class GroupStats:
    group_order: int
    center_order: int
    full_aut_order: int
    genus: int
    rational_places: int


IDENTITY = GroupElement(1, 0, 0)


class SuzukiGroup:
    """Group operations over a fixed ``FieldParams``."""

    def __init__(self, params: FieldParams):
        self.params = params

    def __repr__(self) -> str:
        return f"SuzukiGroup(n={self.params.n})"

    def __eq__(self, other) -> bool:
        return isinstance(other, SuzukiGroup) and self.params == other.params

    def __hash__(self) -> int:
        return hash(("SuzukiGroup", self.params))

    def terms(self, g: GroupElement) -> tuple[int, int, int, int, int]:
        """(a, b, c, a^(2q0+1), b^(2q0)): g as a right factor of ``step``."""
        f = self.params
        a, b, c = g
        return a, b, c, f.pow_2q0_plus_1(a), f.pow_2q0(b)

    def step(self, g1: GroupElement, terms) -> GroupElement:
        """g1 * g2 for g2's ``terms``: the group law."""
        f = self.params
        a1, b1, c1 = g1
        a2, b2, c2, k2, p2 = terms
        t = f.mul(a2, b1)
        return GroupElement(f.mul(a1, a2), t ^ b2, f.dot2(k2, c1, t, p2) ^ c2)

    def mul(self, g1: GroupElement, g2: GroupElement) -> GroupElement:
        return self.step(g1, self.terms(g2))

    def inv(self, g: GroupElement) -> GroupElement:
        f = self.params
        a, b, c = g
        ai = f.inv(a)
        t = f.mul(ai, b)
        return GroupElement(
            ai,
            t,
            f.pow_2q0_plus_1(t) ^ f.mul(f.pow_2q0_plus_1(ai), c),
        )

    def apply_point(self, g: GroupElement, p: CurvePoint) -> CurvePoint:
        """The affine map of g on p: the (b, c) of (1, p.x, p.y) * g."""
        image = self.mul(GroupElement(1, p.x, p.y), g)
        return CurvePoint(image.b, image.c)

    def on_curve(self, p: CurvePoint, field: FieldParams | None = None) -> bool:
        """Check y^q + y = x^(2q0) * (x^q + x).

        Over GF(q) itself every point passes (x^q = x); pass an extension
        field to test points with coordinates outside GF(q).
        """
        f = field if field is not None else self.params
        n, s = self.params.n, self.params.s
        lhs = f.frob_pow(p.y, n) ^ p.y
        rhs = f.mul(f.frob_pow(p.x, s + 1), f.frob_pow(p.x, n) ^ p.x)
        return lhs == rhs

    def in_center(self, g: GroupElement) -> bool:
        return g[0] == 1 and g[1] == 0

    def f1(self, g: GroupElement) -> GroupElement:
        """(a, b, c) -> (1, a, b), for any triple, such as a cover entry."""
        return GroupElement(1, g[0], g[1])

    def f2(self, g: GroupElement) -> GroupElement:
        """(a, b, c) -> (1, 0, b); defined on all triples, not just a = 1."""
        return GroupElement(1, 0, g[1])

    def stats(self) -> GroupStats:
        q = self.params.q
        q0 = self.params.q0
        return GroupStats(
            group_order=q * q * (q - 1),
            center_order=q,
            full_aut_order=(q * q + 1) * q * q * (q - 1),
            genus=q0 * (q - 1),
            rational_places=q * q + 1,
        )

    def random_element(self, rng) -> GroupElement:
        f = self.params
        return GroupElement(
            f.random_nonzero(rng), f.random_element(rng), f.random_element(rng)
        )

    def elements(self) -> Iterator[GroupElement]:
        """All q^2*(q-1) elements; only sensible for small q."""
        q = self.params.q
        for a in range(1, q):
            for b in range(q):
                for c in range(q):
                    yield GroupElement(a, b, c)
