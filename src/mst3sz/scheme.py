"""The public-key encryption scheme.

Key generation builds, for k = 1, 2:

  * a tame signature beta_k over GF(q), taken in the group as (1, b, 0)
    for k = 1 (the (1, b, c) subgroup) and (1, 0, b) for k = 2 (the center);
  * a random cover alpha_k of the same type, all coordinates nonzero;
  * a chain t_0(k), ..., t_s(k) of non-central masking elements with
    t_s(1) = t_0(2), and the published cover
    gamma_k[i][j] = t_(i-1)(k)^-1 * f_k(alpha_k[i][j]) * beta_k[i][j] * t_i(k).

Each factor f_k(alpha) * beta lies in a subgroup and is applied as a right
factor, once, by its own law.  For k = 1 it is the u factor
(1, a, b) * (1, beta, 0), and one law, ``_u_walk``, applies u factors to
any left element: keygen applies an entry's u to t_(i-1)^-1 and the group
law adds t_i, whose step terms (``SuzukiGroup.terms``) are taken once per
block, as is the a every entry of the block shares, so each entry pays 3
field multiplies for t_i and no Frobenius map; decryption's U is the
product of the u factors R1 selects.  For k = 2 the factor is (1, 0, v),
v = b + beta, and (1, 0, v) * t = t * (1, 0, t.a^(2q0+1) * v), so an
entry is E_i = t_(i-1)^-1 * t_i with t_i.a^(2q0+1) * v added to c: one
step per block, by t_i's terms, which also hold t_i.a^(2q0+1), and one
field multiply per entry.

The middle factors have a = 1, which gives the gamma covers a block
structure that every key has and ``PublicKey`` checks: every gamma1 entry
of block i has the same a-coordinate, and every gamma2 entry of block i
the same a and b, differing only in c.  The key derives its walk terms
from that once, and ``_y2`` walks both covers by them.  Entries that
share their a are walked by one law that skips the a-chain,
``_fixed_a_walk``: a gamma1 walk is one, and so is the key's product of
the gamma2 blocks' (a, b, 0), the base of every gamma2 walk.  A gamma2
walk is that base times (1, 0, h), h a sum of the selected c's weighed by
key-fixed products, one multiply per block but the last.  The key keeps
the base's step terms and the weights, and y2 is one step of the gamma1
walk by those terms with h added to c.

The walks read the digits of the nonce (``tau_inv``, taken once per
encryption) and step through the entries the digits select,
``map(getitem, blocks, digits)``, building no group element per step.
The group law needs x^(2q0) of a right factor's coordinates, and a cover
entry is a right factor of every walk that selects it, so each key keeps
one Frobenius memo, ``frob``, a ``Memo`` that maps a coordinate x of its
own entries to x^(2q0) and fills itself: the first lookup of x computes
the image and every later one reads it.  Threads may share the memo.  It
starts empty when the key is built and is never serialized; keygen then
hands its keys the images its gamma1 u factors mapped, of every alpha1 a
and beta1 entry.  The walks look up only the key's own cover and beta1
coordinates, so no ciphertext can grow it.  Per selected entry, with the
reductions a field above the log/exp tables makes:

    walk                        multiplies  reductions  images it reads
    y1's mask (_y1_mask)            5           4       a^(2q0), b^(2q0)
    gamma1 in y2 (_fixed_a_walk)    3           2       b^(2q0)
    y3 (_y3)                        1           -       a^(2q0) of the alpha1 entry
    U in decryption (_u_walk)       2           -       the same, and beta^(2q0)
    gamma2 in y2 (_y2)              1           -       none; the key's weights

A walk marked - adds its products unreduced (``FieldParams.product``) and
reduces the sum once (``fold``), as reduction is GF(2)-linear.  Each image
costs one Frobenius map, once per key.

The first entry of a walk is its start, not a step: y1's mask walks
alpha1's blocks and then alpha2's, so alpha2's first entry is a step; U
starts at (0, 0), so its first u factor is a step.  An alpha step takes
the law's c with a2 factored out, a2*(a2^(2q0)*c + b*b2^(2q0)) + c2, so it
reads a2^(2q0), never a2^(2q0+1), and makes 5 multiplies on every field,
whether its entries' images were kept or not: one ``dot2`` for the
bracket and one ``mul3`` for a*a2, a2*b and a2 times the bracket, 4
reductions above the log/exp tables.  ``_fixed_a_walk``'s and the group
law's sums of two products are ``dot2``s.  A warm op at n = 65, whose
entries were all selected before, makes only the Frobenius maps of its
whole-element group multiplies and inverses: one multiply per encrypt;
two multiplies and one inverse per decrypt.  The tests' cost model
(``tests/test_frob_stores.py``) checks these counts at every width.

Encryption of m under nonce (R1, R2) emits

    y1 = alpha1'(R1) * alpha2'(R2) * m        (the masked message)
    y2 = gamma1'(R1) * gamma2'(R2)            (telescopes to t0^-1 * U*V * ts)
    y3 = product of f1 images of the selected alpha1 entries
    y4 = product of f2 images of the selected alpha2 entries

where U multiplies the R1-selected u factors and V the R2-selected v
factors.  Note y3 is a product of f1 IMAGES: f1 is not a homomorphism, so
this differs from f1 of the product, and only the image-product form makes
the cancellation below work.  The images lie in subgroups: ``_y3`` and
``_y4`` form the products there, by the subgroup's law and by XOR of the
b-coordinates; ``_y2`` steps the gamma1 walk by the gamma2 walk's terms.
``_reproduces``, the attacks' nonce check, compares y4, y3 and y2 by
these walks without walking y1's mask; attack 3 reads y4's c from a
table of the same XOR sums, and as its screens match y4 and y3 whole, it
checks a candidate's y2 alone (``_y2``).

Decryption strips the chain once, X = t_0(1) * y2 * t_s(2)^-1 = U*V.  V is
central, so X.b = U.b and X.c = U.c + V.c.  U.b is y3.b plus
evaluate(beta1, R1), so X.b + y3.b is what the trapdoor factors into R1.
The private key then rebuilds U from the R1-selected factors, and
X.c + U.c + y4.c is evaluate(beta2, R2).  No public cover is walked and
nothing is inverted to find the nonce: the private key keeps the step
terms of t_s(2)^-1 (``chain2_inv``), derived once when it is built.  y1
is unmasked with one inverse of alpha1'(R1) * alpha2'(R2).  With a
private key from another key pair the recovered nonce is wrong, and the
unmasked element almost always fails the padding check of
``decode_message``.

Encryption is deterministic given the nonce; drawing the nonce is the
caller's job (``random_nonce``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from itertools import accumulate
from operator import getitem
from typing import NamedTuple

from .field import FieldParams
from .group import GroupElement, SuzukiGroup
from .logsig import (
    Cover,
    SignatureType,
    TameSignature,
    covering_type,
    factor_tame,
    gen_random_cover,
    gen_tame,
    tau_inv,
)


class CiphertextError(ValueError):
    """Structurally malformed ciphertext."""


class GammaBlockError(ValueError):
    """A gamma block whose entries do not share their a (gamma1) or (a, b)
    (gamma2), with the message "{section}: {what}".  ``section`` names the
    cover and the block, e.g. "gamma1 block 1", ``what`` the check that
    failed, and ``coord`` indexes the first coordinate that differs from
    its block's first entry, in the order gamma1's then gamma2's
    coordinates are laid out, three per entry."""

    def __init__(self, section: str, what: str, coord: int):
        super().__init__(f"{section}: {what}")
        self.section, self.what, self.coord = section, what, coord


class Memo(dict):
    """A dict that maps k to fill(k), calling fill on k's first lookup.

    Threads may share one without a lock: k only ever maps to fill(k), so
    lookups that miss at once store equal values.
    """

    __slots__ = ("fill",)

    def __init__(self, fill):
        self.fill = fill

    def __missing__(self, k):
        v = self[k] = self.fill(k)
        return v


class SessionNonce(NamedTuple):
    r1: int
    r2: int


@dataclass(frozen=True)
class PublicKey:
    """The published covers, the gamma walk terms derived from them, and
    the Frobenius memo of the walks.

    Every gamma1 block shares one a-coordinate A_i, and every gamma2 block
    one (a, b); the constructor rejects a gamma cover without that shape.
    The terms: ``gamma1_a``, the product of the A_i (the a of every gamma1
    walk); ``gamma1_k``, A_i^(2q0+1) for the blocks after the first;
    ``gamma2_base``, the step terms (``SuzukiGroup.terms``) of the product
    of the gamma2 blocks' (a, b, 0), walked by ``_fixed_a_walk``; and
    ``gamma2_weights``, K_i = k_(i+1)*...*k_(s-1) for every gamma2 block
    but the last, whose K is 1, with k_j = a^(2q0+1) of gamma2 block j.
    """

    group: SuzukiGroup
    alpha1: Cover
    alpha2: Cover
    gamma1: Cover
    gamma2: Cover
    gamma1_a: int = field(init=False, repr=False, compare=False)
    gamma1_k: tuple[int, ...] = field(init=False, repr=False, compare=False)
    gamma2_base: tuple[int, ...] = field(init=False, repr=False, compare=False)
    gamma2_weights: tuple[int, ...] = field(init=False, repr=False, compare=False)
    # x -> x^(2q0) for the alpha and gamma1 coordinates the walks step by
    frob: Memo = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = self.group.params.n
        for cover in (self.alpha1, self.alpha2, self.gamma1, self.gamma2):
            if not cover.type.covers_bits(n):
                raise ValueError(
                    f"signature type {cover.type.r} does not cover GF(2^{n})"
                )
        pairs = ((self.alpha1, self.gamma1), (self.alpha2, self.gamma2))
        for k, (alpha, gamma) in enumerate(pairs, 1):
            if gamma.type != alpha.type:
                t, u = gamma.type.r, alpha.type.r
                raise ValueError(f"gamma{k} type {t} differs from alpha{k} type {u}")
        # the first entry that breaks a block is the first one equal to it,
        # as every entry before it matches the block's first
        before = 0  # gamma entries before this block, in file order
        a1, a2, heads = [], [], []  # the blocks' a, and the gamma2 blocks' (a, b, 0)
        for i, block in enumerate(self.gamma1.blocks):
            a = block[0][0]
            for x, _, _ in block:
                if x != a:
                    at = 3 * (before + [g[0] for g in block].index(x))
                    raise GammaBlockError(f"gamma1 block {i}", "entries differ in a", at)
            a1.append(a)
            before += len(block)
        for i, block in enumerate(self.gamma2.blocks):
            a, b, _ = block[0]
            for x, y, c in block:
                if x != a or y != b:
                    at = 3 * (before + block.index((x, y, c))) + (x == a)
                    raise GammaBlockError(f"gamma2 block {i}", "entries differ outside c", at)
            a2.append(a)
            heads.append((a, b, 0))
            before += len(block)
        f = self.group.params
        k2 = tuple(map(f.pow_2q0_plus_1, a2[1:]))
        # each head is stepped by once, here, so its b^(2q0) is not kept
        b, c = _fixed_a_walk(f, heads, k2, Memo(f.pow_2q0))
        for name, value in (
            ("frob", Memo(f.pow_2q0)),
            ("gamma1_a", reduce(f.mul, a1)),
            ("gamma1_k", tuple(map(f.pow_2q0_plus_1, a1[1:]))),
            ("gamma2_base", self.group.terms(GroupElement(reduce(f.mul, a2), b, c))),
            ("gamma2_weights", _suffix_products(f, k2)),
        ):
            object.__setattr__(self, name, value)

    @property
    def type1(self) -> SignatureType:
        return self.alpha1.type

    @property
    def type2(self) -> SignatureType:
        return self.alpha2.type


@dataclass(frozen=True)
class PrivateKey:
    """The trapdoors and masking chains, and ``chain2_inv``, derived from
    them when the key is built: the step terms (``SuzukiGroup.terms``) of
    t_s(2)^-1, by which decryption strips y2's right end."""

    group: SuzukiGroup
    beta1: TameSignature
    beta2: TameSignature
    # the masking chains, plain (a, b, c) triples with a != 0 and b != 0
    chain1: tuple[tuple[int, int, int], ...]
    chain2: tuple[tuple[int, int, int], ...]
    chain2_inv: tuple[int, ...] = field(init=False, repr=False, compare=False)
    # x -> x^(2q0) for the beta1 entries decryption steps by
    frob: Memo = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        group = self.group
        object.__setattr__(self, "chain2_inv", group.terms(group.inv(self.chain2[-1])))
        object.__setattr__(self, "frob", Memo(group.params.pow_2q0))


@dataclass(frozen=True)
class Ciphertext:
    y1: GroupElement
    y2: GroupElement
    y3: GroupElement
    y4: GroupElement


def _suffix_products(f: FieldParams, ks) -> tuple[int, ...]:
    """(k_1*...*k_t, k_2*...*k_t, ..., k_t) for ks = (k_1, ..., k_t): the
    weight of each block but the last in a sum that a Horner walk
    x <- k_i*x + e_i forms, k_i taken at block i.  t - 1 multiplies."""
    return tuple(accumulate(reversed(ks), f.mul))[::-1]


def _random_masking_element(group: SuzukiGroup, rng) -> tuple[int, int, int]:
    # chain elements need a != 0 and b != 0 (hence non-central); c is free
    f = group.params
    return f.random_nonzero(rng), f.random_nonzero(rng), f.random_element(rng)


def _masked_cover(
    group: SuzukiGroup, alpha: Cover, beta: TameSignature, chain, p, beta_p
) -> Cover:
    """gamma1: t_(i-1)^-1 * f1(alpha) * (1, beta, 0) * t_i, entry by entry.
    A u factor keeps a, so block i's entries share the a of
    t_(i-1)^-1 * t_i, formed once.  The u factors read alpha.a^(2q0) from
    the ``Memo`` ``p`` and beta^(2q0) from ``beta_p``."""
    f = group.params
    blocks = []
    for i, (ablock, bblock) in enumerate(zip(alpha.blocks, beta.blocks)):
        a, b, c = group.inv(chain[i])
        a2, b2, c2, k2, p2 = group.terms(chain[i + 1])
        a = f.mul(a, a2)
        block = []
        for pair in zip(ablock, bblock):
            ub, uc = _u_walk(f, b, c, (pair,), p, beta_p)
            t = f.mul(a2, ub)
            block.append((a, t ^ b2, f.dot2(k2, uc, t, p2) ^ c2))
        blocks.append(tuple(block))
    return Cover(alpha.type, tuple(blocks))


def _masked_central_cover(
    group: SuzukiGroup, alpha: Cover, beta: TameSignature, chain
) -> Cover:
    """gamma2: t_(i-1)^-1 * (1, 0, alpha.b + beta) * t_i, one group multiply per block.

    (1, 0, v) * t = t * (1, 0, t.a^(2q0+1) * v), so an entry is
    t_(i-1)^-1 * t_i with t_i.a^(2q0+1) * (alpha.b + beta) added to c;
    t_i's step terms give both the product and t_i.a^(2q0+1).
    """
    f = group.params
    blocks = []
    for i, (ablock, bblock) in enumerate(zip(alpha.blocks, beta.blocks)):
        right = group.terms(chain[i + 1])
        ea, eb, ec = group.step(group.inv(chain[i]), right)
        k = right[3]  # t_i.a^(2q0+1)
        blocks.append(
            tuple(
                (ea, eb, ec ^ f.mul(k, ab ^ b))
                for (_, ab, _), b in zip(ablock, bblock)
            )
        )
    return Cover(alpha.type, tuple(blocks))


def keygen(
    params: FieldParams,
    type1: SignatureType | None = None,
    type2: SignatureType | None = None,
    *,
    rng,
) -> tuple[PublicKey, PrivateKey]:
    group = SuzukiGroup(params)
    n = params.n
    if type1 is None:
        type1 = covering_type(n)
    if type2 is None:
        type2 = covering_type(n)

    # TameSignature rejects a type that does not cover GF(2^n)
    beta1 = gen_tame(n, type1, rng)
    beta2 = gen_tame(n, type2, rng)
    alpha1 = gen_random_cover(group, type1, rng)
    alpha2 = gen_random_cover(group, type2, rng)

    chain1 = tuple(_random_masking_element(group, rng) for _ in range(type1.s + 1))
    # the chains share their joint: t_s(1) = t_0(2)
    chain2 = (chain1[-1],) + tuple(
        _random_masking_element(group, rng) for _ in range(type2.s)
    )

    p, beta_p = Memo(params.pow_2q0), Memo(params.pow_2q0)
    gamma1 = _masked_cover(group, alpha1, beta1, chain1, p, beta_p)
    gamma2 = _masked_central_cover(group, alpha2, beta2, chain2)

    pk = PublicKey(group, alpha1, alpha2, gamma1, gamma2)
    sk = PrivateKey(group, beta1, beta2, chain1, chain2)
    # gamma1's u factors mapped every alpha1 a and beta1 entry: the keys'
    # walks read the same images
    pk.frob.update(p)
    sk.frob.update(beta_p)
    return pk, sk


def random_nonce(params: FieldParams, rng) -> SessionNonce:
    return SessionNonce(rng.getrandbits(params.n), rng.getrandbits(params.n))


# The walks below take a nonce's digits (``tau_inv``), d1 those of R1 and d2
# those of R2, which encryption computes once for all of them.


def _y1_mask(pk: PublicKey, d1, d2) -> GroupElement:
    """alpha1'(R1) * alpha2'(R2), the mask y1 carries on the message: one
    walk over alpha1's blocks and then alpha2's.

    A step by (a2, b2, c2) is the group law with a2 factored out of c:

        a <- a*a2;  b <- a2*b + b2;  c <- a2*(a2^(2q0)*c + b*b2^(2q0)) + c2

    the bracket one ``dot2`` and the three products by a2 one ``mul3``: 5
    multiplies, 4 reductions and, once both images are kept, no Frobenius
    map.  Entries whose a the key fixes take ``_fixed_a_walk`` instead.
    """
    f = pk.group.params
    p = pk.frob
    entries = map(getitem, pk.alpha1.blocks + pk.alpha2.blocks, d1 + d2)
    a, b, c = next(entries)
    for a2, b2, c2 in entries:
        a, t, c = f.mul3(a2, a, b, f.dot2(p[a2], c, b, p[b2]))
        c ^= c2
        b = t ^ b2
    return GroupElement(a, b, c)


def _fixed_a_walk(f: FieldParams, entries, ks, p) -> tuple[int, int]:
    """(b, c) of the product of ``entries``, whose a-coordinates the caller
    knows, and so the product's a.  A step by (a2, b2, c2) is the group law
    without the a-chain, t = a2*b:

        b <- t + b2;  c <- k*c + t*b2^(2q0) + c2

    with k = a2^(2q0+1) taken from ``ks``, one per entry after the first,
    and b2^(2q0) from the ``Memo`` ``p``: 3 multiplies, c's two by one
    ``dot2``."""
    entries = iter(entries)
    _, b, c = next(entries)
    for (a2, b2, c2), k in zip(entries, ks):
        t = f.mul(a2, b)
        c = f.dot2(k, c, t, p[b2]) ^ c2
        b = t ^ b2
    return b, c


def _y2(pk: PublicKey, d1, d2) -> GroupElement:
    """gamma1'(R1) * gamma2'(R2).

    Every gamma1 block has one a, so the gamma1 walk has a = ``gamma1_a``
    and is a fixed-a walk by ``gamma1_k``.  Every gamma2 block shares
    (a_i, b_i), so an entry is (a_i, b_i, 0) * (1, 0, c); as
    (1, 0, h) * (a_i, b_i, 0) = (a_i, b_i, 0) * (1, 0, a_i^(2q0+1)*h),
    the gamma2 walk is the base, the product of the (a_i, b_i, 0), times
    (1, 0, h) for h = sum of K_i*c_i over the selected c-coordinates, K_i
    the key's ``gamma2_weights``: one product per block but the last, and
    one ``fold``.  Its step terms are ``gamma2_base``'s with h added to
    c, and y2 is one step of the gamma1 walk by them.
    """
    f = pk.group.params
    entries = map(getitem, pk.gamma1.blocks, d1)
    b, c = _fixed_a_walk(f, entries, pk.gamma1_k, pk.frob)
    entries = map(getitem, pk.gamma2.blocks, d2)
    product, h = f.product, 0
    # the weights run out first, so zip leaves the last block's entry
    for k, (_, _, c2) in zip(pk.gamma2_weights, entries):
        h ^= product(k, c2)
    h = f.fold(h ^ next(entries)[2])
    a2, b2, c2, k2, p2 = pk.gamma2_base
    return pk.group.step((pk.gamma1_a, b, c), (a2, b2, c2 ^ h, k2, p2))


def _u_walk(f: FieldParams, b: int, c: int, pairs, p, beta_p) -> tuple[int, int]:
    """(b, c) of (a, b, c) times the u factor f1(alpha) * (1, beta, 0) of
    each (alpha entry, beta entry) pair, for any a, which the factors keep.
    A factor (1, b2, c2) adds b2 to b and b2^(2q0)*b + c2 to c, so a u
    factor is 2 products, with alpha.a^(2q0) read from the ``Memo`` ``p``
    and beta^(2q0) from the ``Memo`` ``beta_p``; c is folded once."""
    product = f.product
    for (a2, b2, _), x in pairs:
        c ^= product(p[a2], b) ^ product(beta_p[x], b ^ a2) ^ b2
        b ^= a2 ^ x
    return b, f.fold(c)


def _y3(pk: PublicKey, d1) -> GroupElement:
    """The product of the f1 images (1, a, b) of the alpha1 entries R1
    selects.  It starts at the first image; each later one adds a2 to b and
    a2^(2q0)*b + b2 to c, one product, a2^(2q0) read from the key's memo;
    c is folded once."""
    f = pk.group.params
    product, p = f.product, pk.frob
    entries = map(getitem, pk.alpha1.blocks, d1)
    b, c, _ = next(entries)
    for a2, b2, _ in entries:
        c ^= product(p[a2], b) ^ b2
        b ^= a2
    return GroupElement(1, b, f.fold(c))


def _y4(pk: PublicKey, d2) -> GroupElement:
    """The product of the f2 images (1, 0, b) of the alpha2 entries R2
    selects: central factors, so the b-coordinates add."""
    c = 0
    for _, b, _ in map(getitem, pk.alpha2.blocks, d2):
        c ^= b
    return GroupElement(1, 0, c)


def _check_ciphertext(group: SuzukiGroup, ct: Ciphertext) -> None:
    """Raise ``CiphertextError`` unless ct has the shape of an encryption."""
    if any((y.a | y.b | y.c) >> group.params.n for y in (ct.y1, ct.y2, ct.y3, ct.y4)):
        raise CiphertextError("ciphertext coordinate outside GF(q)")
    if ct.y3.a != 1:
        raise CiphertextError("y3 must have first coordinate 1")
    if not group.in_center(ct.y4):
        raise CiphertextError("y4 must be central")


def encrypt(pk: PublicKey, m: GroupElement, nonce: SessionNonce) -> Ciphertext:
    group = pk.group
    r1, r2 = nonce
    # the key's types cover 2^n, so tau_inv rejects a nonce outside GF(q)
    d1, d2 = tau_inv(pk.type1, r1), tau_inv(pk.type2, r2)
    if (m.a | m.b | m.c) >> group.params.n:
        raise ValueError("message out of range")
    y1 = group.mul(_y1_mask(pk, d1, d2), m)
    return Ciphertext(y1, _y2(pk, d1, d2), _y3(pk, d1), _y4(pk, d2))


def _reproduces(pk: PublicKey, ct: Ciphertext, nonce: SessionNonce) -> bool:
    """Whether encrypting any message under nonce gives the y2, y3 and y4 of
    ct.  It compares only what the nonce fixes, cheapest first: y4 (XOR
    only), y3 (1 multiply a step), then y2 by the gamma walks; y1's mask is
    not walked.  A nonce out of range raises ``ValueError``, as in encrypt."""
    d1, d2 = tau_inv(pk.type1, nonce.r1), tau_inv(pk.type2, nonce.r2)
    return (
        _y4(pk, d2) == ct.y4
        and _y3(pk, d1) == ct.y3
        and _y2(pk, d1, d2) == ct.y2
    )


def recover_nonce(pk: PublicKey, sk: PrivateKey, ct: Ciphertext) -> SessionNonce:
    """The nonce the trapdoors derive from (y2, y3, y4).

    For an encryption under this key pair it is the encrypting nonce.  For
    any other (y2, y3, y4) it is garbage, read off X = U*V as if it held.
    """
    group = pk.group
    if group != sk.group:
        raise ValueError("public and private keys use different parameters")
    if (sk.beta1.type, sk.beta2.type) != (pk.type1, pk.type2):
        raise ValueError(
            f"private key types {sk.beta1.type.r}, {sk.beta2.type.r} differ"
            f" from public key types {pk.type1.r}, {pk.type2.r}"
        )
    _check_ciphertext(group, ct)
    x = group.step(group.mul(sk.chain1[0], ct.y2), sk.chain2_inv)
    r1 = factor_tame(sk.beta1, x.b ^ ct.y3.b)
    d1 = tau_inv(pk.type1, r1)
    pairs = zip(map(getitem, pk.alpha1.blocks, d1), map(getitem, sk.beta1.blocks, d1))
    _, uc = _u_walk(group.params, 0, 0, pairs, pk.frob, sk.frob)
    r2 = factor_tame(sk.beta2, x.c ^ uc ^ ct.y4.c)
    return SessionNonce(r1, r2)


def decrypt(pk: PublicKey, sk: PrivateKey, ct: Ciphertext) -> GroupElement:
    """The masked message of ct, unmasked under the nonce the keys recover.

    A ciphertext carries n only in its bytes (``codec.parse_ciphertext``
    returns it beside the ``Ciphertext``).  One parsed for another n raises
    ``CiphertextError`` where a coordinate falls outside GF(q) and, when
    every coordinate fits, decrypts under a wrong nonce; the CLI checks the
    parsed n against the key's first.
    """
    group = pk.group
    r1, r2 = recover_nonce(pk, sk, ct)
    mask = _y1_mask(pk, tau_inv(pk.type1, r1), tau_inv(pk.type2, r2))
    return group.mul(group.inv(mask), ct.y1)


# -- byte payloads as group elements ----------------------------------------
#
# A triple packs 3n bits.  One bit is a guard forcing the first coordinate
# nonzero, eight bits hold the payload length in bytes, the rest is payload:
#
#     bits = 1 | length << 1 | payload << 9     (little-endian across a,b,c)


def max_payload_bytes(n: int) -> int:
    return (3 * n - 9) // 8


def encode_message(params: FieldParams, payload: bytes) -> GroupElement:
    if len(payload) > max_payload_bytes(params.n):
        raise ValueError(
            f"payload exceeds {max_payload_bytes(params.n)} bytes for n={params.n}"
        )
    bits = 1 | len(payload) << 1 | int.from_bytes(payload, "little") << 9
    n, mask = params.n, params.q - 1
    return GroupElement(bits & mask, bits >> n & mask, bits >> 2 * n & mask)


def decode_message(params: FieldParams, m: GroupElement) -> bytes:
    n = params.n
    bits = m.a | m.b << n | m.c << 2 * n
    if not bits & 1:
        raise ValueError("bad padding: guard bit clear")
    length = bits >> 1 & 0xFF
    if length > max_payload_bytes(n):
        raise ValueError("bad padding: length field out of range")
    payload = bits >> 9
    if payload >> 8 * length:
        raise ValueError("bad padding: nonzero trailing bits")
    return (payload & ((1 << 8 * length) - 1)).to_bytes(length, "little")
