"""The public-key encryption scheme.

Key generation builds, for k = 1, 2:

  * a tame signature beta_k over GF(q), taken in the group as (1, b, 0)
    for k = 1 (the (1, b, c) subgroup) and (1, 0, b) for k = 2 (the center);
  * a random cover alpha_k of the same type, all coordinates nonzero;
  * a chain t_0(k), ..., t_s(k) of non-central masking elements with
    t_s(1) = t_0(2), and the published cover
    gamma_k[i][j] = t_(i-1)(k)^-1 * f_k(alpha_k[i][j]) * beta_k[i][j] * t_i(k).

Each factor f_k(alpha) * beta lies in a subgroup and is applied as a right
factor, once, by its own law.  For k = 1, keygen multiplies t_(i-1)^-1 by
(1, a, b) * (1, beta, 0) (``SuzukiGroup.mul_subgroup``) and the group law
adds t_i, whose step terms (``SuzukiGroup.terms``) are taken once per
block, so each entry pays 4 field multiplies for it and no Frobenius map;
decryption builds U by the same subgroup law (``_f1_walk``).  For k = 2
the factor is (1, 0, v), v = b + beta, and (1, 0, v) * t =
t * (1, 0, t.a^(2q0+1) * v), so an entry is E_i = t_(i-1)^-1 * t_i with
t_i.a^(2q0+1) * v added to c: one step per block, by t_i's terms, which
also hold t_i.a^(2q0+1), and one field multiply per entry.

The middle factors have a = 1, which gives the gamma covers a block
structure that every key has and ``PublicKey`` checks: every gamma1 entry
of block i has the same a-coordinate, and every gamma2 entry of block i
the same a and b, differing only in c.  The key derives its walk terms
from that once, and encryption walks the covers by them (``_gamma1``,
``_gamma2``): a gamma1 step skips the a-chain, and the gamma2 walk is one
fixed product times (1, 0, h), h a Horner sum with one multiply per block.

The walks read the digits of the nonce (``tau_inv``, taken once per
encryption) and step through the selected entries' coordinates, building
no group element per step.  The group law needs x^(2q0) of a right
factor's coordinates, and a cover entry is a right factor of every walk
that selects it, so the keys keep those Frobenius images of their fixed
entries.  A key allocates its stores empty when it is built; a walk that
selects an entry computes its images the first time and reads them on
every later walk.  Nothing is computed at key load, and the images are
never serialized.  Per selected entry:

    walk                        multiplies   kept images it reads
    alpha1, alpha2 (_walk)          5        (a^(2q0), b^(2q0)) of the entry
    gamma1 (_gamma1)                3        b^(2q0)
    y3 (_f1_walk)                   1        a^(2q0) of alpha1's pair
    U in decryption (_f1_walk)      2        the same, and beta^(2q0)
    gamma2 (_gamma2)                1        none

A slot's images cost one Frobenius map each, once per key.

The first entry of an alpha or gamma1 walk is its start, not a step.  An
alpha step forms a^(2q0+1) from the kept a^(2q0) with one multiply, on
every field, so an op makes the same multiplies whether its entries'
images were kept or not.  A warm op at n = 65, whose entries were all
selected before, makes only the Frobenius maps of its few whole-element
group multiplies and inverses.

Encryption of m under nonce (R1, R2) emits

    y1 = alpha1'(R1) * alpha2'(R2) * m        (the masked message)
    y2 = gamma1'(R1) * gamma2'(R2)            (telescopes to t0^-1 * U*V * ts)
    y3 = product of f1 images of the selected alpha1 entries
    y4 = product of f2 images of the selected alpha2 entries

where U multiplies the R1-selected u factors and V the R2-selected v
factors.  Note y3 is a product of f1 IMAGES: f1 is not a homomorphism, so
this differs from f1 of the product, and only the image-product form makes
the cancellation below work.  The images lie in subgroups: ``_y3`` and
``_y4`` form the products there from the identity, by the subgroup's law
and by XOR of the b-coordinates, and attack 3 sweeps ``_y4``.

Decryption strips the chain once, X = t_0(1) * y2 * t_s(2)^-1 = U*V.  V is
central, so X.b = U.b and X.c = U.c + V.c.  U.b is y3.b plus
evaluate(beta1, R1), so X.b + y3.b is what the trapdoor factors into R1.
The private key then rebuilds U from the R1-selected factors, and
X.c + U.c + y4.c is evaluate(beta2, R2).  No public cover is walked and
only t_s(2) is inverted to find the nonce.  y1 is unmasked with one inverse
of alpha1'(R1) * alpha2'(R2).  With a private key from another key pair the
recovered nonce is wrong, and the unmasked element almost always fails the
padding check of ``decode_message``.

Encryption is deterministic given the nonce; drawing the nonce is the
caller's job (``random_nonce``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from itertools import repeat
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


class SessionNonce(NamedTuple):
    r1: int
    r2: int


@dataclass(frozen=True)
class PublicKey:
    """The published covers, the gamma walk terms derived from them, and
    the Frobenius images of cover entries that walks keep.

    Every gamma1 block shares one a-coordinate A_i, and every gamma2 block
    one (a, b); the constructor rejects a gamma cover without that shape.
    The terms: ``gamma1_a``, the product of the A_i (the a of every gamma1
    walk); ``gamma1_k``, A_i^(2q0+1) for the blocks after the first;
    ``gamma2_base``, the product of the gamma2 blocks' (a, b, 0); and
    ``gamma2_k``, a^(2q0+1) of the gamma2 blocks after the first.
    """

    group: SuzukiGroup
    alpha1: Cover
    alpha2: Cover
    gamma1: Cover
    gamma2: Cover
    gamma1_a: int = field(init=False, repr=False, compare=False)
    gamma1_k: tuple[int, ...] = field(init=False, repr=False, compare=False)
    gamma2_base: GroupElement = field(init=False, repr=False, compare=False)
    gamma2_k: tuple[int, ...] = field(init=False, repr=False, compare=False)
    # The Frobenius images x^(2q0) of the cover entries, kept from the first
    # walk that selects an entry: (a^(2q0), b^(2q0)) of each alpha1 and
    # alpha2 entry, b^(2q0) of each gamma1 entry, one slot per entry, block
    # after block.  The constructor allocates the stores empty.
    alpha1_frob: list = field(init=False, repr=False, compare=False)
    alpha2_frob: list = field(init=False, repr=False, compare=False)
    gamma1_frob: list = field(init=False, repr=False, compare=False)

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
        for i, block in enumerate(self.gamma1.blocks):
            a = block[0].a
            for x, _, _ in block:
                if x != a:
                    raise ValueError(f"gamma1 block {i}: entries differ in a")
        for i, block in enumerate(self.gamma2.blocks):
            a, b, _ = block[0]
            for x, y, _ in block:
                if x != a or y != b:
                    raise ValueError(f"gamma2 block {i}: entries differ outside c")
        f = self.group.params
        a1 = [block[0].a for block in self.gamma1.blocks]
        heads = [block[0] for block in self.gamma2.blocks]
        a2 = [a for a, _, _ in heads]
        k2 = tuple(map(f.pow_2q0_plus_1, a2[1:]))
        # the base is the product of the heads with c zeroed, by the step of
        # ``_gamma1`` with c2 = 0; each head is stepped by once, here, so its
        # b^(2q0) is not kept
        (_, b, _), *rest = heads
        c = 0
        for (x, y, _), k in zip(rest, k2):
            t = f.mul(x, b)
            c = f.mul(k, c) ^ f.mul(t, f.pow_2q0(y))
            b = t ^ y
        base = GroupElement(reduce(f.mul, a2), b, c)
        for name, value in (
            ("gamma1_a", reduce(f.mul, a1)),
            ("gamma1_k", tuple(map(f.pow_2q0_plus_1, a1[1:]))),
            ("gamma2_base", base),
            ("gamma2_k", k2),
            ("alpha1_frob", [None] * sum(self.type1.r)),
            ("alpha2_frob", [None] * sum(self.type2.r)),
            ("gamma1_frob", [None] * sum(self.type1.r)),
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
    group: SuzukiGroup
    beta1: TameSignature
    beta2: TameSignature
    chain1: tuple[GroupElement, ...]
    chain2: tuple[GroupElement, ...]
    # beta^(2q0) of each beta1 entry, kept as ``PublicKey`` keeps its images
    beta1_frob: list = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "beta1_frob", [None] * sum(self.beta1.type.r))


@dataclass(frozen=True)
class Ciphertext:
    y1: GroupElement
    y2: GroupElement
    y3: GroupElement
    y4: GroupElement


def _random_masking_element(group: SuzukiGroup, rng) -> GroupElement:
    # chain elements need a != 0 and b != 0 (hence non-central); c is free
    f = group.params
    return GroupElement(f.random_nonzero(rng), f.random_nonzero(rng), f.random_element(rng))


def _masked_cover(
    group: SuzukiGroup, alpha: Cover, beta: TameSignature, chain: tuple[GroupElement, ...]
) -> Cover:
    """gamma1: t_(i-1)^-1 * f1(alpha) * (1, beta, 0) * t_i, entry by entry."""
    blocks = []
    for i, (ablock, bblock) in enumerate(zip(alpha.blocks, beta.blocks)):
        left = group.inv(chain[i])
        right = group.terms(chain[i + 1])
        blocks.append(
            tuple(
                group.step(group.mul_subgroup(left, ((a.a, a.b), (b, 0))), right)
                for a, b in zip(ablock, bblock)
            )
        )
    return Cover(alpha.type, tuple(blocks))


def _masked_central_cover(
    group: SuzukiGroup, alpha: Cover, beta: TameSignature, chain: tuple[GroupElement, ...]
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
                GroupElement(ea, eb, ec ^ f.mul(k, ab ^ b))
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

    gamma1 = _masked_cover(group, alpha1, beta1, chain1)
    gamma2 = _masked_central_cover(group, alpha2, beta2, chain2)

    pk = PublicKey(group, alpha1, alpha2, gamma1, gamma2)
    sk = PrivateKey(group, beta1, beta2, chain1, chain2)
    return pk, sk


def random_nonce(params: FieldParams, rng) -> SessionNonce:
    return SessionNonce(rng.getrandbits(params.n), rng.getrandbits(params.n))


def _walk(f: FieldParams, blocks, digits, store) -> tuple[int, int, int]:
    """(a, b, c) of the product of the alpha entries the digits select.

    ``store`` is the key's store for the cover; a walk that finds an entry's
    slot empty computes (a2^(2q0), b2^(2q0)) and fills it.  Threads may
    share a key without a lock: a slot only ever goes from None to the
    images of its own entry, so walks that fill it at once write equal
    values.  A step by (a2, b2, c2) is the group law, t = a2*b:

        a <- a*a2;  b <- t + b2;  c <- a2^(2q0+1)*c + t*b2^(2q0) + c2

    with a2^(2q0+1) one multiply from the kept a2^(2q0): 5 multiplies and,
    once the slot is filled, no Frobenius map.
    """
    walk = zip(blocks, digits)
    block, j = next(walk)
    a, b, c = block[j]
    i = len(block)  # the slot of entry 0 of the next block
    for block, j in walk:
        a2, b2, c2 = block[j]
        p = store[i + j]
        if p is None:
            p = store[i + j] = (f.pow_2q0(a2), f.pow_2q0(b2))
        t = f.mul(a2, b)
        c = f.mul(f.mul(p[0], a2), c) ^ f.mul(t, p[1]) ^ c2
        a = f.mul(a, a2)
        b = t ^ b2
        i += len(block)
    return a, b, c


# The walks below take a nonce's digits (``tau_inv``), d1 those of R1 and d2
# those of R2, which encryption computes once for all of them.


def _y1_mask(pk: PublicKey, d1, d2) -> GroupElement:
    """alpha1'(R1) * alpha2'(R2), the mask y1 carries on the message."""
    f = pk.group.params
    w1 = _walk(f, pk.alpha1.blocks, d1, pk.alpha1_frob)
    w2 = _walk(f, pk.alpha2.blocks, d2, pk.alpha2_frob)
    return pk.group.mul(w1, w2)


def _gamma1(pk: PublicKey, d1) -> GroupElement:
    """gamma1'(R1): every block has one a, so every walk has a = ``gamma1_a``
    and steps as ``_walk`` without the a-chain, by the block's ``gamma1_k``
    and a slot holding b2^(2q0) alone: 3 multiplies."""
    f = pk.group.params
    store = pk.gamma1_frob
    walk = zip(pk.gamma1.blocks, d1)
    block, j = next(walk)
    _, b, c = block[j]
    i = len(block)
    for (block, j), k in zip(walk, pk.gamma1_k):
        a2, b2, c2 = block[j]
        p = store[i + j]
        if p is None:
            p = store[i + j] = f.pow_2q0(b2)
        t = f.mul(a2, b)
        c = f.mul(k, c) ^ f.mul(t, p) ^ c2
        b = t ^ b2
        i += len(block)
    return GroupElement(pk.gamma1_a, b, c)


def _gamma2(pk: PublicKey, d2) -> GroupElement:
    """gamma2'(R2) = ``gamma2_base`` * (1, 0, h), one multiply per block.

    Block i shares (a_i, b_i), so an entry is (a_i, b_i, 0) * (1, 0, c);
    as (1, 0, h) * (a_i, b_i, 0) = (a_i, b_i, 0) * (1, 0, a_i^(2q0+1)*h),
    the walk is the product of the (a_i, b_i, 0), the base, times (1, 0, h)
    for the Horner sum h <- a_i^(2q0+1)*h + c of the selected c-coordinates.
    """
    f = pk.group.params
    walk = zip(pk.gamma2.blocks, d2)
    block, j = next(walk)
    h = block[j][2]
    for (block, j), k in zip(walk, pk.gamma2_k):
        h = f.mul(k, h) ^ block[j][2]
    base = pk.gamma2_base
    return GroupElement(base.a, base.b, base.c ^ h)


def _f1_walk(pk: PublicKey, d1, sk: PrivateKey | None = None) -> tuple[int, int]:
    """(b, c) of the product of the f1 images (1, a, b) of the alpha1 entries
    R1 selects; with sk, each followed by (1, beta, 0) for the beta1 entry of
    the same digit, which gives decryption's U.

    A factor (1, b2, c2) keeps a and adds b2 to b, c <- c + b2^(2q0)*b + c2
    (``SuzukiGroup.mul_subgroup``): one multiply, with b2^(2q0) read from the
    keys' alpha1 and beta1 Frobenius stores (beta1 has alpha1's type).
    """
    f = pk.group.params
    store = pk.alpha1_frob
    beta_store = sk.beta1_frob if sk else None
    betas = sk.beta1.blocks if sk else repeat(None)
    b = c = i = 0
    for block, j, beta in zip(pk.alpha1.blocks, d1, betas):
        a2, b2, _ = block[j]
        p = store[i + j]
        if p is None:
            p = store[i + j] = (f.pow_2q0(a2), f.pow_2q0(b2))
        c ^= f.mul(p[0], b) ^ b2
        b ^= a2
        if beta:
            p = beta_store[i + j]
            if p is None:
                p = beta_store[i + j] = f.pow_2q0(beta[j])
            c ^= f.mul(p, b)
            b ^= beta[j]
        i += len(block)
    return b, c


def _y3(pk: PublicKey, d1) -> GroupElement:
    """The product of the f1 images of the alpha1 entries R1 selects."""
    return GroupElement(1, *_f1_walk(pk, d1))


def _y4(pk: PublicKey, d2) -> GroupElement:
    """The product of the f2 images (1, 0, b) of the alpha2 entries R2
    selects: central factors, so the b-coordinates add."""
    c = 0
    for block, j in zip(pk.alpha2.blocks, d2):
        c ^= block[j][1]
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
    q = group.params.q
    r1, r2 = nonce
    if not (0 <= r1 < q and 0 <= r2 < q):
        raise ValueError("nonce out of range")
    if (m.a | m.b | m.c) >> group.params.n:
        raise ValueError("message out of range")
    d1, d2 = tau_inv(pk.type1, r1), tau_inv(pk.type2, r2)
    y1 = group.mul(_y1_mask(pk, d1, d2), m)
    y2 = group.mul(_gamma1(pk, d1), _gamma2(pk, d2))
    return Ciphertext(y1, y2, _y3(pk, d1), _y4(pk, d2))


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
    x = group.mul(group.mul(sk.chain1[0], ct.y2), group.inv(sk.chain2[-1]))
    r1 = factor_tame(sk.beta1, x.b ^ ct.y3.b)
    _, uc = _f1_walk(pk, tau_inv(pk.type1, r1), sk)
    r2 = factor_tame(sk.beta2, x.c ^ uc ^ ct.y4.c)
    return SessionNonce(r1, r2)


def decrypt(pk: PublicKey, sk: PrivateKey, ct: Ciphertext) -> GroupElement:
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
