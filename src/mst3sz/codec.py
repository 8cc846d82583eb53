"""Bit-exact serialization for keys and ciphertexts.

All integers are little-endian.  Field elements occupy ceil(n/8) bytes
with zero padding bits.  Files are self-describing: key headers carry the
field width and the modulus, so parsed fixtures survive changes to the
published modulus table.

Key file::

    "MST3SZ1" | version u8 | n u8 | modulus ceil((n+1)/8) bytes | role u8
    role 0 (public):  type1 type2 alpha1 alpha2 gamma1 gamma2
    role 1 (private): type1 type2 beta1 beta2 chain1 chain2

    type:       s u8, then s block sizes u32
    cover:      entries in block order, 3 field elements each
    signature:  entries in block order, 1 field element each,
                then the n columns of the secret linear map,
                then s per-block offsets
    chain:      s+1 group elements, 3 field elements each

Ciphertext blob::

    "MST3SZC" | version u8 | n u8
              | y1.a y1.b y1.c | y2.a y2.b y2.c | y3.b y3.c | y4.c

y3 and y4 are stored without their fixed coordinates (y3.a = 1, y4.a = 1,
y4.b = 0), which are re-imposed on parse.  Blob size is therefore exactly
9 + 9*ceil(n/8) bytes.
"""

from __future__ import annotations

from .field import FieldParams, make_params
from .group import GroupElement, SuzukiGroup
from .logsig import Cover, SignatureType, TameSignature, invert_linear
from .scheme import Ciphertext, PrivateKey, PublicKey

KEY_MAGIC = b"MST3SZ1"
CT_MAGIC = b"MST3SZC"
VERSION = 1

ROLE_PUBLIC = 0
ROLE_PRIVATE = 1

# Closest valid widths to a 64-bit field, which the odd-width rule n = 2s+1
# makes unrepresentable.
STANDIN_WIDTHS_128BIT = (63, 65)


class CodecError(ValueError):
    """Malformed or inconsistent serialized material."""


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, k: int) -> bytes:
        if self.pos + k > len(self.data):
            raise CodecError("truncated input")
        out = self.data[self.pos : self.pos + k]
        self.pos += k
        return out

    def u8(self) -> int:
        return self.take(1)[0]

    def u32(self) -> int:
        return int.from_bytes(self.take(4), "little")

    def done(self) -> None:
        if self.pos != len(self.data):
            raise CodecError("trailing bytes after payload")


def _write_type(out: bytearray, t: SignatureType) -> None:
    out.append(t.s)
    for ri in t.r:
        out += ri.to_bytes(4, "little")


def _read_type(r: _Reader, f: FieldParams) -> SignatureType:
    s = r.u8()
    if s == 0:
        raise CodecError("type with zero blocks")
    try:
        t = SignatureType(tuple(r.u32() for _ in range(s)))
    except ValueError as e:
        raise CodecError(str(e)) from None
    if not t.covers_bits(f.n):
        raise CodecError("signature type does not cover the field")
    return t


def _write_element(out: bytearray, f: FieldParams, v: int) -> None:
    out += f.to_bytes(v)


def _read_element(r: _Reader, f: FieldParams) -> int:
    try:
        return f.from_bytes(r.take(f.element_size))
    except ValueError as e:
        raise CodecError(str(e)) from None


def _write_group_element(out: bytearray, f: FieldParams, g: GroupElement) -> None:
    out += f.to_bytes(g.a) + f.to_bytes(g.b) + f.to_bytes(g.c)


def _read_group_element(r: _Reader, f: FieldParams) -> GroupElement:
    a = _read_element(r, f)
    b = _read_element(r, f)
    c = _read_element(r, f)
    try:
        return GroupElement(a, b, c)
    except ValueError as e:
        raise CodecError(str(e)) from None


def _write_cover(out: bytearray, f: FieldParams, cover: Cover) -> None:
    for block in cover.blocks:
        for g in block:
            _write_group_element(out, f, g)


def _read_cover(r: _Reader, f: FieldParams, t: SignatureType) -> Cover:
    blocks = tuple(
        tuple(_read_group_element(r, f) for _ in range(ri)) for ri in t.r
    )
    return Cover(t, blocks)


def _write_signature(out: bytearray, f: FieldParams, sig: TameSignature) -> None:
    for block in sig.blocks:
        for v in block:
            _write_element(out, f, v)
    for col in sig.lin_cols:
        _write_element(out, f, col)
    for d in sig.offsets:
        _write_element(out, f, d)


def _read_signature(r: _Reader, f: FieldParams, t: SignatureType) -> TameSignature:
    blocks = tuple(tuple(_read_element(r, f) for _ in range(ri)) for ri in t.r)
    cols = tuple(_read_element(r, f) for _ in range(f.n))
    offsets = tuple(_read_element(r, f) for _ in range(t.s))
    inv = invert_linear(cols, f.n)
    if inv is None:
        raise CodecError("signature trapdoor map is singular")
    sig = TameSignature(t, f.n, blocks, cols, inv, offsets)
    if sig.canonical_blocks() != blocks:
        raise CodecError("signature entries inconsistent with trapdoor")
    return sig


def _key_header(f: FieldParams, role: int) -> bytearray:
    out = bytearray(KEY_MAGIC)
    out.append(VERSION)
    out.append(f.n)
    out += f.modulus.to_bytes((f.n + 1 + 7) // 8, "little")
    out.append(role)
    return out


def _parse_key_header(r: _Reader, expect_role: int) -> FieldParams:
    if r.take(7) != KEY_MAGIC:
        raise CodecError("bad magic")
    if r.u8() != VERSION:
        raise CodecError("unknown version")
    n = r.u8()
    modulus = int.from_bytes(r.take((n + 1 + 7) // 8), "little")
    try:
        params = make_params(n, modulus)
    except ValueError as e:
        raise CodecError(f"bad parameters: {e}") from None
    role = r.u8()
    if role != expect_role:
        raise CodecError("wrong key role for this operation")
    return params


def serialize_public_key(pk: PublicKey) -> bytes:
    f = pk.group.params
    out = _key_header(f, ROLE_PUBLIC)
    _write_type(out, pk.type1)
    _write_type(out, pk.type2)
    for cover in (pk.alpha1, pk.alpha2, pk.gamma1, pk.gamma2):
        _write_cover(out, f, cover)
    return bytes(out)


def parse_public_key(data: bytes) -> PublicKey:
    r = _Reader(data)
    params = _parse_key_header(r, ROLE_PUBLIC)
    t1 = _read_type(r, params)
    t2 = _read_type(r, params)
    alpha1 = _read_cover(r, params, t1)
    alpha2 = _read_cover(r, params, t2)
    gamma1 = _read_cover(r, params, t1)
    gamma2 = _read_cover(r, params, t2)
    r.done()
    for cover in (alpha1, alpha2):
        for block in cover.blocks:
            for g in block:
                if g.b == 0 or g.c == 0:
                    raise CodecError("alpha cover entry with zero coordinate")
    return PublicKey(SuzukiGroup(params), alpha1, alpha2, gamma1, gamma2)


def serialize_private_key(sk: PrivateKey) -> bytes:
    f = sk.group.params
    out = _key_header(f, ROLE_PRIVATE)
    _write_type(out, sk.beta1.type)
    _write_type(out, sk.beta2.type)
    _write_signature(out, f, sk.beta1)
    _write_signature(out, f, sk.beta2)
    for chain in (sk.chain1, sk.chain2):
        for g in chain:
            _write_group_element(out, f, g)
    return bytes(out)


def parse_private_key(data: bytes) -> PrivateKey:
    r = _Reader(data)
    params = _parse_key_header(r, ROLE_PRIVATE)
    t1 = _read_type(r, params)
    t2 = _read_type(r, params)
    beta1 = _read_signature(r, params, t1)
    beta2 = _read_signature(r, params, t2)
    chain1 = tuple(_read_group_element(r, params) for _ in range(t1.s + 1))
    chain2 = tuple(_read_group_element(r, params) for _ in range(t2.s + 1))
    r.done()
    if chain1[-1] != chain2[0]:
        raise CodecError("chains do not share their joint element")
    for g in chain1 + chain2:
        if g.b == 0:
            raise CodecError("central masking element in chain")
    return PrivateKey(SuzukiGroup(params), beta1, beta2, chain1, chain2)


def ciphertext_size(n: int) -> int:
    return 9 + 9 * ((n + 7) // 8)


def serialize_ciphertext(params: FieldParams, ct: Ciphertext) -> bytes:
    out = bytearray(CT_MAGIC)
    out.append(VERSION)
    out.append(params.n)
    for v in (
        ct.y1.a, ct.y1.b, ct.y1.c,
        ct.y2.a, ct.y2.b, ct.y2.c,
        ct.y3.b, ct.y3.c,
        ct.y4.c,
    ):
        _write_element(out, params, v)
    return bytes(out)


def parse_ciphertext(data: bytes) -> tuple[int, Ciphertext]:
    """Returns (n, ciphertext); fixed coordinates are re-imposed."""
    r = _Reader(data)
    if r.take(7) != CT_MAGIC:
        raise CodecError("bad magic")
    if r.u8() != VERSION:
        raise CodecError("unknown version")
    n = r.u8()
    try:
        params = make_params(n)
    except ValueError as e:
        raise CodecError(f"bad field width: {e}") from None
    vals = [_read_element(r, params) for _ in range(9)]
    r.done()
    try:
        return n, Ciphertext(
            GroupElement(vals[0], vals[1], vals[2]),
            GroupElement(vals[3], vals[4], vals[5]),
            GroupElement(1, vals[6], vals[7]),
            GroupElement(1, 0, vals[8]),
        )
    except ValueError as e:
        raise CodecError(str(e)) from None


def storage_report(
    params: FieldParams, type1: SignatureType, type2: SignatureType
) -> dict:
    """Entry counts and sizes for the signature and cover arrays."""
    n = params.n
    esz = params.element_size

    def sig_stats(t: SignatureType) -> dict:
        entries = sum(t.r)
        return {
            "blocks": t.s,
            "entries": entries,
            "entry_bits": n,
            "entry_bytes": esz,
            "total_bytes": entries * esz,
        }

    def cover_stats(t: SignatureType) -> dict:
        entries = sum(t.r)
        return {
            "blocks": t.s,
            "entries": entries,
            "entry_bits": 3 * n,
            "entry_bytes": 3 * esz,
            "total_bytes": entries * 3 * esz,
        }

    return {
        "n": n,
        "signatures": {"beta1": sig_stats(type1), "beta2": sig_stats(type2)},
        "covers": {
            "alpha1": cover_stats(type1),
            "alpha2": cover_stats(type2),
            "gamma1": cover_stats(type1),
            "gamma2": cover_stats(type2),
        },
        "uniform_2bit_layout": {
            "realizable": False,
            "reason": "uniform 2-bit chunks tile only even widths, "
            "but valid widths n = 2s+1 are odd",
            "fallback": "(n-3)/2 two-bit chunks plus one 3-bit chunk",
            "nearest_widths_to_64": list(STANDIN_WIDTHS_128BIT),
        },
    }
