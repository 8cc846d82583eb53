"""Bit-exact serialization for keys and ciphertexts.

All integers are little-endian.  Field elements occupy ceil(n/8) bytes
with zero padding bits.  Files are self-describing: key headers carry the
field width and the modulus, so parsed fixtures survive changes to the
published modulus table.  A key header on any other irreducible modulus
gets a field of its own on byte tables, so it never costs a log/exp table.

Key file::

    "MST3SZ1" | version u8 | n u8 | modulus ceil((n+1)/8) bytes | role u8
    role 0 (public):  type1 type2 alpha1 alpha2 gamma1 gamma2
    role 1 (private): type1 type2 beta1 beta2 chain1 chain2

    type:       s u8, then s block sizes u32
    cover:      entries in block order, 3 field elements each
    signature:  entries in block order, 1 field element each,
                then the n columns of the secret linear map,
                then s per-block offsets (no echelon basis of the map:
                parsing derives it)
    chain:      s+1 group elements, 3 field elements each

Ciphertext blob::

    "MST3SZC" | version u8 | n u8
              | y1.a y1.b y1.c | y2.a y2.b y2.c | y3.b y3.c | y4.c

y3 and y4 are stored without their fixed coordinates (y3.a = 1, y4.a = 1,
y4.b = 0), which are re-imposed on parse.  Blob size is therefore exactly
9 + 9*ceil(n/8) bytes.

Parsers read each section (a cover, a signature with its trapdoor columns
and offsets, a chain, the nine ciphertext elements) whole, knowing only
the width n: the byte readers take n, not a field, so a ciphertext is
parsed without building one, and only a key's header builds the field of
its ``SuzukiGroup``.  A section is read with one ``struct`` unpack of
little-endian B/H/I/Q words: each element widens to the next word of 1,
2, 4, 8 or 16 bytes, through a zeroed copy of the section (at most 16/9
of its bytes) where it is narrower, as at n=17 (3 -> 4 bytes).  Every
failure is a ``CodecError``; those about truncation, padding, a group
element's a = 0, a zero alpha coordinate, the header's magic, version,
width, modulus and key role and the per-section checks name the section
and, where it is known, the byte offset of the bad element, e.g. ``alpha1: element has nonzero
padding bits at byte 51``, ``ciphertext: group element needs a != 0 at
byte 9``, ``alpha2: cover entry with zero coordinate at byte 406`` or
``header: n must be odd at byte 8``; such an error also carries them as
its ``section`` and ``offset``.  Each section of (a, b, c) triples is
checked for a != 0 once, on the a-column of the values it unpacked.
Cover entries and chain elements are then plain triples zipped from
those columns, by one reader for both, and the alpha covers'
zero-coordinate check runs on the same values; the ciphertext's y1 and
y2 are built by the ``GroupElement`` class call.  A public key whose
gamma cover lacks the block structure every generated key has (one a per
gamma1 block, one (a, b) per gamma2 block) is rejected at parse time:
``PublicKey`` raises ``GammaBlockError``, which names the cover and the
block as its ``section``, the failed check, and the index of the first
coordinate that differs from its block's first entry; the parser adds
that coordinate's byte, e.g. ``gamma2 block 0: entries differ outside c
at byte 414``.
"""

from __future__ import annotations

import struct
from collections.abc import Sequence
from functools import wraps
from itertools import chain, islice

from .field import IRREDUCIBLE, FieldParams, check_width, make_params
from .group import GroupElement, SuzukiGroup
from .logsig import Cover, SignatureType, TameSignature
from .scheme import Ciphertext, GammaBlockError, PrivateKey, PublicKey

KEY_MAGIC = b"MST3SZ1"
CT_MAGIC = b"MST3SZC"
VERSION = 1

ROLE_PUBLIC = 0
ROLE_PRIVATE = 1

# Closest valid widths to a 64-bit field, which the odd-width rule n = 2s+1
# makes unrepresentable.
STANDIN_WIDTHS_128BIT = (63, 65)


class CodecError(ValueError):
    """Malformed or inconsistent serialized material.  An error that names
    a byte carries the ``section`` its text starts with (None where the
    text names none) and that byte's ``offset``; other errors have None."""

    section: str | None = None
    offset: int | None = None


def _error(section: str | None, what: str, offset: int) -> CodecError:
    """The ``CodecError`` "{section}: {what} at byte {offset}", or "{what} at
    byte {offset}" without a section, with both attributes set."""
    e = CodecError(f"{section + ': ' if section else ''}{what} at byte {offset}")
    e.section, e.offset = section, offset
    return e


def _element_bytes(n: int) -> int:
    return (n + 7) // 8


# The struct code of each word an element widens to; 16 bytes are two Qs.
_WORD_CODES = {1: "B", 2: "H", 4: "I", 8: "Q"}


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, k: int, section: str) -> bytes:
        return self.data[self._span(1, k, section) : self.pos]

    def u8(self, section: str) -> int:
        return self.take(1, section)[0]

    def _span(self, count: int, size: int, section: str) -> int:
        """Skip ``count`` items of ``size`` bytes and return where they start;
        a short input names the first item it leaves incomplete."""
        start, end = self.pos, self.pos + count * size
        if end > len(self.data):
            at = start + (len(self.data) - start) // size * size
            raise _error(section, "truncated input", at)
        self.pos = end
        return start

    def u32s(self, count: int, section: str) -> tuple[int, ...]:
        """The next ``count`` u32 words, read in one unpack."""
        return struct.unpack_from(f"<{count}I", self.data, self._span(count, 4, section))

    def elements(self, n: int, count: int, section: str) -> Sequence[int]:
        """The next ``count`` field elements, read in one unpack and checked;
        each is widened to a 1, 2, 4, 8 or 16-byte word by a strided copy."""
        size = _element_bytes(n)
        start = self._span(count, size, section)
        word = 1 << (size - 1).bit_length()
        if word == size:
            buf, off = self.data, start
        else:
            buf, off = bytearray(count * word), 0
            for j in range(size):
                buf[j::word] = self.data[start + j : self.pos : size]
        if word == 16:
            q = struct.unpack_from(f"<{2 * count}Q", buf, off)
            vals = [lo | hi << 64 for lo, hi in zip(q[::2], q[1::2])]
        else:
            vals = struct.unpack_from(f"<{count}{_WORD_CODES[word]}", buf, off)
        if max(vals) >> n:
            at = start + size * next(i for i, v in enumerate(vals) if v >> n)
            raise _error(section, "element has nonzero padding bits", at)
        return vals

    def done(self) -> None:
        if self.pos != len(self.data):
            raise _error(None, "trailing bytes after payload", self.pos)


def _codec_errors(parse):
    """The parser's one error boundary: any ValueError leaves as CodecError."""

    @wraps(parse)
    def wrapper(data: bytes):
        try:
            return parse(data)
        except CodecError:
            raise
        except ValueError as e:
            raise CodecError(str(e)) from None

    return wrapper


def _pack(n: int, values) -> bytes:
    size = _element_bytes(n)
    return b"".join([v.to_bytes(size, "little") for v in values])


def _columns(
    n: int, vals: Sequence[int], start: int, section: str
) -> tuple[Sequence[int], Sequence[int], Sequence[int]]:
    """The a, b and c columns of (a, b, c) values read from byte ``start``,
    after one check that no a is 0, which names the first by its byte."""
    a = vals[0::3]
    if 0 in a:
        at = start + 3 * _element_bytes(n) * a.index(0)
        raise _error(section, "group element needs a != 0", at)
    return a, vals[1::3], vals[2::3]


def _read_triples(
    r: _Reader, n: int, count: int, section: str
) -> tuple[tuple[tuple[int, int, int], ...], Sequence[int]]:
    """The next ``count`` plain (a, b, c) triples, and the values read."""
    start = r.pos
    vals = r.elements(n, 3 * count, section)
    return tuple(zip(*_columns(n, vals, start, section))), vals


def _blocks(items, sizes) -> tuple[tuple, ...]:
    it = iter(items)
    return tuple([tuple(islice(it, k)) for k in sizes])


def _write_type(out: bytearray, t: SignatureType) -> None:
    out.append(t.s)
    for ri in t.r:
        out += ri.to_bytes(4, "little")


def _read_type(r: _Reader, n: int, section: str) -> SignatureType:
    start = r.pos
    s = r.u8(section)
    if s == 0:
        raise _error(section, "type with zero blocks", start)
    sizes = r.u32s(s, section)
    try:
        t = SignatureType(sizes)
    except ValueError as e:  # a size below 2 is named by its u32, an oversized type by s
        at = next((start + 1 + 4 * i for i, ri in enumerate(sizes) if ri < 2), start)
        raise _error(section, str(e), at) from None
    if not t.covers_bits(n):
        raise _error(section, "signature type does not cover the field", start)
    return t


def _read_cover(
    r: _Reader, n: int, t: SignatureType, section: str
) -> tuple[Cover, Sequence[int]]:
    """The next cover and the values read."""
    entries, vals = _read_triples(r, n, sum(t.r), section)
    return Cover(t, _blocks(entries, t.r)), vals


def _read_signature(r: _Reader, n: int, t: SignatureType, section: str) -> TameSignature:
    entries = sum(t.r)
    start = r.pos
    vals = r.elements(n, entries + n + t.s, section)
    blocks = _blocks(vals[:entries], t.r)
    cols = tuple(vals[entries : entries + n])
    offsets = tuple(vals[entries + n :])
    size = _element_bytes(n)
    try:
        sig = TameSignature(t, cols, offsets)
    except ValueError as e:  # a singular map: the type and widths are checked
        raise _error(section, str(e), start + size * entries) from None
    if sig.blocks != blocks:
        pairs = zip(chain.from_iterable(sig.blocks), vals)
        at = start + size * next(i for i, (x, y) in enumerate(pairs) if x != y)
        raise _error(section, "signature entries inconsistent with trapdoor", at)
    return sig


def _header(magic: bytes, n: int) -> bytearray:
    """Magic, version and width, the header every file starts with."""
    return bytearray(magic + bytes((VERSION, n)))


def _key_header(f: FieldParams, role: int) -> bytearray:
    out = _header(KEY_MAGIC, f.n)
    out += f.modulus.to_bytes((f.n + 1 + 7) // 8, "little")
    out.append(role)
    return out


def _read_header(r: _Reader, magic: bytes) -> int:
    """The width n of a header with this magic and the current version."""
    if r.take(len(magic), "header") != magic:
        raise _error("header", "bad magic", 0)
    if r.u8("header") != VERSION:
        raise _error("header", "unknown version", len(magic))
    at = r.pos
    n = r.u8("header")
    try:
        check_width(n)
    except ValueError as e:
        raise _error("header", str(e), at) from None
    return n


def _parse_key_header(r: _Reader, expect_role: int) -> FieldParams:
    n = _read_header(r, KEY_MAGIC)
    at = r.pos
    modulus = int.from_bytes(r.take((n + 1 + 7) // 8, "header"), "little")
    # Only the published moduli share the process-wide cache; any other
    # irreducible modulus from a header gets a field of its own.
    if modulus == IRREDUCIBLE[n]:
        params = make_params(n)
    else:
        try:
            params = FieldParams(n, modulus)
        except ValueError as e:
            raise _error("header", str(e), at) from None
    at = r.pos
    if r.u8("header") != expect_role:
        raise _error("header", "wrong key role for this operation", at)
    return params


def serialize_public_key(pk: PublicKey) -> bytes:
    f = pk.group.params
    out = _key_header(f, ROLE_PUBLIC)
    _write_type(out, pk.type1)
    _write_type(out, pk.type2)
    for cover in (pk.alpha1, pk.alpha2, pk.gamma1, pk.gamma2):
        out += _pack(f.n, [x for block in cover.blocks for e in block for x in e])
    return bytes(out)


@_codec_errors
def parse_public_key(data: bytes) -> PublicKey:
    r = _Reader(data)
    params = _parse_key_header(r, ROLE_PUBLIC)
    n = params.n
    t1 = _read_type(r, n, "type1")
    t2 = _read_type(r, n, "type2")
    at1 = r.pos
    alpha1, vals1 = _read_cover(r, n, t1, "alpha1")
    at2 = r.pos
    alpha2, vals2 = _read_cover(r, n, t2, "alpha2")
    at3 = r.pos
    gamma1, _ = _read_cover(r, n, t1, "gamma1")
    gamma2, _ = _read_cover(r, n, t2, "gamma2")
    r.done()
    size = _element_bytes(n)
    # every a is already nonzero, so a zero coordinate is a b or a c
    for name, start, vals in (("alpha1", at1, vals1), ("alpha2", at2, vals2)):
        if 0 in vals:
            at = start + size * vals.index(0)
            raise _error(name, "cover entry with zero coordinate", at)
    try:
        return PublicKey(SuzukiGroup(params), alpha1, alpha2, gamma1, gamma2)
    except GammaBlockError as e:
        raise _error(e.section, e.what, at3 + size * e.coord) from None


def serialize_private_key(sk: PrivateKey) -> bytes:
    f = sk.group.params
    out = _key_header(f, ROLE_PRIVATE)
    _write_type(out, sk.beta1.type)
    _write_type(out, sk.beta2.type)
    for sig in (sk.beta1, sk.beta2):
        out += _pack(f.n, [*chain.from_iterable(sig.blocks), *sig.lin_cols, *sig.offsets])
    for masks in (sk.chain1, sk.chain2):
        out += _pack(f.n, chain.from_iterable(masks))
    return bytes(out)


@_codec_errors
def parse_private_key(data: bytes) -> PrivateKey:
    r = _Reader(data)
    params = _parse_key_header(r, ROLE_PRIVATE)
    n = params.n
    t1 = _read_type(r, n, "type1")
    t2 = _read_type(r, n, "type2")
    beta1 = _read_signature(r, n, t1, "beta1")
    beta2 = _read_signature(r, n, t2, "beta2")
    at1 = r.pos
    chain1, _ = _read_triples(r, n, t1.s + 1, "chain1")
    at2 = r.pos
    chain2, _ = _read_triples(r, n, t2.s + 1, "chain2")
    r.done()
    if chain1[-1] != chain2[0]:
        raise _error("chain2", "chains do not share their joint element", at2)
    for name, start, masks in (("chain1", at1, chain1), ("chain2", at2, chain2)):
        for i, (_, b, _) in enumerate(masks):
            if b == 0:
                at = start + 3 * _element_bytes(n) * i
                raise _error(name, "central masking element in chain", at)
    return PrivateKey(SuzukiGroup(params), beta1, beta2, chain1, chain2)


def ciphertext_size(n: int) -> int:
    return 9 + 9 * _element_bytes(n)


def serialize_ciphertext(params: FieldParams, ct: Ciphertext) -> bytes:
    out = _header(CT_MAGIC, params.n)
    out += _pack(params.n, (
        ct.y1.a, ct.y1.b, ct.y1.c,
        ct.y2.a, ct.y2.b, ct.y2.c,
        ct.y3.b, ct.y3.c,
        ct.y4.c,
    ))
    return bytes(out)


@_codec_errors
def parse_ciphertext(data: bytes) -> tuple[int, Ciphertext]:
    """Returns (n, ciphertext); fixed coordinates are re-imposed."""
    r = _Reader(data)
    n = _read_header(r, CT_MAGIC)
    v = r.elements(n, 9, "ciphertext")
    r.done()
    y1, y2 = map(GroupElement, *_columns(n, v[:6], 9, "ciphertext"))
    return n, Ciphertext(y1, y2, GroupElement(1, v[6], v[7]), GroupElement(1, 0, v[8]))


def storage_report(
    params: FieldParams, type1: SignatureType, type2: SignatureType
) -> dict:
    """Entry counts and sizes for the signature and cover arrays."""
    n = params.n
    esz = _element_bytes(n)

    def stats(t: SignatureType, coords: int) -> dict:
        entries = sum(t.r)
        return {
            "blocks": t.s,
            "entries": entries,
            "entry_bits": coords * n,
            "entry_bytes": coords * esz,
            "total_bytes": entries * coords * esz,
        }

    return {
        "n": n,
        "signatures": {"beta1": stats(type1, 1), "beta2": stats(type2, 1)},
        "covers": {
            "alpha1": stats(type1, 3),
            "alpha2": stats(type2, 3),
            "gamma1": stats(type1, 3),
            "gamma2": stats(type2, 3),
        },
        "uniform_2bit_layout": {
            "realizable": False,
            "reason": "uniform 2-bit chunks tile only even widths, "
            "but valid widths n = 2s+1 are odd",
            "fallback": "(n-3)/2 two-bit chunks plus one 3-bit chunk",
            "nearest_widths_to_64": list(STANDIN_WIDTHS_128BIT),
        },
    }
