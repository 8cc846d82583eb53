import dataclasses
import hashlib
import json
import random

import pytest

from mst3sz import codec
from mst3sz.cli import cli
from mst3sz.field import BinaryField, FieldParams, make_params
from mst3sz.group import IDENTITY, GroupElement, SuzukiGroup
from mst3sz.logsig import SignatureType
from mst3sz.scheme import (
    CiphertextError,
    PrivateKey,
    decode_message,
    decrypt,
    encode_message,
    encrypt,
    keygen,
    random_nonce,
)

import oracle
from helpers import G3, P3, WIDTHS, make_key


# -- file formats -----------------------------------------------------------


@pytest.mark.parametrize(
    "n, modulus",
    [(3, None), (9, None), (65, None), (17, 0x20021)],
    ids=["3", "9", "65", "17-x^17+x^5+1"],
)
def test_key_files_round_trip(n, modulus):
    # published moduli parse to the cached field; others to a private one
    params = make_params(n) if modulus is None else FieldParams(n, modulus)
    pk, sk = keygen(params, rng=random.Random(21))
    cached = make_params.cache_info().currsize
    pub = codec.serialize_public_key(pk)
    priv = codec.serialize_private_key(sk)
    parsed_pk, parsed_sk = codec.parse_public_key(pub), codec.parse_private_key(priv)
    assert parsed_pk == pk
    assert parsed_sk == sk
    assert make_params.cache_info().currsize == cached
    if modulus is None:
        assert parsed_pk.group.params is params
        assert parsed_sk.group.params is params
    # byte-exact the other way round too
    assert hashlib.sha256(codec.serialize_public_key(parsed_pk)).digest() == (
        hashlib.sha256(pub).digest()
    )
    assert hashlib.sha256(codec.serialize_private_key(parsed_sk)).digest() == (
        hashlib.sha256(priv).digest()
    )


@pytest.mark.parametrize("n", [3, 9, 17, 65, 127])
def test_ciphertext_blob_size_and_round_trip(n):
    params, (pk, _) = make_key(22, n) if n <= 17 else (make_params(n), (None, None))
    if pk is None:
        pk, _ = keygen(params, rng=random.Random(23))
    rng = random.Random(24)
    group = SuzukiGroup(params)
    ct = encrypt(pk, group.random_element(rng), random_nonce(params, rng))
    blob = codec.serialize_ciphertext(params, ct)
    assert len(blob) == 9 + 9 * ((n + 7) // 8) == codec.ciphertext_size(n)
    parsed_n, parsed = codec.parse_ciphertext(blob)
    assert parsed_n == n
    assert parsed == ct  # fixed coordinates re-imposed exactly


@pytest.mark.parametrize("n", [5, 17, 65])
def test_ciphertext_parse_builds_no_field(n, monkeypatch):
    # the ciphertext reader needs only the header's width: building a field
    # for it would cost an untrusted header its log/exp tables
    params, (pk, _) = make_key(25, n)
    rng = random.Random(26)
    ct = encrypt(pk, SuzukiGroup(params).random_element(rng), random_nonce(params, rng))
    blob = codec.serialize_ciphertext(params, ct)

    def no_field(*args):
        raise AssertionError("ciphertext parse built a field")

    monkeypatch.setattr(codec, "make_params", no_field)
    monkeypatch.setattr(codec, "FieldParams", no_field)
    assert codec.parse_ciphertext(blob) == (n, ct)


# SHA-256 over the public key, private key and 3 ciphertexts of 3 seeded keys
# per field, recorded before the signature layer dropped its bit-width
# methods.  Any change to keygen, encrypt, the rng draw order or the byte
# formats moves it.
BYTES_DIGEST = "2d2e7dd511263206e10e28da25b31bba776e44da3759e3697607eb643857df9c"


def test_key_and_ciphertext_bytes_pinned():
    fields = [make_params(n) for n in (3, 5, 9, 17, 19, 33, 65, 127)]
    fields.append(FieldParams(65, 0x322A2D550DBD0CE07))
    h = hashlib.sha256()
    for params in fields:
        group = SuzukiGroup(params)
        for k in range(3):
            rng = random.Random(f"bytes/{params.n}/{params.modulus:x}/{k}")
            pk, sk = keygen(params, rng=rng)
            h.update(codec.serialize_public_key(pk))
            h.update(codec.serialize_private_key(sk))
            for _ in range(3):
                m = group.random_element(rng)
                ct = encrypt(pk, m, random_nonce(params, rng))
                h.update(codec.serialize_ciphertext(params, ct))
    assert h.hexdigest() == BYTES_DIGEST


def test_ciphertext_fixed_coordinates_elided():
    params, (pk, sk) = make_key(25)
    rng = random.Random(26)
    m = G3.random_element(rng)
    ct = encrypt(pk, m, random_nonce(params, rng))
    blob = codec.serialize_ciphertext(params, ct)
    _, parsed = codec.parse_ciphertext(blob)
    assert parsed.y3.a == 1 and parsed.y4.a == 1 and parsed.y4.b == 0
    from mst3sz.scheme import decrypt

    assert decrypt(pk, sk, parsed) == m


def test_bad_magic_rejected():
    params, (pk, sk) = make_key(27)
    for blob, parse in (
        (codec.serialize_public_key(pk), codec.parse_public_key),
        (codec.serialize_private_key(sk), codec.parse_private_key),
        (
            codec.serialize_ciphertext(
                params, encrypt(pk, IDENTITY, random_nonce(params, random.Random(1)))
            ),
            codec.parse_ciphertext,
        ),
    ):
        bad = b"X" + blob[1:]
        with pytest.raises(codec.CodecError, match="magic"):
            parse(bad)


def test_unknown_version_rejected():
    _, (pk, _) = make_key(28)
    blob = bytearray(codec.serialize_public_key(pk))
    blob[7] = 9
    with pytest.raises(codec.CodecError, match="version"):
        codec.parse_public_key(bytes(blob))


def test_truncation_and_trailing_bytes_rejected():
    _, (pk, _) = make_key(29)
    blob = codec.serialize_public_key(pk)
    with pytest.raises(codec.CodecError, match="truncated") as err:
        codec.parse_public_key(blob[:-1])
    # n = 3 elements are single bytes: the cut lands in gamma2's last one
    assert str(err.value) == f"gamma2: truncated input at byte {len(blob) - 1}"
    with pytest.raises(codec.CodecError, match="trailing"):
        codec.parse_public_key(blob + b"\x00")


@pytest.mark.parametrize("cut", [0, 1, 4, 6, 15])
def test_truncation_inside_type_block_sizes(cut):
    # at n = 9 the header is 12 bytes and type1 is s = 4 then four u32
    # sizes; a cut reports the first size it leaves incomplete
    _, (pk, _) = make_key(29, n=9)
    blob = codec.serialize_public_key(pk)
    sizes_at = 12 + 1
    assert blob[12] == pk.type1.s == 4
    with pytest.raises(codec.CodecError) as err:
        codec.parse_public_key(blob[: sizes_at + cut])
    assert str(err.value) == f"type1: truncated input at byte {sizes_at + cut // 4 * 4}"


@pytest.mark.parametrize("section", ["type1", "type2"])
@pytest.mark.parametrize("size", [0, 1])
@pytest.mark.parametrize("k", [0, 2])
def test_small_block_size_named_with_offset(section, size, k):
    # n = 3, types (2, 2, 2): an 11-byte header, then type1 = s (byte 11)
    # and three u32 sizes from byte 12; type2 follows in the same layout.
    # Size k is set below 2, and the message names the byte it starts at.
    t = SignatureType((2, 2, 2))
    pk, sk = keygen(P3, t, t, rng=random.Random(44))
    start = 11 if section == "type1" else 11 + 1 + 4 * t.s
    at = start + 1 + 4 * k
    for blob, parse in (
        (codec.serialize_public_key(pk), codec.parse_public_key),
        (codec.serialize_private_key(sk), codec.parse_private_key),
    ):
        bad = bytearray(blob)
        assert bad[at : at + 4] == (2).to_bytes(4, "little")
        bad[at : at + 4] = size.to_bytes(4, "little")
        with pytest.raises(codec.CodecError) as err:
            parse(bytes(bad))
        assert str(err.value) == f"{section}: block sizes must all be >= 2 at byte {at}"


@pytest.mark.parametrize(
    "at, value, expected",
    [
        (8, 4, "header: n must be odd at byte 8"),
        (8, 1, "header: n must be in 3..127 at byte 8"),
        (8, 129, "header: n must be in 3..127 at byte 8"),
        (9, 0x09, "header: modulus 0x9 is reducible at byte 9"),  # x^3 + 1
        (9, 0x05, "header: modulus degree does not match n at byte 9"),
    ],
)
def test_bad_header_field_named_with_offset(at, value, expected):
    # n = 3: magic (7 bytes), version, n at byte 8, one modulus byte at 9
    params, (pk, sk) = make_key(42)
    ct = encrypt(pk, IDENTITY, random_nonce(params, random.Random(43)))
    blobs = [
        (codec.serialize_public_key(pk), codec.parse_public_key),
        (codec.serialize_private_key(sk), codec.parse_private_key),
    ]
    if at == 8:  # a ciphertext header has n but no modulus
        blobs.append((codec.serialize_ciphertext(params, ct), codec.parse_ciphertext))
    for blob, parse in blobs:
        bad = bytearray(blob)
        bad[at] = value
        with pytest.raises(codec.CodecError) as err:
            parse(bytes(bad))
        assert str(err.value) == expected


def test_padding_bits_rejected_with_section_and_offset():
    # the last element of each blob is the last byte pair at n = 9; its top
    # byte holds bits 8..15, of which 9..15 must be zero
    params, (pk, sk) = make_key(39, 9)
    rng = random.Random(40)
    ct = encrypt(pk, SuzukiGroup(params).random_element(rng), random_nonce(params, rng))
    for blob, parse, section in (
        (codec.serialize_public_key(pk), codec.parse_public_key, "gamma2"),
        (codec.serialize_private_key(sk), codec.parse_private_key, "chain2"),
        (codec.serialize_ciphertext(params, ct), codec.parse_ciphertext, "ciphertext"),
    ):
        bad = bytearray(blob)
        bad[-1] |= 0x80
        expected = f"{section}: element has nonzero padding bits at byte {len(blob) - 2}"
        with pytest.raises(codec.CodecError, match="padding") as err:
            parse(bytes(bad))
        assert str(err.value) == expected


@pytest.mark.parametrize("n", WIDTHS)
def test_reader_matches_per_element_reference(n):
    # random sections after a 5-byte prefix, followed by trailing bytes
    params = make_params(n)
    size = (n + 7) // 8
    rng = random.Random(f"reader/{n}")
    for count in (1, 9, 100):
        vals = [rng.getrandbits(n) for _ in range(count)]
        vals[0], vals[-1] = params.q - 1, 0
        body = b"".join(v.to_bytes(size, "little") for v in vals)
        prefix, tail = rng.randbytes(5), rng.randbytes(3)
        r = codec._Reader(prefix + body + tail)
        r.pos = len(prefix)
        assert list(r.elements(n, count, "beta1")) == oracle.le_elements(body, size) == vals
        assert r.pos == len(prefix) + len(body)
        # a padding bit in the first, a middle and the last element
        for i in sorted({0, count // 2, count - 1}):
            bad = bytearray(body)
            bad[i * size + size - 1] |= 0x80
            r = codec._Reader(prefix + bytes(bad) + tail)
            r.pos = len(prefix)
            with pytest.raises(codec.CodecError) as err:
                r.elements(n, count, "beta1")
            at = len(prefix) + i * size
            assert str(err.value) == f"beta1: element has nonzero padding bits at byte {at}"


@pytest.mark.parametrize(
    "section, k",
    [("alpha1", 0), ("alpha2", 5), ("gamma1", 3), ("gamma2", 7), ("chain1", 1), ("chain2", 0),
     ("ciphertext", 0), ("ciphertext", 1)],
)
def test_zero_a_rejected_with_section_and_offset(section, k):
    # zero the a-coordinate of element k of the section; at n = 9 an
    # element is two bytes, the named key sections end the file in order and
    # the ciphertext's y1 and y2 follow its 9-byte header
    params, (pk, sk) = make_key(42, 9)
    esz, t1, t2 = 2, pk.type1, pk.type2
    if section == "ciphertext":
        rng = random.Random(43)
        ct = encrypt(pk, SuzukiGroup(params).random_element(rng), random_nonce(params, rng))
        blob, parse = codec.serialize_ciphertext(params, ct), codec.parse_ciphertext
        start = 9
    elif section.startswith("chain"):
        blob, parse = codec.serialize_private_key(sk), codec.parse_private_key
        start = _section_start(blob, esz, {"chain1": t1.s + 1, "chain2": t2.s + 1}, section)
    else:
        blob, parse = codec.serialize_public_key(pk), codec.parse_public_key
        start = _section_start(blob, esz, _cover_counts(pk), section)
    at = start + 3 * esz * k
    bad = bytearray(blob)
    bad[at : at + esz] = bytes(esz)
    with pytest.raises(codec.CodecError, match="a != 0") as err:
        parse(bytes(bad))
    assert str(err.value) == f"{section}: group element needs a != 0 at byte {at}"
    assert (err.value.section, err.value.offset) == (section, at)


def _cover_counts(pk):
    t1, t2 = pk.type1, pk.type2
    return {"alpha1": sum(t1.r), "alpha2": sum(t2.r), "gamma1": sum(t1.r), "gamma2": sum(t2.r)}


def _section_start(blob, esz, counts, section):
    """Where a section of group elements starts, given the element counts of
    the sections that end the file, in file order."""
    start = len(blob)
    for name in reversed(counts):
        start -= 3 * esz * counts[name]
        if name == section:
            return start
    raise KeyError(section)


def test_wrong_role_rejected():
    _, (pk, sk) = make_key(30)
    with pytest.raises(codec.CodecError, match="role"):
        codec.parse_private_key(codec.serialize_public_key(pk))
    with pytest.raises(codec.CodecError, match="role"):
        codec.parse_public_key(codec.serialize_private_key(sk))


def test_parse_checks_alpha_entry_constraint():
    from mst3sz.logsig import Cover
    from mst3sz.scheme import PublicKey

    _, (pk, _) = make_key(35)
    blocks = ((GroupElement(1, 0, 1),) + pk.alpha1.blocks[0][1:],) + pk.alpha1.blocks[1:]
    broken = PublicKey(
        pk.group, Cover(pk.type1, blocks), pk.alpha2, pk.gamma1, pk.gamma2
    )
    with pytest.raises(codec.CodecError, match="zero coordinate"):
        codec.parse_public_key(codec.serialize_public_key(broken))
    # a zero b or c of entry 2 of either alpha cover is named by its byte
    blob = codec.serialize_public_key(pk)
    for section in ("alpha1", "alpha2"):
        for coord in (1, 2):
            at = _section_start(blob, 1, _cover_counts(pk), section) + 3 * 2 + coord
            bad = bytearray(blob)
            bad[at] = 0
            with pytest.raises(codec.CodecError, match="zero coordinate") as err:
                codec.parse_public_key(bytes(bad))
            assert str(err.value) == f"{section}: cover entry with zero coordinate at byte {at}"


# -- the public-key parse path -----------------------------------------------


@pytest.mark.parametrize("n", [3, 17])
def test_cover_entries_are_plain_triples(n):
    # keygen's covers and chains and the parsed ones hold plain tuples,
    # equal entry by entry; the generator makes the same entry type
    from mst3sz.logsig import covering_type, gen_random_cover

    params, (pk, sk) = make_key(44, n)
    parsed = codec.parse_public_key(codec.serialize_public_key(pk))
    parsed_sk = codec.parse_private_key(codec.serialize_private_key(sk))
    for name in ("alpha1", "alpha2", "gamma1", "gamma2"):
        made, read = getattr(pk, name), getattr(parsed, name)
        for entries in (made.blocks, read.blocks):
            assert all(type(e) is tuple for block in entries for e in block), name
        assert read.blocks == made.blocks, name
        assert type(read.blocks) is tuple and all(type(b) is tuple for b in read.blocks)
    for name in ("chain1", "chain2"):
        made, read = getattr(sk, name), getattr(parsed_sk, name)
        for masks in (made, read):
            assert type(masks) is tuple and all(type(t) is tuple for t in masks), name
        assert read == made, name
    cover = gen_random_cover(SuzukiGroup(params), covering_type(n), random.Random(45))
    assert all(type(e) is tuple for block in cover.blocks for e in block)


@pytest.mark.parametrize(
    "n, modulus", [(3, None), (5, None), (17, None), (65, None), (17, 0x2000F)],
    ids=["3", "5", "17", "65", "17-x^17+x^3+x^2+x+1"],
)
def test_public_key_bytes_survive_parse(n, modulus):
    params = make_params(n) if modulus is None else FieldParams(n, modulus)
    pk, _ = keygen(params, rng=random.Random(46))
    blob = codec.serialize_public_key(pk)
    assert codec.serialize_public_key(codec.parse_public_key(blob)) == blob


def test_trailing_bytes_reported_before_a_zero_alpha_coordinate():
    _, (pk, _) = make_key(47)
    blob = codec.serialize_public_key(pk)
    bad = bytearray(blob)
    bad[_section_start(blob, 1, _cover_counts(pk), "alpha1") + 1] = 0  # entry 0's b
    with pytest.raises(codec.CodecError, match="zero coordinate"):
        codec.parse_public_key(bytes(bad))
    with pytest.raises(codec.CodecError) as err:
        codec.parse_public_key(bytes(bad) + b"\x00")
    assert str(err.value) == f"trailing bytes after payload at byte {len(blob)}"
    assert (err.value.section, err.value.offset) == (None, len(blob))


_COVERS = ("alpha1", "alpha2", "gamma1", "gamma2")


@pytest.mark.parametrize(
    "section, k, coord, fault",
    [(s, 2, 0, "zero") for s in _COVERS]
    + [(s, 3, c, "zero") for s in ("alpha1", "alpha2") for c in (1, 2)]
    + [(s, 1, c, "padding") for s, c in zip(_COVERS, (0, 1, 2, 0))],
)
def test_cover_errors_carry_section_and_offset(section, k, coord, fault):
    # coordinate coord of entry k of a cover at n = 9, two bytes an element:
    # zeroed, or with a padding bit set in its top byte
    _, (pk, _) = make_key(48, 9)
    blob = codec.serialize_public_key(pk)
    at = _section_start(blob, 2, _cover_counts(pk), section) + 2 * (3 * k + coord)
    bad = bytearray(blob)
    if fault == "zero":
        bad[at : at + 2] = bytes(2)
    else:
        bad[at + 1] |= 0x80
    with pytest.raises(codec.CodecError) as err:
        codec.parse_public_key(bytes(bad))
    what = {
        ("zero", 0): "group element needs a != 0",
        ("zero", 1): "cover entry with zero coordinate",
        ("zero", 2): "cover entry with zero coordinate",
    }.get((fault, coord), "element has nonzero padding bits")
    assert str(err.value) == f"{section}: {what} at byte {at}"
    assert (err.value.section, err.value.offset) == (section, at)


def test_error_attributes_follow_the_message():
    # a gamma block error names the cover and block before its colon; an
    # error without a byte has neither attribute
    _, (pk, _) = make_key(49, 5)
    blob = codec.serialize_public_key(pk)
    at = _section_start(blob, 1, _cover_counts(pk), "gamma1") + 3 * 1
    bad = bytearray(blob)
    bad[at] ^= 1  # the a of gamma1's entry 1, in block 0 with entry 0
    with pytest.raises(codec.CodecError) as err:
        codec.parse_public_key(bytes(bad))
    assert str(err.value) == f"gamma1 block 0: entries differ in a at byte {at}"
    assert (err.value.section, err.value.offset) == ("gamma1 block 0", at)
    with pytest.raises(codec.CodecError, match="role") as err:
        codec.parse_private_key(blob)
    assert (err.value.section, err.value.offset) == (None, None)


def _non_covering_covers():
    # (2,2,2,2) spans 4 bits, not 5: indexes above 15 would fail in encrypt
    from mst3sz.logsig import gen_random_cover

    group = SuzukiGroup(make_params(5))
    rng = random.Random(38)
    t = SignatureType((2, 2, 2, 2))
    return group, t, [gen_random_cover(group, t, rng) for _ in range(4)]


def test_parse_rejects_non_covering_public_key_type():
    from types import SimpleNamespace

    group, t, covers = _non_covering_covers()
    # PublicKey refuses this type, so the serializer gets a stand-in
    names = ("alpha1", "alpha2", "gamma1", "gamma2")
    fake = SimpleNamespace(group=group, type1=t, type2=t, **dict(zip(names, covers)))
    blob = codec.serialize_public_key(fake)
    with pytest.raises(codec.CodecError, match="does not cover"):
        codec.parse_public_key(blob)


def test_public_key_rejects_non_covering_type():
    from mst3sz.scheme import PublicKey

    group, _, covers = _non_covering_covers()
    expected = r"signature type \(2, 2, 2, 2\) does not cover GF\(2\^5\)"
    with pytest.raises(ValueError, match=expected):
        PublicKey(group, *covers)
    # dataclasses.replace re-runs the check
    _, (pk, _) = make_key(38, n=5)
    with pytest.raises(ValueError, match="does not cover"):
        dataclasses.replace(pk, gamma2=covers[3])


def test_public_key_rejects_gamma_type_mismatch():
    # gamma1 re-blocked from (4, 8) to (8, 4): both types cover GF(2^5), but
    # the file stores one type per half, so such a key would not survive
    # serialize/parse
    from mst3sz.logsig import Cover

    _, (pk, _) = make_key(39, n=5)
    assert pk.type1.r == (4, 8)
    entries = [g for block in pk.gamma1.blocks for g in block]
    reblocked = Cover(SignatureType((8, 4)), (tuple(entries[:8]), tuple(entries[8:])))
    with pytest.raises(ValueError, match=r"gamma1 type \(8, 4\) differs from alpha1 type \(4, 8\)"):
        dataclasses.replace(pk, gamma1=reblocked)


@pytest.mark.parametrize(
    "cover, block, coord, expected",
    [
        ("gamma1", 1, 0, "gamma1 block 1: entries differ in a"),
        ("gamma2", 0, 1, "gamma2 block 0: entries differ outside c"),
        ("gamma2", 1, 0, "gamma2 block 1: entries differ outside c"),
    ],
)
def test_parse_rejects_unstructured_gamma(cover, block, coord, expected):
    # flip the low bit of one coordinate of entry 1 in the block; at n = 9
    # an element is two bytes, and the gamma covers end the file
    params, (pk, _) = make_key(41, n=9)
    blob = bytearray(codec.serialize_public_key(pk))
    esz, t = 2, pk.type1
    start = len(blob) - 3 * esz * sum(t.r) * (2 if cover == "gamma1" else 1)
    at = start + 3 * esz * (sum(t.r[:block]) + 1) + esz * coord
    blob[at] ^= 1
    with pytest.raises(codec.CodecError) as err:
        codec.parse_public_key(bytes(blob))
    assert str(err.value) == f"{expected} at byte {at}"


def test_parse_checks_chain_joint():
    _, (pk, sk) = make_key(31)
    rng = random.Random(32)
    broken = PrivateKey(
        sk.group,
        sk.beta1,
        sk.beta2,
        sk.chain1,
        (GroupElement(2, 1, 1),) + sk.chain2[1:],
    )
    with pytest.raises(codec.CodecError, match="joint"):
        codec.parse_private_key(codec.serialize_private_key(broken))


def test_parse_rejects_central_chain_element():
    # the middle of chain1 (n=5 has two blocks), not the joint, with b = 0
    _, (pk, sk) = make_key(40, n=5)
    assert len(sk.chain1) == 3
    g = sk.chain1[1]
    chain1 = sk.chain1[:1] + ((g[0], 0, g[2]),) + sk.chain1[2:]
    broken = dataclasses.replace(sk, chain1=chain1)
    with pytest.raises(codec.CodecError, match="central masking element in chain"):
        codec.parse_private_key(codec.serialize_private_key(broken))


def test_parse_checks_signature_trapdoor_consistency():
    # A signature derives its entries from the trapdoor, so an inconsistent
    # one exists only as bytes: flip a bit of beta1's first entry, which
    # follows the header (magic, version, n, modulus, role) and both types.
    params, (pk, sk) = make_key(33)
    n, t1, t2 = params.n, sk.beta1.type, sk.beta2.type
    at = 7 + 1 + 1 + (n + 8) // 8 + 1 + (1 + 4 * t1.s) + (1 + 4 * t2.s)
    blob = bytearray(codec.serialize_private_key(sk))
    assert blob[at] == sk.beta1.blocks[0][0] & 0xFF
    blob[at] ^= 1
    with pytest.raises(codec.CodecError, match="beta1: signature entries inconsistent"):
        codec.parse_private_key(bytes(blob))


def test_parse_checks_singular_trapdoor():
    # A signature cannot hold a singular map, so one exists only as bytes:
    # zero beta1's n columns, which follow its sum(r) entries.
    params, (pk, sk) = make_key(34)
    n, t1, t2, size = params.n, sk.beta1.type, sk.beta2.type, (params.n + 7) // 8
    at = 7 + 1 + 1 + (n + 8) // 8 + 1 + (1 + 4 * t1.s) + (1 + 4 * t2.s) + size * sum(t1.r)
    end = at + n * size
    blob = bytearray(codec.serialize_private_key(sk))
    assert blob[at:end] == b"".join(c.to_bytes(size, "little") for c in sk.beta1.lin_cols)
    blob[at:end] = bytes(n * size)
    with pytest.raises(codec.CodecError, match="beta1: signature trapdoor map is singular"):
        codec.parse_private_key(bytes(blob))


def _private_sections(params, sk):
    """The byte offsets of beta1, beta2, chain1 and chain2 in sk's file."""
    n, size = params.n, (params.n + 7) // 8
    t1, t2 = sk.beta1.type, sk.beta2.type
    at = {"beta1": 7 + 1 + 1 + (n + 8) // 8 + 1 + (1 + 4 * t1.s) + (1 + 4 * t2.s)}
    at["beta2"] = at["beta1"] + size * (sum(t1.r) + n + t1.s)
    at["chain1"] = at["beta2"] + size * (sum(t2.r) + n + t2.s)
    at["chain2"] = at["chain1"] + 3 * size * (t1.s + 1)
    assert len(codec.serialize_private_key(sk)) == at["chain2"] + 3 * size * (t2.s + 1)
    return at


# (section, stored value flipped: an entry or an offset, its index, the index
# of the first stored entry that then differs from the trapdoor's)
@pytest.mark.parametrize(
    "section, part, index, first",
    [
        ("beta1", "entry", 0, 0),
        ("beta1", "entry", 5, 5),
        ("beta2", "entry", 3, 3),
        ("beta2", "offset", 1, None),  # every entry of block 1 moves
    ],
)
def test_inconsistent_signature_named_with_offset(section, part, index, first):
    # n = 9: two-byte elements, so the offsets count elements, not bytes
    params, (pk, sk) = make_key(43, n=9)
    sig, size = getattr(sk, section), 2
    start = _private_sections(params, sk)[section]
    if first is None:
        first = sig.type.r[0]
    at = start + size * (index if part == "entry" else sum(sig.type.r) + params.n + index)
    blob = bytearray(codec.serialize_private_key(sk))
    blob[at] ^= 1
    with pytest.raises(codec.CodecError) as err:
        codec.parse_private_key(bytes(blob))
    at = start + size * first
    assert str(err.value) == f"{section}: signature entries inconsistent with trapdoor at byte {at}"


@pytest.mark.parametrize("section", ["beta1", "beta2"])
def test_singular_trapdoor_named_with_offset(section):
    params, (pk, sk) = make_key(44, n=9)
    sig, size = getattr(sk, section), 2
    at = _private_sections(params, sk)[section] + size * sum(sig.type.r)
    blob = bytearray(codec.serialize_private_key(sk))
    blob[at : at + size * params.n] = bytes(size * params.n)
    with pytest.raises(codec.CodecError) as err:
        codec.parse_private_key(bytes(blob))
    assert str(err.value) == f"{section}: signature trapdoor map is singular at byte {at}"


def test_chain_joint_named_with_offset():
    params, (pk, sk) = make_key(45, n=9)
    broken = dataclasses.replace(sk, chain2=(GroupElement(2, 1, 1),) + sk.chain2[1:])
    at = _private_sections(params, sk)["chain2"]
    with pytest.raises(codec.CodecError) as err:
        codec.parse_private_key(codec.serialize_private_key(broken))
    assert str(err.value) == f"chain2: chains do not share their joint element at byte {at}"


# the indexes of the central elements in chain1 and in chain2, and the
# element named: the first central one in file order; -1 is chain1's last
# element, the joint, which chain2 repeats as its first
@pytest.mark.parametrize(
    "central1, central2, named",
    [
        ((1,), (), ("chain1", 1)),
        ((), (1,), ("chain2", 1)),
        ((-1,), (0,), ("chain1", -1)),
        ((0, 1), (1,), ("chain1", 0)),
    ],
)
def test_central_chain_element_named_with_offset(central1, central2, named):
    params, (pk, sk) = make_key(46, n=9)
    chains = {"chain1": list(sk.chain1), "chain2": list(sk.chain2)}
    for name, central in (("chain1", central1), ("chain2", central2)):
        for i in central:
            g = chains[name][i]
            chains[name][i] = (g[0], 0, g[2])
    broken = dataclasses.replace(
        sk, chain1=tuple(chains["chain1"]), chain2=tuple(chains["chain2"])
    )
    name, i = named
    at = _private_sections(params, sk)[name] + 3 * 2 * (i % len(chains[name]))
    with pytest.raises(codec.CodecError) as err:
        codec.parse_private_key(codec.serialize_private_key(broken))
    assert str(err.value) == f"{name}: central masking element in chain at byte {at}"


@pytest.mark.parametrize("n", [9, 17, 33, 65])
def test_parsers_fail_only_with_codec_error(n):
    # arbitrary corruption may be rejected, never crash some other way; the
    # widths read their elements as they are (9), widened to one word (17,
    # 33) and widened to two words (65)
    params, (pk, sk) = make_key(36, n)
    rng = random.Random(37)
    group = SuzukiGroup(params)
    ct = encrypt(pk, group.random_element(rng), random_nonce(params, rng))
    samples = (
        (codec.serialize_public_key(pk), codec.parse_public_key),
        (codec.serialize_private_key(sk), codec.parse_private_key),
        (codec.serialize_ciphertext(params, ct), codec.parse_ciphertext),
    )
    for blob, parse in samples:
        for _ in range(800):
            data = bytearray(blob)
            op = rng.randrange(4)
            if op == 0 and len(data) > 1:
                data = data[: rng.randrange(len(data))]
            elif op == 1:
                data += bytes(rng.getrandbits(8) for _ in range(rng.randrange(1, 9)))
            elif op == 2:
                for _ in range(rng.randrange(1, 6)):
                    i = rng.randrange(len(data))
                    data[i] ^= 1 << rng.randrange(8)
            else:
                data[rng.randrange(len(data))] = rng.getrandbits(8)
            try:
                parse(bytes(data))
            except codec.CodecError:
                pass


def _mutated(rng, blob):
    data = bytearray(blob)
    op = rng.randrange(4)
    if op == 0:
        return bytes(data[: rng.randrange(len(data))])
    if op == 1:
        return bytes(data) + rng.randbytes(rng.randrange(1, 9))
    for _ in range(rng.randrange(1, 4)):
        i = rng.randrange(len(data))
        data[i] = data[i] ^ 1 << rng.randrange(8) if op == 2 else rng.getrandbits(8)
    return bytes(data)


@pytest.mark.parametrize("n", [3, 5, 9, 17])
def test_pipeline_fails_only_with_named_errors(n):
    # whatever parses after a mutation goes through encrypt, decrypt and
    # decode_message, and fails only at a named check
    params, (pk, sk) = make_key(38, n)
    rng = random.Random(n)
    m = encode_message(params, b"")
    ct = encrypt(pk, m, random_nonce(params, rng))
    pub = codec.serialize_public_key(pk)
    priv = codec.serialize_private_key(sk)
    blob = codec.serialize_ciphertext(params, ct)

    def via_pub(data):
        pk2 = codec.parse_public_key(data)
        return pk2, sk, encrypt(pk2, m, random_nonce(pk2.group.params, rng))

    def via_priv(data):
        return pk, codec.parse_private_key(data), ct

    def via_ct(data):
        return pk, sk, codec.parse_ciphertext(data)[1]

    for original, run in ((pub, via_pub), (priv, via_priv), (blob, via_ct)):
        for _ in range(600):
            try:
                pk2, sk2, ct2 = run(_mutated(rng, original))
                decode_message(params, decrypt(pk2, sk2, ct2))
            except (codec.CodecError, CiphertextError):
                pass
            except ValueError as e:
                assert str(e).startswith("bad padding"), e


def test_storage_report_counts():
    t222 = SignatureType((2, 2, 2))
    rep = codec.storage_report(P3, t222, t222)
    assert rep["signatures"]["beta1"] == {
        "blocks": 3,
        "entries": 6,
        "entry_bits": 3,
        "entry_bytes": 1,
        "total_bytes": 6,
    }
    assert rep["covers"]["gamma1"]["entry_bits"] == 9
    p65 = make_params(65)
    from mst3sz.logsig import covering_type

    t65 = covering_type(65)
    rep65 = codec.storage_report(p65, t65, t65)
    assert rep65["signatures"]["beta1"]["entries"] == 132  # 31*4 + 8
    assert rep65["signatures"]["beta1"]["entry_bits"] == 65
    assert rep65["uniform_2bit_layout"]["realizable"] is False
    assert rep65["uniform_2bit_layout"]["nearest_widths_to_64"] == [63, 65]


# -- CLI --------------------------------------------------------------------


def test_cli_params_output(capsys):
    assert cli(["params", "3"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["group_order"] == 448
    assert out["center_order"] == 8
    assert out["genus"] == 14


def test_cli_params_json_pinned(capsys):
    assert cli(["params", "3"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert list(out.items()) == [
        ("n", 3), ("s", 1), ("q0", 2), ("q", 8), ("modulus", "0xb"),
        ("group_order", 448), ("center_order", 8), ("full_aut_order", 29120),
        ("genus", 14), ("rational_places", 65),
    ]


def test_cli_exit_codes(tmp_path, capsys):
    assert cli(["nonsense"]) == 1  # unknown command
    assert cli(["keygen", "--n", "3"]) == 1  # missing required args
    assert cli(["params", "4"]) == 2  # even width is a parameter error
    bad = tmp_path / "bad.key"
    bad.write_bytes(b"not a key file")
    assert cli(["encrypt", "--pub", str(bad), "--in", str(bad), "--out", str(bad)]) == 2
    assert cli(["--help"]) == 0


def test_cli_keygen_private_material(tmp_path, capsys):
    pub, priv = tmp_path / "p.key", tmp_path / "s.key"
    assert cli(["keygen", "--n", "3", "--pub", str(pub), "--priv", str(priv), "--seed", "5"]) == 0
    out = capsys.readouterr().out
    assert "private_key_hex" not in out
    assert priv.read_bytes().hex() not in out
    assert cli([
        "keygen", "--n", "3", "--pub", str(pub), "--priv", str(priv),
        "--seed", "5", "--unsafe-dump",
    ]) == 0
    dumped = json.loads(capsys.readouterr().out)
    assert dumped["private_key_hex"] == priv.read_bytes().hex()


@pytest.mark.parametrize("armor", [[], ["--hex"], ["--base64"]])
def test_cli_pipeline_round_trip(tmp_path, armor):
    pub, priv = tmp_path / "p.key", tmp_path / "s.key"
    msg, ct, out = tmp_path / "m.bin", tmp_path / "c.bin", tmp_path / "o.bin"
    assert cli(["keygen", "--n", "17", "--pub", str(pub), "--priv", str(priv), "--seed", "1"]) == 0
    msg.write_bytes(b"hi!")
    assert cli(["encrypt", "--pub", str(pub), "--in", str(msg), "--out", str(ct), "--seed", "2", *armor]) == 0
    assert cli(["decrypt", "--pub", str(pub), "--priv", str(priv), "--in", str(ct), "--out", str(out), *armor]) == 0
    assert out.read_bytes() == b"hi!"


def test_cli_decrypt_rejects_bad_armor(tmp_path, capsys):
    pub, priv = tmp_path / "p.key", tmp_path / "s.key"
    assert cli(["keygen", "--n", "5", "--pub", str(pub), "--priv", str(priv), "--seed", "1"]) == 0
    ct, out = tmp_path / "c.hex", tmp_path / "o.bin"
    ct.write_bytes(b"not hex at all\n")
    capsys.readouterr()
    args = ["decrypt", "--pub", str(pub), "--priv", str(priv), "--in", str(ct), "--out", str(out)]
    assert cli([*args, "--hex"]) == 2
    assert "bad armor" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("n", [3, 17])
def test_cli_pipeline_matches_library(tmp_path, n):
    params = make_params(n)
    pub, priv = tmp_path / "p.key", tmp_path / "s.key"
    assert cli(["keygen", "--n", str(n), "--pub", str(pub), "--priv", str(priv), "--seed", "3"]) == 0
    pk = codec.parse_public_key(pub.read_bytes())
    sk = codec.parse_private_key(priv.read_bytes())
    rng = random.Random(4)
    from mst3sz.scheme import decrypt, max_payload_bytes

    for i in range(100):
        payload = bytes(
            rng.getrandbits(8) for _ in range(rng.randint(0, max_payload_bytes(n)))
        )
        msg, ct, out = tmp_path / "m.bin", tmp_path / "c.bin", tmp_path / "o.bin"
        msg.write_bytes(payload)
        assert cli(["encrypt", "--pub", str(pub), "--in", str(msg), "--out", str(ct), "--seed", str(i)]) == 0
        assert cli(["decrypt", "--pub", str(pub), "--priv", str(priv), "--in", str(ct), "--out", str(out)]) == 0
        assert out.read_bytes() == payload
        # the blob the CLI wrote decrypts identically through the library
        _, parsed = codec.parse_ciphertext(ct.read_bytes())
        assert decode_message(params, decrypt(pk, sk, parsed)) == payload


def test_cli_ciphertext_key_mismatch(tmp_path, capsys):
    # n=3 and n=17 ciphertexts against n=5 keys, in decrypt and in attack
    for n in (3, 5, 17):
        assert cli(["keygen", "--n", str(n), "--pub", str(tmp_path / f"p{n}.key"),
                    "--priv", str(tmp_path / f"s{n}.key"), "--seed", "9"]) == 0
    msg, ct, out = tmp_path / "m.bin", tmp_path / "c.bin", tmp_path / "o.bin"
    msg.write_bytes(b"")
    pub5 = str(tmp_path / "p5.key")
    for n in (3, 17):
        assert cli(["encrypt", "--pub", str(tmp_path / f"p{n}.key"), "--in", str(msg), "--out", str(ct)]) == 0
        capsys.readouterr()
        for argv in (
            ["decrypt", "--pub", pub5, "--priv", str(tmp_path / "s5.key"), "--in", str(ct), "--out", str(out)],
            ["attack", "3", "--pub", pub5, "--ct", str(ct)],
        ):
            assert cli(argv) == 2, (n, argv[0])
            assert "ciphertext was made for different parameters" in capsys.readouterr().err
    assert not out.exists()


def test_cli_decrypt_rejects_private_key_of_other_types(tmp_path, capsys):
    # same width, types (4, 8) against (8, 4): a named error, exit 2
    keys = {}
    for tag, t in (("a", "4,8"), ("b", "8,4")):
        keys[tag] = tmp_path / f"p{tag}.key", tmp_path / f"s{tag}.key"
        assert cli(["keygen", "--n", "5", "--type1", t, "--type2", t,
                    "--pub", str(keys[tag][0]), "--priv", str(keys[tag][1])]) == 0
    msg, ct, out = tmp_path / "m.bin", tmp_path / "c.bin", tmp_path / "o.bin"
    msg.write_bytes(b"")
    assert cli(["encrypt", "--pub", str(keys["a"][0]), "--in", str(msg), "--out", str(ct)]) == 0
    capsys.readouterr()
    assert cli(["decrypt", "--pub", str(keys["a"][0]), "--priv", str(keys["b"][1]),
                "--in", str(ct), "--out", str(out)]) == 2
    assert "private key types (8, 4), (8, 4) differ" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("n", [3, 17, 65])
def test_mismatched_key_pair_fails_cleanly(tmp_path, n):
    # pk and sk of the same width from different key pairs: the trapdoors
    # recover a wrong nonce, and the padding check rejects the result
    params = make_params(n)
    pub, priv = tmp_path / "p.key", tmp_path / "s.key"
    assert cli(["keygen", "--n", str(n), "--pub", str(pub), "--priv", str(tmp_path / "unused.key"), "--seed", "1"]) == 0
    assert cli(["keygen", "--n", str(n), "--pub", str(tmp_path / "other.key"), "--priv", str(priv), "--seed", "2"]) == 0
    pk = codec.parse_public_key(pub.read_bytes())
    sk = codec.parse_private_key(priv.read_bytes())
    msg, ct, out = tmp_path / "m.bin", tmp_path / "c.bin", tmp_path / "o.bin"
    msg.write_bytes(b"")
    for seed in range(5):
        assert cli(["encrypt", "--pub", str(pub), "--in", str(msg), "--out", str(ct), "--seed", str(seed)]) == 0
        _, parsed = codec.parse_ciphertext(ct.read_bytes())
        with pytest.raises(ValueError, match="bad padding"):
            decode_message(params, decrypt(pk, sk, parsed))
        assert cli(["decrypt", "--pub", str(pub), "--priv", str(priv), "--in", str(ct), "--out", str(out)]) == 2
        assert not out.exists()


def test_cli_attack_json(tmp_path, capsys):
    pub, priv = tmp_path / "p.key", tmp_path / "s.key"
    cli(["keygen", "--n", "3", "--pub", str(pub), "--priv", str(priv), "--seed", "7"])
    msg, ct = tmp_path / "m.bin", tmp_path / "c.bin"
    msg.write_bytes(b"")
    cli(["encrypt", "--pub", str(pub), "--in", str(msg), "--out", str(ct), "--seed", "8"])
    capsys.readouterr()
    for number in (1, 2, 3):
        assert cli(["attack", str(number), "--pub", str(pub), "--ct", str(ct)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["attack"] == number and out["n"] == 3
        assert out["success"] is True
        assert set(out) == {"attack", "n", "trials", "success", "elapsed_ms"}


def test_cli_attack_rejects_large_params(tmp_path, capsys):
    pub, priv = tmp_path / "p.key", tmp_path / "s.key"
    cli(["keygen", "--n", "9", "--pub", str(pub), "--priv", str(priv), "--seed", "1"])
    msg, ct = tmp_path / "m.bin", tmp_path / "c.bin"
    msg.write_bytes(b"")
    cli(["encrypt", "--pub", str(pub), "--in", str(msg), "--out", str(ct), "--seed", "2"])
    capsys.readouterr()
    assert cli(["attack", "1", "--pub", str(pub), "--ct", str(ct)]) == 2
    assert "too large" in capsys.readouterr().err


def test_cli_keygen_rejects_non_covering_type(tmp_path):
    pub, priv = tmp_path / "p.key", tmp_path / "s.key"
    assert cli(["keygen", "--n", "9", "--type1", "4,4", "--pub", str(pub),
                "--priv", str(priv)]) == 2
    assert cli(["keygen", "--n", "9", "--type1", "4,x", "--pub", str(pub),
                "--priv", str(priv)]) == 1  # unparseable type is a usage error


def test_cli_report(capsys):
    assert cli(["report", "--n", "3"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["complexity"]["attack4"] == 512
    assert out["storage"]["signatures"]["beta1"]["entries"] == 8


SELFTEST_CHECKS = (
    "field arithmetic routes agree",
    "element and center counts",
    "identity and inverse laws",
    "f2 homomorphism on (1,b,c) pairs",
    "tame signature round trip",
    "encrypt/decrypt all nonces",
    "file formats round trip",
)


def test_cli_selftest(capsys):
    assert cli(["selftest"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines() == [f"ok   {name}" for name in SELFTEST_CHECKS]


def _wrong_windowed_inverse(monkeypatch):
    # n = 19 has no log/exp tables, so its inv is the Euclidean one
    right = BinaryField._inv_euclid
    monkeypatch.setattr(
        BinaryField, "_inv_euclid", lambda self, a: right(self, a) ^ (self.n == 19)
    )


def _wrong_mul3_lane(monkeypatch):
    # n = 19 has no log/exp tables, so its mul3 packs three lanes
    right = FieldParams.mul3

    def wrong(self, a, x, y, z):
        ax, ay, az = right(self, a, x, y, z)
        return ax, ay ^ (self.n == 19), az

    monkeypatch.setattr(FieldParams, "mul3", wrong)


def _wrong_fold(monkeypatch):
    # n = 19 has no log/exp tables, so its fold reduces
    right = FieldParams.fold
    monkeypatch.setattr(
        FieldParams, "fold", lambda self, r: right(self, r) ^ (self.n == 19)
    )


def _wrong_u_walk(monkeypatch):
    import mst3sz.scheme as scheme_module

    right = scheme_module._u_walk

    def wrong(*args):
        b, c = right(*args)
        return b, c ^ 1

    monkeypatch.setattr(scheme_module, "_u_walk", wrong)


@pytest.mark.parametrize(
    "fault, failing",
    [
        (_wrong_windowed_inverse, "field arithmetic routes agree"),
        (_wrong_mul3_lane, "field arithmetic routes agree"),
        (_wrong_fold, "field arithmetic routes agree"),
        # keygen and decrypt share the wrong law, so the round trips pass
        (_wrong_u_walk, "f2 homomorphism on (1,b,c) pairs"),
    ],
    ids=["windowed-inverse", "mul3-lane", "fold", "u-walk"],
)
def test_cli_selftest_catches_fault(monkeypatch, capsys, fault, failing):
    fault(monkeypatch)
    assert cli(["selftest"]) == 2
    out = capsys.readouterr().out
    assert out.splitlines() == [
        f"{'FAIL' if name == failing else 'ok  '} {name}" for name in SELFTEST_CHECKS
    ]


@pytest.mark.parametrize("exc", [AssertionError, IndexError])
def test_cli_selftest_reports_failing_check(monkeypatch, capsys, exc):
    # a check that raises, whether by assertion or by crashing, is reported
    # and the remaining checks still run
    import mst3sz.cli as cli_module

    def broken():
        raise exc("injected")

    monkeypatch.setattr(
        cli_module, "_selftest_checks",
        lambda: [("first", lambda: None), ("broken", broken), ("last", lambda: None)],
    )
    assert cli(["selftest"]) == 2
    captured = capsys.readouterr()
    assert captured.out.splitlines() == ["ok   first", "FAIL broken", "ok   last"]
    assert "injected" in captured.err
    assert "1 selftest check(s) failed" in captured.err


def test_cli_bench_smoke(capsys):
    assert cli(["bench", "--sizes", "3,5", "--iters", "2"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert [r["n"] for r in rows] == [3, 5]
    for row in rows:
        assert {"keygen_ms_median", "encrypt_ms_median", "decrypt_ms_median",
                "public_key_bytes", "private_key_bytes", "ciphertext_bytes"} <= set(row)
    assert cli(["bench", "--iters", "0"]) == 1
    assert cli(["bench", "--sizes", "3,x", "--iters", "2"]) == 1
    assert "bad --sizes '3,x'" in capsys.readouterr().err
    # a width the field rejects is a usage error, found before any timing
    for sizes, width in (("4", "4"), ("3,129", "129")):
        assert cli(["bench", "--sizes", sizes, "--iters", "2"]) == 1
        captured = capsys.readouterr()
        assert f"bad --sizes width {width}:" in captured.err
        assert captured.out == ""
