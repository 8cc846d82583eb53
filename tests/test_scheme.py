import dataclasses
import random
from operator import getitem

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mst3sz import codec
from mst3sz.field import FieldParams, make_params
from mst3sz.group import IDENTITY, GroupElement, SuzukiGroup
from mst3sz.logsig import Cover, SignatureType, covering_type, evaluate_tame, induced_map, tau_inv
from mst3sz.scheme import (
    Ciphertext,
    CiphertextError,
    Memo,
    PublicKey,
    SessionNonce,
    _u_walk,
    _y2,
    _y3,
    _y4,
    decode_message,
    decrypt,
    encode_message,
    encrypt,
    keygen,
    max_payload_bytes,
    random_nonce,
    recover_nonce,
)

import oracle
from helpers import EXTRA_MODULI, G3, P3, T222, WIDTHS, structured_gammas


def make_key(seed, t1=T222, t2=T222, params=P3):
    return keygen(params, t1, t2, rng=random.Random(seed))


def test_keygen_shapes():
    pk, sk = make_key(1)
    for cover in (pk.alpha1, pk.alpha2, pk.gamma1, pk.gamma2):
        assert sum(len(b) for b in cover.blocks) == 6
    assert len(sk.chain1) == len(sk.chain2) == 4
    assert pk.type1 == T222 and pk.type2 == T222


def test_keygen_chain_constraint():
    for seed in range(10):
        pk, sk = make_key(seed)
        assert sk.chain1[-1] == sk.chain2[0]
        for t in sk.chain1 + sk.chain2:
            assert t[0] != 0 and t[1] != 0
            assert not G3.in_center(t)


def test_keygen_beta_embeddings():
    # unmasked, gamma1 entries are f1(alpha1)*(1, beta1, 0) in the (1, b, c)
    # subgroup and gamma2 entries f2(alpha2)*(1, 0, beta2) in the center
    pk, sk = make_key(2)
    for gamma, alpha, beta, chain in (
        (pk.gamma1, pk.alpha1, sk.beta1, sk.chain1),
        (pk.gamma2, pk.alpha2, sk.beta2, sk.chain2),
    ):
        for i, (gblk, ablk, bblk) in enumerate(zip(gamma.blocks, alpha.blocks, beta.blocks)):
            for g, a, b in zip(gblk, ablk, bblk):
                u = G3.mul(G3.mul(chain[i], g), G3.inv(chain[i + 1]))
                assert u.a == 1
                if gamma is pk.gamma1:
                    assert u.b == a[0] ^ b
                else:
                    assert u == GroupElement(1, 0, a[1] ^ b)


def test_keygen_rejects_non_covering_types():
    with pytest.raises(ValueError):
        keygen(P3, SignatureType((2, 2)), T222, rng=random.Random(0))


# n=3 on the log/exp tables; larger widths and a dense n=65 modulus on the
# byte-table route.
@pytest.mark.parametrize(
    "n,modulus",
    [(3, None), (19, None), (65, None), (127, None), (65, 0x322A2D550DBD0CE07)],
)
def test_gamma_recomputes_from_parts(n, modulus):
    # gamma[i][j] = chain[i]^-1 * f_k(alpha[i][j]) * beta[i][j] * chain[i+1],
    # recomputed with the independent reference law, beta1 entries as
    # (1, b, 0) and beta2 entries as (1, 0, b)
    params = FieldParams(n, modulus)
    if n == 3:
        pk, sk = make_key(3)
    else:
        pk, sk = keygen(params, rng=random.Random(n))
    for k, (alpha, gamma, beta, chain, fk, bk) in enumerate(
        (
            (pk.alpha1, pk.gamma1, sk.beta1, sk.chain1,
             lambda g: (1, g[0], g[1]), lambda b: (1, b, 0)),
            (pk.alpha2, pk.gamma2, sk.beta2, sk.chain2,
             lambda g: (1, 0, g[1]), lambda b: (1, 0, b)),
        )
    ):
        for i, (ablk, gblk, bblk) in enumerate(
            zip(alpha.blocks, gamma.blocks, beta.blocks)
        ):
            left = oracle.ginv(params, oracle.as_tuple(chain[i]))
            right = oracle.as_tuple(chain[i + 1])
            for a, g, b in zip(ablk, gblk, bblk):
                expect = oracle.gprod(
                    params, [left, fk(oracle.as_tuple(a)), bk(b), right]
                )
                assert oracle.as_tuple(g) == expect, (k, i)


def _check_gamma_walks(pk, nonces):
    # y2 for every pair of nonces against the generic folds of the two
    # covers, the last pair also against the reference law (slow at large n)
    group, params = pk.group, pk.group.params
    d1 = [tau_inv(pk.type1, r) for r in nonces]
    d2 = [tau_inv(pk.type2, r) for r in nonces]
    g1 = [induced_map(group, pk.gamma1, r) for r in nonces]
    g2 = [induced_map(group, pk.gamma2, r) for r in nonces]
    for x1, w1 in zip(d1, g1):
        for x2, w2 in zip(d2, g2):
            assert _y2(pk, x1, x2) == group.mul(w1, w2)
    walks = [
        oracle.cover_product(params, [list(map(oracle.as_tuple, b)) for b in c.blocks], nonces[-1])
        for c in (pk.gamma1, pk.gamma2)
    ]
    assert oracle.as_tuple(_y2(pk, d1[-1], d2[-1])) == oracle.gprod(params, walks)


# every odd width: log/exp tables up to n = 17, byte tables above
@pytest.mark.parametrize(
    "params",
    [*map(make_params, WIDTHS), FieldParams(65, 0x322A2D550DBD0CE07)],
    ids=lambda p: f"{p.n}-{p.modulus:x}",
)
def test_gamma_walks_match_induced_map_and_oracle(params):
    n = params.n
    rng = random.Random(n)
    pk, _ = keygen(params, rng=rng)
    _check_gamma_walks(pk, [0, params.q - 1, rng.getrandbits(n), rng.getrandbits(n)])


@pytest.mark.parametrize("n", [3, 5, 9, 19, 65])
def test_gamma_walks_follow_the_law_on_any_structured_cover(n):
    # structured gamma covers with a fresh type
    params = make_params(n)
    group = SuzukiGroup(params)
    rng = random.Random(n)
    t = SignatureType((2,) * n) if n < 9 else covering_type(n)
    alpha = Cover(t, tuple(tuple(group.random_element(rng) for _ in range(r)) for r in t.r))
    pk = PublicKey(group, alpha, alpha, *structured_gammas(params, t, rng))
    _check_gamma_walks(pk, [0, params.q - 1] + [rng.getrandbits(n) for _ in range(6)])


def test_public_key_rejects_unstructured_gamma():
    pk, _ = make_key(7, t1=SignatureType((2, 4)), t2=SignatureType((4, 2)))
    g1, g2 = pk.gamma1.blocks, pk.gamma2.blocks
    e = g1[1][2]
    bad1 = (g1[0], g1[1][:2] + (GroupElement(e[0] ^ 1 or 2, e[1], e[2]),) + g1[1][3:])
    e = g2[0][3]
    bad2 = (g2[0][:3] + (GroupElement(e[0], e[1] ^ 1, e[2]),), g2[1])
    with pytest.raises(ValueError, match=r"^gamma1 block 1: entries differ in a$"):
        dataclasses.replace(pk, gamma1=Cover(pk.type1, bad1))
    with pytest.raises(ValueError, match=r"^gamma2 block 0: entries differ outside c$"):
        dataclasses.replace(pk, gamma2=Cover(pk.type2, bad2))
    # gamma2 entries may differ in c
    e = g2[1][1]
    free = (g2[0], (g2[1][0], GroupElement(e[0], e[1], e[2] ^ 1)))
    dataclasses.replace(pk, gamma2=Cover(pk.type2, free))


def test_encrypt_deterministic():
    pk, _ = make_key(4)
    rng = random.Random(9)
    m = G3.random_element(rng)
    nonce = SessionNonce(3, 6)
    assert encrypt(pk, m, nonce) == encrypt(pk, m, nonce)


def test_encrypt_structure():
    pk, _ = make_key(5)
    rng = random.Random(10)
    for _ in range(20):
        m = G3.random_element(rng)
        r1, r2 = rng.randrange(8), rng.randrange(8)
        ct = encrypt(pk, m, SessionNonce(r1, r2))
        assert ct.y3.a == 1
        assert ct.y4.a == 1 and ct.y4.b == 0  # central
        # y4 carries the plain XOR of the selected alpha2 b-coordinates
        total = 0
        for blk, j in zip(pk.alpha2.blocks, tau_inv(pk.type2, r2)):
            total ^= blk[j][1]
        assert ct.y4.c == total


def test_encrypt_nonce_range():
    pk, _ = make_key(6)
    m = GroupElement(1, 0, 0)
    with pytest.raises(ValueError):
        encrypt(pk, m, SessionNonce(8, 0))
    with pytest.raises(ValueError):
        encrypt(pk, m, SessionNonce(0, -1))


def test_known_answer_vector():
    # fixed key, fixed message and nonce; expectation recomputed with the
    # reference pipeline and pinned as bytes
    pk, sk = keygen(P3, T222, T222, rng=random.Random(0xC0FFEE))
    m = GroupElement(3, 5, 6)
    ct = encrypt(pk, m, SessionNonce(5, 2))
    expect = oracle.encrypt(P3, pk, (3, 5, 6), 5, 2)
    got = tuple(oracle.as_tuple(y) for y in (ct.y1, ct.y2, ct.y3, ct.y4))
    assert got == expect
    assert codec.serialize_ciphertext(P3, ct).hex() == (
        "4d535433535a430103010201060500070201"
    )
    assert decrypt(pk, sk, ct) == m


def test_round_trip_exhaustive_nonces():
    rng = random.Random(11)
    for t1, t2 in ((T222, T222), (SignatureType((8,)), T222)):
        pk, sk = keygen(P3, t1, t2, rng=rng)
        for r1 in range(8):
            for r2 in range(8):
                m = G3.random_element(rng)
                ct = encrypt(pk, m, SessionNonce(r1, r2))
                assert recover_nonce(pk, sk, ct) == (r1, r2)
                assert decrypt(pk, sk, ct) == m


# Widths on the byte-table field route, and a dense n=65 modulus; several
# nonces per key.
@pytest.mark.parametrize(
    "n,modulus", [(19, None), (65, None), (127, None), (65, 0x322A2D550DBD0CE07)]
)
def test_encrypt_matches_oracle_large(n, modulus):
    params = FieldParams(n, modulus)
    group = SuzukiGroup(params)
    pk, sk = keygen(params, rng=random.Random(n))
    rng = random.Random(n + 1)
    for _ in range(3):
        nonce = random_nonce(params, rng)
        m = group.random_element(rng)
        ct = encrypt(pk, m, nonce)
        got = tuple(oracle.as_tuple(y) for y in (ct.y1, ct.y2, ct.y3, ct.y4))
        assert got == oracle.encrypt(params, pk, oracle.as_tuple(m), *nonce)
        assert recover_nonce(pk, sk, ct) == nonce
        assert decrypt(pk, sk, ct) == m


def test_image_products_match_oracle():
    pk, _ = make_key(12)
    # y3, the product of the f1 images of the alpha1 entries R1 selects; and
    # each cover's f1 image product as u factors with beta = 0, from (0, 0)
    memo = Memo(P3.pow_2q0)
    for cover in (pk.alpha1, pk.alpha2):
        f1_blocks = [[(1, g[0], g[1]) for g in blk] for blk in cover.blocks]
        for r in range(P3.q):
            want = oracle.cover_product(P3, f1_blocks, r)
            if cover is pk.alpha1:
                assert oracle.as_tuple(_y3(pk, tau_inv(pk.type1, r))) == want
            pairs = [(g, 0) for g in map(getitem, cover.blocks, tau_inv(cover.type, r))]
            assert (1, *_u_walk(P3, 0, 0, pairs, memo, memo)) == want
    # y4, the product of the f2 images of the alpha2 entries
    f2_blocks = [[(1, 0, g[1]) for g in blk] for blk in pk.alpha2.blocks]
    for r in range(P3.q):
        f2 = _y4(pk, tau_inv(pk.type2, r))
        assert oracle.as_tuple(f2) == oracle.cover_product(P3, f2_blocks, r)


def test_decrypt_rejects_ciphertext_from_wider_field():
    params5, params17 = make_params(5), make_params(17)
    pk5, sk5 = keygen(params5, rng=random.Random(1))
    pk17, _ = keygen(params17, rng=random.Random(2))
    rng = random.Random(3)
    for _ in range(5):
        m = SuzukiGroup(params17).random_element(rng)
        ct = encrypt(pk17, m, random_nonce(params17, rng))
        with pytest.raises(CiphertextError, match="outside GF"):
            decrypt(pk5, sk5, ct)


def test_decrypt_rejects_keys_of_different_widths():
    pk5, sk5 = keygen(make_params(5), rng=random.Random(1))
    pk17, sk17 = keygen(make_params(17), rng=random.Random(2))
    ct = encrypt(pk5, encode_message(pk5.group.params, b""), SessionNonce(1, 2))
    for pk, sk in ((pk5, sk17), (pk17, sk5)):
        with pytest.raises(ValueError, match="different parameters"):
            decrypt(pk, sk, ct)


def test_decrypt_rejects_private_key_of_other_types():
    # one width, types (4, 8) and (8, 4): the selections differ in length,
    # and recovering the nonce from them returned a garbage element
    params = make_params(5)
    t48, t84 = SignatureType((4, 8)), SignatureType((8, 4))
    pk, _ = keygen(params, t48, t48, rng=random.Random(1))
    ct = encrypt(pk, encode_message(params, b""), SessionNonce(1, 2))
    for t1, t2 in ((t84, t84), (t48, t84), (t84, t48)):
        _, sk = keygen(params, t1, t2, rng=random.Random(2))
        with pytest.raises(ValueError) as err:
            decrypt(pk, sk, ct)
        assert str(err.value) == (
            f"private key types {t1.r}, {t2.r} differ"
            " from public key types (4, 8), (4, 8)"
        )


def test_encrypt_rejects_message_outside_field():
    params = make_params(5)
    pk, _ = keygen(params, rng=random.Random(1))
    with pytest.raises(ValueError, match="message out of range"):
        encrypt(pk, GroupElement(1, 1 << 20, 0), SessionNonce(0, 0))


@pytest.mark.parametrize("n", [9, 17])
def test_round_trip_randomized(n):
    params = make_params(n)
    group = SuzukiGroup(params)
    rng = random.Random(n)
    pk, sk = keygen(params, rng=rng)
    for _ in range(10_000):
        m = group.random_element(rng)
        nonce = random_nonce(params, rng)
        assert decrypt(pk, sk, encrypt(pk, m, nonce)) == m


def test_intermediate_strips_to_beta_sum():
    # t0 * y2 * ts^-1 divided by y3 leaves exactly evaluate(beta1, R1)
    # in the b-coordinate
    pk, sk = make_key(12)
    rng = random.Random(13)
    for _ in range(30):
        m = G3.random_element(rng)
        nonce = random_nonce(P3, rng)
        ct = encrypt(pk, m, nonce)
        d1 = G3.mul(G3.mul(sk.chain1[0], ct.y2), G3.inv(sk.chain2[-1]))
        dstar = G3.mul(G3.inv(ct.y3), d1)
        assert dstar.a == 1
        assert dstar.b == evaluate_tame(sk.beta1, nonce.r1)


@pytest.mark.parametrize("n,modulus", EXTRA_MODULI[:2])
def test_private_key_keeps_the_terms_of_the_chain_end_inverse(n, modulus):
    # the step terms of t_s(2)^-1, derived when the key is built: by keygen,
    # by the parser, and by dataclasses.replace onto a field on another
    # modulus, where they are that field's
    _, sk = keygen(make_params(n), rng=random.Random(n))
    moved = dataclasses.replace(sk, group=SuzukiGroup(FieldParams(n, modulus)))
    for key in (sk, codec.parse_private_key(codec.serialize_private_key(sk)), moved):
        g = key.group
        assert key.chain2_inv == g.terms(g.inv(key.chain2[-1]))
    assert moved.chain2_inv != sk.chain2_inv


def test_telescoped_mask_factors():
    # t0 * y2 * ts^-1 == U * V with U from the f1(alpha1)*beta1 factors and
    # V central from the f2(alpha2)*beta2 factors; coordinate sums match
    pk, sk = make_key(14)
    rng = random.Random(15)
    for r1 in range(8):
        for r2 in range(8):
            ct = encrypt(pk, G3.random_element(rng), SessionNonce(r1, r2))
            lhs = G3.mul(G3.mul(sk.chain1[0], ct.y2), G3.inv(sk.chain2[-1]))
            u = IDENTITY
            for ablk, bblk, j in zip(
                pk.alpha1.blocks, sk.beta1.blocks, tau_inv(pk.type1, r1)
            ):
                u = G3.mul(u, G3.mul(G3.f1(ablk[j]), GroupElement(1, bblk[j], 0)))
            v = IDENTITY
            for ablk, bblk, j in zip(
                pk.alpha2.blocks, sk.beta2.blocks, tau_inv(pk.type2, r2)
            ):
                v = G3.mul(v, G3.mul(G3.f2(ablk[j]), GroupElement(1, 0, bblk[j])))
            assert u.a == 1
            assert G3.in_center(v)
            assert lhs == G3.mul(u, v)
            bsum = 0
            for ablk, j in zip(pk.alpha1.blocks, tau_inv(pk.type1, r1)):
                bsum ^= ablk[j][0]
            assert u.b == bsum ^ evaluate_tame(sk.beta1, r1)
            csum = 0
            for ablk, j in zip(pk.alpha2.blocks, tau_inv(pk.type2, r2)):
                csum ^= ablk[j][1]
            assert v.c == csum ^ evaluate_tame(sk.beta2, r2)


def test_malformed_ciphertext_rejected():
    pk, sk = make_key(16)
    rng = random.Random(17)
    ct = encrypt(pk, G3.random_element(rng), random_nonce(P3, rng))
    bad_y3 = Ciphertext(ct.y1, ct.y2, GroupElement(2, ct.y3.b, ct.y3.c), ct.y4)
    with pytest.raises(CiphertextError):
        decrypt(pk, sk, bad_y3)
    bad_y4 = Ciphertext(ct.y1, ct.y2, ct.y3, GroupElement(1, 1, ct.y4.c))
    with pytest.raises(CiphertextError):
        decrypt(pk, sk, bad_y4)


def test_tampered_y2_changes_plaintext():
    # no integrity: a flipped bit still decrypts, to a different message
    pk, sk = make_key(18)
    rng = random.Random(19)
    m = G3.random_element(rng)
    ct = encrypt(pk, m, random_nonce(P3, rng))
    tampered = Ciphertext(
        ct.y1,
        GroupElement(ct.y2.a, ct.y2.b ^ 1, ct.y2.c),
        ct.y3,
        ct.y4,
    )
    assert decrypt(pk, sk, tampered) != m


def test_payload_capacity():
    assert max_payload_bytes(3) == 0
    assert max_payload_bytes(17) == 5
    assert max_payload_bytes(65) == 23


def test_encode_decode_round_trip():
    rng = random.Random(20)
    for n in (3, 17, 65):
        params = make_params(n)
        for size in range(max_payload_bytes(n) + 1):
            payload = bytes(rng.getrandbits(8) for _ in range(size))
            g = encode_message(params, payload)
            assert g.a & 1  # guard keeps the first coordinate nonzero
            assert decode_message(params, g) == payload


def test_encode_rejects_oversize():
    with pytest.raises(ValueError, match="exceeds"):
        encode_message(P3, b"x")


def test_decode_rejects_malformed():
    params = make_params(17)
    with pytest.raises(ValueError, match="guard"):
        decode_message(params, GroupElement(2, 0, 0))
    with pytest.raises(ValueError, match="length"):
        decode_message(params, GroupElement(1 | 40 << 1, 0, 0))  # claims 40 bytes
    g = encode_message(params, b"ab")
    with pytest.raises(ValueError, match="trailing"):
        decode_message(params, GroupElement(g.a, g.b, g.c | 1 << 14))


@given(st.binary(max_size=23))
def test_encode_decode_hypothesis(payload):
    params = make_params(65)
    assert decode_message(params, encode_message(params, payload)) == payload
