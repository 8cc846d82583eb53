"""The keys' Frobenius memos, filled by the walks on first use.

A key maps each coordinate x a walk steps by to x^(2q0), prepared, the
first time a walk meets it and reads the image on every later walk.  These
tests hold the memoized walks to the independent reference at every width,
cold and warm, hold each op's field work at every width to one cost model
whose terms name the walks, pin what a cold op adds to the memos, on keys
with empty memos and on keys that keep the images keygen mapped, fill a
key's memo on the field it was moved to, share one cold key between
threads, check that decrypting any ciphertext adds only the key's own
coordinates, and free fields and keys without the cycle collector.
"""

import dataclasses
import functools
import gc
import os
import random
import sys
import threading
import weakref
from itertools import chain, count, product
from operator import getitem

import pytest

from mst3sz import codec
from mst3sz.field import FieldParams, make_params
from mst3sz.group import GroupElement, SuzukiGroup
from mst3sz.logsig import covering_type, tau_inv
from mst3sz.scheme import Ciphertext, decrypt, encrypt, keygen, random_nonce

import oracle
from helpers import DIFFERENTIAL_FIELDS, WIDTHS, CountingField, CountingGroup


def _reselecting_nonces(pk, rng, n):
    """Eight nonces: a random one, one that differs from it in about a
    quarter of its digits, and six that take each digit from one of the
    two, so that they select only entries selected before."""
    halves = []
    for t in (pk.type1, pk.type2):
        u = oracle.digits_of(rng.getrandbits(n), t.r)
        v = tuple(rng.randrange(r) if rng.random() < 0.25 else j for j, r in zip(u, t.r))
        mixed = [oracle.index_of([rng.choice(p) for p in zip(u, v)], t.r) for _ in range(6)]
        halves.append([oracle.index_of(u, t.r), oracle.index_of(v, t.r), *mixed])
    return list(zip(*halves))


@pytest.mark.parametrize(
    "n,modulus", DIFFERENTIAL_FIELDS, ids=lambda v: f"{v:x}" if v and v > 127 else str(v)
)
def test_stored_walks_match_oracle_cold_and_warm(n, modulus, monkeypatch):
    # The reference recomputes every power it needs; pow_ is a pure function,
    # so memoizing it keeps the reselected entries cheap at large n.
    monkeypatch.setattr(oracle, "pow_", functools.cache(oracle.pow_))
    params = make_params(n) if modulus is None else FieldParams(n, modulus)
    pk, sk = keygen(params, rng=random.Random(n))
    rng = random.Random(f"stores/{n}/{modulus}")
    m = SuzukiGroup(params).random_element(rng)
    nonces = _reselecting_nonces(pk, rng, n)
    wants = [oracle.encrypt(params, pk, oracle.as_tuple(m), *nonce) for nonce in nonces]

    def check(keys, nonce, want):
        ct = encrypt(keys()[0], m, nonce)
        assert tuple(oracle.as_tuple(y) for y in (ct.y1, ct.y2, ct.y3, ct.y4)) == want
        assert decrypt(*keys(), ct) == m

    # keys that no walk has touched for every encrypt and every decrypt;
    # then one key pair that fills as it goes, and once more, warm: every
    # image these nonces' walks read is kept by then
    fresh = (lambda: (dataclasses.replace(pk), dataclasses.replace(sk)))
    for keys in (fresh, lambda: (pk, sk), lambda: (pk, sk)):
        for nonce, want in zip(nonces, wants):
            check(keys, nonce, want)
    # every memo entry maps x to x^(2q0), prepared
    for key in (pk, sk):
        assert key.frob
        assert all(p == params.prepare(params.pow_2q0(x)) for x, p in key.frob.items())

    # the memos stay out of equality and of the bytes, and a replaced key
    # starts with an empty one of its own
    fresh_pk, fresh_sk = dataclasses.replace(pk), dataclasses.replace(sk)
    assert fresh_pk == pk and fresh_sk == sk
    for key, fresh in ((pk, fresh_pk), (sk, fresh_sk)):
        assert fresh.frob is not key.frob
        assert fresh.frob == {}
    pub, priv = codec.serialize_public_key(pk), codec.serialize_private_key(sk)
    parsed_pk, parsed_sk = codec.parse_public_key(pub), codec.parse_private_key(priv)
    assert parsed_pk == pk and parsed_sk == sk
    assert codec.serialize_public_key(parsed_pk) == pub
    assert codec.serialize_private_key(parsed_sk) == priv
    assert pub == codec.serialize_public_key(fresh_pk)


# Whole-element group multiplies and inverses: encrypt's mask times m;
# decrypt's X, t_0(1) times y2 (1, 0), and unmasking (1, 1)
GROUP_OPS = {"encrypt": (1, 0), "decrypt": (2, 1)}


def cost_model(n: int) -> dict[str, dict[str, tuple[int, int, int, int, int]]]:
    """Each op's field work on a key of ``covering_type(n)``, walk by walk:
    (multiplies, dot2s, reductions, Frobenius maps, inverses).

    The reductions are those off the log/exp tables, which make none: a
    mul reduces its product, a ``dot2`` its sum of two once, a ``mul3``
    each lane, and a walk's longer sum of ``product``s takes one ``fold``.
    The Frobenius maps are those of whole-element group work and of
    a^(2q0+1); an op also makes one for each coordinate it adds to a memo.
    """
    t = covering_type(n)
    s, E = t.s, sum(t.r)  # blocks and entries of each cover
    # a^(2q0+1) is a table read on the log/exp tables and a^(2q0) * a off them
    T = int(make_params(n)._log is None)
    # multiplies, reductions and Frobenius maps per group.mul (terms, then a
    # step: 4 multiplies, one dot2, 3 reductions) and per group.inv, whose
    # reductions are its multiplies
    M, RM, FM, I, FI = 4 + T, 3 + T, 1 + T, 2 + 2 * T, 2 * T
    mask = (5 * (2 * s - 1), 2 * s - 1, 4 * (2 * s - 1), 0, 0)
    K = max(s - 2, 0)  # multiplies of the suffix products K_i
    build = {
        "gamma1_a": (s - 1, 0, s - 1, 0, 0),
        "gamma1_k and the gamma2 k_i": (2 * T * (s - 1), 0, 2 * T * (s - 1), 2 * T * (s - 1), 0),
        "gamma2 weights K_i": (K, 0, K, 0, 0),
        "gamma2 base walk": (3 * (s - 1), s - 1, 2 * (s - 1), 0, 0),
        "gamma2 base a and terms": (s - 1 + T, 0, s - 1 + T, FM, 0),
    }
    private_build = {"t_s(2)^-1 and its terms": (I + T, 0, I + T, FI + FM, 1)}
    return {
        "encrypt": {
            "y1's mask": mask,
            "gamma1 walk": (3 * (s - 1), s - 1, 2 * (s - 1), 0, 0),
            "gamma2 sum": (s - 1, 0, 1, 0, 0),
            "y2's step": (4, 1, 3, 0, 0),
            "y3": (s - 1, 0, 1, 0, 0),
            "mask times m": (M, 1, RM, FM, 0),
        },
        "decrypt": {
            "X": (M + 4, 2, RM + 3, FM, 0),
            "U": (2 * s, 0, 1, 0, 0),
            "y1's mask": mask,
            "unmask": (I + M, 1, I + RM, FI + FM, 1),
        },
        "build": build,
        "private build": private_build,
        # a gamma block inverts a chain element and takes the next one's
        # terms; a gamma1 block forms its entries' a once, and an entry is a
        # u factor and the step's b and c; a gamma2 entry is one multiply
        # after its block's step
        "keygen": {
            "gamma1 cover": (5 * E + s * (I + T + 1), E, 3 * E + s * (I + T + 1), s * (FI + FM), s),
            "gamma2 cover": (E + s * (I + T + 4), s, E + s * (I + T + 3), s * (FI + FM), s),
            **build,
            **private_build,
        },
    }


def assert_cost(f, op, fills):
    """f's counts since they were cleared are the model's for one op that
    added ``fills`` coordinates to the memos."""
    walks = cost_model(f.n)[op]
    muls, dot2s, folds, frob, inv = map(sum, zip(*walks.values()))
    want = (muls, dot2s, folds * (f._log is None), frob + fills, inv)
    got = tuple(f.calls[k] for k in ("mul", "dot2", "fold", "frob", "inv"))
    what = "multiplies, dot2s, reductions, Frobenius maps and inverses"
    assert got == want, f"{op} at n={f.n}: {what} {got}, model {want} with walks {walks}"


@pytest.mark.parametrize("n", [17, 65])
def test_prepared_products_count_as_multiplies(n):
    # the cost model counts a product by a prepared factor as a multiply
    # and preparing as none, on the log/exp tables (n=17) and off them
    f = CountingField(n)
    a, (c,) = f.prepare(3), f.prepare_all([5])
    assert not f.calls
    f.fold(f.product(a, 7))
    f.dot2(a, 7, c, 9)
    assert (f.calls["mul"], f.calls["dot2"], f.calls["fold"]) == (3, 1, 2 * (n == 65))


def first_use_fills(pk, sk, nonce, kept=(frozenset(), frozenset())):
    """What a cold encrypt and a cold decrypt under nonce add to the memos
    of keys that hold the images of ``kept`` (pk's, sk's) and no other:
    ([pk's], [pk's, sk's]).  A walk maps the coordinates of the entries it
    steps by, not of its start; U starts at (0, 0), so it steps by every
    selected alpha1 and beta1 entry."""
    d1, d2 = tau_inv(pk.type1, nonce.r1), tau_inv(pk.type2, nonce.r2)
    alpha1 = list(map(getitem, pk.alpha1.blocks, d1))
    mask = alpha1 + list(map(getitem, pk.alpha2.blocks, d2))
    steps = {x for a, b, _ in mask[1:] for x in (a, b)}  # y3's are among them
    gamma1 = {b for _, b, _ in list(map(getitem, pk.gamma1.blocks, d1))[1:]}
    alpha1_a = {a for a, _, _ in alpha1}
    beta1 = set(map(getitem, sk.beta1.blocks, d1))
    return [(steps | gamma1) - kept[0]], [(steps | alpha1_a) - kept[0], beta1 - kept[1]]


@pytest.mark.parametrize("n", WIDTHS)
def test_ops_make_the_same_multiplies_cold_and_warm(n):
    f = CountingField(n)
    pk, sk = keygen(f, rng=random.Random(n))
    group = CountingGroup(f)
    pk = dataclasses.replace(pk, group=group)
    rng = random.Random(n + 1)
    jobs = [(SuzukiGroup(f).random_element(rng), random_nonce(f, rng)) for _ in range(6)]

    def counted(op, keys, *args, fills=None):
        before = sum(len(key.frob) for key in keys)
        f.calls.clear()
        group.calls.clear()
        group.inverted.clear()
        out = (encrypt if op == "encrypt" else decrypt)(*keys, *args)
        assert (group.calls["mul"], len(group.inverted)) == GROUP_OPS[op], f"{op} at n={n}"
        assert_cost(f, op, sum(len(key.frob) for key in keys) - before)
        if fills is not None:
            assert [set(key.frob) for key in keys] == fills, f"{op} at n={n}"
        return out

    # cold: an op on key pairs no walk has touched fills the memos with just
    # the coordinates its walks step by
    for m, nonce in jobs:
        enc, dec = first_use_fills(pk, sk, nonce)
        ct = counted("encrypt", [dataclasses.replace(pk)], m, nonce, fills=enc)
        cold = [dataclasses.replace(pk), dataclasses.replace(sk)]
        assert counted("decrypt", cold, ct, fills=dec) == m
    # one key pair, twice over the same nonces: the second pass is warm and
    # fills nothing
    for _ in range(2):
        sizes = (len(pk.frob), len(sk.frob))
        for m, nonce in jobs:
            ct = counted("encrypt", (pk,), m, nonce)
            assert counted("decrypt", (pk, sk), ct) == m
    assert sizes == (len(pk.frob), len(sk.frob)), f"warm ops at n={n} filled the memos"
    if n == 5:
        # a zero beta1 entry is legal, and U's walk steps by it as by any
        # other: every nonce under a key that has one
        keys = (keygen(f, rng=random.Random(s)) for s in count())
        zero_pk, zero_sk = next(k for k in keys if 0 in chain(*k[1].beta1.blocks))
        zero_pk = dataclasses.replace(zero_pk, group=group)
        m = SuzukiGroup(f).random_element(rng)
        for nonce in product(range(f.q), repeat=2):
            ct = counted("encrypt", (zero_pk,), m, nonce)
            assert counted("decrypt", (zero_pk, zero_sk), ct) == m


@pytest.mark.parametrize("n", WIDTHS)
def test_public_key_build_cost(n):
    f = CountingField(n)
    pk, _ = keygen(f, rng=random.Random(n))
    f.calls.clear()
    dataclasses.replace(pk)
    # the gamma2 base's walk maps the b of each block head it steps by, once
    assert_cost(f, "build", len({block[0][1] for block in pk.gamma2.blocks[1:]}))


@pytest.mark.parametrize("n", WIDTHS)
def test_private_key_build_cost(n):
    f = CountingField(n)
    _, sk = keygen(f, rng=random.Random(n))
    f.calls.clear()
    moved = dataclasses.replace(sk)
    assert_cost(f, "private build", 0)
    assert moved.chain2_inv == sk.chain2_inv


@pytest.mark.parametrize("n", WIDTHS)
def test_keygen_cost(n):
    # the gamma1 cover's u factors map each alpha1 a and beta1 entry once,
    # and the build each gamma2 head's b after the first, in a memo of its
    # own: fewer maps where a draw repeats
    f = CountingField(n)
    pk, sk = keygen(f, rng=random.Random(n))
    fills = {a for block in pk.alpha1.blocks for a, _, _ in block}, set(chain(*sk.beta1.blocks))
    heads = {block[0][1] for block in pk.gamma2.blocks[1:]}
    assert_cost(f, "keygen", sum(map(len, fills)) + len(heads))


@pytest.mark.parametrize("n", WIDTHS)
def test_keys_from_keygen_keep_its_images(n):
    # the keys keep the images keygen's u factors mapped, so a first op on
    # them maps only the rest; keys from the parser or dataclasses.replace
    # start with empty memos
    f = CountingField(n)
    pk, sk = keygen(f, rng=random.Random(n))
    kept = {a for block in pk.alpha1.blocks for a, _, _ in block}, set(chain(*sk.beta1.blocks))
    for key, images in zip((pk, sk), kept):
        assert set(key.frob) == images
        assert all(p == f.prepare(f.pow_2q0(x)) for x, p in key.frob.items())
    blobs = codec.serialize_public_key(pk), codec.serialize_private_key(sk)
    for key in (*map(dataclasses.replace, (pk, sk)), codec.parse_public_key(blobs[0]),
                codec.parse_private_key(blobs[1])):
        assert key.frob == {}
    rng = random.Random(n + 2)
    m, nonce = SuzukiGroup(f).random_element(rng), random_nonce(f, rng)
    enc, dec = first_use_fills(pk, sk, nonce, kept)
    f.calls.clear()
    ct = encrypt(pk, m, nonce)
    assert [set(pk.frob) - kept[0]] == enc, f"n={n}"
    assert_cost(f, "encrypt", len(enc[0]))
    # a second key pair from the same draws, which no op has touched yet
    pk, sk = keygen(f, rng=random.Random(n))
    f.calls.clear()
    assert decrypt(pk, sk, ct) == m
    assert [set(pk.frob) - kept[0], set(sk.frob) - kept[1]] == dec, f"n={n}"
    assert_cost(f, "decrypt", sum(map(len, dec)))


# Reductions per keygen, encrypt and decrypt at n=65 (32 blocks a cover, 132
# entries in each alpha), written out apart from cost_model: a mul reduces
# its product, a dot2 its sum of two once, a mul3 each of its three lanes,
# and a walk's longer sum of products once.
#   keygen 1,198: gamma1's 132 entries, 3 each (u factor, and the step's b
#     and c), and 32 blocks, 6 each (inverse 4, t_i's terms, the block's a);
#     gamma2's 132 entries, 1 each, and 32 blocks, 8 each (inverse, terms,
#     step); the public key's build 217 (gamma1_a 31, 62 a^(2q0+1), the
#     K_i 30, the base walk's 31 fixed-a steps 62, the base's a 31 and
#     terms 1); the private key's t_s(2)^-1 and its terms 5
#   encrypt 323: the mask's 63 steps 252, gamma1's 31 fixed-a steps in y2
#     62, the gamma2 sum 1, y2's one group step 3, y3 1, the mask times m 4
#   decrypt 268: X 7 (t_0(1) times y2 4, the step by t_s(2)^-1's terms 3),
#     U 1, the mask's 63 steps 252, the mask's inverse times y1 8
FOLDS_65 = {"keygen": 1198, "encrypt": 323, "decrypt": 268}


def test_sums_of_two_products_reduce_once():
    f = CountingField(65)
    pk, sk = keygen(f, rng=random.Random(65))
    folds = {"keygen": {f.calls["fold"]}, "encrypt": set(), "decrypt": set()}
    rng = random.Random(66)
    for _ in range(4):
        m, nonce = SuzukiGroup(f).random_element(rng), random_nonce(f, rng)
        f.calls.clear()
        ct = encrypt(pk, m, nonce)
        folds["encrypt"].add(f.calls["fold"])
        f.calls.clear()
        assert decrypt(pk, sk, ct) == m
        folds["decrypt"].add(f.calls["fold"])
    assert folds == {kind: {v} for kind, v in FOLDS_65.items()}


def test_moved_keys_fill_their_memos_on_the_new_field():
    # dataclasses.replace(key, group=...) moves a key onto another field
    # object, as the benchmark's tracer does; the moved key's memo must
    # compute its images there, so a cold op counts them all on that field
    params = make_params(17)
    pk, sk = keygen(params, rng=random.Random(17))
    rng = random.Random(18)
    m, nonce = SuzukiGroup(params).random_element(rng), random_nonce(params, rng)
    f = CountingField(17)
    group = SuzukiGroup(f)
    moved = [dataclasses.replace(key, group=group) for key in (pk, sk, pk, sk)]
    for new, old in zip(moved, (pk, sk, pk, sk)):
        assert new.frob is not old.frob and new.frob == {}
    enc, dec = first_use_fills(pk, sk, nonce)
    f.calls.clear()
    ct = encrypt(moved[0], m, nonce)
    assert [set(moved[0].frob)] == enc
    assert_cost(f, "encrypt", len(enc[0]))
    f.calls.clear()
    assert decrypt(moved[2], moved[3], ct) == m
    assert [set(moved[2].frob), set(moved[3].frob)] == dec
    assert_cost(f, "decrypt", sum(map(len, dec)))


def test_threads_share_cold_keys():
    # round by round, every thread walks the same key, cold at the start
    params = make_params(33)
    pk, sk = keygen(params, rng=random.Random(33))
    rng = random.Random(34)
    group = SuzukiGroup(params)
    # more threads than cores, and few enough for a shared host
    workers = min(2 * (os.cpu_count() or 1) + 1, 5)
    rounds = max(2, 120 // workers)  # about 120 encrypt-decrypt pairs in all
    jobs = [(group.random_element(rng), random_nonce(params, rng)) for _ in range(workers * rounds)]
    ref_pk, ref_sk = dataclasses.replace(pk), dataclasses.replace(sk)
    want = [encrypt(ref_pk, m, nonce) for m, nonce in jobs]
    assert [decrypt(ref_pk, ref_sk, ct) for ct in want] == [m for m, _ in jobs]
    keys = [(dataclasses.replace(pk), dataclasses.replace(sk)) for _ in range(rounds)]
    start = threading.Barrier(workers, timeout=60)
    results = [None] * len(jobs)

    def work(t):
        for r, (key, skey) in enumerate(keys):
            start.wait()
            m, nonce = jobs[r * workers + t]
            ct = encrypt(key, m, nonce)
            results[r * workers + t] = (ct, decrypt(key, skey, ct))

    threads = [threading.Thread(target=work, args=(t,)) for t in range(workers)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == [(ct, m) for ct, (m, _) in zip(want, jobs)]
    # an image some thread kept is what the single-threaded walks kept
    for key, skey in keys:
        for shared, ref in ((key.frob, ref_pk.frob), (skey.frob, ref_sk.frob)):
            assert shared.keys() <= ref.keys()
            assert all(p == ref[x] for x, p in shared.items())


def test_memos_hold_only_the_keys_coordinates():
    # decrypt real ciphertexts and well-shaped random ones under one key
    # pair; the memos may hold only the coordinates the walks step by
    params = make_params(17)
    pk, sk = keygen(params, rng=random.Random(17))
    rng = random.Random(18)
    group = SuzukiGroup(params)
    cts = [encrypt(pk, group.random_element(rng), random_nonce(params, rng)) for _ in range(8)]
    for _ in range(40):
        b, c, h = (params.random_element(rng) for _ in range(3))
        y1, y2 = group.random_element(rng), group.random_element(rng)
        cts.append(Ciphertext(y1, y2, GroupElement(1, b, c), GroupElement(1, 0, h)))
    for ct in cts:
        decrypt(pk, sk, ct)
    alpha = [e for cover in (pk.alpha1, pk.alpha2) for block in cover.blocks for e in block]
    gamma1 = [e for block in pk.gamma1.blocks for e in block]
    public = [e[0] for e in alpha] + [e[1] for e in alpha] + [e[1] for e in gamma1]
    private = [b for block in sk.beta1.blocks for b in block]
    for memo, allowed in ((pk.frob, public), (sk.frob, private)):
        assert memo and memo.keys() <= set(allowed)
        assert len(memo) <= len(allowed)


def test_fields_and_keys_free_without_the_cycle_collector():
    # nothing a field or a key keeps may refer back to it, a bound method
    # of the field stored on the field included: with the collector off,
    # reference counting alone must free every one on del
    gc.disable()
    try:
        refs = []
        for n in (17, 65):
            f = FieldParams(n)
            if n == 17:
                assert f._log is not None  # the one with log/exp tables
            pk, sk = keygen(f, rng=random.Random(n))
            rng = random.Random(n + 1)
            m = SuzukiGroup(f).random_element(rng)
            assert decrypt(pk, sk, encrypt(pk, m, random_nonce(f, rng))) == m
            refs += map(weakref.ref, (f, pk, sk))
            if n == 17:
                parsed_pk = codec.parse_public_key(codec.serialize_public_key(pk))
                parsed_sk = codec.parse_private_key(codec.serialize_private_key(sk))
                assert decrypt(parsed_pk, parsed_sk, encrypt(parsed_pk, m, (1, 2))) == m
                refs += map(weakref.ref, (parsed_pk, parsed_sk))
                del parsed_pk, parsed_sk
            del f, pk, sk, m
        assert [ref() for ref in refs] == [None] * len(refs)
    finally:
        gc.enable()
