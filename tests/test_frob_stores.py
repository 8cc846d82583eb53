"""The keys' Frobenius memos, filled by the walks on first use.

A key maps each coordinate x a walk steps by to x^(2q0) the first time a
walk meets it and reads the image on every later walk.  These tests hold
the memoized walks to the independent reference at every width, cold and
warm, pin the per-op field work, fill a key's memo on the field it was
moved to, share one cold key between threads, and check that decrypting
any ciphertext adds only the key's own coordinates.
"""

import dataclasses
import functools
import os
import random
import sys
import threading
from collections import Counter
from itertools import chain, count, product

import pytest

from mst3sz import codec
from mst3sz.field import FieldParams, make_params
from mst3sz.group import GroupElement, SuzukiGroup
from mst3sz.logsig import tau, tau_inv
from mst3sz.scheme import Ciphertext, decrypt, encrypt, keygen, random_nonce

import oracle
from test_field import DIFFERENTIAL_FIELDS


def _reselecting_nonces(pk, rng, n):
    """Eight nonces: a random one, one that differs from it in about a
    quarter of its digits, and six that take each digit from one of the
    two, so that they select only entries selected before."""
    halves = []
    for t in (pk.type1, pk.type2):
        u = tau_inv(t, rng.getrandbits(n))
        v = tuple(rng.randrange(r) if rng.random() < 0.25 else j for j, r in zip(u, t.r))
        mixed = [tau(t, tuple(rng.choice(p) for p in zip(u, v))) for _ in range(6)]
        halves.append([tau(t, u), tau(t, v), *mixed])
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
    # every memo entry maps x to x^(2q0)
    for key in (pk, sk):
        assert key.frob and all(p == params.pow_2q0(x) for x, p in key.frob.items())

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


class CountingField(FieldParams):
    """FieldParams that counts its multiplies (a ``dot2`` makes 2 and a
    ``mul3`` 3), reductions (above the log/exp tables), Frobenius maps and
    inverses."""

    def __init__(self, n: int):
        super().__init__(n)
        self.calls = Counter()

    def mul(self, a: int, b: int) -> int:
        self.calls["mul"] += 1
        return FieldParams.mul(self, a, b)

    def dot2(self, a: int, b: int, c: int, d: int) -> int:
        self.calls["mul"] += 2
        return FieldParams.dot2(self, a, b, c, d)

    def mul3(self, a: int, x: int, y: int, z: int) -> tuple[int, int, int]:
        self.calls["mul"] += 3
        return FieldParams.mul3(self, a, x, y, z)

    def _fold(self, r: int) -> int:
        self.calls["fold"] += 1
        return FieldParams._fold(self, r)

    def frob_pow(self, a: int, k: int) -> int:
        self.calls["frob"] += 1
        return FieldParams.frob_pow(self, a, k)

    def inv(self, a: int) -> int:
        self.calls["inv"] += 1
        return FieldParams.inv(self, a)


class CountingGroup(SuzukiGroup):
    """SuzukiGroup that counts its whole-element multiplies and inverses in
    its CountingField's calls."""

    def mul(self, g1, g2):
        self.params.calls["group.mul"] += 1
        return SuzukiGroup.mul(self, g1, g2)

    def inv(self, g):
        self.params.calls["group.inv"] += 1
        return SuzukiGroup.inv(self, g)


# Whole-element group multiplies and inverses per encrypt and decrypt: y1's
# mask times m; the chain's two ends stripped from y2 (2 multiplies, 1
# inverse) and y1 unmasked (1 of each)
GROUP_OPS = {"encrypt": (1, 0), "decrypt": (3, 2)}

# A warm op makes only the Frobenius maps of its whole-element group
# multiplies and inverses: at n=65 2 each, so 2 for encrypt's multiply and
# 10 for decrypt's 3 multiplies and 2 inverses; on the log/exp tables
# (n <= 17) a^(2q0+1) is one table read, so 1 per multiply and none per
# inverse.
WARM_FROB = {5: (1, 3), 17: (1, 3), 65: (2, 10)}

# Field multiplies per encrypt and decrypt, the same on every op, cold or warm
MULS = {5: (28, 35), 17: (118, 107), 65: (479, 402)}

# Field multiplies and Frobenius maps to build a public key from its covers
# (the gamma walk terms), which a parse of the key's bytes pays
BUILD_PUBLIC_KEY = {5: (5, 2), 17: (35, 8), 65: (218, 95)}

# Field multiplies, Frobenius maps and inverses per keygen; the gamma1
# cover's walks share one memo pair, so a coordinate that recurs in alpha1 or
# beta1 (at n=5 a few do) is mapped once
KEYGEN = {5: (105, 26, 4), 17: (351, 96, 16), 65: (1590, 615, 64)}

# Frobenius maps per encrypt and decrypt on fresh key pairs at n=17: each
# image a walk reads, once.  y1's mask and y3 start at alpha1's first
# entry, so encrypt never reads that entry's b^(2q0) or a^(2q0) and computes
# neither; decryption's U starts at (0, 0) and reads the a^(2q0).
COLD_FROB_17 = (38, 42)


@pytest.mark.parametrize("n", [5, 17, 65])
def test_ops_make_the_same_multiplies_cold_and_warm(n):
    f = CountingField(n)
    pk, sk = keygen(f, rng=random.Random(n))
    pk = dataclasses.replace(pk, group=CountingGroup(f))
    rng = random.Random(n + 1)
    jobs = [(SuzukiGroup(f).random_element(rng), random_nonce(f, rng)) for _ in range(6)]
    seen = {"encrypt": Counter(), "decrypt": Counter()}

    def counted(kind, fn, *args):
        f.calls.clear()
        out = fn(*args)
        seen[kind][f.calls["mul"]] += 1
        assert (f.calls["group.mul"], f.calls["group.inv"]) == GROUP_OPS[kind]
        return out, f.calls["frob"]

    # cold: every op on key pairs no walk has touched
    for m, nonce in jobs:
        cold_pk, cold_sk = dataclasses.replace(pk), dataclasses.replace(sk)
        ct, frob = counted("encrypt", encrypt, cold_pk, m, nonce)
        _, frob_d = counted(
            "decrypt", decrypt, dataclasses.replace(pk), dataclasses.replace(sk), ct
        )
        if n == 17:
            assert (frob, frob_d) == COLD_FROB_17
    # one key pair, twice over the same nonces: the second pass is warm
    for warm in (False, True):
        for m, nonce in jobs:
            ct, frob = counted("encrypt", encrypt, pk, m, nonce)
            out, frob_d = counted("decrypt", decrypt, pk, sk, ct)
            assert out == m
            if warm:
                assert (frob, frob_d) == WARM_FROB[n]
    if n == 5:
        # a zero beta1 entry is legal, and U's walk steps by it as by any
        # other: every nonce under a key that has one
        keys = (keygen(f, rng=random.Random(s)) for s in count())
        zero_pk, zero_sk = next(k for k in keys if 0 in chain(*k[1].beta1.blocks))
        zero_pk = dataclasses.replace(zero_pk, group=CountingGroup(f))
        m = SuzukiGroup(f).random_element(rng)
        for nonce in product(range(f.q), repeat=2):
            ct, _ = counted("encrypt", encrypt, zero_pk, m, nonce)
            assert counted("decrypt", decrypt, zero_pk, zero_sk, ct)[0] == m
    muls = MULS[n]
    assert (set(seen["encrypt"]), set(seen["decrypt"])) == ({muls[0]}, {muls[1]})


@pytest.mark.parametrize("n", [5, 17, 65])
def test_public_key_build_cost(n):
    f = CountingField(n)
    pk, _ = keygen(f, rng=random.Random(n))
    f.calls.clear()
    dataclasses.replace(pk)
    assert (f.calls["mul"], f.calls["frob"]) == BUILD_PUBLIC_KEY[n]


@pytest.mark.parametrize("n", [5, 17, 65])
def test_keygen_cost(n):
    f = CountingField(n)
    keygen(f, rng=random.Random(n))
    assert (f.calls["mul"], f.calls["frob"], f.calls["inv"]) == KEYGEN[n]


# Reductions per keygen, encrypt and decrypt at n=65 (32 blocks a cover, 132
# entries in each alpha): the multiplies of KEYGEN and MULS less one for each
# dot2, which reduces its sum once; a mul3 folds each of its three lanes.
#   keygen 1,590 - 327: gamma1's 132 entries, each a u-factor pair (132) and a
#     group step (132); gamma2's 32 block steps; the public key's 31
#     fixed-a steps over the gamma2 heads
#   encrypt 479 - 96: the mask's 63 steps, gamma1's 31 fixed-a steps in y2,
#     y2's one group step, and the mask times m
#   decrypt 402 - 98: X's 2 group multiplies, U's 32 u-factor pairs, the
#     mask's 63 steps, and the mask's inverse times y1
FOLDS_65 = {"keygen": 1263, "encrypt": 383, "decrypt": 304}


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
    f.calls.clear()
    for new, old in zip(moved, (pk, sk, pk, sk)):
        assert new.frob is not old.frob and new.frob == {}
    ct = encrypt(moved[0], m, nonce)
    frob = f.calls["frob"]
    assert decrypt(moved[2], moved[3], ct) == m
    assert (frob, f.calls["frob"] - frob) == COLD_FROB_17


def test_threads_share_cold_keys():
    # round by round, every thread walks the same key, cold at the start
    params = make_params(33)
    pk, sk = keygen(params, rng=random.Random(33))
    rng = random.Random(34)
    group = SuzukiGroup(params)
    workers = 2 * (os.cpu_count() or 1) + 1
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
