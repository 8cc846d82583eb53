"""The keys' stores of Frobenius images, filled by the walks on first use.

A key pair computes each cover entry's x^(2q0) images the first time a walk
selects the entry and reads them on every later walk.  These tests hold the
stored walks to the independent reference at every width, cold and warm,
pin the per-op field work, and share one cold key between threads.
"""

import dataclasses
import functools
import os
import random
import sys
import threading
from collections import Counter

import pytest

from mst3sz import codec
from mst3sz.field import FieldParams, make_params
from mst3sz.group import SuzukiGroup
from mst3sz.logsig import tau, tau_inv
from mst3sz.scheme import decrypt, encrypt, keygen, random_nonce

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


def _filled_slots(pk, sk):
    """(kept images, the entry's images) of every filled slot of the four
    stores, single images as 1-tuples."""
    f = pk.group.params
    out = []
    for store, blocks, coords in (
        (pk.alpha1_frob, pk.alpha1.blocks, (0, 1)),
        (pk.alpha2_frob, pk.alpha2.blocks, (0, 1)),
        (pk.gamma1_frob, pk.gamma1.blocks, (1,)),
        (sk.beta1_frob, [[(b,) for b in block] for block in sk.beta1.blocks], (0,)),
    ):
        entries = (e for block in blocks for e in block)
        for p, e in zip(store, entries):
            if p is not None:
                kept = p if isinstance(p, tuple) else (p,)
                out.append((kept, tuple(f.pow_2q0(e[i]) for i in coords)))
    return out


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
    # entry these nonces select is stored by then
    fresh = (lambda: (dataclasses.replace(pk), dataclasses.replace(sk)))
    for keys in (fresh, lambda: (pk, sk), lambda: (pk, sk)):
        for nonce, want in zip(nonces, wants):
            check(keys, nonce, want)
    # each filled slot holds the images of its own entry
    filled = _filled_slots(pk, sk)
    assert filled and all(kept == want for kept, want in filled)

    # the stores stay out of equality and of the bytes, and a replaced key
    # starts with empty ones of its own
    fresh_pk, fresh_sk = dataclasses.replace(pk), dataclasses.replace(sk)
    assert fresh_pk == pk and fresh_sk == sk
    for name, key, fresh, cover in (
        ("alpha1_frob", pk, fresh_pk, pk.alpha1),
        ("alpha2_frob", pk, fresh_pk, pk.alpha2),
        ("gamma1_frob", pk, fresh_pk, pk.gamma1),
        ("beta1_frob", sk, fresh_sk, sk.beta1),
    ):
        store = getattr(fresh, name)
        assert store is not getattr(key, name), name
        assert store == [None] * sum(cover.type.r), name
    pub, priv = codec.serialize_public_key(pk), codec.serialize_private_key(sk)
    parsed_pk, parsed_sk = codec.parse_public_key(pub), codec.parse_private_key(priv)
    assert parsed_pk == pk and parsed_sk == sk
    assert codec.serialize_public_key(parsed_pk) == pub
    assert codec.serialize_private_key(parsed_sk) == priv
    assert pub == codec.serialize_public_key(fresh_pk)


class CountingField(FieldParams):
    """FieldParams that counts its multiplies and Frobenius maps."""

    def __init__(self, n: int):
        super().__init__(n)
        self.calls = Counter()

    def mul(self, a: int, b: int) -> int:
        self.calls["mul"] += 1
        return FieldParams.mul(self, a, b)

    def frob_pow(self, a: int, k: int) -> int:
        self.calls["frob"] += 1
        return FieldParams.frob_pow(self, a, k)


# A warm op makes only the Frobenius maps of its whole-element group
# multiplies and inverses, at n=65 2 each: 6 for encrypt's 3 multiplies and
# 12 for decrypt's 4 multiplies and 2 inverses.
WARM_FROB = {"encrypt": 6, "decrypt": 14}

# Field multiplies per encrypt and decrypt, the same on every op, cold or warm
MULS = {5: (28, 34), 17: (118, 106), 65: (481, 402)}

# Frobenius maps per encrypt and decrypt on fresh key pairs at n=17: each
# selected entry's images, once
COLD_FROB_17 = (40, 42)


@pytest.mark.parametrize("n", [5, 17, 65])
def test_ops_make_the_same_multiplies_cold_and_warm(n):
    f = CountingField(n)
    pk, sk = keygen(f, rng=random.Random(n))
    rng = random.Random(n + 1)
    jobs = [(SuzukiGroup(f).random_element(rng), random_nonce(f, rng)) for _ in range(6)]
    seen = {"encrypt": Counter(), "decrypt": Counter()}

    def counted(kind, fn, *args):
        f.calls.clear()
        out = fn(*args)
        seen[kind][f.calls["mul"]] += 1
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
                assert frob <= WARM_FROB["encrypt"] and frob_d <= WARM_FROB["decrypt"]
    muls = MULS[n]
    assert (set(seen["encrypt"]), set(seen["decrypt"])) == ({muls[0]}, {muls[1]})


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
    # a slot some thread filled holds what the single-threaded walks stored
    for key, skey in keys:
        for name in ("alpha1_frob", "alpha2_frob", "gamma1_frob"):
            shared, ref = getattr(key, name), getattr(ref_pk, name)
            assert all(s is None or s == r for s, r in zip(shared, ref)), name
        assert all(s is None or s == r for s, r in zip(skey.beta1_frob, ref_sk.beta1_frob))
