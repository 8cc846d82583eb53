"""Acceptance suite: one test per release criterion.

Each test prints a single PASS/FAIL line (run with ``pytest -s`` to see
them all); a FAIL line always comes with a failing assertion.
"""

import json
import random
import statistics
import time

from mst3sz.attacks import (
    attack1_bruteforce_ciphertext,
    attack2_bruteforce_nonce,
    attack3_session_key,
    complexity_report,
)
from mst3sz.cli import cli
from mst3sz.field import make_params
from mst3sz.group import IDENTITY, CurvePoint, GroupElement, SuzukiGroup
from mst3sz.logsig import (
    SignatureType,
    covering_type,
    evaluate_tame,
    factor_tame,
    gen_tame,
    tau_inv,
)
from mst3sz.scheme import (
    SessionNonce,
    decrypt,
    encrypt,
    keygen,
    random_nonce,
    recover_nonce,
)

from helpers import G3, P3

KEY_TYPES = (SignatureType((2, 2, 2)), SignatureType((8,)))


def _report(num: int, label: str, ok: bool, elapsed: float) -> None:
    print(f"{'PASS' if ok else 'FAIL'}  criterion {num}: {label}  [{elapsed:.1f}s]")
    assert ok, f"criterion {num} failed: {label}"


def test_criterion_1_round_trip_exhaustive_q8():
    start = time.perf_counter()
    rng = random.Random(101)
    failures = 0
    for k in range(20):
        t1 = KEY_TYPES[k % 2]
        t2 = KEY_TYPES[(k // 2) % 2]
        pk, sk = keygen(P3, t1, t2, rng=rng)
        for r1 in range(8):
            for r2 in range(8):
                nonce = SessionNonce(r1, r2)
                for _ in range(10):
                    m = G3.random_element(rng)
                    if decrypt(pk, sk, encrypt(pk, m, nonce)) != m:
                        failures += 1
    elapsed = time.perf_counter() - start
    _report(1, "decrypt(encrypt(m)) = m, 20 keys x 64 nonces x 10 messages",
            failures == 0 and elapsed < 60, elapsed)


def test_criterion_2_group_structure_q8():
    start = time.perf_counter()
    els = list(G3.elements())
    stats = G3.stats()
    ok = (
        len(els) == 448 == stats.group_order
        and sum(G3.in_center(g) for g in els) == 8 == stats.center_order
        and stats.genus == 14
        and stats.rational_places == 65
    )
    elapsed = time.perf_counter() - start
    _report(2, "448 elements, center 8, genus 14, 65 rational places",
            ok and elapsed < 1, elapsed)


def test_criterion_3_action_compatibility_all_pairs():
    start = time.perf_counter()
    els = list(G3.elements())
    pts = [CurvePoint(0, 0), CurvePoint(1, 1), CurvePoint(2, 7), CurvePoint(5, 3),
           CurvePoint(7, 6)]
    mul, apply = G3.mul, G3.apply_point
    mismatches = 0
    for g1 in els:
        moved = [apply(g1, p) for p in pts]
        for g2 in els:
            g12 = mul(g1, g2)
            for p, mp in zip(pts, moved):
                if apply(g2, mp) != apply(g12, p):
                    mismatches += 1
    elapsed = time.perf_counter() - start
    _report(3, "point-map composition equals group law, 448^2 pairs x 5 points",
            mismatches == 0 and elapsed < 120, elapsed)


def test_criterion_4_tame_signature_oracle_equivalence():
    start = time.perf_counter()
    rng = random.Random(104)
    failures = 0
    for n, types in (
        (3, (SignatureType((2, 2, 2)), SignatureType((8,)))),
        (9, (SignatureType((8, 8, 8)), covering_type(9))),
    ):
        for k in range(50):
            sig = gen_tame(n, types[k % len(types)], rng)
            for x in range(1 << n):
                if factor_tame(sig, evaluate_tame(sig, x)) != x:
                    failures += 1
    elapsed = time.perf_counter() - start
    _report(4, "factor(evaluate(x)) = x for all x, n=3 and n=9, 50 trapdoors each",
            failures == 0, elapsed)


def test_criterion_5_telescoping_identity():
    start = time.perf_counter()
    rng = random.Random(105)
    failures = 0
    for k in range(20):
        pk, sk = keygen(P3, KEY_TYPES[k % 2], KEY_TYPES[(k + 1) % 2], rng=rng)
        for r1 in range(8):
            for r2 in range(8):
                ct = encrypt(pk, G3.random_element(rng), SessionNonce(r1, r2))
                lhs = G3.mul(G3.mul(sk.chain1[0], ct.y2), G3.inv(sk.chain2[-1]))
                u = IDENTITY
                bsum = 0
                for ablk, bblk, j in zip(pk.alpha1.blocks, sk.beta1.blocks,
                                         tau_inv(pk.type1, r1)):
                    u = G3.mul(u, G3.mul(G3.f1(ablk[j]), GroupElement(1, bblk[j], 0)))
                    bsum ^= ablk[j][0] ^ bblk[j]
                v = IDENTITY
                csum = 0
                for ablk, bblk, j in zip(pk.alpha2.blocks, sk.beta2.blocks,
                                         tau_inv(pk.type2, r2)):
                    v = G3.mul(v, G3.mul(G3.f2(ablk[j]), GroupElement(1, 0, bblk[j])))
                    csum ^= ablk[j][1] ^ bblk[j]
                if not (
                    lhs == G3.mul(u, v)
                    and u.a == 1
                    and G3.in_center(v)
                    and u.b == bsum
                    and v.c == csum
                ):
                    failures += 1
    elapsed = time.perf_counter() - start
    _report(5, "chain-stripped y2 factors as U*V with coordinate sums",
            failures == 0, elapsed)


def test_criterion_6_attack_complexities():
    start = time.perf_counter()
    rng = random.Random(106)
    ok = True
    means = {}
    for n in (3, 5):
        params = make_params(n)
        group = SuzukiGroup(params)
        q = params.q
        pk, sk = keygen(params, rng=rng)
        t1_trials, t3_trials = [], []
        for _ in range(100):
            m = group.random_element(rng)
            ct = encrypt(pk, m, random_nonce(params, rng))
            internal = recover_nonce(pk, sk, ct)
            r1 = attack1_bruteforce_ciphertext(pk, ct, oracle=lambda g: g == m)
            r2 = attack2_bruteforce_nonce(pk, ct)
            r3 = attack3_session_key(pk, ct)
            ok &= r1.success and r1.trials <= q * q
            ok &= r2.success and r2.trials <= q * q
            ok &= r3.success and r3.trials <= 2 * q
            ok &= r1.nonce == r2.nonce == r3.nonce == internal
            t1_trials.append(r1.trials)
            t3_trials.append(r3.trials)
        means[n] = (statistics.mean(t1_trials), statistics.mean(t3_trials))
        report = complexity_report(params)
        ok &= report["attack4"] == q**3  # stated, not reproduced
        ok &= report == {
            "attack1": q * q, "attack2": q * q, "attack3": q,
            "attack4": q**3, "attack5": q * q,
        }
    ratio1 = means[5][0] / means[3][0]
    ratio3 = means[5][1] / means[3][1]
    ok &= 8 <= ratio1 <= 24 and 2 <= ratio3 <= 6
    elapsed = time.perf_counter() - start
    _report(6, f"attack bounds + nonce equivalence; scaling x{ratio1:.1f}/x{ratio3:.1f}",
            ok, elapsed)


def test_criterion_7_large_profile_liveness(capsys):
    start = time.perf_counter()
    params = make_params(65)
    group = SuzukiGroup(params)
    rng = random.Random(107)
    pk, sk = keygen(params, rng=rng)
    failures = 0
    for _ in range(100):
        m = group.random_element(rng)
        if decrypt(pk, sk, encrypt(pk, m, random_nonce(params, rng))) != m:
            failures += 1
    assert cli(["bench", "--iters", "2"]) == 0
    rows = json.loads(capsys.readouterr().out)
    bench_ok = [r["n"] for r in rows] == [33, 63, 65] and all(
        r["keygen_ms_median"] > 0 and r["ciphertext_bytes"] == 9 + 9 * ((r["n"] + 7) // 8)
        for r in rows
    )
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        _report(7, "n=65 round trips and bench JSON report",
                failures == 0 and bench_ok, elapsed)


def test_criterion_8_f2_homomorphism_and_b_additivity():
    start = time.perf_counter()
    us = [GroupElement(1, b, c) for b in range(8) for c in range(8)]
    failures = 0
    for u1 in us:
        for u2 in us:
            prod = G3.mul(u1, u2)
            if G3.f2(prod) != G3.mul(G3.f2(u1), G3.f2(u2)):
                failures += 1
            if prod.b != u1.b ^ u2.b:
                failures += 1
    elapsed = time.perf_counter() - start
    _report(8, "f2 is a homomorphism on (1,b,c) and b-coordinates add, 64^2 pairs",
            failures == 0, elapsed)
