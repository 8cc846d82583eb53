#!/usr/bin/env python3
"""Measure how brute-force attack effort grows with the field size.

Runs attacks 1-3 against batches of random ciphertexts at n = 3 and n = 5
and prints mean trial counts, their growth ratios, and the stated
worst-case difficulties for comparison.  Exits nonzero, naming the attack
and n, when any attack fails to find a ciphertext's nonce.

Usage: python scripts/attack_scaling.py [--cts 200] [--seed 1]
"""

import argparse
import random
import statistics
import sys

from mst3sz.attacks import (
    attack1_bruteforce_ciphertext,
    attack2_bruteforce_nonce,
    attack3_session_key,
    complexity_report,
)
from mst3sz.field import make_params
from mst3sz.group import SuzukiGroup
from mst3sz.scheme import encrypt, keygen, random_nonce


def measure(n: int, cts: int, rng) -> tuple[dict, list]:
    """Mean trials of each attack, and the attacks that missed a nonce."""
    params = make_params(n)
    group = SuzukiGroup(params)
    pk, _ = keygen(params, rng=rng)
    results = {1: [], 2: [], 3: []}
    for _ in range(cts):
        m = group.random_element(rng)
        ct = encrypt(pk, m, random_nonce(params, rng))
        results[1].append(attack1_bruteforce_ciphertext(pk, ct, oracle=lambda g: g == m))
        results[2].append(attack2_bruteforce_nonce(pk, ct))
        results[3].append(attack3_session_key(pk, ct))
    means = {k: statistics.mean(r.trials for r in v) for k, v in results.items()}
    return means, [k for k, v in results.items() if not all(r.success for r in v)]


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--cts", type=int, default=200, help="ciphertexts per width")
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()

    rng = random.Random(args.seed)
    measured = {n: measure(n, args.cts, rng) for n in (3, 5)}
    means = {n: m for n, (m, _) in measured.items()}

    print(f"{'attack':>8} {'mean@n=3':>10} {'mean@n=5':>10} {'ratio':>7} "
          f"{'bound@8':>8} {'bound@32':>9}")
    rep3, rep5 = complexity_report(make_params(3)), complexity_report(make_params(5))
    bounds = {1: "attack1", 2: "attack2", 3: "attack3"}
    for k in (1, 2, 3):
        m3, m5 = means[3][k], means[5][k]
        b3, b5 = rep3[bounds[k]], rep5[bounds[k]]
        if k == 3:  # two coordinate sweeps
            b3, b5 = 2 * b3, 2 * b5
        print(f"{k:>8} {m3:>10.1f} {m5:>10.1f} {m5 / m3:>7.2f} {b3:>8} {b5:>9}")
    print("\nexpected growth: x16 for attacks 1-2 (q^2), x4 for attack 3 (q)")
    missed = [f"attack {k} at n={n}" for n, (_, ks) in measured.items() for k in ks]
    if missed:
        sys.exit("missed the encrypting nonce: " + ", ".join(missed))


if __name__ == "__main__":
    main()
