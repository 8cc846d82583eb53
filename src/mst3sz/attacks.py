"""Brute-force oracles for the desk-scale security analysis.

Attacks 1-3 are executable enumerations with operation counters, capped to
small fields (n <= 5).  Attacks 4-5 have stated difficulties but no usable
procedure, so they appear only in ``complexity_report``.

A candidate nonce is accepted only when ``scheme.encrypt`` under it
reproduces the ciphertext's y2, y3 and y4 (attack 1's candidate message
then reproduces y1 by construction).  Single-component matches are not
injective at these field sizes -- most keys admit several nonces with the
same y2, or the same y4 -- while full consistency determines the nonce
uniquely (decryption derives it as a function of (y2, y3, y4)).
Verification runs only on filter hits and is not counted as a trial;
trials count enumeration steps, bounded by q^2 for attacks 1-2 and 2q for
attack 3.  Each attack tabulates only what its enumeration reads, every
cover through one ``induced_table`` (prefix products, each entry's step
terms taken once per table): attack 1 the alpha1 and alpha2 walks, attack
2 the gamma walks, whose product it compares with y2, and attack 3 the
products of alpha1's f1 images, which it compares with y3 before it sweeps
R2 with the scheme's own y4.  The screens read what the key fixes.  Every
gamma2 walk has the a and b of ``gamma2_base``, whose step terms the key
keeps, so attack 2 checks the product's a-coordinate once per attack and
its b-coordinate once per R1, and then looks up the R2 whose walk has the
one c-coordinate that gives y2.  With the default padding oracle, attack
1 tries only the R2 whose alpha2 walk has the a-coordinate of
alpha1'(R1)^-1 * y1, since no valid padding at n <= 5 has a != 1, and
inverts each alpha2 walk on its first try; a caller's oracle sees every
candidate.  Skipped pairs still count as trials, so attacks 1-2 count
r1*q + r2 + 1 at a match (R1 outer, R2 inner) and q^2 without one.  A
ciphertext without the shape of an encryption raises ``CiphertextError``
on entry, as it does in decryption.

Enumeration order is fixed: pairs (R1, R2) with R1 outer, R2 inner.  Any
parallel split must still report the lowest-index verified match.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .group import IDENTITY, GroupElement
from .logsig import Cover, induced_table, tau_inv
from .scheme import Ciphertext, PublicKey, SessionNonce, decode_message, encrypt
from .scheme import _check_ciphertext, _y4

_MAX_N = 5


@dataclass(frozen=True)
class AttackResult:
    recovered: object
    trials: int
    success: bool
    nonce: SessionNonce | None


def _check_input(pk: PublicKey, ct: Ciphertext) -> None:
    if pk.group.params.n > _MAX_N:
        raise ValueError("parameters too large for enumeration (need n <= 5)")
    _check_ciphertext(pk.group, ct)


def _reproduces(pk: PublicKey, ct: Ciphertext, nonce: SessionNonce) -> bool:
    """Whether encrypting under nonce gives the y2, y3 and y4 of ct."""
    e = encrypt(pk, IDENTITY, nonce)
    return (e.y2, e.y3, e.y4) == (ct.y2, ct.y3, ct.y4)


def default_validity_predicate(pk: PublicKey) -> Callable[[GroupElement], bool]:
    """Accept candidates that carry valid message padding."""

    def valid(m: GroupElement) -> bool:
        try:
            decode_message(pk.group.params, m)
        except ValueError:
            return False
        return True

    return valid


def attack1_bruteforce_ciphertext(
    pk: PublicKey,
    ct: Ciphertext,
    oracle: Callable[[GroupElement], bool] | None = None,
) -> AttackResult:
    """Enumerate nonces, unmask y1, accept recognizable verified plaintext."""
    _check_input(pk, ct)
    group = pk.group
    q = group.params.q
    a1 = induced_table(group, pk.alpha1)
    a2 = induced_table(group, pk.alpha2)
    inv2 = [None] * q  # each alpha2 walk is inverted on its first try
    # n <= 5 leaves a valid padding no length bits to set, so a = 1: the
    # default oracle tries only the r2 with a2[r2].a = left.a
    screen = oracle is None
    if screen:
        oracle = default_validity_predicate(pk)
        by_a = {}
        for r2, g in enumerate(a2):
            by_a.setdefault(g.a, []).append(r2)
    for r1, g in enumerate(a1):
        left = group.mul(group.inv(g), ct.y1)
        for r2 in by_a.get(left.a, ()) if screen else range(q):
            if (i := inv2[r2]) is None:
                i = inv2[r2] = group.inv(a2[r2])
            cand = group.mul(i, left)
            if oracle(cand) and _reproduces(pk, ct, nonce := SessionNonce(r1, r2)):
                return AttackResult(cand, r1 * q + r2 + 1, True, nonce)
    return AttackResult(None, q * q, False, None)


def attack2_bruteforce_nonce(pk: PublicKey, ct: Ciphertext) -> AttackResult:
    """Enumerate nonces until the masked-cover product matches y2."""
    _check_input(pk, ct)
    group = pk.group
    f = group.params
    q = f.q
    # every gamma2 walk is gamma2_base * (1, 0, c) and steps by the base's
    # terms with only c changed, so the product h * g has a = gamma1_a * ga
    # for every pair, its b-coordinate depends on R1 alone, and for a given
    # R1 only the c of g is free
    ga, gb, _, k, p = pk.gamma2_base
    y2a, y2b, y2c = ct.y2
    by_c = {}
    for r2, g in enumerate(induced_table(group, pk.gamma2)):
        by_c.setdefault(g.c, []).append(r2)
    g1 = induced_table(group, pk.gamma1) if f.mul(pk.gamma1_a, ga) == y2a else ()
    for r1, h in enumerate(g1):
        t = f.mul(ga, h.b)
        if t ^ gb != y2b:
            continue
        for r2 in by_c.get(y2c ^ f.mul(k, h.c) ^ f.mul(t, p), ()):
            if _reproduces(pk, ct, nonce := SessionNonce(r1, r2)):
                return AttackResult(nonce, r1 * q + r2 + 1, True, nonce)
    return AttackResult(None, q * q, False, None)


def attack3_session_key(pk: PublicKey, ct: Ciphertext) -> AttackResult:
    """Recover R1 from y3 and R2 from y4, one coordinate at a time."""
    _check_input(pk, ct)
    group = pk.group
    q = group.params.q
    images = Cover(pk.type1, tuple(tuple(map(group.f1, b)) for b in pk.alpha1.blocks))
    cand1 = [r1 for r1, y3 in enumerate(induced_table(group, images)) if y3 == ct.y3]
    trials = q  # the R1 sweep
    for r2 in range(q):
        trials += 1
        if _y4(pk, tau_inv(pk.type2, r2)) == ct.y4:
            for r1 in cand1:
                nonce = SessionNonce(r1, r2)
                if _reproduces(pk, ct, nonce):
                    return AttackResult(nonce, trials, True, nonce)
    return AttackResult(None, trials, False, None)


def complexity_report(params) -> dict[str, int]:
    """Stated worst-case difficulties as exact integers."""
    q = params.q
    return {
        "attack1": q * q,
        "attack2": q * q,
        "attack3": q,
        "attack4": q * q * q,
        "attack5": q * q,
    }
