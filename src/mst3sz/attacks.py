"""Brute-force oracles for the desk-scale security analysis.

Attacks 1-3 are executable enumerations with operation counters, capped to
small fields (n <= 5).  Attacks 4-5 have stated difficulties but no usable
procedure, so they appear only in ``complexity_report``.

A candidate nonce is accepted only when encryption under it reproduces
the ciphertext's y2, y3 and y4 (attack 1's candidate message then
reproduces y1 by construction).  ``scheme._reproduces`` checks that by
the components the nonce fixes, y4, then y3, then y2, without walking
y1's mask.  Single-component matches are not injective at these field
sizes -- most keys admit several nonces with the same y2, or the same
y4 -- while full consistency determines the nonce uniquely (decryption
derives it as a function of (y2, y3, y4)).
Verification runs only on filter hits and is not counted as a trial;
trials count enumeration steps, bounded by q^2 for attacks 1-2 and 2q for
attack 3.  Each attack tabulates, in ``tau_inv``'s digit order, only what its
screen reads, and keeps nothing between calls: attack 1 the alpha1 and
alpha2 walks, through ``induced_table`` (prefix products, each entry's
step terms taken once per table); attacks 2 and 3 one coordinate of each
walk (``_coord_table``), walking a whole element only where it matches.
The screens read what the key fixes.  Every gamma2 walk has the a and b of
``gamma2_base``, so attack 2 checks y2's a once per attack; y2's b then
fixes the b of the gamma1 walk, tabulated by the fixed-a law b <- a*b + b2
as a sum of the selected b's, each weighed by the a's of the blocks after
it, and only an R1 with that b (about 1.5 per attack-5 ciphertext) is
walked (``_fixed_a_walk``) to look up the R2 whose ``_y2`` sum h, tabulated
by the key's ``gamma2_weights``, gives y2's c.
Attack 3 runs ``_y3`` only where y3's b, the sum of the selected alpha1
a-coordinates, matches (about 2.0 walks per ciphertext), then sweeps R2
through a ``_coord_table`` of y4's c, the sum of the selected alpha2
b-coordinates; its candidates then match y4 and y3 whole, so it checks
only their y2 (``_y2``).  With the default padding oracle, attack 1
tries only the R2 whose alpha2 walk has the a-coordinate of
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
from operator import getitem
from typing import Callable

from .group import GroupElement
from .logsig import induced_table, tau_inv
from .scheme import Ciphertext, Memo, PublicKey, SessionNonce, decode_message
from .scheme import _check_ciphertext, _fixed_a_walk, _reproduces, _suffix_products, _y2, _y3

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
    inv2 = Memo(lambda r2: group.inv(a2[r2]))  # inverts each alpha2 walk once
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
            cand = group.mul(inv2[r2], left)
            if oracle(cand) and _reproduces(pk, ct, nonce := SessionNonce(r1, r2)):
                return AttackResult(cand, r1 * q + r2 + 1, True, nonce)
    return AttackResult(None, q * q, False, None)


def _coord_table(f, blocks, coord: int, ws=()) -> list[int]:
    """For every index in ``tau_inv``'s digit order, the sum of w_i*e[coord]
    over the entries e it selects, w_i = ws[i], prepared, for the blocks ws
    reaches and 1 after them (a plain sum without ws): one multiply per
    weighted entry."""
    table = [0]
    for i, block in enumerate(blocks):
        if i < len(ws):
            vs = [f.fold(f.product(ws[i], e[coord])) for e in block]
            table = [x ^ v for v in vs for x in table]
        else:
            table = [x ^ e[coord] for e in block for x in table]
    return table


def attack2_bruteforce_nonce(pk: PublicKey, ct: Ciphertext) -> AttackResult:
    """Enumerate nonces until the masked-cover product matches y2."""
    _check_input(pk, ct)
    f = pk.group.params
    q = f.q
    # a gamma1 walk is (gamma1_a, b, c) and a gamma2 walk has the terms of
    # gamma2_base with h added to c (``_y2``), so their product is
    # (gamma1_a*ga, t + gb, k*c + t*p + gc + h), t = ga*b
    ga, gb, gc, k, p = pk.gamma2_base
    y2a, y2b, y2c = ct.y2
    if f.mul(pk.gamma1_a, ga) != y2a:
        return AttackResult(None, q * q, False, None)
    t = y2b ^ gb
    by_h = {}
    for r2, h in enumerate(_coord_table(f, pk.gamma2.blocks, 2, pk.gamma2_weights)):
        by_h.setdefault(h, []).append(r2)
    g1 = pk.gamma1.blocks
    bs = _coord_table(f, g1, 1, _suffix_products(f, [block[0][0] for block in g1[1:]]))
    want, rest = f.mul(f.inv(ga), t), y2c ^ f.fold(f.product(p, t)) ^ gc
    for r1 in (r for r, b in enumerate(bs) if b == want):
        entries = map(getitem, g1, tau_inv(pk.type1, r1))
        _, c = _fixed_a_walk(f, entries, pk.gamma1_k, pk.frob)
        for r2 in by_h.get(rest ^ f.fold(f.product(k, c)), ()):
            if _reproduces(pk, ct, nonce := SessionNonce(r1, r2)):
                return AttackResult(nonce, r1 * q + r2 + 1, True, nonce)
    return AttackResult(None, q * q, False, None)


def attack3_session_key(pk: PublicKey, ct: Ciphertext) -> AttackResult:
    """Recover R1 from y3 and R2 from y4, one coordinate at a time."""
    _check_input(pk, ct)
    f = pk.group.params
    y3 = ct.y3
    bs = _coord_table(f, pk.alpha1.blocks, 0)  # y3.b of every R1
    cand1 = [
        (r, d1)
        for r, b in enumerate(bs)
        if b == y3.b and _y3(pk, d1 := tau_inv(pk.type1, r)) == y3
    ]
    trials = f.q  # the R1 sweep
    # y4 is central: its c, the sum of the selected alpha2 b's, is all of it,
    # so a candidate matches y4 and y3 already and only y2 is left to check
    for r2, c in enumerate(_coord_table(f, pk.alpha2.blocks, 1)):
        trials += 1
        if c == ct.y4.c:
            d2 = tau_inv(pk.type2, r2)
            for r1, d1 in cand1:
                if _y2(pk, d1, d2) == ct.y2:
                    nonce = SessionNonce(r1, r2)
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
