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
attack 3.  Each attack tabulates only what its enumeration reads: attack 1
the alpha1 and inverted alpha2 walks, attack 2 the gamma walks (the
scheme's structured ``_gamma1`` and ``_gamma2``) whose product it compares
with y2, b-coordinate first; attack 3 sweeps R1 and R2 with the scheme's
own y3 and y4.  With the default padding oracle, attack 1 skips (but
counts) each candidate whose a-coordinate is not 1, since no valid padding
at n <= 5 has another; a caller's oracle sees every candidate.  A
ciphertext without the shape of an encryption raises ``CiphertextError``
on entry, as it does in decryption.

Enumeration order is fixed: pairs (R1, R2) with R1 outer, R2 inner.  Any
parallel split must still report the lowest-index verified match.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .group import IDENTITY, GroupElement
from .logsig import induced_map
from .scheme import Ciphertext, PublicKey, SessionNonce, decode_message, encrypt
from .scheme import _check_ciphertext, _gamma1, _gamma2, _y3, _y4

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
    # n <= 5 leaves a valid padding no length bits to set, so a = 1: skip
    # a candidate inv2[r2] * left unless inv2[r2].a = left.a^-1
    screen = oracle is None
    if oracle is None:
        oracle = default_validity_predicate(pk)
    group = pk.group
    f = group.params
    q = f.q
    a1 = [induced_map(group, pk.alpha1, r) for r in range(q)]
    inv2 = [group.inv(induced_map(group, pk.alpha2, r)) for r in range(q)]
    trials = 0
    for r1 in range(q):
        left = group.mul(group.inv(a1[r1]), ct.y1)
        want = f.inv(left.a)
        for r2, g in enumerate(inv2):
            trials += 1
            if screen and g.a != want:
                continue
            cand = group.mul(g, left)
            if oracle(cand) and _reproduces(pk, ct, SessionNonce(r1, r2)):
                return AttackResult(cand, trials, True, SessionNonce(r1, r2))
    return AttackResult(None, trials, False, None)


def attack2_bruteforce_nonce(pk: PublicKey, ct: Ciphertext) -> AttackResult:
    """Enumerate nonces until the masked-cover product matches y2."""
    _check_input(pk, ct)
    group = pk.group
    f = group.params
    q = f.q
    g1 = [_gamma1(pk, r) for r in range(q)]
    g2 = [_gamma2(pk, r) for r in range(q)]
    trials = 0
    # Screen on the product's b-coordinate, a2*b1 + b2 (one multiply): its
    # a-coordinate is one value for all nonces (gamma's middle factors have a = 1).
    y2b = ct.y2.b
    for r1, h in enumerate(g1):
        hb = h.b
        for r2, g in enumerate(g2):
            trials += 1
            ga, gb, _ = g
            if f.mul(ga, hb) ^ gb == y2b and group.mul(h, g) == ct.y2:
                nonce = SessionNonce(r1, r2)
                if _reproduces(pk, ct, nonce):
                    return AttackResult(nonce, trials, True, nonce)
    return AttackResult(None, trials, False, None)


def attack3_session_key(pk: PublicKey, ct: Ciphertext) -> AttackResult:
    """Recover R1 from y3 and R2 from y4, one coordinate at a time."""
    _check_input(pk, ct)
    q = pk.group.params.q
    cand1 = [r1 for r1 in range(q) if _y3(pk, r1) == ct.y3]
    trials = q  # the R1 sweep
    for r2 in range(q):
        trials += 1
        if _y4(pk, r2) == ct.y4:
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
