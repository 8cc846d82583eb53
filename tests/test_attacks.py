import importlib.util
import random
import statistics
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from mst3sz.attacks import (
    AttackResult,
    attack1_bruteforce_ciphertext,
    attack2_bruteforce_nonce,
    attack3_session_key,
    complexity_report,
    default_validity_predicate,
)
from mst3sz.field import FieldParams, make_params
from mst3sz.group import GroupElement, SuzukiGroup
from mst3sz.logsig import covering_type, gen_random_cover, induced_map, tau_inv
from mst3sz.scheme import (
    CiphertextError,
    PublicKey,
    SessionNonce,
    _reproduces,
    _y3,
    _y4,
    encode_message,
    encrypt,
    keygen,
    random_nonce,
    recover_nonce,
)

import oracle
from test_scheme import structured_gammas

P3 = make_params(3)
G3 = SuzukiGroup(P3)


def make_key(seed, n=3):
    params = make_params(n)
    return params, keygen(params, rng=random.Random(seed))


def test_attack1_recovers_planted_message():
    params, (pk, sk) = make_key(1)
    rng = random.Random(2)
    for _ in range(10):
        m = G3.random_element(rng)
        ct = encrypt(pk, m, random_nonce(params, rng))
        res = attack1_bruteforce_ciphertext(pk, ct, oracle=lambda g: g == m)
        assert res.success
        assert res.recovered == m
        assert res.trials <= 64
        assert res.nonce == recover_nonce(pk, sk, ct)


def test_attack1_default_predicate_accepts_padded_messages():
    params, (pk, sk) = make_key(3)
    m = encode_message(params, b"")
    ct = encrypt(pk, m, SessionNonce(4, 1))
    res = attack1_bruteforce_ciphertext(pk, ct)
    assert res.success and res.recovered == m
    assert res.nonce == (4, 1)


def test_attack1_worst_case_trials():
    params, (pk, _) = make_key(4)
    rng = random.Random(5)
    m = G3.random_element(rng)
    ct = encrypt(pk, m, SessionNonce(7, 7))  # enumerated last
    res = attack1_bruteforce_ciphertext(pk, ct, oracle=lambda g: g == m)
    assert res.success and res.trials == 64


def test_attack1_mean_trials_near_half_space():
    params, (pk, _) = make_key(6)
    rng = random.Random(7)
    trials = []
    for _ in range(200):
        m = G3.random_element(rng)
        ct = encrypt(pk, m, random_nonce(params, rng))
        res = attack1_bruteforce_ciphertext(pk, ct, oracle=lambda g: g == m)
        assert res.success
        trials.append(res.trials)
    mean = statistics.mean(trials)
    assert 24 < mean < 41, mean  # q^2/2 = 32 up to sampling noise


def test_attack1_failure_exhausts_space():
    params, (pk, _) = make_key(8)
    rng = random.Random(9)
    ct = encrypt(pk, G3.random_element(rng), random_nonce(params, rng))
    res = attack1_bruteforce_ciphertext(pk, ct, oracle=lambda g: False)
    assert not res.success
    assert res.recovered is None and res.nonce is None
    assert res.trials == 64


# -- per-trial reference loops -----------------------------------------------
#
# Attacks 1-3 as plain loops: every walk by its own index (``induced_map``
# and the scheme's ``_y3``), attack 1's padding screen per trial and the
# trial counter bumped per trial.  The attacks must return exactly what
# these return.


def _ref_reproduces(pk, ct, nonce):
    e = encrypt(pk, GroupElement(1, 0, 0), nonce)
    return (e.y2, e.y3, e.y4) == (ct.y2, ct.y3, ct.y4)


def _ref_attack1(pk, ct, oracle=None):
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
            if oracle(cand) and _ref_reproduces(pk, ct, SessionNonce(r1, r2)):
                return AttackResult(cand, trials, True, SessionNonce(r1, r2))
    return AttackResult(None, trials, False, None)


def _ref_attack2(pk, ct):
    group = pk.group
    q = group.params.q
    g1 = [induced_map(group, pk.gamma1, r) for r in range(q)]
    g2 = [group.terms(induced_map(group, pk.gamma2, r)) for r in range(q)]
    trials = 0
    for r1, h in enumerate(g1):
        for r2, g in enumerate(g2):
            trials += 1
            if group.step(h, g) == ct.y2 and _ref_reproduces(pk, ct, SessionNonce(r1, r2)):
                return AttackResult(SessionNonce(r1, r2), trials, True, SessionNonce(r1, r2))
    return AttackResult(None, trials, False, None)


def _ref_attack3(pk, ct):
    q = pk.group.params.q
    cand1 = [r1 for r1 in range(q) if _y3(pk, tau_inv(pk.type1, r1)) == ct.y3]
    trials = q
    for r2 in range(q):
        trials += 1
        if _y4(pk, tau_inv(pk.type2, r2)) == ct.y4:
            for r1 in cand1:
                if _ref_reproduces(pk, ct, SessionNonce(r1, r2)):
                    return AttackResult(SessionNonce(r1, r2), trials, True, SessionNonce(r1, r2))
    return AttackResult(None, trials, False, None)


@pytest.mark.parametrize("n", [3, 5])
def test_reproduces_matches_full_encryption(n):
    # the nonce check agrees with re-encryption on every nonce pair, for
    # encryptions and for ciphertexts with one of y4, y3, y2 changed: at the
    # encrypting nonce those pass every earlier component and fail at it
    params = make_params(n)
    q = params.q
    rng = random.Random(40 + n)
    nonces = [SessionNonce(r1, r2) for r1 in range(q) for r2 in range(q)]
    for _ in range(2):
        pk, _ = keygen(params, rng=rng)
        for kind in (None, None, "y4", "y3", "y2"):
            nonce = random_nonce(params, rng)
            ct = encrypt(pk, pk.group.random_element(rng), nonce)
            if kind:
                a, b, c = getattr(ct, kind)
                ct = replace(ct, **{kind: GroupElement(a, b, c ^ 1)})
            got = [_reproduces(pk, ct, x) for x in nonces]
            assert got == [_ref_reproduces(pk, ct, x) for x in nonces], kind
            assert got[nonces.index(nonce)] == (kind is None)
    for bad in (SessionNonce(q, 0), SessionNonce(0, q), SessionNonce(-1, 0)):
        with pytest.raises(ValueError):
            _reproduces(pk, ct, bad)


def _structured_key(params, rng):
    """A public key keygen could not make: random alpha covers with nonzero
    coordinates and ``structured_gammas``."""
    group = SuzukiGroup(params)
    t = covering_type(params.n)
    alpha1, alpha2 = gen_random_cover(group, t, rng), gen_random_cover(group, t, rng)
    return PublicKey(group, alpha1, alpha2, *structured_gammas(params, t, rng))


@pytest.mark.parametrize("n", [3, 5])
def test_attacks_match_per_trial_reference(n):
    # 3 keys x 11 ciphertexts per width: padded messages (the default
    # oracle's screen), random messages under a matching oracle, and the
    # tampers, among them a y2 that no nonce gives and a y3 that passes
    # attack 3's b-screen but not the whole comparison; then 6 keys x 7
    # ciphertexts whose gamma covers have only the block structure attack
    # 2's screen relies on (one a per gamma1 block, one (a, b) per gamma2)
    params = make_params(n)
    rng = random.Random(30 + n)
    q = params.q
    tampered_y2 = 0

    def keys():  # drawn in turn from rng, each before its ciphertexts
        for _ in range(3):
            yield keygen(params, rng=rng)[0], (
                "valid", "valid", "valid", "valid", "swap", "y2", "y2", "y3", "y3c", "y4", "pad"
            )
        for _ in range(6):
            yield _structured_key(params, rng), (
                "valid", "valid", "valid", "pad", "y2", "y3", "y4"
            )

    for pk, kinds in keys():
        for kind in kinds:
            if kind == "pad":
                m = encode_message(params, b"")
            else:
                m = pk.group.random_element(rng)
            ct = _tampered(pk, encrypt(pk, m, random_nonce(params, rng)), rng, kind)
            assert attack1_bruteforce_ciphertext(pk, ct) == _ref_attack1(pk, ct)
            assert attack1_bruteforce_ciphertext(
                pk, ct, oracle=lambda g: g == m
            ) == _ref_attack1(pk, ct, oracle=lambda g: g == m)
            assert attack2_bruteforce_nonce(pk, ct) == _ref_attack2(pk, ct)
            assert attack3_session_key(pk, ct) == _ref_attack3(pk, ct)
            if kind == "y2" and not _ref_attack2(pk, ct).success:
                tampered_y2 += 1
                res = attack2_bruteforce_nonce(pk, ct)
                assert res.trials == q * q and res.nonce is None
    assert tampered_y2 >= 3


@pytest.mark.parametrize("n", [3, 5])
def test_attack1_screen_keeps_results_and_caller_oracles(n):
    # the default oracle screens on a; passing the same predicate explicitly
    # turns the screen off, and both must give the same result
    params, (pk, _) = make_key(14, n)
    group = SuzukiGroup(params)
    rng = random.Random(15)
    q = params.q
    for m in (encode_message(params, b""), group.random_element(rng)):
        ct = encrypt(pk, m, random_nonce(params, rng))
        unscreened = attack1_bruteforce_ciphertext(pk, ct, default_validity_predicate(pk))
        assert attack1_bruteforce_ciphertext(pk, ct) == unscreened
        assert unscreened.success == default_validity_predicate(pk)(m)
    # a caller's oracle sees every candidate, in the reference order
    seen, ref_seen = [], []
    res = attack1_bruteforce_ciphertext(pk, ct, oracle=lambda g: seen.append(g) and False)
    ref = _ref_attack1(pk, ct, oracle=lambda g: ref_seen.append(g) and False)
    assert res == ref
    assert res.trials == len(seen) == q * q and not res.success
    assert seen == ref_seen
    rejected = attack1_bruteforce_ciphertext(pk, ct, oracle=lambda g: False)
    assert rejected == _ref_attack1(pk, ct, oracle=lambda g: False) == res


class _InvertingGroup(SuzukiGroup):
    """Records every element it inverts."""

    def __init__(self, params):
        super().__init__(params)
        self.inverted = []

    def inv(self, g):
        self.inverted.append(g)
        return super().inv(g)


def test_attack1_inverts_each_walk_at_most_once():
    # one inversion per alpha1 walk reached, and each alpha2 walk inverted
    # on its first try only: with the default oracle's screen that is fewer
    # than all q of them plus one per R1; a caller's oracle sweeps all 2q
    params, (pk, _) = make_key(14, 5)
    rng = random.Random(15)
    q = params.q
    for oracle_ in (None, lambda g: False):
        for _ in range(4):
            group = _InvertingGroup(params)
            key = replace(pk, group=group)
            ct = encrypt(key, encode_message(params, b""), random_nonce(params, rng))
            res = attack1_bruteforce_ciphertext(key, ct, oracle_)
            assert res == _ref_attack1(pk, ct, oracle_)
            inverted = group.inverted
            assert len({id(g) for g in inverted}) == len(inverted)
            if oracle_ is None:
                assert res.success and len(inverted) < q + res.nonce.r1 + 1
            else:
                assert len(inverted) == 2 * q


def test_attack2_finds_encrypting_nonce_all_nonces():
    params, (pk, sk) = make_key(10)
    rng = random.Random(11)
    for r1 in range(8):
        for r2 in range(8):
            ct = encrypt(pk, G3.random_element(rng), SessionNonce(r1, r2))
            res = attack2_bruteforce_nonce(pk, ct)
            assert res.success
            assert res.recovered == (r1, r2)  # unique verified match
            assert res.trials <= 64


def test_attack3_trials_bound_and_mask_reproduction():
    params, (pk, sk) = make_key(12)
    rng = random.Random(13)
    for _ in range(20):
        m = G3.random_element(rng)
        ct = encrypt(pk, m, random_nonce(params, rng))
        res = attack3_session_key(pk, ct)
        assert res.success and res.trials <= 16
        r1, r2 = res.recovered
        mask = G3.mul(
            induced_map(G3, pk.alpha1, r1), induced_map(G3, pk.alpha2, r2)
        )
        assert ct.y1 == G3.mul(mask, m)  # recovered nonce reproduces the mask


@pytest.mark.parametrize("n", [3, 5])
def test_oracle_equivalence_all_attacks(n):
    # every attack's nonce equals what decryption derives internally
    params, (pk, sk) = make_key(14, n)
    group = SuzukiGroup(params)
    rng = random.Random(15)
    q = params.q
    for _ in range(100):
        m = group.random_element(rng)
        ct = encrypt(pk, m, random_nonce(params, rng))
        internal = recover_nonce(pk, sk, ct)
        r1 = attack1_bruteforce_ciphertext(pk, ct, oracle=lambda g: g == m)
        r2 = attack2_bruteforce_nonce(pk, ct)
        r3 = attack3_session_key(pk, ct)
        assert r1.nonce == r2.nonce == r3.nonce == internal
        report = complexity_report(params)
        assert r1.trials <= report["attack1"]
        assert r2.trials <= report["attack2"]
        assert r3.trials <= 2 * report["attack3"]


def test_attack_trials_scale_with_field_size():
    rng = random.Random(16)
    means = {}
    for n in (3, 5):
        params = make_params(n)
        group = SuzukiGroup(params)
        pk, sk = keygen(params, rng=rng)
        t1, t3 = [], []
        for _ in range(120):
            m = group.random_element(rng)
            ct = encrypt(pk, m, random_nonce(params, rng))
            t1.append(attack1_bruteforce_ciphertext(pk, ct, oracle=lambda g: g == m).trials)
            t3.append(attack3_session_key(pk, ct).trials)
        means[n] = (statistics.mean(t1), statistics.mean(t3))
    ratio1 = means[5][0] / means[3][0]
    ratio3 = means[5][1] / means[3][1]
    assert 8 < ratio1 < 24, ratio1  # x16 within +-50%
    assert 2 < ratio3 < 6, ratio3  # x4 within +-50%


def test_attacks_reject_large_params():
    params, (pk, _) = make_key(17, 9)
    group = SuzukiGroup(params)
    rng = random.Random(18)
    ct = encrypt(pk, group.random_element(rng), random_nonce(params, rng))
    for attack in (
        lambda: attack1_bruteforce_ciphertext(pk, ct),
        lambda: attack2_bruteforce_nonce(pk, ct),
        lambda: attack3_session_key(pk, ct),
    ):
        with pytest.raises(ValueError, match="too large"):
            attack()


def test_complexity_report_values():
    assert complexity_report(P3) == {
        "attack1": 64,
        "attack2": 64,
        "attack3": 8,
        "attack4": 512,
        "attack5": 64,
    }
    p65 = make_params(65)
    assert complexity_report(p65)["attack1"] == 1 << 130
    assert complexity_report(p65)["attack4"] == 1 << 195


def test_complexity_report_monotone():
    prev = None
    for n in (3, 5, 7, 9):
        rep = complexity_report(make_params(n))
        if prev is not None:
            assert all(rep[k] > prev[k] for k in rep)
        prev = rep


def _tampered(pk, ct, rng, kind):
    group = pk.group
    n = group.params.n
    if kind == "swap":  # y2, y3, y4 of another nonce's encryption
        other = encrypt(pk, ct.y1, random_nonce(group.params, rng))
        return replace(other, y1=ct.y1)
    if kind == "y2":
        return replace(ct, y2=group.random_element(rng))
    if kind == "y3":
        return replace(ct, y3=GroupElement(1, ct.y3.b ^ 1 << rng.randrange(n), ct.y3.c))
    if kind == "y3c":  # y3's b, which attack 3 screens on, is kept
        return replace(ct, y3=GroupElement(1, ct.y3.b, ct.y3.c ^ 1 << rng.randrange(n)))
    if kind == "y4":
        return replace(ct, y4=GroupElement(1, 0, ct.y4.c ^ 1 << rng.randrange(n)))
    return ct


@pytest.mark.parametrize("n", [3, 5])
def test_attacks_succeed_only_on_reproduced_ciphertexts(n):
    # every accepted nonce re-encrypts, under the independent oracle, to the
    # (possibly tampered) y2, y3, y4; every failure has exhausted the space.
    # A bit flip may still give some other nonce's encryption, so failure is
    # not asserted.
    params, (pk, _) = make_key(19 + n, n)
    group = SuzukiGroup(params)
    q = params.q
    rng = random.Random(20 + n)
    for kind in ("valid", "swap", "y2", "y3", "y4"):
        for _ in range(6):
            m = group.random_element(rng)
            ct = _tampered(pk, encrypt(pk, m, random_nonce(params, rng)), rng, kind)
            want = tuple(oracle.as_tuple(y) for y in (ct.y1, ct.y2, ct.y3, ct.y4))
            results = (
                (attack1_bruteforce_ciphertext(pk, ct, oracle=lambda g: g == m), q * q),
                (attack2_bruteforce_nonce(pk, ct), q * q),
                (attack3_session_key(pk, ct), 2 * q),
            )
            for i, (res, space) in enumerate(results):
                if not res.success:
                    assert res.trials == space and res.nonce is None
                    continue
                assert res.trials <= space
                got = oracle.encrypt(params, pk, (1, 0, 0), *res.nonce)
                assert got[1:] == want[1:], (kind, i)
                if i == 0:
                    m_got = oracle.as_tuple(res.recovered)
                    assert oracle.encrypt(params, pk, m_got, *res.nonce)[0] == want[0]
            if kind == "valid":
                assert all(res.success for res, _ in results)
            if kind == "swap":  # another encryption's y2, y3, y4 are found
                assert results[1][0].success and results[2][0].success


@pytest.mark.parametrize(
    "field,value,match",
    [
        ("y1", GroupElement(1, 99, 0), "outside GF"),
        ("y2", GroupElement(33, 0, 0), "outside GF"),
        ("y3", GroupElement(1, 0, 32), "outside GF"),
        ("y3", GroupElement(2, 1, 1), "first coordinate 1"),
        ("y4", GroupElement(1, 1, 0), "central"),
        ("y4", GroupElement(3, 0, 1), "central"),
    ],
)
def test_attacks_reject_malformed_ciphertext(field, value, match):
    params, (pk, _) = make_key(27, 5)
    ct = encrypt(pk, encode_message(params, b""), SessionNonce(3, 9))
    bad = replace(ct, **{field: value})
    for attack in (
        attack1_bruteforce_ciphertext,
        lambda pk, ct: attack1_bruteforce_ciphertext(pk, ct, oracle=lambda g: True),
        attack2_bruteforce_nonce,
        attack3_session_key,
    ):
        with pytest.raises(CiphertextError, match=match):
            attack(pk, bad)


def _attack_scaling():
    path = Path(__file__).resolve().parents[1] / "scripts" / "attack_scaling.py"
    spec = importlib.util.spec_from_file_location("attack_scaling", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_attack_scaling_measure_within_complexity_report():
    means, missed = _attack_scaling().measure(3, 4, random.Random(1))
    assert missed == []  # every attack found every nonce
    report = complexity_report(P3)
    bounds = {1: report["attack1"], 2: report["attack2"], 3: 2 * report["attack3"]}
    assert set(means) == set(bounds)
    for k, mean in means.items():
        assert 1 <= mean <= bounds[k], (k, mean)


def test_attack_scaling_script_smoke(monkeypatch, capsys):
    script = _attack_scaling()
    monkeypatch.setattr(sys, "argv", ["attack_scaling.py", "--cts", "3"])
    script.main()
    lines = capsys.readouterr().out.splitlines()
    rows = [line.split() for line in lines[1:4]]
    assert [row[0] for row in rows] == ["1", "2", "3"]
    for _, m3, m5, _, b3, b5 in rows:
        assert 1 <= float(m3) <= int(b3)
        assert 1 <= float(m5) <= int(b5)


def test_attack_scaling_exits_naming_a_missed_attack(monkeypatch, capsys):
    script = _attack_scaling()
    missed = AttackResult(None, 1, False, None)
    monkeypatch.setattr(script, "attack2_bruteforce_nonce", lambda pk, ct: missed)
    monkeypatch.setattr(sys, "argv", ["attack_scaling.py", "--cts", "2"])
    with pytest.raises(SystemExit, match="attack 2 at n=3, attack 2 at n=5$"):
        script.main()
    assert capsys.readouterr().out.splitlines()[0].split()[0] == "attack"


class _CountingField(FieldParams):
    """FieldParams that counts its multiplies (a ``dot2`` makes 2 and a
    ``mul3`` 3)."""

    def __init__(self, n: int):
        super().__init__(n)
        self.muls = 0

    def mul(self, a: int, b: int) -> int:
        self.muls += 1
        return FieldParams.mul(self, a, b)

    def dot2(self, a: int, b: int, c: int, d: int) -> int:
        self.muls += 2
        return FieldParams.dot2(self, a, b, c, d)

    def mul3(self, a: int, x: int, y: int, z: int) -> tuple[int, int, int]:
        self.muls += 3
        return FieldParams.mul3(self, a, x, y, z)


# Field multiplies of attacks 1-3 over 8 padded n=5 ciphertexts: the
# tables, the screens and the whole walks on screen hits, and the nonce
# checks that verify candidates (attack 3's check only y2: its screens
# matched y4 and y3 whole)
ATTACK_MULS = {1: 3818, 2: 196, 3: 103}


def test_attack_cost():
    f = _CountingField(5)
    pk, _ = keygen(f, rng=random.Random(14))
    rng = random.Random(15)
    cts = [encrypt(pk, encode_message(f, b""), random_nonce(f, rng)) for _ in range(8)]
    for k, attack in (
        (1, attack1_bruteforce_ciphertext),
        (2, attack2_bruteforce_nonce),
        (3, attack3_session_key),
    ):
        f.muls = 0
        assert all(attack(pk, ct).success for ct in cts)
        assert f.muls == ATTACK_MULS[k], k
