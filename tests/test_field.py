import importlib.util
import random
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import mst3sz.field
from mst3sz.field import FieldParams, IRREDUCIBLE, is_irreducible, make_params
from mst3sz.logsig import covering_type

import oracle
from helpers import DIFFERENTIAL_FIELDS, EXTRA_MODULI

GF8 = make_params(3)
X = 0b010


def test_make_params_small():
    p = make_params(3)
    assert (p.n, p.s, p.q0, p.q) == (3, 1, 2, 8)
    assert p.modulus == 0xB  # x^3 + x + 1


def test_make_params_rejects_even():
    with pytest.raises(ValueError, match="odd"):
        FieldParams(4)


def test_make_params_rejects_out_of_range():
    for n in (1, 129, -3):
        with pytest.raises(ValueError):
            FieldParams(n)


def test_make_params_large():
    p = make_params(65)
    assert p.s == 32
    assert p.q0 == 1 << 32
    assert p.q == 2 * p.q0 * p.q0


def test_published_moduli_are_irreducible():
    for n, f in IRREDUCIBLE.items():
        assert f.bit_length() - 1 == n
        assert is_irreducible(f), f"n={n}"


def test_modulus_script_reproduces_table():
    path = Path(__file__).resolve().parents[1] / "scripts" / "gen_modulus_table.py"
    spec = importlib.util.spec_from_file_location("gen_modulus_table", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    for n in range(3, 32, 2):  # the full 3..127 run takes seconds
        assert script.least_irreducible(n) == IRREDUCIBLE[n], f"n={n}"


def test_small_moduli_have_no_small_factors():
    # independent irreducibility check by trial division, n <= 17
    for n in (3, 5, 7, 9, 11, 13, 15, 17):
        f = IRREDUCIBLE[n]
        for d in range(2, 1 << (n // 2 + 1)):
            if d.bit_length() < 2:
                continue
            r = f
            dm = d.bit_length() - 1
            while r.bit_length() - 1 >= dm:
                r ^= d << (r.bit_length() - 1 - dm)
            assert r != 0, f"0b{d:b} divides modulus for n={n}"


def test_reducible_modulus_rejected():
    with pytest.raises(ValueError, match="reducible"):
        FieldParams(3, 0b1111)  # x^3+x^2+x+1 = (x+1)(x^2+1)


def test_reducible_modulus_rejected_by_gcd_step():
    # (x^5+x^2+1)(x^5+x^3+1)(x^5+x^3+x^2+x+1) splits over GF(32), a subfield
    # of GF(2^15), so it passes x^(2^15) = x and only Ben-Or's gcd step
    # finds the factors
    f = 0x808B
    assert f == oracle.mul(oracle.mul(0x25, 0x29, 1 << 16), 0x2F, 1 << 16)
    assert oracle.pow_(X, 1 << 15, f) == X
    assert not is_irreducible(f)
    with pytest.raises(ValueError, match="reducible"):
        FieldParams(15, f)


def test_modulus_degree_mismatch_rejected():
    with pytest.raises(ValueError, match="degree"):
        FieldParams(5, 0xB)


def test_only_a_foreign_modulus_is_tested_for_irreducibility(monkeypatch):
    # the published table is checked once by the tests above; a field on it
    # does not test it again, and any other modulus is tested once
    tested = []
    test = mst3sz.field.is_irreducible
    monkeypatch.setattr(mst3sz.field, "is_irreducible", lambda f: tested.append(f) or test(f))
    for n in (3, 17, 65, 127):
        make_params.__wrapped__(n)  # make_params' body, uncached
        FieldParams(n)
        FieldParams(n, IRREDUCIBLE[n])
    assert tested == []
    FieldParams(17, 0x20021)
    assert tested == [0x20021]
    with pytest.raises(ValueError) as err:
        FieldParams(3, 0b1111)
    assert str(err.value) == "modulus 0xF is reducible"
    with pytest.raises(ValueError) as err:
        FieldParams(5, 0xB)
    assert str(err.value) == "modulus degree does not match n"
    assert tested == [0x20021, 0b1111]


def test_mul_examples():
    assert GF8.mul(X, 0b100) == 0b011  # x * x^2 = x + 1
    for a in range(8):
        assert GF8.mul(a, 1) == a
        assert GF8.mul(0, a) == 0


def test_mul_table_matches_schoolbook_oracle():
    for a in range(8):
        for b in range(8):
            assert GF8.mul(a, b) == oracle.mul(a, b, GF8.modulus)


def test_mul_matches_oracle_large():
    rng = random.Random(11)
    for n in (33, 65, 127):
        p = make_params(n)
        for _ in range(200):
            a, b = rng.getrandbits(n), rng.getrandbits(n)
            assert p.mul(a, b) == oracle.mul(a, b, p.modulus)


def test_inv_examples():
    assert GF8.inv(1) == 1
    assert GF8.inv(X) == 0b101  # exhaustive-search oracle value
    assert oracle.inv(X, GF8.modulus) == 0b101
    with pytest.raises(ZeroDivisionError):
        GF8.inv(0)


def test_inv_routes_agree():
    for a in range(1, 8):
        assert GF8.inv(a) == GF8._inv_euclid(a) == oracle.pow_(a, GF8.q - 2, GF8.modulus)
    p9 = make_params(9)
    for a in range(1, 512):
        assert p9.inv(a) == p9._inv_euclid(a)
        assert p9.mul(a, p9.inv(a)) == 1
    rng = random.Random(5)
    for n in (33, 65, 127):
        p = make_params(n)
        for _ in range(50):
            a = p.random_nonzero(rng)
            v = p._inv_euclid(a)
            assert v == oracle.pow_(a, p.q - 2, p.modulus) == p.inv(a)
            assert p.mul(a, v) == 1


def test_frob_pow_examples():
    for a in range(8):
        assert GF8.frob_pow(a, 0) == a
        assert GF8.frob_pow(a, 3) == a  # a^q = a
    assert GF8.frob_pow(X, 1) == 0b100  # squaring below modulus degree


def test_frob_pow_matches_generic_pow():
    rng = random.Random(17)
    for n in (9, 65):
        p = make_params(n)
        for _ in range(40):
            a = p.random_element(rng)
            k = rng.randrange(0, n)
            assert p.frob_pow(a, k) == oracle.pow_(a, 1 << k, p.modulus)


@pytest.mark.parametrize("n,modulus", DIFFERENTIAL_FIELDS)
def test_primitives_match_oracle(n, modulus):
    p = FieldParams(n, modulus)
    mod = p.modulus
    rng = random.Random(mod)
    for _ in range(3):
        a, b = rng.getrandbits(n), p.random_nonzero(rng)
        k = rng.randrange(n)
        assert p.mul(a, b) == oracle.mul(a, b, mod)
        assert p.inv(b) == oracle.inv(b, mod)
        assert p.pow_2q0(a) == oracle.pow_(a, 2 * p.q0, mod)
        assert p.frob_pow(a, k) == oracle.pow_(a, 1 << k, mod)
    for a in (0, 1, p.q - 1, rng.getrandbits(n), rng.getrandbits(n)):
        assert p.pow_2q0_plus_1(a) == oracle.pow_(a, 2 * p.q0 + 1, mod)
    # the Euclidean inverse on every field, the tables' included
    for a in (1, 2, p.q - 1, 1 << (n - 1), p.random_nonzero(rng)):
        assert p._inv_euclid(a) == oracle.inv(a, mod)
    if p._exp is not None:
        # the generator walk reaches every nonzero element
        assert sorted(p._exp[: p.q - 1]) == list(range(1, p.q))
    # dot2 and mul3 on zero, one and all-ones operands beside random ones,
    # in every position: an all-ones lane's product fills its 2n-1 bits, so
    # a lane too narrow for it would bleed into the next
    values = [0, 1, p.q - 1, *(p.random_nonzero(rng) for _ in range(3))]
    want = {(a, b): oracle.mul(a, b, mod) for a, b in product(values, repeat=2)}
    for a, b, c, d in product(values, repeat=4):
        assert p.dot2(a, b, c, d) == want[a, b] ^ want[c, d]
        assert p.mul3(a, b, c, d) == (want[a, b], want[a, c], want[a, d])


@pytest.mark.parametrize("n,modulus", DIFFERENTIAL_FIELDS)
def test_sums_of_products_fold_once(n, modulus):
    # product and fold: one product, and sums as long as decryption's U, the
    # longest a walk folds (2 products per block of covering_type(n), 126 at
    # n=127), with a reduced addend as y3's and U's c; all-ones operands
    # give products of the full degree 2n-2
    p = FieldParams(n, modulus)
    mod, top = p.modulus, p.q - 1
    rng = random.Random(f"fold/{mod}")
    values = [0, 1, top, *(p.random_nonzero(rng) for _ in range(3))]
    for a, b in product(values, repeat=2):
        assert p.fold(p.product(a, b)) == oracle.mul(a, b, mod)
    k = 2 * covering_type(n).s
    for pairs in (
        [(top, top)] + [(p.random_nonzero(rng), top) for _ in range(k - 1)],
        [(p.random_element(rng), p.random_element(rng)) for _ in range(k)],
    ):
        r = want = p.random_element(rng)
        for a, b in pairs:
            r ^= p.product(a, b)
            want ^= oracle.mul(a, b, mod)
        assert p.fold(r) == want


# Every width with log/exp tables: the published moduli up to n = 17.
@pytest.mark.parametrize("n,modulus", [(n, None) for n in range(3, 18, 2)])
def test_log_exp_tables_share_ints_and_match_oracle_walk(n, modulus):
    p = FieldParams(n, modulus)
    exp, log = oracle.log_exp_tables(p.modulus)
    assert p._exp == exp and p._log == log
    # log and exp hold one int object per value
    assert all(p._log[p._exp[i]] is p._exp[p._log[i]] for i in range(1, p.q - 1))


# The oracle needs O(n^3) bit steps per matrix, so whole matrices are checked
# at a spread of widths; frob_pow is checked at every width above.  The image
# of each basis element x^i is one column of the Frobenius matrix.
@pytest.mark.parametrize(
    "n,modulus",
    [(n, None) for n in (3, 9, 17, 19, 33, 63, 65, 127)] + EXTRA_MODULI,
)
def test_frobenius_columns_match_oracle(n, modulus):
    p = FieldParams(n, modulus)
    mod = p.modulus
    for k in (1, p.s + 1):
        cols = [p.frob_pow(1 << i, k) for i in range(n)]
        assert cols == [oracle.pow_(oracle.pow_(X, i, mod), 1 << k, mod) for i in range(n)]


def test_pow_2q0_examples():
    assert GF8.pow_2q0(1) == 1 == GF8.pow_2q0_plus_1(1)
    assert GF8.pow_2q0(0) == 0 == GF8.pow_2q0_plus_1(0)
    assert GF8.pow_2q0(X) == 0b110  # x^4 mod x^3+x+1 = x^2 + x
    for a in range(8):
        assert GF8.pow_2q0_plus_1(a) == GF8.mul(GF8.pow_2q0(a), a)


def test_frobenius_additivity():
    rng = random.Random(23)
    for n in (3, 9, 65):
        p = make_params(n)
        for _ in range(500):
            a, b = p.random_element(rng), p.random_element(rng)
            assert p.pow_2q0(a ^ b) == p.pow_2q0(a) ^ p.pow_2q0(b)


@pytest.mark.parametrize("n,rounds", [(3, 100_000), (9, 100_000), (65, 2000), (127, 2000)])
def test_field_axioms_random(n, rounds):
    p = make_params(n)
    rng = random.Random(n * 77)
    rb = rng.getrandbits
    for _ in range(rounds):
        a, b, c = rb(n), rb(n), rb(n)
        assert p.mul(a, b) == p.mul(b, a)
        assert p.mul(p.mul(a, b), c) == p.mul(a, p.mul(b, c))
        assert p.mul(a, b ^ c) == p.mul(a, b) ^ p.mul(a, c)


@given(st.integers(0, 511), st.integers(0, 511), st.integers(0, 511))
def test_axioms_hypothesis(a, b, c):
    p = make_params(9)
    assert p.mul(a, b) == p.mul(b, a)
    assert p.mul(p.mul(a, b), c) == p.mul(a, p.mul(b, c))
    assert p.mul(a, b ^ c) == p.mul(a, b) ^ p.mul(a, c)
    assert p.frob_pow(a ^ b, 1) == p.frob_pow(a, 1) ^ p.frob_pow(b, 1)


@given(st.integers(1, 511))
def test_inverse_hypothesis(a):
    p = make_params(9)
    assert p.mul(a, p.inv(a)) == 1
