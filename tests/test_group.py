import copy
import pickle
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mst3sz.field import FieldParams, is_irreducible, make_params
from mst3sz.group import IDENTITY, CurvePoint, GroupElement, SuzukiGroup
from mst3sz.logsig import covering_type, gen_random_cover, induced_map
from mst3sz.scheme import Memo, _u_walk

import oracle
from helpers import DIFFERENTIAL_FIELDS, G3, P3

E = IDENTITY


def rand_el(rng, g=G3):
    return g.random_element(rng)


def test_element_requires_nonzero_a():
    with pytest.raises(ValueError):
        GroupElement(0, 1, 1)


def test_element_is_an_immutable_checked_triple():
    g = GroupElement(3, 5, 6)
    assert (g.a, g.b, g.c) == tuple(g) == (3, 5, 6) == g
    assert repr(g) == "GroupElement(a=3, b=5, c=6)"
    assert g == GroupElement(3, 5, 6) and hash(g) == hash(GroupElement(3, 5, 6))
    assert g != GroupElement(3, 5, 7)
    for name in ("a", "b", "c", "d"):
        with pytest.raises(AttributeError):
            setattr(g, name, 1)
    for h in (copy.copy(g), copy.deepcopy(g), pickle.loads(pickle.dumps(g))):
        assert type(h) is GroupElement and h == g
    # the one constructor checks a != 0: the class call, and the __new__
    # call that copy and pickle rebuild an element with
    with pytest.raises(ValueError, match="a != 0"):
        GroupElement(0, 5, 6)
    rebuild, args = g.__reduce_ex__(pickle.HIGHEST_PROTOCOL)[:2]
    assert rebuild(*args) == g
    with pytest.raises(ValueError, match="a != 0"):
        rebuild(args[0], 0, *args[2:])
    assert not hasattr(g, "_make") and not hasattr(g, "_replace")


def test_identity_laws():
    assert G3.mul(E, E) == E
    assert G3.inv(E) == E
    rng = random.Random(1)
    for _ in range(100):
        g = rand_el(rng)
        assert G3.mul(E, g) == g
        assert G3.mul(g, E) == g


def test_mul_examples():
    # central elements multiply by adding c
    for c1 in range(8):
        for c2 in range(8):
            assert G3.mul(GroupElement(1, 0, c1), GroupElement(1, 0, c2)) == \
                GroupElement(1, 0, c1 ^ c2)
    assert G3.mul(GroupElement(1, 1, 0), GroupElement(1, 1, 0)) == GroupElement(1, 0, 1)


def test_mul_matches_oracle():
    rng = random.Random(2)
    for n in (3, 9, 65):
        p = make_params(n)
        g = SuzukiGroup(p)
        for _ in range(100):
            g1, g2 = rand_el(rng, g), rand_el(rng, g)
            got = g.mul(g1, g2)
            assert (got.a, got.b, got.c) == oracle.gmul(p, oracle.as_tuple(g1), oracle.as_tuple(g2))


# Widths on the byte-table field route, and a dense n=65 modulus.
@pytest.mark.parametrize(
    "n,modulus", [(19, None), (65, None), (127, None), (65, 0x322A2D550DBD0CE07)]
)
def test_mul_inv_match_oracle_large(n, modulus):
    p = FieldParams(n, modulus)
    g = SuzukiGroup(p)
    rng = random.Random(n)
    for _ in range(20):
        g1, g2 = rand_el(rng, g), rand_el(rng, g)
        t1, t2 = oracle.as_tuple(g1), oracle.as_tuple(g2)
        assert oracle.as_tuple(g.mul(g1, g2)) == oracle.gmul(p, t1, t2)
        assert oracle.as_tuple(g.inv(g1)) == oracle.ginv(p, t1)


@pytest.mark.parametrize("n,modulus", DIFFERENTIAL_FIELDS)
def test_step_on_terms_is_mul(n, modulus):
    p = FieldParams(n, modulus)
    g = SuzukiGroup(p)
    rng = random.Random(p.modulus)
    for _ in range(3):
        g1, g2 = rand_el(rng, g), rand_el(rng, g)
        a, b, c = g2
        k = oracle.pow_(a, 2 * p.q0 + 1, p.modulus)
        terms = g.terms(g2)
        assert terms == (a, b, c, k, oracle.pow_(b, 2 * p.q0, p.modulus))
        want = oracle.gmul(p, oracle.as_tuple(g1), oracle.as_tuple(g2))
        assert oracle.as_tuple(g.step(g1, terms)) == oracle.as_tuple(g.mul(g1, g2)) == want


def _next_irreducible(n, low):
    """The first irreducible degree-n modulus at or above x^n + low (odd)."""
    q = 1 << n
    for k in range(q):
        f = q | (low + 2 * k) % q | 1
        if is_irreducible(f):
            return f
    raise AssertionError(f"no irreducible modulus of degree {n}")


# Random moduli, uncached, on the byte tables at every width (a draw of the
# published modulus gets log/exp tables up to n = 17), n = 19 always among
# them.
@settings(max_examples=50, deadline=None)
@given(
    n=st.sampled_from([3, 5, 7, 9, 11, 13, 19, 21, 33, 65]),
    low=st.integers(0, (1 << 65) - 1),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=19, low=0, seed=0)
def test_group_and_walks_match_oracle_at_random_moduli(n, low, seed):
    p = FieldParams(n, _next_irreducible(n, low % (1 << n)))
    g = SuzukiGroup(p)
    rng = random.Random(seed)
    for _ in range(4):
        g1, g2 = rand_el(rng, g), rand_el(rng, g)
        t1, t2 = oracle.as_tuple(g1), oracle.as_tuple(g2)
        assert oracle.as_tuple(g.mul(g1, g2)) == oracle.gmul(p, t1, t2)
        assert oracle.as_tuple(g.inv(g1)) == oracle.ginv(p, t1)
    cover = gen_random_cover(g, covering_type(n), rng)
    blocks = [[oracle.as_tuple(e) for e in block] for block in cover.blocks]
    for _ in range(2):
        x = rng.getrandbits(n)
        want = oracle.cover_product(p, blocks, x)
        assert oracle.as_tuple(induced_map(g, cover, x)) == want


def _fold(p, start, factors):
    t = oracle.as_tuple(start)
    for f in factors:
        t = oracle.gmul(p, t, f)
    return t


# every start at n=3; seeded starts (a != 1 almost surely) on the byte-table
# route and the dense n=65 modulus
@pytest.mark.parametrize(
    "n,modulus",
    [(3, None), (19, None), (65, None), (127, None), (65, 0x322A2D550DBD0CE07)],
)
def test_right_factor_laws_match_oracle(n, modulus):
    p = FieldParams(n, modulus)
    g = SuzukiGroup(p)
    rng = random.Random(n)
    starts = list(g.elements()) if n == 3 else [rand_el(rng, g) for _ in range(20)]
    # one pair of memos for every walk, so later walks read kept images
    memo, beta_memo = Memo(p.pow_2q0), Memo(p.pow_2q0)
    for start in starts:
        # (alpha entry, beta entry) pairs, about half of the betas 0
        pairs = [
            (
                (p.random_element(rng), p.random_element(rng), p.random_element(rng)),
                p.random_element(rng) if rng.random() < 0.5 else 0,
            )
            for _ in range(rng.randrange(4))
        ]
        b, c = _u_walk(p, start.b, start.c, pairs, memo, beta_memo)
        u = [f for (a2, b2, _), x in pairs for f in ((1, a2, b2), (1, x, 0))]
        assert (start.a, b, c) == _fold(p, start, u)


def test_inverse_examples():
    for c in range(8):
        z = GroupElement(1, 0, c)
        assert G3.inv(z) == z  # central elements are involutions
    rng = random.Random(3)
    for _ in range(100):
        g = rand_el(rng)
        assert G3.mul(g, G3.inv(g)) == E
        assert G3.mul(G3.inv(g), g) == E


def test_inverse_laws_all_448():
    for g in G3.elements():
        assert G3.mul(g, G3.inv(g)) == E
        assert G3.mul(G3.inv(g), g) == E
        assert G3.mul(g, E) == g == G3.mul(E, g)


def test_enumeration_counts():
    els = list(G3.elements())
    assert len(els) == 448
    assert sum(G3.in_center(g) for g in els) == 8


def test_unipotent_closure_and_associativity_exhaustive():
    us = [GroupElement(1, b, c) for b in range(8) for c in range(8)]
    prods = {}
    for x in us:
        for y in us:
            p = G3.mul(x, y)
            assert p.a == 1  # closure in the (1,b,c) subgroup
            prods[x, y] = p
    for x in us:
        for y in us:
            xy = prods[x, y]
            for z in us:
                assert G3.mul(xy, z) == G3.mul(x, prods[y, z])


def test_associativity_random_full_group():
    rng = random.Random(4)
    for _ in range(100_000):
        g1, g2, g3 = rand_el(rng), rand_el(rng), rand_el(rng)
        assert G3.mul(G3.mul(g1, g2), g3) == G3.mul(g1, G3.mul(g2, g3))


def test_apply_point_examples():
    rng = random.Random(5)
    for _ in range(50):
        p = CurvePoint(P3.random_element(rng), P3.random_element(rng))
        assert G3.apply_point(E, p) == p
    for b in range(8):
        for c in range(8):
            g = GroupElement(1, b, c)
            assert G3.apply_point(g, CurvePoint(0, 0)) == CurvePoint(b, c)


def test_action_composition_random():
    rng = random.Random(6)
    pts = [CurvePoint(P3.random_element(rng), P3.random_element(rng)) for _ in range(5)]
    for _ in range(2000):
        g1, g2 = rand_el(rng), rand_el(rng)
        g12 = G3.mul(g1, g2)
        for p in pts:
            assert G3.apply_point(g2, G3.apply_point(g1, p)) == G3.apply_point(g12, p)


def test_on_curve_base_field():
    assert G3.on_curve(CurvePoint(0, 0))
    assert G3.on_curve(CurvePoint(1, 1))
    for x in range(8):
        for y in range(8):
            assert G3.on_curve(CurvePoint(x, y))  # x^q = x over GF(q)


def test_on_curve_extension_field():
    # GF(2^9) contains GF(8) as the fixed field of y -> y^8
    ext = make_params(9)
    mod = ext.modulus

    def frob3(v):  # y^(2^3) by three schoolbook squarings
        for _ in range(3):
            v = oracle.mul(v, v, mod)
        return v

    subfield = [y for y in range(ext.q) if frob3(y) == y]
    assert len(subfield) == 8
    inside = max(subfield)
    outside = next(y for y in range(ext.q) if y not in subfield)
    assert G3.on_curve(CurvePoint(0, inside), field=ext)
    assert not G3.on_curve(CurvePoint(0, outside), field=ext)


def test_in_center():
    assert G3.in_center(E)
    assert G3.in_center(GroupElement(1, 0, 5))
    assert not G3.in_center(GroupElement(1, 1, 0))
    assert not G3.in_center(GroupElement(2, 0, 0))


def test_f1_f2_examples():
    g = GroupElement(3, 5, 7)
    assert G3.f1(g) == GroupElement(1, 3, 5)
    assert G3.f2(g) == GroupElement(1, 0, 5)
    assert G3.f1(E) == GroupElement(1, 1, 0)
    assert G3.f1(GroupElement(1, 0, 4)) == GroupElement(1, 1, 0)
    assert G3.f2(E) == E
    for b in range(8):
        assert G3.f2(GroupElement(1, b, 3)) == GroupElement(1, 0, b)


def test_f1_is_not_a_homomorphism():
    g1 = GroupElement(2, 0, 0)
    g2 = GroupElement(4, 0, 0)
    assert G3.f1(G3.mul(g1, g2)) != G3.mul(G3.f1(g1), G3.f1(g2))


def test_f2_homomorphism_on_unipotents():
    us = [GroupElement(1, b, c) for b in range(8) for c in range(8)]
    for u1 in us:
        for u2 in us:
            prod = G3.mul(u1, u2)
            assert G3.f2(prod) == G3.mul(G3.f2(u1), G3.f2(u2))
            assert prod.b == u1.b ^ u2.b  # b-coordinates add


def test_stats():
    st3 = G3.stats()
    assert st3.group_order == 448
    assert st3.center_order == 8
    assert st3.full_aut_order == 65 * 64 * 7 == 29120
    assert st3.genus == 14
    assert st3.rational_places == 65


def test_stats_formulas_other_widths():
    for n in (5, 9):
        p = make_params(n)
        st_ = SuzukiGroup(p).stats()
        assert st_.group_order == p.q**2 * (p.q - 1)
        assert st_.genus == p.q0 * (p.q - 1)
        assert st_.rational_places == p.q**2 + 1


def test_random_element_constraints():
    # a is never 0; b and c range over the whole field, 0 included
    rng = random.Random(7)
    draws = [G3.random_element(rng) for _ in range(500)]
    assert {g.a for g in draws} == set(range(1, 8))
    assert {g.b for g in draws} == {g.c for g in draws} == set(range(8))


def test_random_element_uniformity_chi2():
    # 448 cells, 50 draws per cell expected; threshold ~ p < 1e-3 for df=447
    rng = random.Random(8)
    draws = 448 * 50
    counts = {}
    for _ in range(draws):
        g = G3.random_element(rng)
        counts[g] = counts.get(g, 0) + 1
    assert len(counts) == 448
    expected = draws / 448
    chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
    assert chi2 < 545, chi2


@given(st.integers(1, 511), st.integers(0, 511), st.integers(0, 511))
def test_inverse_hypothesis(a, b, c):
    p = make_params(9)
    g = SuzukiGroup(p)
    el = GroupElement(a, b, c)
    assert g.mul(el, g.inv(el)) == IDENTITY
