import random
from functools import reduce
from operator import xor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mst3sz.field import FieldParams, make_params
from mst3sz.group import IDENTITY, GroupElement, SuzukiGroup
from mst3sz.logsig import (
    Cover,
    SignatureType,
    TameSignature,
    covering_type,
    echelon_rows,
    evaluate_tame,
    factor_tame,
    gen_random_cover,
    gen_tame,
    induced_map,
    induced_table,
    solve_echelon,
    tau,
    tau_inv,
)

import oracle
from helpers import G3, P3, T222


def test_type_validation():
    with pytest.raises(ValueError):
        SignatureType(())
    with pytest.raises(ValueError):
        SignatureType((2, 1, 2))
    t = SignatureType((3, 5, 7))
    assert t.m == 105
    assert t.weights == (1, 3, 15)
    assert not t.covers_bits(7)


def test_tau_examples():
    assert tau(T222, (1, 0, 1)) == 1 + 0 * 2 + 1 * 4 == 5
    assert tau(T222, (0, 0, 0)) == 0
    assert tau_inv(T222, T222.m - 1) == (1, 1, 1)
    t = SignatureType((3, 5, 7))
    assert tau_inv(t, t.m - 1) == (2, 4, 6)


def test_tau_errors():
    with pytest.raises(ValueError):
        tau(T222, (2, 0, 0))
    with pytest.raises(ValueError):
        tau(T222, (0, 0))
    with pytest.raises(ValueError):
        tau_inv(T222, 8)
    with pytest.raises(ValueError):
        tau_inv(T222, -1)


@pytest.mark.parametrize(
    "r", [(2, 2, 2), (8, 8, 8), (4, 4, 4, 4, 8), (3, 5, 7), (2, 9)]
)
def test_tau_bijective_exhaustive(r):
    t = SignatureType(r)
    seen = set()
    for x in range(t.m):
        d = tau_inv(t, x)
        assert tau(t, d) == x
        seen.add(d)
    assert len(seen) == t.m


@given(
    st.lists(st.integers(2, 9), min_size=1, max_size=6).map(tuple),
    st.integers(0, 10**9),
)
def test_tau_round_trip_hypothesis(r, seed):
    t = SignatureType(r)
    x = seed % t.m
    assert tau(t, tau_inv(t, x)) == x


def test_covering_type():
    assert covering_type(3).r == (8,)
    assert covering_type(5).r == (4, 8)
    assert covering_type(9).r == (4, 4, 4, 8)
    t65 = covering_type(65)
    assert t65.r == (4,) * 31 + (8,)
    assert t65.covers_bits(65)
    assert sum(t65.r) == 132  # entries per signature at this layout


@pytest.mark.parametrize("n", [1, 4, 129])
def test_covering_type_takes_the_field_widths(n):
    # the widths check_width accepts, with its messages; GF(2^129) is not one
    with pytest.raises(ValueError) as err:
        covering_type(n)
    assert str(err.value) == ("n must be odd" if n % 2 == 0 else "n must be in 3..127")


def test_cover_shape_validation():
    e = IDENTITY
    with pytest.raises(ValueError):
        Cover(T222, ((e, e), (e, e)))
    with pytest.raises(ValueError):
        Cover(T222, ((e,), (e, e), (e, e)))


def test_gen_random_cover():
    rng = random.Random(1)
    cover = gen_random_cover(G3, T222, rng)
    assert [len(b) for b in cover.blocks] == [2, 2, 2]
    for block in cover.blocks:
        for g in block:
            assert g[0] != 0 and g[1] != 0 and g[2] != 0
            assert not G3.in_center(g)
    other = gen_random_cover(G3, T222, random.Random(2))
    assert cover != other  # distinct seeds give distinct covers


def test_induced_map_examples():
    rng = random.Random(3)
    cover = gen_random_cover(G3, T222, rng)
    first = G3.mul(
        G3.mul(cover.blocks[0][0], cover.blocks[1][0]), cover.blocks[2][0]
    )
    assert induced_map(G3, cover, 0) == first
    single = gen_random_cover(G3, SignatureType((8,)), rng)
    for j in range(8):
        assert induced_map(G3, single, j) == single.blocks[0][j]
    with pytest.raises(ValueError):
        induced_map(G3, cover, 8)


@pytest.mark.parametrize("r", [(8,), (2, 4)])
def test_induced_walks_return_group_elements(r):
    # at n = 3 the covering type is one block of 8: its walks are its own
    # entries, plain tuples, and still come back as GroupElements
    cover = gen_random_cover(G3, SignatureType(r), random.Random(20))
    table = induced_table(G3, cover)
    for x in range(8):
        got = induced_map(G3, cover, x)
        assert type(got) is GroupElement and type(table[x]) is GroupElement
        assert got == table[x]
    assert covering_type(3).r == (8,)
    if len(r) == 1:
        assert table == list(cover.blocks[0])


def test_induced_map_matches_recomposition_oracle():
    rng = random.Random(4)
    cover = gen_random_cover(G3, T222, rng)
    blocks = [[oracle.as_tuple(g) for g in blk] for blk in cover.blocks]
    for x in range(8):
        got = induced_map(G3, cover, x)
        assert oracle.as_tuple(got) == oracle.cover_product(P3, blocks, x)


def test_induced_map_follows_the_field():
    # one cover walked under the published n=17 modulus and a dense one:
    # each walk must use the field of the group it is given
    fields = [make_params(17), FieldParams(17, 0x36A07)]
    group = SuzukiGroup(fields[0])
    cover = gen_random_cover(group, covering_type(17), random.Random(17))
    blocks = [[oracle.as_tuple(g) for g in blk] for blk in cover.blocks]
    xs = random.Random(18).sample(range(cover.type.m), 4)
    for p in fields:
        group = SuzukiGroup(p)
        for x in xs:
            got = induced_map(group, cover, x)
            assert oracle.as_tuple(got) == oracle.cover_product(p, blocks, x)


@pytest.mark.parametrize(
    "params,r",
    [
        *[(make_params(n), covering_type(n).r) for n in (3, 5, 7, 9)],
        (make_params(7), (2, 16, 4)),
        (make_params(3), (8,)),  # a single block
        (make_params(9), (32, 2, 8)),
        (FieldParams(7, 0x89), covering_type(7).r),  # x^7 + x^3 + 1
    ],
)
def test_induced_table_lists_induced_map(params, r):
    group = SuzukiGroup(params)
    cover = gen_random_cover(group, SignatureType(r), random.Random(params.n + len(r)))
    table = induced_table(group, cover)
    assert table == [induced_map(group, cover, x) for x in range(cover.type.m)]
    blocks = [[oracle.as_tuple(g) for g in blk] for blk in cover.blocks]
    for x in (0, 1, cover.type.m - 1, *random.Random(19).sample(range(cover.type.m), 3)):
        assert oracle.as_tuple(table[x]) == oracle.cover_product(params, blocks, x)


def test_linear_map_round_trip():
    rng = random.Random(5)
    for n in (3, 9, 65):
        sig = gen_tame(n, covering_type(n), rng)
        cols, rows = sig.lin_cols, sig.lin_rows
        for _ in range(50):
            x = rng.getrandbits(n)
            assert solve_echelon(rows, oracle.gf2_apply(cols, x)) == x
    assert echelon_rows((0, 1, 2), 3) is None  # singular


def test_invert_linear_rejects_wrong_column_count():
    with pytest.raises(ValueError, match=r"^4 columns for a map on 3 bits$"):
        echelon_rows((1, 2, 4, 8), 3)
    with pytest.raises(ValueError, match=r"^2 columns for a map on 3 bits$"):
        echelon_rows((1, 2), 3)


def _singular_maps(n, rng):
    """A zero column, a repeated column and a map of rank n - 1."""
    cols = [rng.getrandbits(n) for _ in range(n)]
    i = rng.randrange(n)
    others = [k for k in range(n) if k != i]
    maps = [cols[:i] + [0] + cols[i + 1 :]]
    if others:
        maps.append(cols[:i] + [cols[rng.choice(others)]] + cols[i + 1 :])
    # an invertible map whose column i becomes a sum of some other columns
    full = list(gen_tame(n, SignatureType((2,) * n), rng).lin_cols)
    picked = rng.sample(others, rng.randint(1, len(others))) if others else []
    full[i] = reduce(xor, (full[k] for k in picked), 0)
    assert oracle.gf2_rank(full) == n - 1
    return [tuple(m) for m in maps + [full]]


@pytest.mark.parametrize("n", [*range(1, 18), 65, 127])
def test_invert_linear_matches_rank_oracle(n):
    # None exactly when the rank is below n; otherwise solving on the rows
    # inverts L on both sides: L * solve(e_i) = e_i and solve(L * e_i) = e_i
    rng = random.Random(n)
    singular = [m for _ in range(3) for m in _singular_maps(n, rng)]
    for cols in [tuple(rng.getrandbits(n) for _ in range(n)) for _ in range(20)] + singular:
        rows = echelon_rows(cols, n)
        assert (rows is None) == (oracle.gf2_rank(cols) < n)
        if rows is None or cols in singular:
            assert rows is None
            continue
        for i in range(n):
            assert oracle.gf2_apply(cols, solve_echelon(rows, 1 << i)) == 1 << i
            assert solve_echelon(rows, cols[i]) == 1 << i


def test_gen_tame_requires_covering_type():
    rng = random.Random(6)
    with pytest.raises(ValueError, match="cover"):
        gen_tame(9, T222, rng)  # covers 3 bits, not 9
    with pytest.raises(ValueError):
        gen_tame(7, SignatureType((3, 5)), rng)


ID5, ID9 = tuple(1 << i for i in range(5)), tuple(1 << i for i in range(9))


@pytest.mark.parametrize(
    "r, cols, offsets, match",
    [
        ((4, 4, 4), ID5, (0,) * 3, r"type does not cover GF\(2\^5\)"),  # 6 bits
        ((4, 4), ID5, (0,) * 2, r"type does not cover GF\(2\^5\)"),  # 4 bits
        ((3, 5), ID5[:4], (0,) * 2, "type does not cover"),  # 15 is not 2^4
        ((4, 8), ID5, (0,), "1 offsets for 2 blocks"),
        ((4, 8), ID5, (0,) * 3, "3 offsets for 2 blocks"),
        ((4, 8), (1, 2, 0, 8, 16), (0,) * 2, "signature trapdoor map is singular"),
        ((8, 8, 8), ID9[:4] + (1 << 9 | 1 << 4,) + ID9[5:], (0,) * 3,
         "trapdoor column 4 does not fit in 9 bits"),
        ((8, 8, 8), ID9, (0, 1 << 9, 0), "trapdoor offset 1 does not fit in 9 bits"),
        ((8, 8, 8), ID9, (0, 0, -1), "trapdoor offset 2 does not fit in 9 bits"),
    ],
    ids=["6-bits", "4-bits", "15-entries", "few-offsets", "many-offsets", "singular",
         "wide-column", "wide-offset", "negative-offset"],
)
def test_tame_signature_checks_its_shape(r, cols, offsets, match):
    with pytest.raises(ValueError, match=match):
        TameSignature(SignatureType(r), cols, offsets)


def test_canonical_signature_is_bit_pattern():
    # identity map, zero offsets: evaluating x yields the bits of x
    n = 9
    t = SignatureType((8, 8, 8))
    ident = tuple(1 << i for i in range(n))
    blocks = tuple(tuple(j << shift for j in range(8)) for shift in (0, 3, 6))
    sig = TameSignature(t, ident, (0, 0, 0))
    assert sig.blocks == blocks
    for x in range(512):
        assert evaluate_tame(sig, x) == x
        assert factor_tame(sig, x) == x


def test_tame_round_trip_exhaustive():
    rng = random.Random(7)
    for n, t in (
        (3, T222),
        (3, SignatureType((8,))),
        (5, SignatureType((4, 8))),
        (7, SignatureType((4, 4, 8))),
        (9, SignatureType((8, 8, 8))),
    ):
        for _ in range(10):
            sig = gen_tame(n, t, rng)
            values = set()
            for x in range(1 << n):
                v = evaluate_tame(sig, x)
                values.add(v)
                assert factor_tame(sig, v) == x
            assert len(values) == 1 << n  # evaluation is a bijection


@pytest.mark.parametrize(
    "n, r", [(7, (2, 16, 4)), (5, (2,) * 5), (3, (8,)), (9, (32, 2, 8))]
)
def test_tame_entries_match_oracle(n, r):
    # entry j of block i is the map applied to j * m_i, plus the offset
    t = SignatureType(r)
    rng = random.Random(n)
    for _ in range(5):
        sig = gen_tame(n, t, rng)
        expected = tuple(
            tuple(oracle.gf2_apply(sig.lin_cols, j * mi) ^ d for j in range(ri))
            for ri, mi, d in zip(r, t.weights, sig.offsets)
        )
        assert sig.blocks == expected
        for x in range(1 << n):
            assert factor_tame(sig, evaluate_tame(sig, x)) == x


def test_evaluate_offsets_only():
    rng = random.Random(8)
    sig = gen_tame(9, SignatureType((8, 8, 8)), rng)
    total = 0
    for d in sig.offsets:
        total ^= d
    assert evaluate_tame(sig, 0) == total
    assert factor_tame(sig, total) == 0


def test_evaluate_linearity():
    # evaluate(x) = L(bits of x) + sum of offsets, for every x
    rng = random.Random(9)
    sig = gen_tame(9, SignatureType((4, 4, 4, 8)), rng)
    total = 0
    for d in sig.offsets:
        total ^= d
    for x in range(512):
        assert evaluate_tame(sig, x) == oracle.gf2_apply(sig.lin_cols, x) ^ total


def test_embedded_covers_track_signature():
    rng = random.Random(11)
    sig = gen_tame(3, T222, rng)

    def embed(entry):
        return Cover(sig.type, tuple(tuple(map(entry, blk)) for blk in sig.blocks))

    bcover = embed(lambda b: GroupElement(1, b, 0))
    ccover = embed(lambda b: GroupElement(1, 0, b))
    for x in range(8):
        v = evaluate_tame(sig, x)
        assert induced_map(G3, bcover, x).b == v
        assert induced_map(G3, ccover, x).c == v
        assert induced_map(G3, ccover, x) == GroupElement(1, 0, v)


@given(st.integers(0, 511), st.integers(0, 2**30))
@settings(max_examples=50)
def test_tame_round_trip_hypothesis(x, seed):
    sig = gen_tame(9, SignatureType((4, 4, 4, 8)), random.Random(seed))
    assert factor_tame(sig, evaluate_tame(sig, x)) == x
