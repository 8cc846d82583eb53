"""What the test modules share: the n=3 field and group, the fields of the
differential tests, keys by seed, structured gamma covers, and the
counting field and group."""

import random
from collections import Counter

from mst3sz.field import FieldParams, make_params
from mst3sz.group import GroupElement, SuzukiGroup
from mst3sz.logsig import Cover, SignatureType
from mst3sz.scheme import keygen

P3 = make_params(3)
G3 = SuzukiGroup(P3)
T222 = SignatureType((2, 2, 2))

# Non-published moduli, on the byte tables at every width as only the
# published ones get log/exp tables: sparse x^17+x^5+1 and x^65+x^18+1, and
# dense random irreducible ones with bit n-1 set, as an untrusted key header
# may carry.
EXTRA_MODULI = [
    (17, 0x20021),
    (65, 1 << 65 | 1 << 18 | 1),
    (17, 0x36A07),
    (65, 0x322A2D550DBD0CE07),
    (127, 0xEB2F3AEF4C97F28B3A0A5295687ADEF7),
]
WIDTHS = range(3, 128, 2)  # every width the cryptosystem uses
DIFFERENTIAL_FIELDS = [(n, None) for n in WIDTHS] + EXTRA_MODULI


def make_key(seed, n=3):
    params = make_params(n)
    return params, keygen(params, rng=random.Random(seed))


def structured_gammas(params, t, rng):
    """Gamma covers of type t that keygen could not make: random entries
    that share only one a per gamma1 block and one (a, b) per gamma2
    block."""

    def block(r, k):
        a, b = params.random_nonzero(rng), params.random_element(rng)
        return tuple(
            GroupElement(a, b if k == 2 else params.random_element(rng), params.random_element(rng))
            for _ in range(r)
        )

    return Cover(t, tuple(block(r, 1) for r in t.r)), Cover(t, tuple(block(r, 2) for r in t.r))


def _counting(cls, name, **counts):
    """cls's method ``name``, adding ``counts`` to the instance's calls."""
    method = getattr(cls, name)

    def counted(self, *args):
        self.calls.update(counts)
        return method(self, *args)

    return counted


class CountingField(FieldParams):
    """FieldParams that counts in ``calls`` its multiplies ("mul": a
    ``dot2`` makes 2, a ``mul3`` 3 and a ``product`` 1), its ``dot2``s,
    its reductions ("fold": ``fold`` and each of mul's, dot2's and mul3's
    off the log/exp tables, where they all reduce by ``_fold``; on the
    tables ``fold`` reduces nothing), Frobenius maps and inverses."""

    def __init__(self, n: int):
        super().__init__(n)
        self.calls = Counter()

    mul = _counting(FieldParams, "mul", mul=1)
    dot2 = _counting(FieldParams, "dot2", mul=2, dot2=1)
    mul3 = _counting(FieldParams, "mul3", mul=3)
    product = _counting(FieldParams, "product", mul=1)
    _fold = _counting(FieldParams, "_fold", fold=1)
    frob_pow = _counting(FieldParams, "frob_pow", frob=1)
    inv = _counting(FieldParams, "inv", inv=1)


class CountingGroup(SuzukiGroup):
    """SuzukiGroup that counts its whole-element multiplies in ``calls`` and
    keeps every element it inverts in ``inverted``."""

    def __init__(self, params):
        super().__init__(params)
        self.calls = Counter()
        self.inverted = []

    mul = _counting(SuzukiGroup, "mul", mul=1)

    def inv(self, g):
        self.inverted.append(g)
        return SuzukiGroup.inv(self, g)
