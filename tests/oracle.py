"""Independent reference arithmetic for cross-checking the library.

Everything here works on plain ints/tuples and avoids the library's code
paths: multiplication forms the whole carry-less product before one long
division, exponentiation is generic square-and-multiply, and the group law
is evaluated directly from its defining formula on coordinate tuples.
GF(2) rank comes from a basis keyed on each vector's top bit, not from
elimination.
"""


def mul(a: int, b: int, modulus: int) -> int:
    """Schoolbook polynomial multiply, then long-division reduction."""
    prod = 0
    shift = 0
    while b:
        if b & 1:
            prod ^= a << shift
        b >>= 1
        shift += 1
    dm = modulus.bit_length() - 1
    while prod.bit_length() - 1 >= dm:
        prod ^= modulus << (prod.bit_length() - 1 - dm)
    return prod


def pow_(a: int, e: int, modulus: int) -> int:
    r = 1
    while e:
        if e & 1:
            r = mul(r, a, modulus)
        a = mul(a, a, modulus)
        e >>= 1
    return r


def inv(a: int, modulus: int) -> int:
    """Inverse by exhaustive search (small fields) or a^(q-2)."""
    n = modulus.bit_length() - 1
    q = 1 << n
    if q <= 512:
        for u in range(1, q):
            if mul(a, u, modulus) == 1:
                return u
        raise ZeroDivisionError
    return pow_(a, q - 2, modulus)


def gmul(params, g1: tuple, g2: tuple) -> tuple:
    """The triple product formula on coordinate tuples."""
    mod = params.modulus
    e = 2 * params.q0  # 2^(s+1)
    a1, b1, c1 = g1
    a2, b2, c2 = g2
    return (
        mul(a1, a2, mod),
        mul(a2, b1, mod) ^ b2,
        mul(pow_(a2, e + 1, mod), c1, mod)
        ^ mul(mul(a2, pow_(b2, e, mod), mod), b1, mod)
        ^ c2,
    )


def log_exp_tables(modulus: int) -> tuple[list, list]:
    """(exp + exp, log) of the first generator g = 2, 3, ...: the walk of
    its powers by schoolbook multiplies, and the index of each element."""
    q = 1 << modulus.bit_length() - 1
    for g in range(2, q):
        exp = [1]
        v = g
        while v != 1:
            exp.append(v)
            v = mul(v, g, modulus)
        if len(exp) == q - 1:
            break
    log = [0] * q
    for i, v in enumerate(exp):
        log[v] = i
    return exp + exp, log


def ginv(params, g: tuple) -> tuple:
    mod = params.modulus
    e = 2 * params.q0
    a, b, c = g
    ai = inv(a, mod)
    t = mul(ai, b, mod)
    return (ai, t, pow_(t, e + 1, mod) ^ mul(pow_(ai, e + 1, mod), c, mod))


def point_map(params, g: tuple, p: tuple) -> tuple:
    """g's affine map on the point p = (x, y): x -> a*x + b,
    y -> a^(2q0+1)*y + a*b^(2q0)*x + c, from the formula."""
    mod = params.modulus
    e = 2 * params.q0
    a, b, c = g
    x, y = p
    return (
        mul(a, x, mod) ^ b,
        mul(pow_(a, e + 1, mod), y, mod) ^ mul(mul(a, pow_(b, e, mod), mod), x, mod) ^ c,
    )


def gprod(params, gs) -> tuple:
    acc = (1, 0, 0)
    for g in gs:
        acc = gmul(params, acc, g)
    return acc


def digits_of(x: int, sizes) -> list:
    out = []
    for r in sizes:
        out.append(x % r)
        x //= r
    return out


def index_of(digits, sizes) -> int:
    """Mixed-radix encode, the inverse of digits_of: Horner's rule from the
    most significant digit."""
    x = 0
    for j, r in zip(reversed(digits), reversed(sizes)):
        x = x * r + j
    return x


def cover_product(params, blocks, x: int) -> tuple:
    """Induced mapping: one entry per block, multiplied left to right."""
    sizes = [len(b) for b in blocks]
    sel = [blocks[i][j] for i, j in enumerate(digits_of(x, sizes))]
    return gprod(params, sel)


def as_tuple(g) -> tuple:
    return (g[0], g[1], g[2])


def encrypt(params, pk, m: tuple, r1: int, r2: int) -> tuple:
    """Full-pipeline reference encryption on tuples; returns (y1, y2, y3, y4)."""
    a1 = [[as_tuple(g) for g in blk] for blk in pk.alpha1.blocks]
    a2 = [[as_tuple(g) for g in blk] for blk in pk.alpha2.blocks]
    g1 = [[as_tuple(g) for g in blk] for blk in pk.gamma1.blocks]
    g2 = [[as_tuple(g) for g in blk] for blk in pk.gamma2.blocks]
    y1 = gmul(params, gmul(params, cover_product(params, a1, r1),
                           cover_product(params, a2, r2)), m)
    y2 = gmul(params, cover_product(params, g1, r1),
              cover_product(params, g2, r2))
    f1 = [[(1, g[0], g[1]) for g in blk] for blk in a1]
    f2 = [[(1, 0, g[1]) for g in blk] for blk in a2]
    y3 = cover_product(params, f1, r1)
    y4 = cover_product(params, f2, r2)
    return y1, y2, y3, y4


def gf2_apply(cols, x: int) -> int:
    """The GF(2)-linear map with these basis-image columns, applied to x."""
    out = 0
    for i, col in enumerate(cols):
        if x >> i & 1:
            out ^= col
    return out


def gf2_rank(cols) -> int:
    """Rank over GF(2): reduce each column by a basis keyed on its top bit."""
    basis = {}
    for v in cols:
        while v:
            top = v.bit_length() - 1
            if top not in basis:
                basis[top] = v
                break
            v ^= basis[top]
    return len(basis)


def le_elements(data: bytes, size: int) -> list:
    """The size-byte little-endian integers that data holds, one from_bytes each."""
    return [int.from_bytes(data[i : i + size], "little") for i in range(0, len(data), size)]
