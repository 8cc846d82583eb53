"""Command-line interface.

Subcommands: params, keygen, encrypt, decrypt, attack, report, selftest,
bench.  Exit codes: 0 ok, 1 usage error, 2 crypto/file error.  Private key
bytes are never written to the terminal unless --unsafe-dump is given.
"""

from __future__ import annotations

import argparse
import base64
import binascii
import dataclasses
import json
import random
import statistics
import sys
import time
import traceback
from itertools import product
from pathlib import Path

from . import attacks, codec, scheme
from .field import _mul_mod, make_params
from .group import IDENTITY, GroupElement, SuzukiGroup
from .logsig import (
    SignatureType,
    covering_type,
    evaluate_tame,
    factor_tame,
    gen_tame,
)

BENCH_WIDTHS = (33, 63, 65)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _rng(seed: int | None):
    return random.Random(seed) if seed is not None else random.SystemRandom()


def _parse_type(text: str) -> SignatureType:
    try:
        return SignatureType(tuple(int(x) for x in text.split(",")))
    except ValueError as e:
        raise _UsageError(f"bad type {text!r}: {e}") from None


def _decode_armor(data: bytes, args) -> bytes:
    try:
        if args.base64:
            return base64.b64decode(data.strip(), validate=True)
        if args.hex:
            return binascii.unhexlify(data.strip())
    except ValueError as e:  # binascii.Error is one
        raise codec.CodecError(f"bad armor: {e}") from None
    return data


def _encode_armor(data: bytes, args) -> bytes:
    if args.base64:
        return base64.b64encode(data) + b"\n"
    if args.hex:
        return binascii.hexlify(data) + b"\n"
    return data


def _cmd_params(args) -> int:
    p = make_params(args.n)
    info = {"n": p.n, "s": p.s, "q0": p.q0, "q": p.q, "modulus": hex(p.modulus)}
    print(json.dumps(info | dataclasses.asdict(SuzukiGroup(p).stats()), indent=2))
    return 0


def _cmd_keygen(args) -> int:
    p = make_params(args.n)
    pk, sk = scheme.keygen(p, args.type1, args.type2, rng=_rng(args.seed))
    pub = codec.serialize_public_key(pk)
    priv = codec.serialize_private_key(sk)
    Path(args.pub).write_bytes(pub)
    Path(args.priv).write_bytes(priv)
    summary = {
        "n": p.n,
        "type1": list(pk.type1.r),
        "type2": list(pk.type2.r),
        "public_key_bytes": len(pub),
        "private_key_bytes": len(priv),
        "pub": args.pub,
        "priv": args.priv,
    }
    if args.unsafe_dump:
        summary["private_key_hex"] = priv.hex()
    print(json.dumps(summary, indent=2))
    return 0


def _cmd_encrypt(args) -> int:
    pk = codec.parse_public_key(Path(args.pub).read_bytes())
    params = pk.group.params
    payload = Path(args.infile).read_bytes()
    m = scheme.encode_message(params, payload)
    nonce = scheme.random_nonce(params, _rng(args.seed))
    ct = scheme.encrypt(pk, m, nonce)
    Path(args.out).write_bytes(_encode_armor(codec.serialize_ciphertext(params, ct), args))
    return 0


def _read_ciphertext(path: str, args, pk) -> scheme.Ciphertext:
    """De-armor and parse a ciphertext file made under pk's width."""
    n, ct = codec.parse_ciphertext(_decode_armor(Path(path).read_bytes(), args))
    if n != pk.group.params.n:
        raise codec.CodecError("ciphertext was made for different parameters")
    return ct


def _cmd_decrypt(args) -> int:
    pk = codec.parse_public_key(Path(args.pub).read_bytes())
    sk = codec.parse_private_key(Path(args.priv).read_bytes())
    ct = _read_ciphertext(args.infile, args, pk)
    m = scheme.decrypt(pk, sk, ct)
    Path(args.out).write_bytes(scheme.decode_message(pk.group.params, m))
    return 0


def _cmd_attack(args) -> int:
    pk = codec.parse_public_key(Path(args.pub).read_bytes())
    ct = _read_ciphertext(args.ct, args, pk)
    run = {
        1: attacks.attack1_bruteforce_ciphertext,
        2: attacks.attack2_bruteforce_nonce,
        3: attacks.attack3_session_key,
    }[args.number]
    start = time.perf_counter()
    result = run(pk, ct)
    elapsed = (time.perf_counter() - start) * 1000.0
    print(
        json.dumps(
            {
                "attack": args.number,
                "n": pk.group.params.n,
                "trials": result.trials,
                "success": result.success,
                "elapsed_ms": round(elapsed, 3),
            }
        )
    )
    return 0


def _cmd_report(args) -> int:
    p = make_params(args.n)
    t = covering_type(p.n)
    print(
        json.dumps(
            {
                "n": p.n,
                "q": p.q,
                "complexity": attacks.complexity_report(p),
                "storage": codec.storage_report(p, t, t),
            },
            indent=2,
        )
    )
    return 0


def _cmd_bench(args) -> int:
    if args.iters < 1:
        raise _UsageError("--iters must be >= 1")
    try:
        widths = tuple(map(int, args.sizes.split(","))) if args.sizes else BENCH_WIDTHS
    except ValueError as e:
        raise _UsageError(f"bad --sizes {args.sizes!r}: {e}") from None
    fields = []
    for n in widths:  # every width is checked before anything is timed
        try:
            fields.append(make_params(n))
        except ValueError as e:
            raise _UsageError(f"bad --sizes width {n}: {e}") from None
    rng = random.Random(0xBE)
    rows = []
    for p in fields:
        n = p.n
        times_kg = []
        for _ in range(args.iters):
            t0 = time.perf_counter()
            pk, sk = scheme.keygen(p, rng=rng)
            times_kg.append(time.perf_counter() - t0)
        payload = bytes(rng.getrandbits(8) for _ in range(scheme.max_payload_bytes(n)))
        m = scheme.encode_message(p, payload)
        times_enc, times_dec = [], []
        for _ in range(args.iters):
            nonce = scheme.random_nonce(p, rng)
            t0 = time.perf_counter()
            ct = scheme.encrypt(pk, m, nonce)
            times_enc.append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            out = scheme.decrypt(pk, sk, ct)
            times_dec.append(time.perf_counter() - t0)
            if out != m:
                raise RuntimeError("bench round trip failed")
        rows.append(
            {
                "n": n,
                "iters": args.iters,
                "keygen_ms_median": round(statistics.median(times_kg) * 1000, 3),
                "encrypt_ms_median": round(statistics.median(times_enc) * 1000, 3),
                "decrypt_ms_median": round(statistics.median(times_dec) * 1000, 3),
                "public_key_bytes": len(codec.serialize_public_key(pk)),
                "private_key_bytes": len(codec.serialize_private_key(sk)),
                "ciphertext_bytes": codec.ciphertext_size(n),
            }
        )
    print(json.dumps(rows, indent=2))
    return 0


# -- selftest ---------------------------------------------------------------


def _selftest_checks():
    p = make_params(3)
    G = SuzukiGroup(p)
    rng = random.Random(0x5E1F)

    def field_routes():
        # both routes against shift-and-add: the log/exp tables on every
        # n=3 pair, and n=19, the smallest width without them, on 20 pairs
        p19, r19 = make_params(19), random.Random(19)
        pairs19 = ((p19.random_element(r19), p19.random_element(r19)) for _ in range(20))
        for f, pairs in ((p, product(range(8), repeat=2)), (p19, pairs19)):
            m, q = f.modulus, f.q
            for a, b in pairs:
                ab = _mul_mod(a, b, m, q)
                assert f.mul(a, b) == ab
                v = a
                for _ in range(f.s + 1):
                    v = _mul_mod(v, v, m, q)
                assert f.pow_2q0(a) == v
                av = _mul_mod(v, a, m, q)
                assert f.pow_2q0_plus_1(a) == av
                assert f.dot2(a, b, v, a) == ab ^ av
                # q - 1, all ones, fills mul3's top lane to its last bit
                assert f.mul3(a, b, v, q - 1) == (ab, av, _mul_mod(a, q - 1, m, q))
                assert a == 0 or f.mul(a, f.inv(a)) == 1

    def enumeration():
        els = list(G.elements())
        assert len(els) == 448 == G.stats().group_order
        assert sum(G.in_center(g) for g in els) == 8 == G.stats().center_order

    def group_laws():
        for g in G.elements():
            assert G.mul(g, IDENTITY) == G.mul(IDENTITY, g) == g
            assert G.mul(g, G.inv(g)) == IDENTITY

    def f2_homomorphism():
        us = [GroupElement(1, b, c) for b in range(8) for c in range(8)]
        for u1 in us:
            for u2 in us:
                prod = G.mul(u1, u2)
                assert G.f2(prod) == G.mul(G.f2(u1), G.f2(u2))
                assert prod.b == u1.b ^ u2.b
        # the u-factor law against the G.mul fold, from general starts: the
        # alpha entry (u1.b, u1.c, 0) has f1 image u1, and beta is u2.b
        memo = scheme.Memo(p.pow_2q0)
        for g in G.elements():
            for u1, u2 in zip(us[::9], us[::-7]):
                fold = G.mul(G.mul(g, u1), GroupElement(1, u2.b, 0))
                pairs = (((u1.b, u1.c, 0), u2.b),)
                assert (g.a, *scheme._u_walk(p, g.b, g.c, pairs, memo, memo)) == fold

    def tame_round_trip():
        t = SignatureType((2, 2, 2))
        for _ in range(5):
            sig = gen_tame(3, t, rng)
            for x in range(8):
                assert factor_tame(sig, evaluate_tame(sig, x)) == x

    def scheme_round_trip():
        for _ in range(2):
            pk, sk = scheme.keygen(p, rng=rng)
            for r1 in range(8):
                for r2 in range(8):
                    m = G.random_element(rng)
                    ct = scheme.encrypt(pk, m, scheme.SessionNonce(r1, r2))
                    assert scheme.decrypt(pk, sk, ct) == m

    def file_round_trip():
        pk, sk = scheme.keygen(p, rng=rng)
        assert codec.parse_public_key(codec.serialize_public_key(pk)) == pk
        assert codec.parse_private_key(codec.serialize_private_key(sk)) == sk
        m = G.random_element(rng)
        ct = scheme.encrypt(pk, m, scheme.random_nonce(p, rng))
        blob = codec.serialize_ciphertext(p, ct)
        assert codec.parse_ciphertext(blob) == (3, ct)
        assert len(blob) == codec.ciphertext_size(3)

    return [
        ("field arithmetic routes agree", field_routes),
        ("element and center counts", enumeration),
        ("identity and inverse laws", group_laws),
        ("f2 homomorphism on (1,b,c) pairs", f2_homomorphism),
        ("tame signature round trip", tame_round_trip),
        ("encrypt/decrypt all nonces", scheme_round_trip),
        ("file formats round trip", file_round_trip),
    ]


def _cmd_selftest(args) -> int:
    failed = 0
    for name, check in _selftest_checks():
        try:
            check()
        except Exception:  # a crashing check fails like a false assertion
            failed += 1
            print(f"FAIL {name}")
            traceback.print_exc()
        else:
            print(f"ok   {name}")
    if failed:
        print(f"{failed} selftest check(s) failed", file=sys.stderr)
        return 2
    return 0


# -- parser -----------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(prog="mst3sz", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("params", help="print field and group parameters")
    sp.add_argument("n", type=int)
    sp.set_defaults(func=_cmd_params)

    sp = sub.add_parser("keygen", help="generate a keypair")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument(
        "--type1", type=_parse_type, help="comma-separated block sizes, e.g. 4,4,8"
    )
    sp.add_argument("--type2", type=_parse_type)
    sp.add_argument("--pub", required=True, help="output path for the public key")
    sp.add_argument("--priv", required=True, help="output path for the private key")
    sp.add_argument("--seed", type=int, help="deterministic keygen (testing only)")
    sp.add_argument(
        "--unsafe-dump",
        action="store_true",
        help="also print the private key as hex",
    )
    sp.set_defaults(func=_cmd_keygen)

    for name, fn in (("encrypt", _cmd_encrypt), ("decrypt", _cmd_decrypt)):
        sp = sub.add_parser(name, help=f"{name} one message block")
        sp.add_argument("--pub", required=True)
        if name == "decrypt":
            sp.add_argument("--priv", required=True)
        sp.add_argument("--in", dest="infile", required=True)
        sp.add_argument("--out", required=True)
        fmt = sp.add_mutually_exclusive_group()
        fmt.add_argument("--hex", action="store_true", help="hex ciphertext file")
        fmt.add_argument(
            "--base64", action="store_true", help="base64 ciphertext file"
        )
        if name == "encrypt":
            sp.add_argument("--seed", type=int, help="deterministic nonce (testing only)")
        sp.set_defaults(func=fn)

    sp = sub.add_parser("attack", help="run a brute-force oracle on a ciphertext")
    sp.add_argument("number", type=int, choices=(1, 2, 3))
    sp.add_argument("--pub", required=True)
    sp.add_argument("--ct", required=True)
    fmt = sp.add_mutually_exclusive_group()
    fmt.add_argument("--hex", action="store_true")
    fmt.add_argument("--base64", action="store_true")
    sp.set_defaults(func=_cmd_attack)

    sp = sub.add_parser("report", help="attack complexities and storage sizes")
    sp.add_argument("--n", type=int, required=True)
    sp.set_defaults(func=_cmd_report)

    sp = sub.add_parser("selftest", help="run the exhaustive desk-scale checks")
    sp.set_defaults(func=_cmd_selftest)

    sp = sub.add_parser("bench", help="time keygen/encrypt/decrypt")
    sp.add_argument("--sizes", help=f"widths to bench (default {BENCH_WIDTHS})")
    sp.add_argument(
        "--iters",
        type=int,
        default=100,
        help="iterations per median; below 100 is a smoke run",
    )
    sp.set_defaults(func=_cmd_bench)

    return parser


def cli(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except SystemExit as e:  # argparse --help
        return int(e.code or 0)
    except (ValueError, OSError) as e:  # CodecError and CiphertextError are ValueErrors
        print(f"error: {e}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli())


if __name__ == "__main__":
    main()
