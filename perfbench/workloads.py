"""The benchmark's workloads and its known-answer gates.

Every workload is a closed loop with one client: each op starts after the
previous one returns, as a library caller or the ``mst3sz`` CLI does.
Inputs come from the seed only: one ``random.Random`` draws the payloads
and nonces in op order, another is handed to ``keygen``.  Replaying a
seed therefore replays the same keys, nonces and payloads, which is what
lets the traced run compare its outputs with the untraced run's.

An op returns ``(record, check)``.  ``check`` must equal
``expected(inputs)``; ``record`` is the output the traced and untraced
runs must agree on.  Spans name the call they wrap; the headline span of
each workload is its ``headline`` attribute.
"""

from __future__ import annotations

import hashlib
import random
from typing import NamedTuple

from mst3sz import (
    GroupElement,
    SessionNonce,
    SignatureType,
    attack1_bruteforce_ciphertext,
    attack2_bruteforce_nonce,
    attack3_session_key,
    codec,
    decode_message,
    decrypt,
    encode_message,
    encrypt,
    keygen,
    make_params,
    max_payload_bytes,
)


class Inputs(NamedTuple):
    payload: bytes
    nonce: SessionNonce


class Workload:
    name: str
    n: int
    keys_every: int
    headline: str
    calibration: str  # tracing.KERNELS key: the host-speed kernel like this work

    def input_stream(self, seed: int):
        """Endless op inputs, the same sequence for the same seed."""
        rng = random.Random(f"{self.name}/{seed}/inputs")
        while True:
            payload = rng.randbytes(self.payload_len(rng))
            nonce = SessionNonce(rng.getrandbits(self.n), rng.getrandbits(self.n))
            yield Inputs(payload, nonce)

    def key_rng(self, seed: int) -> random.Random:
        return random.Random(f"{self.name}/{seed}/keys")

    def payload_len(self, rng) -> int:
        raise NotImplementedError

    def new_key(self, rec, rng):
        """Generate the next key pair, timed as ``scheme.keygen``."""
        with rec.span("scheme.keygen"):
            pk, sk = keygen(rec.field(), rng=rng)
        return rec.adopt(pk), rec.adopt(sk)

    def expected(self, inp: Inputs):
        return inp.payload

    def op(self, rec, key, inp: Inputs):
        raise NotImplementedError


class RoundTrip(Workload):
    """n=65, the 128-bit-style width: library round trips of 23-byte payloads.

    The shift-and-add multiply, the Frobenius maps, group.mul and
    induced_map do nearly all the work; no codec, no log/exp tables.
    """

    name = "roundtrip-65"
    n = 65
    keys_every = 16
    headline = "roundtrip"
    calibration = "arith"

    def payload_len(self, rng) -> int:
        return max_payload_bytes(self.n)

    def op(self, rec, key, inp):
        pk, sk = key
        params = pk.group.params
        with rec.span(self.headline):
            m = encode_message(params, inp.payload)
            with rec.span("scheme.encrypt"):
                ct = encrypt(pk, m, inp.nonce)
            with rec.span("scheme.decrypt"):
                out = decrypt(pk, sk, ct)
            got = decode_message(params, out)
        rec.keep("ciphertexts", (pk, sk, inp.nonce, ct))
        return ct, got


class Session(Workload):
    """n=17 sessions shaped like the CLI's encrypt and decrypt commands.

    Keys and ciphertexts go through bytes on every message, so codec
    parsing (with the trapdoor re-check) does most of the work, on the
    log/exp-table field.
    """

    name = "session-17"
    n = 17
    keys_every = 16
    headline = "session"
    calibration = "objects"

    def payload_len(self, rng) -> int:
        return rng.randint(0, max_payload_bytes(self.n))

    def new_key(self, rec, rng):
        pk, sk = super().new_key(rec, rng)
        with rec.span("codec.serialize_public_key"):
            pub = codec.serialize_public_key(pk)
        with rec.span("codec.serialize_private_key"):
            priv = codec.serialize_private_key(sk)
        return pub, priv

    def op(self, rec, key, inp):
        pub, priv = key
        with rec.span(self.headline):
            # mst3sz encrypt
            with rec.span("codec.parse_public_key"):
                pk = rec.adopt(codec.parse_public_key(pub))
            params = pk.group.params
            m = encode_message(params, inp.payload)
            with rec.span("scheme.encrypt"):
                ct = encrypt(pk, m, inp.nonce)
            with rec.span("codec.serialize_ciphertext"):
                blob = codec.serialize_ciphertext(params, ct)
            # mst3sz decrypt
            with rec.span("codec.parse_public_key"):
                pk = rec.adopt(codec.parse_public_key(pub))
            with rec.span("codec.parse_private_key"):
                sk = rec.adopt(codec.parse_private_key(priv))
            if pk.group != sk.group:
                raise codec.CodecError("public and private keys use different parameters")
            with rec.span("codec.parse_ciphertext"):
                n, ct2 = codec.parse_ciphertext(blob)
            if n != params.n:
                raise codec.CodecError("ciphertext was made for different parameters")
            with rec.span("scheme.decrypt"):
                out = decrypt(pk, sk, ct2)
            got = decode_message(params, out)
        rec.keep("ciphertexts", (pk, sk, inp.nonce, ct2))
        return blob, got


ATTACKS = (
    ("attacks.attack1", attack1_bruteforce_ciphertext),
    ("attacks.attack2", attack2_bruteforce_nonce),
    ("attacks.attack3", attack3_session_key),
)


class Attack(Workload):
    """n=5 brute-force attacks 1-3 on fresh ciphertexts of the empty payload.

    Cover walks and enumerated group products on the table field; no codec.
    The exact trial counts pin the enumeration order.
    """

    name = "attack-5"
    n = 5
    keys_every = 4
    headline = "attack"
    calibration = "objects"

    def payload_len(self, rng) -> int:
        return 0

    def expected(self, inp):
        # each attack verified: it succeeded on the nonce used, and attack 1
        # also on the message; decryption gives the empty payload back
        return (True, True, True, b"")

    def op(self, rec, key, inp):
        pk, sk = key
        params = pk.group.params
        m = encode_message(params, inp.payload)
        with rec.span("scheme.encrypt"):
            ct = encrypt(pk, m, inp.nonce)
        with rec.span("scheme.decrypt"):
            out = decrypt(pk, sk, ct)
        results = []
        with rec.span(self.headline):
            for name, run in ATTACKS:
                with rec.span(name):
                    results.append(run(pk, ct))
        rec.keep("ciphertexts", (pk, sk, inp.nonce, ct))
        r1, r2, r3 = results
        verified = (
            r1.success and r1.nonce == inp.nonce and r1.recovered == m,
            r2.success and r2.nonce == inp.nonce,
            r3.success and r3.nonce == inp.nonce,
        )
        record = (ct, tuple(r.trials for r in results), verified)
        return record, verified + (decode_message(params, out),)


WORKLOADS = {w.name: w for w in (RoundTrip(), Session(), Attack())}


# -- known-answer gates ------------------------------------------------------

# tests/test_scheme.py::test_known_answer_vector: key from Random(0xC0FFEE)
# with types (2,2,2), message (3,5,6), nonce (5,2), at n=3.
KAT_HEX = "4d535433535a430103010201060500070201"

# SHA-256 over the serialized key pair and ciphertext that n65_digest_ok()
# builds, recorded from the seed implementation.
N65_DIGEST = "5079d5cae7d739c0a3dbb81f114f274b35ecf580bd2593fb6cb17eae6658e72b"


def known_answer_ok(expected_hex: str = KAT_HEX) -> bool:
    params = make_params(3)
    t = SignatureType((2, 2, 2))
    pk, sk = keygen(params, t, t, rng=random.Random(0xC0FFEE))
    m = GroupElement(3, 5, 6)
    ct = encrypt(pk, m, SessionNonce(5, 2))
    blob = codec.serialize_ciphertext(params, ct)
    return blob.hex() == expected_hex and decrypt(pk, sk, ct) == m


def n65_digest_ok(expected: str = N65_DIGEST) -> bool:
    """A seeded n=65 key pair and ciphertext hash to ``expected`` and decrypt."""
    params = make_params(65)
    rng = random.Random("perfbench/n65-vector")
    pk, sk = keygen(params, rng=rng)
    payload = bytes(range(max_payload_bytes(65)))
    nonce = SessionNonce(rng.getrandbits(65), rng.getrandbits(65))
    ct = encrypt(pk, encode_message(params, payload), nonce)
    h = hashlib.sha256()
    h.update(codec.serialize_public_key(pk))
    h.update(codec.serialize_private_key(sk))
    h.update(codec.serialize_ciphertext(params, ct))
    round_trips = decode_message(params, decrypt(pk, sk, ct)) == payload
    return h.hexdigest() == expected and round_trips
