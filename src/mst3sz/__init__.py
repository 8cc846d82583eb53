"""Public-key encryption over the Suzuki-curve automorphism triples, with
tame logarithmic signatures on two group coordinates and desk-scale
brute-force oracles.

Research artifact: nothing is constant-time and no integrity protection is
applied to ciphertexts.  Do not use for real data.
"""

from .field import FieldParams, IRREDUCIBLE, make_params
from .group import GroupElement, GroupStats, SuzukiGroup
from .logsig import (
    Cover,
    SignatureType,
    TameSignature,
    covering_type,
    evaluate_tame,
    factor_tame,
    gen_random_cover,
    gen_tame,
    induced_map,
    tau_inv,
)
from .scheme import (
    Ciphertext,
    CiphertextError,
    PrivateKey,
    PublicKey,
    SessionNonce,
    decode_message,
    decrypt,
    encode_message,
    encrypt,
    keygen,
    max_payload_bytes,
    random_nonce,
    recover_nonce,
)
from .attacks import (
    AttackResult,
    attack1_bruteforce_ciphertext,
    attack2_bruteforce_nonce,
    attack3_session_key,
    complexity_report,
)
from .codec import (
    CodecError,
    ciphertext_size,
    parse_ciphertext,
    parse_private_key,
    parse_public_key,
    serialize_ciphertext,
    serialize_private_key,
    serialize_public_key,
    storage_report,
)

__version__ = "0.1.0"
