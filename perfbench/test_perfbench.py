"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys

import pytest

import run

run.add_program_path()

import tracing  # noqa: E402
import workloads  # noqa: E402
from mst3sz import (  # noqa: E402
    FieldParams,
    SuzukiGroup,
    codec,
    decrypt,
    encode_message,
    encrypt,
    keygen,
    random_nonce,
)

CONTRACT = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("n", [5, 17, 65])
def test_traced_classes_give_the_plain_results(n):
    tracer = tracing.Tracer(n)
    field, plain = tracer.field(), FieldParams(n)
    rng = random.Random(n)
    for _ in range(200):
        a, b = rng.getrandbits(n), rng.getrandbits(n) | 1
        assert field.mul(a, b) == plain.mul(a, b)
        assert field.inv(b) == plain.inv(b)
        assert field.frob_pow(a, 3) == plain.frob_pow(a, 3)
        assert field.pow_2q0_plus_1(a) == plain.pow_2q0_plus_1(a)
    group, plain_group = tracing.TracedGroup(field), SuzukiGroup(plain)
    for _ in range(50):
        g, h = plain_group.random_element(rng), plain_group.random_element(rng)
        assert group.mul(g, h) == plain_group.mul(g, h)
        assert group.inv(g) == plain_group.inv(g)

    pk, sk = keygen(field, rng=random.Random(1))
    plain_pk, plain_sk = keygen(plain, rng=random.Random(1))
    assert codec.serialize_public_key(pk) == codec.serialize_public_key(plain_pk)
    assert codec.serialize_private_key(sk) == codec.serialize_private_key(plain_sk)
    pk, sk = tracer.adopt(pk), tracer.adopt(sk)
    m = encode_message(plain, b"")
    nonce = random_nonce(plain, rng)
    ct = encrypt(pk, m, nonce)
    assert ct == encrypt(plain_pk, m, nonce)
    assert decrypt(pk, sk, ct) == decrypt(plain_pk, plain_sk, ct) == m
    assert tracer.calls["field.mul"] and tracer.calls["group.mul"]


def test_spans_attribute_self_time_and_counts():
    tracer = tracing.Tracer(5)
    pk, sk = (tracer.adopt(k) for k in keygen(tracer.field(), rng=random.Random(2)))
    m = encode_message(pk.group.params, b"")
    tracer.op_id = 7
    with tracer.span("op"):
        with tracer.span("scheme.encrypt"):
            encrypt(pk, m, random_nonce(pk.group.params, random.Random(3)))
    inner, outer = tracer.inclusive()
    assert (inner.name, outer.name) == ("scheme.encrypt", "op")
    assert inner.parent == outer.id and inner.op_id == outer.op_id == 7
    assert outer.counts == inner.counts and inner.counts["group.mul"] > 0
    layers = inner.self_ns
    assert set(layers) == {"scheme", "group", "field"}
    assert sum(layers.values()) <= inner.end - inner.start


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run_reports_every_metric(name, trace):
    report = run.run(workloads.WORKLOADS[name], seed=5, seconds=0.1, trace=trace)
    assert report["correct"] and report["failed"] == 0
    wanted = CONTRACT["per_layer" if trace else "end_to_end"]
    assert set(report["contract"]["metrics"]) == {w["name"] for w in wanted}
    metrics = report["metrics"]
    assert metrics["failed_ratio"]["value"] == 0
    if trace:
        for kind in ("keygen", "encrypt", "decrypt"):
            counted = metrics[f"field.mul_calls.{kind}"]
            assert counted["min"] == counted["max"] > 0
        assert metrics["codec.rejected"]["value"] == 0
        if name == "attack-5":
            assert metrics["attacks.success_ratio"]["value"] == 1.0


class WrongExpectation(workloads.Attack):
    def expected(self, inp):
        return (True, True, True, b"not the payload")


def test_a_wrong_output_fails_the_run(capsys):
    code = run.main(
        ["--workload", "attack-5", "--seed", "1", "--seconds", "0.1"],
        workloads={"attack-5": WrongExpectation()},
    )
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0
    assert not last["correct"] and last["failed"] == last["attempted"] - 2


def test_gates_reject_wrong_answers():
    assert workloads.known_answer_ok() and workloads.n65_digest_ok()
    assert not workloads.known_answer_ok("00" * 18)
    assert not workloads.n65_digest_ok("0" * 64)


def test_no_result_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, *CONTRACT["command"][1:], "--workload", "attack-5",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0 and done.stdout == ""
