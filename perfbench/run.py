"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload roundtrip-65 --seed 1 --seconds 20 --trace 0

Workloads: roundtrip-65, session-17, attack-5, or all of them in turn
(see perfbench/README.md).
With ``--trace 0`` the run measures end-to-end metrics; with ``--trace 1``
it runs the workload untraced for half the time, replays the same inputs
traced, checks that both gave the same outputs, and reports per-layer
metrics.  Every line but the last is for people; the last line is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``,
whose metrics are those ``BENCHMARK.json`` lists for the mode.  The full
report (and, traced, the spans) is written under ``.perfbench_out/``.

Exit status: 0 when every op and gate was correct, 1 otherwise, 2 when
the program's source tree is missing (nothing is printed on stdout then).
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import os
import platform
import random
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter_ns as now

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUP_ROUNDS = 9     # setup_s is the median of this many set-ups
MIN_OPS = 100        # so every op_ms_p90 rests on at least 100 samples
EXACT_PREFIX = 16    # count metrics: mean over the first 16 ops, min/max over all
REPLAY_ITEMS = 8     # ciphertexts replayed per logsig/scheme/codec timing
REPLAY_REPS = 3
MAX_TRACEBACKS = 3


def add_program_path() -> None:
    """Import ``mst3sz`` from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "mst3sz" / "__init__.py").is_file():
        print(f"perfbench: program source not found under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import mst3sz

    if not Path(mst3sz.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: mst3sz imported from {mst3sz.__file__}", file=sys.stderr)
        raise SystemExit(2)


# -- metric helpers ------------------------------------------------------------


def metric(value, unit, samples=None, **extra) -> dict:
    out = {"value": value, "unit": unit}
    if samples is not None:
        out["samples"] = samples
    out.update(extra)
    return out


def p90(xs):
    return statistics.quantiles(xs, n=10)[-1]


def latency(metrics: dict, name: str, ns: list[float]) -> None:
    """``name_p50`` and, with at least 100 samples, ``name_p90``, in ms."""
    if not ns:
        return
    metrics[f"{name}_p50"] = metric(statistics.median(ns) / 1e6, "ms", len(ns))
    if len(ns) >= MIN_OPS:
        metrics[f"{name}_p90"] = metric(p90(ns) / 1e6, "ms", len(ns))


UNIT_NS = {"ms": 1e6, "us": 1e3}


def median_metric(ns: list[float], unit: str) -> dict:
    return metric(statistics.median(ns) / UNIT_NS[unit], unit, len(ns))


def count_metric(values: list[int], unit: str = "count") -> dict:
    """Mean over the first EXACT_PREFIX ops (exact under the seed)."""
    head = values[:EXACT_PREFIX]
    return metric(
        sum(head) / len(head), unit, len(values), min=min(values), max=max(values)
    )


# -- the run ---------------------------------------------------------------------


@dataclasses.dataclass
class Phase:
    records: list
    attempted: int = 0
    failed: int = 0
    elapsed_ns: int = 0        # loop time, calibration excluded
    nominal_ns: float = 0.0    # the same at nominal host speed

    @property
    def ops_per_s(self) -> float:
        return (self.attempted - self.failed) / (self.nominal_ns / 1e9)

    @property
    def raw_ops_per_s(self) -> float:
        return (self.attempted - self.failed) / (self.elapsed_ns / 1e9)


def report_failure(phase: Phase, i: int, what: str) -> None:
    phase.failed += 1
    if phase.failed <= MAX_TRACEBACKS:
        print(f"perfbench: op {i} failed: {what}", file=sys.stderr)


def measure(wl, rec, clock, key, key_rng, inputs, *, seconds, ops=None,
            keep=True) -> Phase:
    """Closed loop: ops until ``seconds`` have passed (and MIN_OPS are done),
    stopping early after ``ops`` ops when that is given.

    ``keep`` keeps each op's output for comparison; the untraced run does
    not, so that its heap, and the garbage collector's work, stay flat.
    """
    phase = Phase(records=[])
    deadline = now() + int(seconds * 1e9)
    i = 0
    while (ops is None or i < ops) and (i < MIN_OPS or now() < deadline):
        rec.scale = clock.tick()
        start = now()
        rec.op_id = i
        inp = next(inputs)
        phase.attempted += 1
        record = None
        try:
            if key is None or (i and i % wl.keys_every == 0):
                key = wl.new_key(rec, key_rng)
            record, check = wl.op(rec, key, inp)
        except Exception:
            report_failure(phase, i, traceback.format_exc())
        else:
            if check != wl.expected(inp):
                report_failure(phase, i, f"got {check!r}, expected {wl.expected(inp)!r}")
        if keep:
            phase.records.append(record)
        i += 1
        took = now() - start
        phase.elapsed_ns += took
        phase.nominal_ns += took * rec.scale
    rec.op_id = None
    return phase


def setup(wl, seed, clock):
    """SETUP_ROUNDS cold set-ups: field build plus the first key.

    Returns the last key and its rng, each round's time at nominal host
    speed, and each round's raw field-build time.
    """
    from mst3sz import make_params
    from tracing import Recorder

    totals, builds = [], []
    key = key_rng = None
    for _ in range(SETUP_ROUNDS):
        key = None
        scale = clock.calibrate()
        make_params.cache_clear()
        t0 = now()
        make_params(wl.n).pow_2q0(2)  # the first pow_2q0 builds the Frobenius map
        t1 = now()
        key_rng = wl.key_rng(seed)
        key = wl.new_key(Recorder(wl.n), key_rng)
        totals.append((now() - t0) * scale)
        builds.append(t1 - t0)
    return key, key_rng, totals, builds


def end_to_end(wl, rec, clock, phase: Phase, setups: list[float]) -> dict:
    s = rec.samples
    m = {"setup_s": metric(statistics.median(setups) / 1e9, "s", len(setups))}
    m["ops_per_s"] = metric(phase.ops_per_s, "1/s", phase.attempted - phase.failed)
    latency(m, "op_ms", s[wl.headline])
    latency(m, f"{wl.headline}_ms", s[wl.headline])
    latency(m, "keygen_ms", s["scheme.keygen"])
    latency(m, "encrypt_ms", s["scheme.encrypt"])
    latency(m, "decrypt_ms", s["scheme.decrypt"])
    m["peak_rss_mb"] = metric(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"
    )
    # the measured times, for reading against the nominal ones above
    m["raw.ops_per_s"] = metric(phase.raw_ops_per_s, "1/s", phase.attempted - phase.failed)
    latency(m, "raw.op_ms", rec.raw[wl.headline])
    latency(m, "raw.encrypt_ms", rec.raw["scheme.encrypt"])
    m["host.scale_p50"] = metric(
        clock.nominal_ns / statistics.median(clock.samples), "ratio", len(clock.samples)
    )
    return m


OP_SPANS = {
    "scheme.keygen": "keygen",
    "scheme.encrypt": "encrypt",
    "scheme.decrypt": "decrypt",
    "attack": "attack",
}
CALLS = (
    ("field.mul", "field.mul_calls"),
    ("field.frob", "field.frob_calls"),
    ("field.inv", "field.inv_calls"),
    ("group.mul", "group.mul_calls"),
    ("group.inv", "group.inv_calls"),
)


def replayed(fn, items, unit: str) -> dict:
    """Median over REPLAY_REPS passes of the per-call time of ``fn(*item)``."""
    per_call = []
    for _ in range(REPLAY_REPS):
        t0 = now()
        for args in items:
            fn(*args)
        per_call.append((now() - t0) / len(items))
    return metric(statistics.median(per_call) / UNIT_NS[unit], unit, len(items))


def per_layer(wl, tracer, seed, builds: list[int], ratio: float) -> tuple[dict, int]:
    """Per-layer metrics of the traced phase, and failed replay checks."""
    from mst3sz import (
        SuzukiGroup, codec, covering_type, evaluate_tame, factor_tame, gen_tame,
        induced_map, make_params, recover_nonce,
    )

    m: dict = {}
    failed = 0
    spans = [sp for sp in tracer.inclusive() if sp.error is None]
    for name, kind in OP_SPANS.items():
        sps = [sp for sp in spans if sp.name == name]
        if not sps:
            continue
        for call, prefix in CALLS:
            # keygen builds its own SuzukiGroup, so its group calls are unseen
            if not (kind == "keygen" and call.startswith("group")):
                m[f"{prefix}.{kind}"] = count_metric([sp.counts[call] for sp in sps])
        if kind != "keygen":
            m[f"group.self_ms.{kind}"] = median_metric([sp.self_ns["group"] for sp in sps], "ms")
        if kind != "attack":
            m[f"scheme.self_ms.{kind}"] = median_metric([sp.self_ns["scheme"] for sp in sps], "ms")
    m["field.build_ms"] = median_metric(builds, "ms")
    m["codec.rejected"] = metric(
        sum(sp.error == "CodecError" for sp in tracer.finished if sp.layer == "codec"),
        "count",
    )
    m["trace.overhead_ratio"] = metric(ratio, "ratio")

    # per-call timings: the public functions replayed on the plain classes
    # with the operands, keys and ciphertexts the workload really used
    field = make_params(wl.n)
    group = SuzukiGroup(field)
    for call, fn in (
        ("field.mul", field.mul),
        ("field.frob", field.frob_pow),
        ("field.inv", field.inv),
        ("group.mul", group.mul),
        ("group.inv", group.inv),
    ):
        if tracer.operands[call]:
            m[f"{call}_us"] = replayed(fn, tracer.operands[call], "us")
    cts = [
        (dataclasses.replace(pk, group=group), dataclasses.replace(sk, group=group), nonce, ct)
        for pk, sk, nonce, ct in tracer.kept["ciphertexts"][:REPLAY_ITEMS]
    ]
    if not cts:  # every traced op failed
        return m, failed
    walks = [
        (group, cover, r)
        for pk, _, (r1, r2), _ in cts
        for cover, r in ((pk.alpha1, r1), (pk.alpha2, r2), (pk.gamma1, r1), (pk.gamma2, r2))
    ]
    m["logsig.induced_map_us"] = replayed(induced_map, walks, "us")
    digits = [
        (sig, r) for _, sk, (r1, r2), _ in cts for sig, r in ((sk.beta1, r1), (sk.beta2, r2))
    ]
    factors = [(sig, evaluate_tame(sig, r)) for sig, r in digits]
    failed += sum(factor_tame(sig, v) != r for (sig, v), (_, r) in zip(factors, digits))
    m["logsig.factor_tame_us"] = replayed(factor_tame, factors, "us")
    rng = random.Random(f"{wl.name}/{seed}/gen_tame")
    m["logsig.gen_tame_ms"] = replayed(gen_tame, [(wl.n, covering_type(wl.n), rng)] * 4, "ms")
    failed += sum(recover_nonce(pk, sk, ct) != nonce for pk, sk, nonce, ct in cts)
    m["scheme.recover_nonce_ms"] = replayed(
        recover_nonce, [(pk, sk, ct) for pk, sk, _, ct in cts], "ms"
    )

    # codec: the workload's own codec spans, plus a round trip of its keys
    # and ciphertexts through bytes
    sizes = {"public_key": [], "private_key": [], "ciphertext": []}
    for pk, sk, _, ct in cts:
        for kind, obj, ser, parse in (
            ("public_key", pk, codec.serialize_public_key, codec.parse_public_key),
            ("private_key", sk, codec.serialize_private_key, codec.parse_private_key),
            ("ciphertext", ct, lambda c: codec.serialize_ciphertext(field, c),
             lambda b: codec.parse_ciphertext(b)[1]),
        ):
            with tracer.span(f"codec.serialize_{kind}"):
                blob = ser(obj)
            with tracer.span(f"codec.parse_{kind}"):
                back = parse(blob)
            sizes[kind].append(len(blob))
            failed += back != obj
    for kind, unit in (("public_key", "ms"), ("private_key", "ms"), ("ciphertext", "us")):
        for verb in ("parse", "serialize"):
            m[f"codec.{verb}_{kind}_{unit}"] = median_metric(
                tracer.samples[f"codec.{verb}_{kind}"], unit
            )
        m[f"codec.{kind}_bytes"] = count_metric(sizes[kind], "bytes")
    return m, failed


def attack_metrics(tracer, phase: Phase) -> dict:
    m: dict = {}
    done = [r for r in phase.records if r is not None]
    for k in range(3):
        name = f"attacks.attack{k + 1}"
        m[f"{name}_trials"] = count_metric([trials[k] for _, trials, _ in done])
        m[f"{name}_ms"] = median_metric(tracer.samples[name], "ms")
    # each op attempts three recoveries; an op that raised verified none
    m["attacks.success_ratio"] = metric(
        sum(sum(verified) for _, _, verified in done) / (3 * phase.attempted),
        "ratio",
        3 * phase.attempted,
    )
    return m


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run(wl, seed: int, seconds: float, trace: bool) -> dict:
    """The full report of one run; ``report["contract"]`` is the last line."""
    from tracing import HostClock, Recorder, Tracer
    from workloads import known_answer_ok, n65_digest_ok

    clock = HostClock(wl.calibration)
    key, key_rng, setups, builds = setup(wl, seed, clock)
    gc.collect()
    rec = Recorder(wl.n)
    a = measure(wl, rec, clock, key, key_rng, wl.input_stream(seed),
                seconds=seconds / 2 if trace else seconds, keep=trace)
    metrics = end_to_end(wl, rec, clock, a, setups)
    attempted, failed = a.attempted, a.failed
    spans, traced_ops = None, 0
    if trace:
        key = key_rng = None
        gc.collect()
        tracer = Tracer(wl.n)
        # the same inputs again, traced, within the run's full time
        b = measure(wl, tracer, clock, None, wl.key_rng(seed), wl.input_stream(seed),
                    seconds=seconds, ops=a.attempted)
        # instrumentation must not change results: same inputs, same outputs
        mismatched = sum(
            ra != rb for ra, rb in zip(a.records, b.records) if rb is not None
        )
        if mismatched:
            print(f"perfbench: {mismatched} traced outputs differ", file=sys.stderr)
        ratio = a.ops_per_s / b.ops_per_s if b.ops_per_s else 0.0  # 0: no traced op passed
        layer, replay_failed = per_layer(wl, tracer, seed, builds, ratio)
        if wl.headline == "attack":
            layer.update(attack_metrics(tracer, b))
        metrics = {**{f"untraced.{k}": v for k, v in metrics.items()}, **layer}
        attempted += b.attempted
        traced_ops = b.attempted
        failed += b.failed + mismatched + replay_failed
        spans = [sp.as_json() for sp in tracer.finished]
    for gate in (known_answer_ok, n65_digest_ok):
        attempted += 1
        try:
            ok = gate()
        except Exception:
            traceback.print_exc()
            ok = False
        if not ok:
            failed += 1
            print(f"perfbench: gate {gate.__name__} failed", file=sys.stderr)

    meta = {
        "workload": wl.name,
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        "measured_s": a.elapsed_ns / 1e9,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "setup_rounds": SETUP_ROUNDS,
        "ops": {"untraced": a.attempted, "traced": traced_ops},
        "samples": {name: len(ns) for name, ns in sorted(rec.samples.items())},
    }
    # every wrong op, gate, traced output and replay check counts
    metrics["failed_ratio"] = metric(failed / attempted, "ratio", attempted)
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = contract["per_layer" if trace else "end_to_end"]
    return {
        "meta": meta,
        "metrics": metrics,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "spans": spans,
        "contract": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                w["name"]: {"value": metrics[w["name"]]["value"], "unit": w["unit"]}
                for w in wanted
                if w["name"] in metrics  # a run whose every op failed lacks some
            },
        },
    }


def print_report(report: dict) -> None:
    meta = report["meta"]
    print(f"perfbench {meta['workload']} seed={meta['seed']} trace={meta['trace']}")
    print("meta " + json.dumps({k: v for k, v in meta.items() if k != "samples"}))
    for name, m in report["metrics"].items():
        extra = ""
        if "samples" in m:
            extra += f"  n={m['samples']}"
        if "min" in m:
            extra += f"  min={m['min']} max={m['max']}"
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}{extra}")
    print(f"  attempted={report['attempted']} failed={report['failed']}")


def write_report(report: dict) -> None:
    meta = report["meta"]
    OUT.mkdir(exist_ok=True)
    stem = f"{meta['workload']}-seed{meta['seed']}-trace{meta['trace']}"
    spans = report.pop("spans")
    if spans is not None:
        (OUT / f"spans-{stem}.json").write_text(json.dumps(spans))
    (OUT / f"report-{stem}.json").write_text(json.dumps(report, indent=1))


def main(argv=None, workloads=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    add_program_path()
    if workloads is None:
        from workloads import WORKLOADS as workloads
    names = list(workloads) if args.workload == "all" else [args.workload]
    if not set(names) <= set(workloads):
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads)} or all")
    contracts = {}
    for name in names:
        report = run(workloads[name], args.seed, args.seconds, bool(args.trace))
        contracts[name] = report.pop("contract")
        write_report(report)
        print_report(report)
    if len(names) == 1:
        last = contracts[names[0]]
    else:  # all: one line over every workload, metrics prefixed by its name
        last = {
            "correct": all(c["correct"] for c in contracts.values()),
            "attempted": sum(c["attempted"] for c in contracts.values()),
            "failed": sum(c["failed"] for c in contracts.values()),
            "metrics": {f"{w}.{k}": v for w, c in contracts.items() for k, v in c["metrics"].items()},
        }
    print(json.dumps(last))
    return 0 if last["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
