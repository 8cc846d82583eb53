"""Timing and tracing for the benchmark, from outside the program.

``Recorder`` times named calls for the untraced run.  ``Tracer`` adds
spans (name, start, end, parent, op id) kept in memory, per-span call
counts and per-layer self time.  Field and group work is seen through
``TracedField`` and ``TracedGroup``, subclasses of the public
``FieldParams`` and ``SuzukiGroup`` that reach the program through its
public constructors (``keygen(params, ...)``, ``SuzukiGroup(params)``) and
``dataclasses.replace`` on keys.  Nothing in the program is patched.

Self time: every span and every traced group/field call is a frame.  A
frame's self time is its duration minus the time of the frames it
encloses, and is added to its layer (the name before the first dot) in the
innermost open span.  Field and group calls are not stored as spans -- a
single n=65 encrypt makes over 1,500 of them -- only counted and timed.
"""

from __future__ import annotations

import dataclasses
from collections import Counter, defaultdict
from time import perf_counter_ns as now

from mst3sz import FieldParams, SuzukiGroup, make_params

# Operands of every OPERAND_STRIDE-th field/group call are kept, up to
# OPERAND_CAP per kind, so that per-call timings can be replayed on the
# plain classes with the operands the workload really passes.
OPERAND_STRIDE = 8
OPERAND_CAP = 2048
KEEP_CAP = 32  # keys and ciphertexts kept for the per-layer replays


# Host-speed calibration.  On a shared 2-core x86_64 host the speed drifted
# by up to 2x over seconds to minutes, in CPU time as much as in wall time,
# so each untraced duration is scaled by nominal / (a fixed kernel's recent
# time): times read as if the host ran the kernel in its nominal time.  The
# kernels are the benchmark's own pure-Python code, never the program's, and
# touch little memory so that the program's cache footprint cannot slow them.
# Slow phases hit big-int arithmetic and object-heavy interpreter work by
# different amounts, so each workload names the kernel like its own work.
CAL_PERIOD_NS = 25_000_000
CAL_WINDOW = 5


def arith_kernel() -> int:
    """Bit-serial carry-less products on 40-bit ints (shift-and-add fields)."""
    acc = 0
    for i in range(64):
        a, b, r = 0x1D2C3B4A5 ^ i, 0x3F00FF0F1 + i, 0
        while b:
            if b & 1:
                r ^= a
            b >>= 1
            a <<= 1
            if a >> 40:
                a ^= 0x1000000001B
        acc ^= r
    return acc


class _Pair:
    __slots__ = ("x", "y")

    def __init__(self, x, y):
        self.x = x
        self.y = y


def objects_kernel() -> int:
    """Small objects, tuples, dict and list traffic (table fields, codec)."""
    d: dict = {}
    out = []
    for i in range(700):
        o = _Pair(i, (i, i + 1))
        d[i & 255] = o
        out.append(d.get(i * 7 & 255, o).y[0] + o.x)
    return sum(out)


# kernel and its nominal time in ns
KERNELS = {"arith": (arith_kernel, 400_000), "objects": (objects_kernel, 350_000)}


class HostClock:
    """Samples a calibration kernel; ``scale`` converts to nominal speed."""

    def __init__(self, kind: str):
        self.kind = kind
        self.kernel, self.nominal_ns = KERNELS[kind]
        self.samples: list[int] = []
        self.scale = 1.0
        self.last = 0
        for _ in range(CAL_WINDOW):
            self.calibrate()

    def calibrate(self) -> float:
        t0 = now()
        self.kernel()
        self.last = now()
        self.samples.append(self.last - t0)
        recent = sorted(self.samples[-CAL_WINDOW:])
        self.scale = self.nominal_ns / recent[len(recent) // 2]
        return self.scale

    def tick(self) -> float:
        """The current scale, recalibrated every CAL_PERIOD_NS."""
        if now() - self.last >= CAL_PERIOD_NS:
            return self.calibrate()
        return self.scale


class _Timed:
    __slots__ = ("rec", "name", "t0")

    def __init__(self, rec, name):
        self.rec = rec
        self.name = name

    def __enter__(self):
        self.t0 = now()

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None:
            rec, dur = self.rec, now() - self.t0
            rec.raw[self.name].append(dur)
            rec.samples[self.name].append(dur * rec.scale)


class Recorder:
    """Durations in ns of named calls; the untraced run.

    ``samples`` holds durations at nominal host speed (``raw`` times
    ``scale``, which the caller keeps current), ``raw`` the measured ones.
    """

    def __init__(self, n: int):
        self.n = n
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.raw: dict[str, list[int]] = defaultdict(list)
        self.scale = 1.0
        self.op_id: int | None = None

    def span(self, name: str):
        return _Timed(self, name)

    def field(self) -> FieldParams:
        return make_params(self.n)

    def adopt(self, key):
        """The key as the workload uses it; the tracer moves it to its group."""
        return key

    def keep(self, kind: str, item) -> None:
        """Inputs kept for per-layer replays; only the tracer keeps them."""


class Span:
    __slots__ = (
        "id", "name", "layer", "parent", "op_id", "start", "end",
        "saved", "counts", "self_ns", "error",
    )

    def __init__(self, id, name, parent, op_id):
        self.id = id
        self.name = name
        self.layer = name.split(".", 1)[0]
        self.parent = parent
        self.op_id = op_id
        self.counts = Counter()
        self.self_ns = Counter()
        self.error = None

    def as_json(self) -> dict:
        out = {
            "id": self.id, "name": self.name, "parent": self.parent,
            "op_id": self.op_id, "start_ns": self.start, "end_ns": self.end,
        }
        if self.counts:
            out["counts"] = dict(self.counts)
        if self.error:
            out["error"] = self.error
        return out


class _TracedSpan:
    __slots__ = ("tr", "span")

    def __init__(self, tr, span):
        self.tr = tr
        self.span = span

    def __enter__(self):
        tr, sp = self.tr, self.span
        tr.open.append(sp)
        sp.saved = tr.child_ns
        tr.child_ns = 0
        sp.start = now()

    def __exit__(self, exc_type, exc, tb):
        tr, sp = self.tr, self.span
        sp.end = now()
        dur = sp.end - sp.start
        sp.self_ns[sp.layer] += dur - tr.child_ns
        tr.child_ns = sp.saved + dur
        tr.open.pop()
        tr.finished.append(sp)
        if exc_type is None:
            tr.raw[sp.name].append(dur)
            tr.samples[sp.name].append(dur)
        else:
            sp.error = exc_type.__name__


class Tracer(Recorder):
    """Spans, per-span counts and per-layer self time; the traced run.

    Span durations and self times are raw: the traced run attributes time
    to layers and is not compared across hosts.
    """

    def __init__(self, n: int):
        super().__init__(n)
        self.by_id: list[Span] = []
        self.finished: list[Span] = []
        self.open: list[Span] = [Span(-1, "root", None, None)]
        self.child_ns = 0
        self.calls = Counter()
        self.operands: dict[str, list] = defaultdict(list)
        self.kept: dict[str, list] = defaultdict(list)
        self._field = None
        self._group = None

    def span(self, name: str):
        sp = Span(len(self.by_id), name, self.open[-1].id, self.op_id)
        self.by_id.append(sp)
        return _TracedSpan(self, sp)

    def field(self) -> FieldParams:
        if self._field is None:
            self._field = TracedField(self.n, self)
            self._group = TracedGroup(self._field)
        return self._field

    def adopt(self, key):
        self.field()
        return dataclasses.replace(key, group=self._group)

    def keep(self, kind: str, item) -> None:
        if len(self.kept[kind]) < KEEP_CAP:
            self.kept[kind].append(item)

    def frame(self, name: str, layer: str, dur: int, inner: int, operands) -> None:
        """Account one finished field or group call in the innermost span."""
        sp = self.open[-1]
        sp.counts[name] += 1
        sp.self_ns[layer] += dur - inner
        c = self.calls[name] = self.calls[name] + 1
        if c % OPERAND_STRIDE == 0:
            buf = self.operands[name]
            if len(buf) < OPERAND_CAP:
                buf.append(operands)

    def inclusive(self) -> list[Span]:
        """Finished spans with descendants' counts and self time folded in."""
        for sp in self.finished:
            if sp.parent is not None and sp.parent >= 0:
                parent = self.by_id[sp.parent]
                parent.counts.update(sp.counts)
                parent.self_ns.update(sp.self_ns)
        return self.finished


class TracedField(FieldParams):
    """FieldParams that counts and times mul, inv and frob_pow."""

    def __init__(self, n: int, tracer: Tracer):
        super().__init__(n)
        self.tracer = tracer

    def mul(self, a: int, b: int) -> int:
        t0 = now()
        r = FieldParams.mul(self, a, b)
        t1 = now()
        tr = self.tracer
        tr.frame("field.mul", "field", t1 - t0, 0, (a, b))
        tr.child_ns += now() - t0
        return r

    def inv(self, a: int) -> int:
        t0 = now()
        r = FieldParams.inv(self, a)
        t1 = now()
        tr = self.tracer
        tr.frame("field.inv", "field", t1 - t0, 0, (a,))
        tr.child_ns += now() - t0
        return r

    def frob_pow(self, a: int, k: int) -> int:
        t0 = now()
        r = FieldParams.frob_pow(self, a, k)
        t1 = now()
        tr = self.tracer
        tr.frame("field.frob", "field", t1 - t0, 0, (a, k))
        tr.child_ns += now() - t0
        return r


class TracedGroup(SuzukiGroup):
    """SuzukiGroup over a TracedField that counts and times mul and inv."""

    def mul(self, g1, g2):
        tr = self.params.tracer
        outer, tr.child_ns = tr.child_ns, 0
        t0 = now()
        r = SuzukiGroup.mul(self, g1, g2)
        t1 = now()
        tr.frame("group.mul", "group", t1 - t0, tr.child_ns, (g1, g2))
        tr.child_ns = outer + (now() - t0)
        return r

    def inv(self, g):
        tr = self.params.tracer
        outer, tr.child_ns = tr.child_ns, 0
        t0 = now()
        r = SuzukiGroup.inv(self, g)
        t1 = now()
        tr.frame("group.inv", "group", t1 - t0, tr.child_ns, (g,))
        tr.child_ns = outer + (now() - t0)
        return r
