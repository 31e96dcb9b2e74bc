"""Per-layer tracing of lorasync from outside the package.

`Tracer.install()` replaces, in the importing modules' namespaces, the
functions each layer exposes to the next one up:

- the codec, protocol and slot functions that `lorasync.sim` and
  `lorasync.protocol` import,
- every public `SimClock` method,
- `sim.run`, `write_trace_csv` and `load_scenario` as the CLI calls them,
  and `time_on_air` as the config loader calls it.

Each wrapped call records a span: name, start, end (perf_counter ns), the
enclosing span and a request id, all kept in flat arrays in memory.  The
request id is the number of frames the server had judged when the span
began, i.e. the `frame_index` the next judged frame receives; calls made
for interleaved frames of other devices share it, so it groups spans by
frame only approximately on dense workloads.

Two hot, trivially cheap boundaries are counted without spans so their
cost stays in the caller: the `SlotConfig.t_slot_ns` property and the heap
calls the event loop makes.  `uninstall()` puts every original back.
"""

from __future__ import annotations

import json
import time
import types
from array import array

SPAN_FIELDS = (("name", "H"), ("parent", "l"), ("rid", "l"), ("start", "q"), ("end", "q"))

_MARK = "_bench_wrapper"

# modules whose functions count as a layer when sim/protocol import them
_LAYER_MODULES = ("lorasync.frame", "lorasync.protocol", "lorasync.slot")


def span_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.cols = {f: array(code) for f, code in SPAN_FIELDS}
        self.counts: dict[str, list[int]] = {}
        self._stack = [-1]
        self._frame = [0]  # frames judged so far: the request id
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------

    def counter(self, key: str) -> list[int]:
        return self.counts.setdefault(key, [0])

    def span(self, fn, after=None, name=None):
        """Wrap `fn` so every call records one span; `after(result)` runs outside it."""
        name = name or span_name(fn)
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        c = self.cols
        names, parents, rids, starts, ends = c["name"], c["parent"], c["rid"], c["start"], c["end"]
        stack, frame, clock = self._stack, self._frame, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            rids.append(frame[0])
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if after is not None:
                after(result)
            return result

        wrapper.__name__ = fn.__name__
        wrapper.__wrapped__ = fn
        setattr(wrapper, _MARK, True)
        return wrapper

    def counting(self, key: str, fn):
        n = self.counter(key)

        def wrapper(*args):
            n[0] += 1
            return fn(*args)

        setattr(wrapper, _MARK, True)
        return wrapper

    # -- installation -----------------------------------------------------

    def _patch(self, owner, attr: str, new):
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, new)

    def install(self):
        from lorasync import cli, clock, config, protocol, sim, slot

        frame = self._frame
        resync_acks = self.counter("protocol.resync_acks")
        trace_rows = self.counter("cli.trace_rows")

        def judged(plan):
            frame[0] += 1
            if plan.remaining_ms is not None:
                resync_acks[0] += 1

        for mod in (sim, protocol):
            for attr, obj in list(vars(mod).items()):
                if (
                    isinstance(obj, types.FunctionType)
                    and not attr.startswith("_")
                    and obj.__module__ in _LAYER_MODULES
                    and obj.__module__ != mod.__name__
                ):
                    after = judged if obj.__name__ == "ns_on_uplink_end" else None
                    self._patch(mod, attr, self.span(obj, after))

        for attr, obj in list(vars(clock.SimClock).items()):
            if isinstance(obj, types.FunctionType) and not attr.startswith("_"):
                self._patch(clock.SimClock, attr, self.span(obj))

        reads = self.counter("slot.t_slot_ns.reads")
        fget = slot.SlotConfig.__dict__["t_slot_ns"].fget

        def t_slot_ns(cfg):
            reads[0] += 1
            return fget(cfg)

        setattr(t_slot_ns, _MARK, True)
        self._patch(slot.SlotConfig, "t_slot_ns", property(t_slot_ns))

        heap = types.SimpleNamespace(
            heappush=self.counting("sim.heappush", sim.heapq.heappush),
            heappop=self.counting("sim.heappop", sim.heapq.heappop),
        )
        setattr(heap, _MARK, True)
        self._patch(sim, "heapq", heap)

        write_csv = cli.write_trace_csv

        def write_trace_csv(path, rows):
            trace_rows[0] += len(rows)
            return write_csv(path, rows)

        self._patch(cli, "run", self.span(cli.run))
        self._patch(cli, "write_trace_csv", self.span(write_trace_csv, name=span_name(write_csv)))
        self._patch(cli, "load_scenario", self.span(cli.load_scenario))
        self._patch(config, "time_on_air", self.span(config.time_on_air))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output -------------------------------------------------------------

    def write(self, path_prefix: str):
        """Spans as `<prefix>.json` (names, counts, layout) plus `<prefix>.bin` (columns)."""
        n = len(self.cols["start"])
        with open(path_prefix + ".bin", "wb") as fh:
            for f, _ in SPAN_FIELDS:
                self.cols[f].tofile(fh)
        meta = {
            "spans": n,
            "fields": SPAN_FIELDS,
            "names": self.names,
            "counts": {k: v[0] for k, v in self.counts.items()},
        }
        with open(path_prefix + ".json", "w", encoding="utf-8") as fh:
            json.dump(meta, fh)


def wrappers_left() -> list[str]:
    """Names in any loaded lorasync module or class that still hold a wrapper."""
    import sys

    left = []
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != "lorasync" and not mod_name.startswith("lorasync."):
            continue
        for attr, obj in vars(mod).items():
            if getattr(obj, _MARK, False):
                left.append(f"{mod_name}.{attr}")
            if isinstance(obj, type) and obj.__module__ == mod_name:
                for cattr, cobj in vars(obj).items():
                    target = cobj.fget if isinstance(cobj, property) else cobj
                    if getattr(target, _MARK, False):
                        left.append(f"{mod_name}.{attr}.{cattr}")
    return left


def calibrate(reps: int = 5, n: int = 100_000) -> float:
    """Median extra ns one span wrapper adds to a call of a no-op function."""

    def noop():
        return None

    costs = []
    for _ in range(reps):
        wrapped = Tracer().span(noop)
        t0 = time.perf_counter_ns()
        for _ in range(n):
            noop()
        t1 = time.perf_counter_ns()
        for _ in range(n):
            wrapped()
        t2 = time.perf_counter_ns()
        costs.append(((t2 - t1) - (t1 - t0)) / n)
    costs.sort()
    return costs[len(costs) // 2]


def read_spans(path_prefix: str):
    with open(path_prefix + ".json", encoding="utf-8") as fh:
        meta = json.load(fh)
    n = meta["spans"]
    cols = {}
    with open(path_prefix + ".bin", "rb") as fh:
        for f, code in meta["fields"]:
            col = array(code)
            col.fromfile(fh, n)
            cols[f] = col
    return meta, cols


def aggregate(meta, cols) -> dict[str, dict[str, float]]:
    """Per span name: calls, total ns and self ns (total minus direct children)."""
    starts, ends, parents = cols["start"], cols["end"], cols["parent"]
    dur = [e - s for s, e in zip(starts, ends)]
    children = [0] * len(dur)
    for d, p in zip(dur, parents):
        if p >= 0:
            children[p] += d
    names = meta["names"]
    out = {name: {"calls": 0, "total_ns": 0, "self_ns": 0} for name in names}
    for nid, d, c in zip(cols["name"], dur, children):
        rec = out[names[nid]]
        rec["calls"] += 1
        rec["total_ns"] += d
        rec["self_ns"] += d - c
    return out
