"""Spans recorded from outside the program.

A :class:`Tracer` replaces public entry points of the measured program
(methods on classes, free functions wherever ``repro.*`` modules bound
them by name) with recording wrappers, and puts the originals back in
:meth:`Tracer.restore`.  Each call becomes one span -- name, layer,
start, end, parent, op id -- kept in flat arrays (28 bytes a span: a
traced ``smr-tcp`` run records a few million).

Synchronous spans nest on one global stack: the runtime is a single
thread and a synchronous call cannot be interleaved with another task,
so the stack *is* the call tree.  A coroutine span (``Transport.send``)
stays off that stack -- other tasks run while it awaits -- and links its
synchronous children through a context variable, which asyncio copies
per task.  Coroutine spans therefore report wall time (awaits included)
and never enter the self-time table.

Self time of a span is its duration minus the durations of its direct
synchronous children; it is accumulated per metric *group* as spans
close, and :meth:`Tracer.self_times_from_spans` recomputes it from the
stored spans (the smoke test holds the two equal).  A group's ``busy``
time and ``calls`` count outermost spans only, so
``solve_with_policy -> Swiper.solve`` is one solve, not two.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import json
import sys
import time
from array import array
from dataclasses import dataclass, field
from types import ModuleType
from typing import Any, Callable, Iterator, NamedTuple, Optional

__all__ = ["Target", "Totals", "Tracer"]


class Target(NamedTuple):
    """One entry point to wrap."""

    #: a class (``attr`` is a plain method) or a module (a free function,
    #: re-bound in every loaded module of the same top-level package)
    owner: Any
    attr: str
    #: row of the self-time table this span's self time is charged to
    layer: str
    #: metric prefix the span's calls / busy time / size accumulate under
    group: str
    is_async: bool = False
    #: ``before(args)`` runs at entry, ``after(args, result)`` after a
    #: normal return -- probes that need more than a duration
    before: Optional[Callable[[tuple], None]] = None
    after: Optional[Callable[[tuple, Any], None]] = None
    #: ``size(args, result)`` is added to the group's size (outermost only)
    size: Optional[Callable[[tuple, Any], float]] = None
    #: positional index of a message argument whose ``.epoch`` is the op id
    op_arg: Optional[int] = None


@dataclass
class Totals:
    """Per-group sums over one phase (set-up, or the measured window)."""

    calls: dict[str, int] = field(default_factory=dict)
    busy: dict[str, float] = field(default_factory=dict)
    self_s: dict[str, float] = field(default_factory=dict)
    size: dict[str, float] = field(default_factory=dict)
    layer_of: dict[str, str] = field(default_factory=dict)

    def by_layer(self) -> dict[str, float]:
        """The self-time table: layer -> seconds of synchronous self time."""
        out: dict[str, float] = {}
        for group, seconds in self.self_s.items():
            layer = self.layer_of[group]
            out[layer] = out.get(layer, 0.0) + seconds
        return out


class Tracer:
    """Installs wrappers, records spans, restores the program."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        #: wrappers pass calls straight through while this is false
        self.on = False
        #: op id stamped on spans that cannot read one from a message
        self.op = -1
        self.setup_totals = Totals()
        self.window_totals = Totals()
        # span names (one per wrapped attribute) and metric groups
        self._names: list[str] = []
        self._name_async: list[bool] = []
        self._name_group: list[int] = []
        self._groups: list[str] = []
        self._group_layer: list[str] = []
        self._group_ids: dict[str, int] = {}
        # stored spans
        self._s_name = array("H")
        self._s_start = array("d")
        self._s_end = array("d")
        self._s_parent = array("i")
        self._s_op = array("q")
        # open synchronous spans, and their children's summed durations
        self._stack: list[int] = []
        self._child: list[float] = []
        self._async_parent: contextvars.ContextVar[int] = contextvars.ContextVar(
            "ledger_async_parent", default=-1
        )
        # per-group accumulators (indexed by group id)
        self._calls: list[int] = []
        self._busy: list[float] = []
        self._self: list[float] = []
        self._size: list[float] = []
        self._depth: list[int] = []
        #: bumped whenever the span arrays are cleared, so a coroutine
        #: span that was open across the clear does not write into them
        self._generation = 0
        self._patched: list[tuple[Any, str, Any]] = []

    # -- installing ---------------------------------------------------------------
    def install(self, targets: list[Target]) -> None:
        for target in targets:
            self.patch(
                target.owner,
                target.attr,
                lambda original, target=target: self._wrapper(target, original),
            )

    def patch(self, owner: Any, attr: str, make: Callable[[Any], Any]) -> None:
        """Replace ``owner.attr`` by ``make(original)`` until :meth:`restore`."""
        if isinstance(owner, ModuleType):
            original = getattr(owner, attr)
            package = owner.__name__.split(".")[0]
            sites = [
                module
                for name, module in list(sys.modules.items())
                if module is not None
                and (name == package or name.startswith(package + "."))
                and module.__dict__.get(attr) is original
            ]
        else:
            original = vars(owner).get(attr)
            if not inspect.isfunction(original):
                raise TypeError(
                    f"{owner.__name__}.{attr} is not a plain method defined on "
                    f"the class; wrap it where it is defined"
                )
            sites = [owner]
        replacement = make(original)
        for site in sites:
            setattr(site, attr, replacement)
            self._patched.append((site, attr, original))

    def restore(self) -> None:
        """Put every original back, last patch first."""
        while self._patched:
            site, attr, original = self._patched.pop()
            setattr(site, attr, original)
        self.on = False

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.restore()

    # -- phases -------------------------------------------------------------------
    def begin_window(self) -> None:
        """Everything so far was set-up; start the measured window clean."""
        if self._stack:
            raise RuntimeError("begin_window() inside an open span")
        self.setup_totals = self._snapshot()
        self._generation += 1
        for arr in (self._s_name, self._s_start, self._s_end, self._s_parent, self._s_op):
            del arr[:]
        for acc in (self._calls, self._busy, self._self, self._size):
            acc[:] = [0] * len(acc)
        self.on = True

    def end_window(self) -> None:
        self.window_totals = self._snapshot()
        self.on = False

    def _snapshot(self) -> Totals:
        groups = self._groups
        return Totals(
            calls=dict(zip(groups, self._calls)),
            busy=dict(zip(groups, self._busy)),
            self_s=dict(zip(groups, self._self)),
            size=dict(zip(groups, self._size)),
            layer_of=dict(zip(groups, self._group_layer)),
        )

    # -- wrapping -----------------------------------------------------------------
    def _group_id(self, group: str, layer: str) -> int:
        gid = self._group_ids.get(group)
        if gid is None:
            gid = self._group_ids[group] = len(self._groups)
            self._groups.append(group)
            self._group_layer.append(layer)
            for acc in (self._calls, self._busy, self._self, self._size, self._depth):
                acc.append(0)
        elif self._group_layer[gid] != layer:
            raise ValueError(f"group {group!r} spans two layers")
        return gid

    def _wrapper(self, target: Target, fn: Callable) -> Callable:
        gid = self._group_id(target.group, target.layer)
        nid = len(self._names)
        owner = getattr(target.owner, "__name__", str(target.owner)).split(".")[-1]
        self._names.append(f"{owner}.{target.attr}")
        self._name_async.append(target.is_async)
        self._name_group.append(gid)

        tr = self
        clock = self.clock
        s_name, s_start, s_end = self._s_name, self._s_start, self._s_end
        s_parent, s_op = self._s_parent, self._s_op
        stack, child = self._stack, self._child
        calls, busy, selfs, sizes = self._calls, self._busy, self._self, self._size
        depth = self._depth
        async_parent = self._async_parent
        before, after, size, op_arg = (
            target.before, target.after, target.size, target.op_arg,
        )

        if target.is_async:

            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                if not tr.on:
                    return await fn(*args, **kwargs)
                if before is not None:
                    before(args)
                generation = tr._generation
                op = tr.op
                if op_arg is not None and len(args) > op_arg:
                    op = getattr(args[op_arg], "epoch", op)
                idx = len(s_start)
                s_name.append(nid)
                s_parent.append(stack[-1] if stack else async_parent.get())
                s_op.append(op)
                s_end.append(0.0)
                token = async_parent.set(idx)
                s_start.append(clock())
                try:
                    result = await fn(*args, **kwargs)
                finally:
                    end = clock()
                    async_parent.reset(token)
                    if generation == tr._generation:
                        s_end[idx] = end
                        busy[gid] += end - s_start[idx]
                        calls[gid] += 1
                if size is not None:
                    sizes[gid] += size(args, result)
                if after is not None:
                    after(args, result)
                return result

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tr.on:
                return fn(*args, **kwargs)
            if before is not None:
                before(args)
            saved_op = tr.op
            if op_arg is not None and len(args) > op_arg:
                tr.op = getattr(args[op_arg], "epoch", saved_op)
            idx = len(s_start)
            s_name.append(nid)
            s_parent.append(stack[-1] if stack else async_parent.get())
            s_op.append(tr.op)
            s_end.append(0.0)
            stack.append(idx)
            child.append(0.0)
            depth[gid] += 1
            s_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - s_start[idx]
                s_end[idx] = end
                selfs[gid] += duration - child.pop()
                if child:
                    child[-1] += duration
                outermost = depth[gid] == 1
                depth[gid] -= 1
                if outermost:
                    busy[gid] += duration
                    calls[gid] += 1
                tr.op = saved_op
            if outermost and size is not None:
                sizes[gid] += size(args, result)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    # -- reading the spans back -----------------------------------------------------
    def __len__(self) -> int:
        return len(self._s_start)

    def spans(self) -> Iterator[dict]:
        """The stored spans of the current window, oldest first."""
        count = len(self._s_start)
        for i in range(count):
            nid = self._s_name[i]
            gid = self._name_group[nid]
            parent = self._s_parent[i]
            yield {
                "id": i,
                "name": self._names[nid],
                "layer": self._group_layer[gid],
                "group": self._groups[gid],
                "async": self._name_async[nid],
                "start": self._s_start[i],
                "end": self._s_end[i],
                "parent": parent if 0 <= parent < count else -1,
                "op": self._s_op[i],
            }

    def self_times_from_spans(self) -> dict[str, float]:
        """Group -> self seconds, recomputed from the stored spans alone:
        a synchronous span's duration minus its direct synchronous
        children's.  Equals the running accumulators (the smoke test
        checks) and is what the JSONL table is built from."""
        count = len(self._s_start)
        is_async = [self._name_async[nid] for nid in self._s_name]
        covered = [0.0] * count
        for i in range(count):
            parent = self._s_parent[i]
            if not is_async[i] and 0 <= parent < count and not is_async[parent]:
                covered[parent] += self._s_end[i] - self._s_start[i]
        out = {group: 0.0 for group in self._groups}
        for i in range(count):
            if not is_async[i]:
                group = self._groups[self._name_group[self._s_name[i]]]
                out[group] += self._s_end[i] - self._s_start[i] - covered[i]
        return out

    def write_jsonl(self, path: str) -> None:
        """One line per span, then one ``self_time`` line per layer."""
        with open(path, "w") as out:
            for span in self.spans():
                out.write(json.dumps(span) + "\n")
            table: dict[str, float] = {}
            for group, seconds in self.self_times_from_spans().items():
                layer = self._group_layer[self._group_ids[group]]
                table[layer] = table.get(layer, 0.0) + seconds
            for layer, seconds in sorted(table.items()):
                out.write(
                    json.dumps({"table": "self_time", "layer": layer, "self_s": seconds})
                    + "\n"
                )
