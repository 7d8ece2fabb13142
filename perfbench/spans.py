"""In-memory span recorder and the wrappers that feed it.

The traced run wraps public functions of the library from the outside:
each :class:`Boundary` names a module-level function or a class
attribute by dotted path, :class:`Instrumentation` swaps a recording
wrapper in for the run and puts the original back afterwards.  Nothing
inside the library changes, so the traced run's outputs are the
untraced run's outputs.

A boundary whose target no longer exists (a function deleted or
renamed by a later change) is reported as absent instead of failing
the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class Boundary:
    """One timed call boundary.

    Attributes:
        layer: layer the boundary belongs to (a ``repro`` subpackage).
        target: ``"module:function"`` or ``"module:Class.method"``.
        request_arg: positional index of an argument carrying a
            ``request_id`` (its id is stamped onto the span), or None.
    """

    layer: str
    target: str
    request_arg: Optional[int] = None

    @property
    def fn(self) -> str:
        """Function part of the target (``Class.method`` or ``name``)."""
        return self.target.split(":", 1)[1]

    @property
    def name(self) -> str:
        """Span name: ``<layer>.<fn>``."""
        return f"{self.layer}.{self.fn}"


class SpanRecorder:
    """Spans of one thread, kept in parallel lists until export.

    A span is opened by :meth:`enter` and closed by :meth:`exit`; the
    span open at entry is its parent.  Times come from ``clock``
    (``time.perf_counter`` unless a test supplies its own).
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self.requests: List[Optional[int]] = []
        self._stack: List[int] = []

    def __len__(self) -> int:
        return len(self.names)

    def enter(self, name: str, request_id: Optional[int] = None) -> int:
        """Open a span; returns its index."""
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.requests.append(request_id)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(self.clock())
        return index

    def exit(self, index: int) -> None:
        """Close the innermost open span, which must be ``index``."""
        self.ends[index] = self.clock()
        if self._stack.pop() != index:
            raise RuntimeError("spans closed out of order")

    def self_times(self) -> List[float]:
        """Each span's duration minus the time its child spans cover.

        Children of one span run one after another on the same thread,
        so the part of the parent they cover is the sum of their
        durations.
        """
        own = [end - start for start, end in zip(self.starts, self.ends)]
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= self.ends[index] - self.starts[index]
        return own

    def totals(self) -> Dict[str, Tuple[int, float]]:
        """Per span name: (calls, summed self time in seconds)."""
        out: Dict[str, Tuple[int, float]] = {}
        for name, own in zip(self.names, self.self_times()):
            calls, total = out.get(name, (0, 0.0))
            out[name] = (calls + 1, total + own)
        return out

    # -- export ------------------------------------------------------------

    def _rows(self):
        origin = self.starts[0] if self.starts else 0.0
        own = self.self_times()
        for index, name in enumerate(self.names):
            yield {
                "id": index,
                "name": name,
                "start_us": (self.starts[index] - origin) * 1e6,
                "end_us": (self.ends[index] - origin) * 1e6,
                "self_us": own[index] * 1e6,
                "parent": self.parents[index],
                "request_id": self.requests[index],
            }

    def write_jsonl(self, path: str) -> None:
        """One JSON object per span, in entry order."""
        with open(path, "w") as fh:
            for row in self._rows():
                fh.write(json.dumps(row) + "\n")

    def write_chrome(self, path: str) -> None:
        """Chrome trace-event JSON (complete events), opened by Perfetto."""
        with open(path, "w") as fh:
            fh.write('{"displayTimeUnit": "ms", "traceEvents": [')
            for row in self._rows():
                args = {"self_us": round(row["self_us"], 3)}
                if row["request_id"] is not None:
                    args["request_id"] = row["request_id"]
                event = {
                    "name": row["name"],
                    "cat": row["name"].split(".", 1)[0],
                    "ph": "X",
                    "ts": round(row["start_us"], 3),
                    "dur": round(row["end_us"] - row["start_us"], 3),
                    "pid": 1,
                    "tid": 1,
                    "args": args,
                }
                fh.write(("," if row["id"] else "") + json.dumps(event))
            fh.write("]}\n")


def _resolve(target: str):
    """(owner, attribute) for a dotted target, or None when absent."""
    module_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *outer, attribute = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not inspect.isclass(owner) and not inspect.ismodule(owner):
        return None
    try:
        inspect.getattr_static(owner, attribute)
    except AttributeError:
        return None
    return owner, attribute


def _recording(fn, name: str, request_arg, recorder: SpanRecorder):
    enter, leave = recorder.enter, recorder.exit

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        request_id = None
        if request_arg is not None and len(args) > request_arg:
            request_id = getattr(args[request_arg], "request_id", None)
        index = enter(name, request_id)
        try:
            return fn(*args, **kwargs)
        finally:
            leave(index)

    traced.__perfbench_span__ = name
    return traced


class Instrumentation:
    """Swap recording wrappers in for a set of boundaries, then back.

    Use as a context manager; :attr:`absent` lists the boundaries whose
    target could not be found (they are skipped, not fatal).
    """

    def __init__(
        self, boundaries: Sequence[Boundary], recorder: SpanRecorder
    ) -> None:
        self.boundaries = list(boundaries)
        self.recorder = recorder
        self.absent: List[str] = []
        # (owner, attribute, had its own entry, original entry)
        self._saved: List[Tuple[object, str, bool, object]] = []

    def install(self) -> None:
        """Put a recording wrapper on every boundary that exists."""
        if self._saved:
            raise RuntimeError("instrumentation already installed")
        self.absent = []
        for boundary in self.boundaries:
            found = _resolve(boundary.target)
            if found is None:
                self.absent.append(boundary.name)
                continue
            owner, attribute = found
            original = inspect.getattr_static(owner, attribute)
            if not inspect.isfunction(original):
                # Static/class methods and properties are not boundaries.
                self.absent.append(boundary.name)
                continue
            self._saved.append((owner, attribute, attribute in vars(owner),
                                original))
            setattr(
                owner,
                attribute,
                _recording(
                    original, boundary.name, boundary.request_arg,
                    self.recorder,
                ),
            )

    def restore(self) -> None:
        """Put every original back (inherited ones by deleting ours)."""
        while self._saved:
            owner, attribute, own, original = self._saved.pop()
            if own:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)

    def restored(self) -> bool:
        """Whether no boundary still carries a recording wrapper."""
        for boundary in self.boundaries:
            found = _resolve(boundary.target)
            if found is None:
                continue
            if hasattr(inspect.getattr_static(*found), "__perfbench_span__"):
                return False
        return True

    def __enter__(self) -> "Instrumentation":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()
