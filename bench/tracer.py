"""In-memory spans around calls into the hydrostate package.

The benchmark traces the package from outside: :meth:`Tracer.installed`
replaces every public function of every ``hydrostate`` module, in every
module namespace that refers to it, with a wrapper that records a span, and
puts the originals back on exit. Calls inside the package go through the same
namespaces, so nested calls become child spans and each layer's self time can
be computed. Nothing under ``src/`` holds a timer.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import sys
import time
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass

#: Private module functions wrapped as well; ``cli._emit`` is the CLI's JSON
#: output step, which has no public entry point.
EXTRA_WRAPPED = {("hydrostate.cli", "_emit")}


@dataclass
class Span:
    id: int
    parent: int | None
    request: int | None
    name: str
    start: float
    end: float = 0.0
    tag: str | None = None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans while :attr:`recording` is set; otherwise spans cost one test."""

    def __init__(self, callers=()) -> None:
        """``callers`` are modules outside the package whose calls into it are traced."""
        self.spans: list[Span] = []
        self.recording = False
        self._stack: list[Span] = []
        self._requests = 0
        self._patches = _package_patches(self, callers)

    def span(self, name: str, tag: str | None = None):
        if not self.recording:
            return nullcontext()
        return self._record(name, tag, request=False)

    def request(self, kind: str):
        """Root span of one request; its descendants share its request id."""
        if not self.recording:
            return nullcontext()
        return self._record("bench.request", kind, request=True)

    @contextmanager
    def _record(self, name: str, tag: str | None, request: bool):
        parent = self._stack[-1] if self._stack else None
        if request:
            self._requests += 1
            req = self._requests
        else:
            req = parent.request if parent else None
        span = Span(len(self.spans), parent.id if parent else None, req, name, 0.0, tag=tag)
        self.spans.append(span)
        self._stack.append(span)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def installed(self):
        """Wrap the package's functions and record spans inside the block."""
        for namespace, name, _, wrapper in self._patches:
            namespace[name] = wrapper
        self.recording = True
        try:
            yield
        finally:
            self.recording = False
            for namespace, name, original, _ in self._patches:
                namespace[name] = original

    def self_times(self) -> dict[str, float]:
        """Seconds of self time per layer, summed over spans inside requests."""
        children: dict[int, float] = {}
        for s in self.spans:
            if s.parent is not None:
                children[s.parent] = children.get(s.parent, 0.0) + s.duration
        totals: dict[str, float] = {}
        for s in self.spans:
            if s.request is not None:
                totals[s.layer] = totals.get(s.layer, 0.0) + s.duration - children.get(s.id, 0.0)
        return totals

    def median_ms(self, name: str, *, tag: str | None = None, in_requests: bool = True) -> float:
        """Median duration in ms of the named spans, 0.0 when there are none."""
        values = [
            s.duration
            for s in self.spans
            if s.name == name
            and (tag is None or s.tag == tag)
            and (s.request is not None) == in_requests
        ]
        return 1e3 * statistics.median(values) if values else 0.0

    def write(self, path) -> None:
        """Write the spans as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")


def _package_patches(tracer: Tracer, callers) -> list[tuple[dict, str, object, object]]:
    modules = [m for n, m in sys.modules.items() if n == "hydrostate" or n.startswith("hydrostate.")]
    wrappers = {}
    for module in modules:
        for name, obj in vars(module).items():
            if (
                inspect.isfunction(obj)
                and obj.__module__ == module.__name__
                and (not name.startswith("_") or (module.__name__, name) in EXTRA_WRAPPED)
            ):
                layer = module.__name__.rsplit(".", 1)[-1]
                wrappers[obj] = _wrap(tracer, f"{layer}.{name}", obj)
    return [
        (vars(module), name, obj, wrappers[obj])
        for module in [*modules, *callers]
        for name, obj in vars(module).items()
        if inspect.isfunction(obj) and obj in wrappers
    ]


def _wrap(tracer: Tracer, name: str, func):
    @functools.wraps(func)
    def traced(*args, **kwargs):
        with tracer._record(name, None, request=False) as span:
            result = func(*args, **kwargs)
            # Classifier results carry their verdict, so classify time can be
            # split by the kind of pattern classified.
            verdict = getattr(result, "verdict", None)
            if verdict is not None:
                span.tag = verdict.value
            return result

    return traced
