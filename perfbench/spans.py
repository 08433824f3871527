"""In-memory span recorder for the traced benchmark run.

The program carries no tracing of its own. The recorder wraps public
functions by replacing the module (or class) attribute that their callers
look up, in this process only; Spark workers import the unwrapped code.
Each span keeps its name, start, end, parent span and request id, plus one
note taken at the boundary (a tree size, a user id). Spans stay in memory
and are written out once, when the run ends.
"""
import importlib
import inspect
import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int      # index of the enclosing span, -1 at top level
    request: int
    note: object = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Recorder:
    """Records spans while installed; ``install``/``uninstall`` swap the
    wrapped attributes in and out so traced and untraced requests can
    alternate within one run."""

    def __init__(self, targets):
        # targets: (dotted module path, attribute path, span name, note fn)
        self.spans: list = []
        self.request = -1
        self.active = False
        self._stack: list = []
        self._patches = []
        for module, attr, name, note in targets:
            owner = importlib.import_module(module)
            *outer, leaf = attr.split(".")
            for part in outer:
                owner = getattr(owner, part)
            # Read through the class dict so a method stays a plain function.
            orig = (
                owner.__dict__[leaf] if inspect.isclass(owner) else getattr(owner, leaf)
            )
            self._patches.append((owner, leaf, orig, self._wrap(name, orig, note)))

    def _open(self, name: str) -> Span:
        stack = self._stack
        span = Span(name, 0.0, 0.0, stack[-1] if stack else -1, self.request)
        stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn, note):
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if note is not None:
                span.note = note(args, result)
            return result

        return traced

    def install(self) -> None:
        for owner, leaf, _, wrapped in self._patches:
            setattr(owner, leaf, wrapped)
        self.active = True

    def uninstall(self) -> None:
        for owner, leaf, orig, _ in reversed(self._patches):
            setattr(owner, leaf, orig)
        self.active = False

    @contextmanager
    def root(self, name: str, request: int):
        """A top-level span of the benchmark's own around one request."""
        self.request = request
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def dump(self) -> list:
        return [
            [s.name, s.start, s.end, s.parent, s.request, _plain(s.note)]
            for s in self.spans
        ]


def _plain(x):
    return x.item() if hasattr(x, "item") else x


def self_seconds(spans: list) -> list:
    """Per-span self time: the span's duration minus its children's.
    Spans of one thread nest, so the children never overlap."""
    own = [s.seconds for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.seconds
    return own


def under(spans: list, ancestor: str) -> list:
    """For each span, whether some enclosing span is named ``ancestor``."""
    flag = [False] * len(spans)
    for i, s in enumerate(spans):
        if s.parent >= 0:
            flag[i] = flag[s.parent] or spans[s.parent].name == ancestor
    return flag
