"""Spans recorded around calls into the program, from outside it.

A ``Tracer`` replaces a function with a timing wrapper at the name its
caller resolves (a module attribute such as ``tempseg.train.adam_step``,
or a class attribute such as ``CompGraph.from_output``), so the program's
source is untouched.  Each span has a name, a start, an end and a parent;
spans stay in memory until ``dump`` writes them out at the end of a run.

Calls are recorded only inside an open root span (``tracer.root(...)``),
so work outside the measured units passes straight through.  The program
is single-threaded, so spans nest strictly and a span's children never
overlap: its self time is its duration minus the sum of its children's.
"""

import contextlib
import json
import time
from dataclasses import dataclass, field


@dataclass(eq=False)
class Span:
    name: str
    start: float
    parent: "Span | None"
    end: float = 0.0
    child_s: float = 0.0          # time covered by direct children
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s

    def root(self) -> "Span":
        span = self
        while span.parent is not None:
            span = span.parent
        return span


@contextlib.contextmanager
def patched(owner, attr: str, make_wrapper):
    """Replace ``owner.attr`` by ``make_wrapper(original)`` for the block.

    Class attributes keep their descriptor kind, so a wrapped classmethod
    is still called as ``Class.method(...)``.
    """
    raw = vars(owner)[attr]
    wrapper = make_wrapper(getattr(owner, attr))
    if isinstance(raw, (classmethod, staticmethod)):
        wrapper = staticmethod(wrapper)
    setattr(owner, attr, wrapper)
    try:
        yield
    finally:
        setattr(owner, attr, raw)


def after_call(hook):
    """Wrapper factory that passes each call's result and arguments to hook."""
    def make(original):
        def wrapper(*args, **kwargs):
            result = original(*args, **kwargs)
            hook(result, *args, **kwargs)
            return result
        return wrapper
    return make


class Tracer:
    """In-memory span recorder for a fixed set of wrapped call sites.

    ``sites`` lists ``(owner, attr, span_name, count)``; ``count`` is None
    or a function of ``(result, *args, **kwargs)`` returning a dict of
    counts stored on the span.
    """

    def __init__(self, sites):
        self.sites = sites
        self.spans: list[Span] = []
        self._open: list[Span] = []

    def _push(self, name: str) -> Span:
        span = Span(name, 0.0, self._open[-1] if self._open else None)
        self._open.append(span)
        span.start = time.perf_counter()
        return span

    def _pop(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._open.pop()
        if span.parent is not None:
            span.parent.child_s += span.duration
        self.spans.append(span)

    @contextlib.contextmanager
    def root(self, name: str):
        """A top-level span (one measured unit, or set-up)."""
        span = self._push(name)
        try:
            yield span
        finally:
            self._pop(span)

    def _make(self, name: str, count):
        def make(original):
            def traced(*args, **kwargs):
                if not self._open:
                    return original(*args, **kwargs)
                span = self._push(name)
                try:
                    result = original(*args, **kwargs)
                finally:
                    self._pop(span)
                if count is not None:
                    span.attrs.update(count(result, *args, **kwargs))
                return result
            return traced
        return make

    @contextlib.contextmanager
    def installed(self):
        """Wrap every site for the block and restore the originals after."""
        with contextlib.ExitStack() as stack:
            for owner, attr, name, count in self.sites:
                stack.enter_context(patched(owner, attr,
                                            self._make(name, count)))
            yield self

    def dump(self, path) -> None:
        """Write every span as JSON lines, parents referenced by index."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        with open(path, "w") as fh:
            for i, span in enumerate(self.spans):
                parent = (None if span.parent is None
                          else index[id(span.parent)])
                fh.write(json.dumps({
                    "id": i, "name": span.name, "parent": parent,
                    "start": span.start, "end": span.end,
                    "self_s": span.self_s, "attrs": span.attrs}) + "\n")
