"""Outside-in span tracer for projstat.

The tracer wraps public functions of the library from the benchmark's own
code; nothing under ``src/`` knows it exists.  A wrapped function is rebound
at every import site: each loaded ``projstat`` module (and each class) that
holds the original object gets the wrapper, so a verifier that did
``from .stats import stat_record`` is traced too.  Generators are traced one
``next()`` at a time, so the span covers the enumeration work and not the
consumer's loop body.

Spans are kept in memory in compact arrays (span id, name id, parent span
id, start, end) and written out by :meth:`Tracer.dump` when the run ends.  Self time,
a span's duration minus the time its child spans cover, is accumulated per
span name as spans close.
"""

from __future__ import annotations

import functools
import json
import sys
from array import array
from time import perf_counter
from pathlib import Path

_NO_PARENT = -1


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.extra: dict[str, float] = {}
        # spans in closing order; ids count up in opening order
        self._next_id = 0
        self.span_id = array("l")
        self.span_name = array("H")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        # open spans: [span id, parent id, start, time covered by closed children]
        self._stack: list[list] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- span bookkeeping ----------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
        return self._ids[name]

    def _open(self) -> list:
        stack = self._stack
        frame = [self._next_id, stack[-1][0] if stack else _NO_PARENT, 0.0, 0.0]
        self._next_id += 1
        stack.append(frame)
        frame[2] = perf_counter()
        return frame

    def _close(self, nid: int, frame: list) -> None:
        end = perf_counter()
        sid, parent, start, covered = frame
        stack = self._stack
        stack.pop()
        duration = end - start
        self.span_id.append(sid)
        self.span_name.append(nid)
        self.span_parent.append(parent)
        self.span_start.append(start)
        self.span_end.append(end)
        self.calls[nid] += 1
        self.self_s[nid] += duration - covered
        if stack:
            stack[-1][3] += duration

    def add(self, counter: str, amount: float) -> None:
        self.extra[counter] = self.extra.get(counter, 0) + amount

    # -- wrappers -------------------------------------------------------------

    def wrap_function(self, fn, name: str, count=None):
        """A traced stand-in for ``fn``; ``count(tracer, args, result)`` may add counters."""
        nid = self._name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self._open()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(nid, frame)
            if count is not None:
                count(self, args, result)
            return result

        return traced

    def wrap_generator(self, fn, name: str):
        """A traced stand-in for a generator function: one span per ``next()``."""
        nid = self._name_id(name)
        items = name + ".items"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            n = 0
            try:
                while True:
                    frame = self._open()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self._close(nid, frame)
                    n += 1
                    yield item
            finally:
                it.close()
                self.add(items, n)

        return traced

    # -- installation ------------------------------------------------------------

    def install(self, owner, attr: str, wrapper_for) -> None:
        """Replace ``owner.attr`` wherever the same object is bound.

        Every loaded ``projstat`` module is searched, plus ``owner`` itself
        when it is a class (where aliases such as ``__rmul__ = __mul__``
        share one function object).
        """
        original = getattr(owner, attr) if not isinstance(owner, type) else vars(owner)[attr]
        wrapped = wrapper_for(original)
        sites = [
            mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == "projstat" or name.startswith("projstat."))
        ]
        if isinstance(owner, type):
            sites.append(owner)
        bound = 0
        for site in sites:
            for key, value in list(vars(site).items()):
                if value is original:
                    setattr(site, key, wrapped)
                    self._patched.append((site, key, original))
                    bound += 1
        if not bound:
            raise RuntimeError(f"{owner!r}.{attr} is not bound anywhere")

    def uninstall(self) -> None:
        for site, key, original in reversed(self._patched):
            setattr(site, key, original)
        self._patched.clear()

    # -- results ---------------------------------------------------------------

    def totals(self) -> dict[str, tuple[int, float]]:
        """Per span name: (calls, self seconds)."""
        return {
            name: (self.calls[i], self.self_s[i]) for i, name in enumerate(self.names)
        }

    def dump(self, stem: Path) -> None:
        """Write the spans as ``<stem>.spans.json`` (header) and ``<stem>.spans.bin``."""
        columns = (self.span_id, self.span_name, self.span_parent, self.span_start, self.span_end)
        header = {
            "names": self.names,
            "count": len(self.span_id),
            "columns": ["id", "name", "parent", "start", "end"],
            "typecodes": [col.typecode for col in columns],
        }
        stem.parent.mkdir(parents=True, exist_ok=True)
        with open(f"{stem}.spans.bin", "wb") as fh:
            for col in columns:
                col.tofile(fh)
        Path(f"{stem}.spans.json").write_text(json.dumps(header))


def load_spans(stem: Path) -> tuple[list[str], list[tuple[int, int, int, float, float]]]:
    """Read spans written by :meth:`Tracer.dump`: (names, [(id, name, parent, start, end)])."""
    header = json.loads(Path(f"{stem}.spans.json").read_text())
    count = header["count"]
    columns = []
    with open(f"{stem}.spans.bin", "rb") as fh:
        for code in header["typecodes"]:
            col = array(code)
            col.fromfile(fh, count)
            columns.append(col)
    return header["names"], list(zip(*columns))
