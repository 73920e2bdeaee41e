"""A span tracer that wraps library functions from outside the library.

:meth:`Tracer.install` replaces each target function by a wrapper in every
loaded ``ggx`` module: module attributes that are the function itself, and
module-level tuples, lists and dicts that hold it (``ggx.cli._VALIDATORS``
is one such table, filled at import time).  Imports inside function bodies
resolve the module attribute at call time, so they see the wrapper too.
:meth:`Tracer.restore` puts every original binding back.

A span is ``[name, start, end, parent, is_call]``.  A generator function
records one span per resumption, from ``next`` to the following ``yield``;
only its first resumption counts as a call.  Spans stay in memory until
:meth:`Tracer.dump`.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import pkgutil
import sys
import time
from collections import defaultdict

PACKAGE = "ggx"
_CONTAINER_DEPTH = 3


class Tracer:
    def __init__(self, targets, clock=time.perf_counter):
        """``targets`` are dotted names relative to the ``ggx`` package,
        such as ``"groups.validate_group"``."""
        self.targets = tuple(targets)
        self.clock = clock
        self.spans: list[list] = []
        self.counters: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    # -- recording -------------------------------------------------------

    def _open(self, name: str, is_call: bool) -> int:
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append([name, self.clock(), 0.0, parent, is_call])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = self.clock()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span opened by the harness."""
        idx = self._open(name, True)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name: str, fn):
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                first = True
                try:
                    while True:
                        idx = self._open(name, first)
                        first = False
                        try:
                            item = next(it)
                        except StopIteration:
                            return
                        finally:
                            self._close(idx)
                        self.counters[name + ".yielded"] += 1
                        yield item
                finally:
                    it.close()
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name, True)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
        return wrapper

    # -- installing ------------------------------------------------------

    def _modules(self):
        """The package and every module in it, imported first so that no
        module can bind a wrapper by importing during the trace."""
        root = importlib.import_module(PACKAGE)
        for info in pkgutil.iter_modules(root.__path__):
            importlib.import_module(f"{PACKAGE}.{info.name}")
        return [m for key, m in sorted(sys.modules.items())
                if m is not None and (key == PACKAGE or
                                      key.startswith(PACKAGE + "."))]

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = self._modules()
        replace = {}
        for target in self.targets:
            module_name, attr = target.rsplit(".", 1)
            module = sys.modules[f"{PACKAGE}.{module_name}"]
            original = getattr(module, attr)
            replace[id(original)] = (original, self.wrap(target, original))
        for module in modules:
            for key, value in list(vars(module).items()):
                new = _swap(value, replace, _CONTAINER_DEPTH)
                if new is not value:
                    self._saved.append((module, key, value))
                    setattr(module, key, new)

    def restore(self) -> None:
        for module, key, value in reversed(self._saved):
            setattr(module, key, value)
        self._saved = []

    # -- reporting -------------------------------------------------------

    def aggregate(self) -> dict:
        """Per span name: ``calls``, total ``wall_s`` and ``self_s``, where
        a span's self time is its duration minus the part of it that its
        child spans cover."""
        children = defaultdict(list)
        for span in self.spans:
            if span[3] >= 0:
                children[span[3]].append((span[1], span[2]))
        out: dict = {}
        for idx, (name, start, end, _parent, is_call) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "wall_s": 0.0,
                                        "self_s": 0.0})
            row["calls"] += int(bool(is_call))
            row["wall_s"] += end - start
            row["self_s"] += end - start - covered(children.get(idx, ()))
        return out

    def count_under(self, name: str, ancestor: str) -> int:
        """Calls of ``name`` made while a span of ``ancestor`` was open."""
        n = 0
        for span in self.spans:
            if span[0] != name or not span[4]:
                continue
            parent = span[3]
            while parent >= 0 and self.spans[parent][0] != ancestor:
                parent = self.spans[parent][3]
            n += parent >= 0
        return n

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counters": dict(self.counters)},
                      fh)


def covered(intervals) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def _swap(value, replace: dict, depth: int):
    """``value`` with every function in ``replace`` swapped for its
    wrapper, rebuilding tuples, lists and dicts that hold one; returns
    ``value`` itself when nothing inside it changed."""
    hit = replace.get(id(value))
    if hit is not None and hit[0] is value:
        return hit[1]
    if depth == 0:
        return value
    if type(value) in (tuple, list):
        items = [_swap(v, replace, depth - 1) for v in value]
        if all(a is b for a, b in zip(items, value)):
            return value
        return type(value)(items)
    if type(value) is dict:
        items = {k: _swap(v, replace, depth - 1) for k, v in value.items()}
        if all(items[k] is v for k, v in value.items()):
            return value
        return items
    return value
