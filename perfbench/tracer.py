"""Outside-in span recorder: times a layer by wrapping its public entry points.

Nothing in ``src/`` knows it is being traced.  :class:`Tracer` replaces each
target callable with a timing wrapper — on its defining module or class *and*
on every ``repro.*`` module that imported the same object under some name
(``graph_fingerprint`` in ``repro.inference.pool``, ``expand_frontier`` in
``repro.inference.pregel_adaptor``) — and :meth:`Tracer.uninstall` puts every
original back.

Spans are aggregated as they close instead of being stored: each thread keeps
its own span stack (gateway ticks run on worker threads) and its own table of
``(op, name) -> [inclusive seconds, self seconds, calls, extra]``.  ``op`` is
the id the client sets on :attr:`Tracer.op` before each operation; the
benchmark is a closed loop, so exactly one operation is in flight and every
span that closes belongs to it.  A span's self time is its duration minus the
durations of the spans it directly encloses.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

#: ``extra(args, kwargs, result) -> float`` — a per-call quantity summed into
#: the span's fourth accumulator (bytes hashed, frontier share, ...).
Extra = Callable[[tuple, dict, Any], float]


@dataclass(frozen=True)
class Target:
    """One entry point to wrap: ``module:qualname`` reported as ``name``."""

    module: str
    qualname: str
    name: str
    extra: Optional[Extra] = None


Key = Tuple[Any, str]
Table = Dict[Key, List[float]]


class Tracer:
    """Installs timing wrappers for a list of :class:`Target` and aggregates."""

    def __init__(self, targets: List[Target]) -> None:
        self.targets = list(targets)
        #: Id of the operation in flight; set by the client before each op.
        self.op: Any = None
        self._local = threading.local()
        self._tables: List[Table] = []
        self._tables_lock = threading.Lock()
        self._patched: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------ #
    def _thread_state(self) -> Tuple[List[List[float]], Table]:
        local = self._local
        stack = getattr(local, "stack", None)
        if stack is None:
            stack = local.stack = []
            local.table = {}
            with self._tables_lock:
                self._tables.append(local.table)
        return stack, local.table

    def _wrap(self, fn: Callable[..., Any], name: str,
              extra: Optional[Extra]) -> Callable[..., Any]:
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack, table = tracer._thread_state()
            frame = [0.0]            # time covered by directly enclosed spans
            stack.append(frame)
            started = clock()
            result, ok = None, False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                duration = clock() - started
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                key = (tracer.op, name)
                acc = table.get(key)
                if acc is None:
                    acc = table[key] = [0.0, 0.0, 0, 0.0]
                acc[0] += duration
                acc[1] += duration - frame[0]
                acc[2] += 1
                if ok and extra is not None:
                    acc[3] += extra(args, kwargs, result)

        return wrapper

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every target wherever the same object is bound in ``repro``."""
        if self._patched:
            raise RuntimeError("tracer is already installed")
        try:
            for target in self.targets:
                module = importlib.import_module(target.module)
                *path, attr = target.qualname.split(".")
                owner: Any = module
                for part in path:
                    owner = getattr(owner, part)
                raw = owner.__dict__[attr]
                if isinstance(raw, (staticmethod, classmethod)):
                    raise TypeError(f"{target.qualname}: static/class methods "
                                    "are not supported")
                wrapped = self._wrap(raw, target.name, target.extra)
                self._set(owner, attr, wrapped)
                if path:
                    continue         # methods are looked up through the class
                # A module-level function may have been imported by name into
                # other modules; patch every such binding.
                for mod_name, other in list(sys.modules.items()):
                    if (other is None or other is module
                            or not mod_name.startswith("repro")):
                        continue
                    for alias, value in list(vars(other).items()):
                        if value is raw:
                            self._set(other, alias, wrapped)
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def patched(self) -> List[Tuple[Any, str, Any]]:
        """``(owner, attribute, original)`` for every live patch."""
        return list(self._patched)

    # ------------------------------------------------------------------ #
    def table(self) -> Table:
        """Merged ``(op, name) -> [inclusive_s, self_s, calls, extra]``."""
        merged: Table = {}
        with self._tables_lock:
            tables = list(self._tables)
        for table in tables:
            for key, acc in list(table.items()):
                into = merged.setdefault(key, [0.0, 0.0, 0, 0.0])
                for i in range(4):
                    into[i] += acc[i]
        return merged
