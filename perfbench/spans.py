"""Span recorder for the traced run, installed from outside the package.

Every public function of a ``modalsim`` module is wrapped where another
``modalsim`` module imported it: the wrapper replaces the name in the
importing module's namespace, so a span marks each call that crosses from
one module (layer) into another.  Nothing under ``src/`` is edited, and
:meth:`Recorder.uninstall` puts every original binding back.

Hot calls get count-only wrappers, rebound in every namespace including the
defining module: ``Action.__hash__``, ``sorted_actions``, ``term_text``,
``check_wf`` and ``is_omega_equivalent``.  ``preorders._fixpoint`` gets one
too, which also adds up the pairs each fixpoint evaluation removed.

A span is (function, start, end, parent span, query); its self time is its
duration minus the durations of its child spans.  Spans stay in memory and
are written out once, when the run ends.
"""

from __future__ import annotations

import sys
import time
import types
from collections import defaultdict

COUNT_ONLY = ("sorted_actions", "term_text", "check_wf", "is_omega_equivalent")
# Spans that also add up the length of their first (text) argument.
SIZED = ("textio.parse_system", "textio.parse_system_details")


class Recorder:
    def __init__(self) -> None:
        self.spans: list = []  # (name, start, end, parent index, query index, self time)
        self.counts: dict = defaultdict(int)
        # (formula, printed length) for every formula_text call.
        self.printed: list = []
        self.query = -1
        self._open: list = []  # [span index, start, child time]
        self._restore: list = []  # (namespace, attribute, original)

    # ------------------------------------------------------------ wrappers

    def span(self, fn, name: str):
        """``fn`` wrapped so that each call records a span called ``name``."""
        spans, open_, counts = self.spans, self._open, self.counts
        clock = time.perf_counter
        sized = name in SIZED
        printed = self.printed if name == "formulas.formula_text" else None

        def wrapper(*args, **kwargs):
            if sized:
                counts[f"{name}:bytes"] += len(args[0])
            parent = open_[-1][0] if open_ else -1
            index = len(spans)
            spans.append(None)
            frame = [index, clock(), 0.0]
            open_.append(frame)
            try:
                result = fn(*args, **kwargs)
                if printed is not None:
                    printed.append((args[0], len(result)))
                return result
            finally:
                end = clock()
                open_.pop()
                duration = end - frame[1]
                if open_:
                    open_[-1][2] += duration
                spans[index] = (name, frame[1], end, parent, self.query, duration - frame[2])

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, fn, key: str):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _fixpoint_counter(self, fn):
        counts = self.counts

        def wrapper(left_states, right_states, *args, **kwargs):
            result = fn(left_states, right_states, *args, **kwargs)
            counts["preorders._fixpoint"] += 1
            counts["preorders.removed_pairs"] += len(left_states) * len(right_states) - len(result[0])
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _rebind(self, namespace, attr: str, value) -> None:
        self._restore.append((namespace, attr, getattr(namespace, attr)))
        setattr(namespace, attr, value)

    def install(self) -> None:
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "modalsim" or name.startswith("modalsim.")}
        for mod_name, mod in sorted(modules.items()):
            for attr, value in sorted(vars(mod).items()):
                if attr.startswith("_") or not isinstance(value, types.FunctionType):
                    continue
                home = value.__module__
                if not home.startswith("modalsim."):
                    continue
                short = home.split(".", 1)[1]
                if attr in COUNT_ONLY:
                    key = f"{mod_name}:{attr}"
                    self._rebind(mod, attr, self._counter(value, key))
                elif home != mod_name:
                    self._rebind(mod, attr, self.span(value, f"{short}.{attr}"))
        preorders = modules.get("modalsim.preorders")
        if preorders is not None and hasattr(preorders, "_fixpoint"):
            self._rebind(preorders, "_fixpoint", self._fixpoint_counter(preorders._fixpoint))
        systems = modules.get("modalsim.systems")
        if systems is not None:
            action = systems.Action
            self._rebind(action, "__hash__", self._counter(action.__hash__, "systems.action_hashes"))

    def uninstall(self) -> None:
        while self._restore:
            namespace, attr, original = self._restore.pop()
            setattr(namespace, attr, original)

    # ------------------------------------------------------------ output

    def count(self, suffix: str) -> int:
        """Sum of a count-only wrapper's calls over every namespace."""
        return sum(v for k, v in self.counts.items() if k.endswith(f":{suffix}"))

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            out.write("index\tname\tstart\tend\tparent\tquery\tself\n")
            for i, (name, start, end, parent, query, self_time) in enumerate(self.spans):
                out.write(f"{i}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{query}\t{self_time:.9f}\n")
