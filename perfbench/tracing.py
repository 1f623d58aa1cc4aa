"""In-memory spans and counts around the calls into each asymconv module.

A module binds the names it imports when it is imported, so a wrapper
has to replace a name in the module whose code looks it up (for example
``asymconv.fiber_demo.eval_kernel_integral``), not only where it is
defined.  The package itself is never edited: every wrapper is installed
by :meth:`Tracer.install` and removed again by :meth:`Tracer.uninstall`.

Spans are kept in memory while the workload runs and written out once,
after it ends.  A span's self time is its duration minus the part of
its interval covered by its direct children.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import threading
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional, Tuple


def spec_id(spec) -> str:
    """Stable identifier of a KernelSpec, shared by all spans of one spec."""
    return "%s,%s,%d,%d,%d,%d,%s" % (
        spec.a, spec.b, spec.p, spec.q, spec.j, spec.k, spec.chirality.value
    )


class Tracer:
    """Collects spans (name, start, end, parent, spec id) and counts."""

    def __init__(self) -> None:
        # (id, name, start, end, parent id, spec id, first-call flag)
        self.spans: List[Tuple[int, str, float, float, Optional[int], Optional[str], bool]] = []
        self.counts: Counter = Counter()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._root: Optional[Tuple[int, Optional[str]]] = None
        self._pass = 0
        self._seen: set = set()
        self._patches: List[Tuple[object, str, object]] = []

    # -- spans --------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, spec: Optional[str] = None, root: bool = False,
             first: bool = False):
        """Time the enclosed block as one span.

        A span opened on a thread with nothing open (a worker of the
        ``verify --jobs`` pool) takes the innermost ``root`` span as its
        parent, so pool work still nests under the CLI call that caused it.
        """
        stack = self._stack()
        parent = stack[-1] if stack else self._root
        if spec is None and parent is not None:
            spec = parent[1]
        sid = next(self._ids)
        entry = (sid, spec)
        stack.append(entry)
        saved_root = self._root
        if root:
            self._root = entry
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            if root:
                self._root = saved_root
            self.spans.append(
                (sid, name, start, end, parent[0] if parent else None, spec, first)
            )

    def count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counts[name] += n

    def new_pass(self) -> None:
        """Start a pass with a cold moment cache: first calls count anew."""
        with self._lock:
            self._pass += 1

    def _first_call(self, name: str, spec: str) -> bool:
        key = (self._pass, name, spec)
        with self._lock:
            if key in self._seen:
                return False
            self._seen.add(key)
            return True

    # -- wrappers -----------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, by_spec: bool = False,
             after: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` with a function that records a span.

        ``by_spec`` takes the spec id from the first argument and flags the
        first call per spec and pass; ``after(tracer, args, result)`` adds
        counts once the call returns.
        """
        raw = owner.__dict__[attr]
        original = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            spec = spec_id(args[0]) if by_spec else None
            first = by_spec and tracer._first_call(name, spec)
            with tracer.span(name, spec=spec, first=first):
                result = original(*args, **kwargs)
            if after is not None:
                after(tracer, args, result)
            return result

        self._patches.append((owner, attr, raw))
        setattr(owner, attr, staticmethod(wrapper) if isinstance(raw, staticmethod) else wrapper)

    def install(self) -> None:
        """Wrap every call site the per-layer metrics are read from."""
        from asymconv import cli, convolution_engine, expansion_algebra
        from asymconv import fiber_demo, quadrature_oracle

        eval_name = "quadrature_oracle.eval_kernel_integral"
        fit_name = "quadrature_oracle.fit_radial_samples"
        klc_name = "convolution_engine.kernel_leading_constant"
        for module in (quadrature_oracle, fiber_demo):
            self.wrap(module, "eval_kernel_integral", eval_name, by_spec=True)
            self.wrap(module, "fit_radial_samples", fit_name)
        for module in (quadrature_oracle, convolution_engine):
            self.wrap(module, "kernel_leading_constant", klc_name)
        for fn in ("F_const", "tilde_F_const", "degenerate_case1_coeff",
                   "integer_case_log_coeff"):
            self.wrap(convolution_engine, fn, "gamma_kernel." + fn)
        self.wrap(cli, "verify_constant", "quadrature_oracle.verify_constant", by_spec=True)
        self.wrap(cli, "thom_sebastiani_demo", "fiber_demo.thom_sebastiani_demo")
        self.wrap(cli, "convolve_expansions", "convolution_engine.convolve_expansions",
                  after=_count_convolution)
        self.wrap(cli, "combine_types", "expansion_algebra.combine_types")
        self.wrap(cli, "canonical_json", "expansion_algebra.canonical_json",
                  after=_count_bytes)
        self.wrap(expansion_algebra.Expansion, "from_json_dict",
                  "expansion_algebra.Expansion.from_json_dict")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # -- derived figures ----------------------------------------------------

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, total seconds, self seconds, first calls."""
        children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
        for sid, _, start, end, parent, _, _ in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        out: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "first_calls": 0, "first_s": 0.0}
        )
        for sid, name, start, end, _, _, first in self.spans:
            row = out[name]
            row["calls"] += 1
            row["s"] += end - start
            row["self_s"] += (end - start) - _covered(start, end, children.get(sid, ()))
            if first:
                row["first_calls"] += 1
                row["first_s"] += end - start
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, spec, first in self.spans:
                fh.write(json.dumps({
                    "id": sid, "name": name, "start": start, "end": end,
                    "parent": parent, "spec": spec, "first": first,
                }) + "\n")
            fh.write(json.dumps({"counts": dict(self.counts)}) + "\n")


def _covered(start: float, end: float, intervals) -> float:
    """Length of [start, end] covered by the union of the intervals."""
    total = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def _count_convolution(tracer: Tracer, args, result) -> None:
    tracer.count("convolution_engine.term_pairs", len(args[0].terms) * len(args[1].terms))
    tracer.count("convolution_engine.output_terms", len(result.terms))
    tracer.count("convolution_engine.compensated_keys", len(result.compensated))


def _count_bytes(tracer: Tracer, args, result) -> None:
    tracer.count("expansion_algebra.canonical_json.bytes", len(result.encode("utf-8")))
