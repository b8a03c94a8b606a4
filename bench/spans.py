"""Spans and counters around the public functions of each rootsos module.

The wrappers are installed from outside the package, on the attribute that
each caller looks up (for example `rootsos.lifting.factor_over_Q`, which
`certify_nonnegative` calls, not `rootsos.factorq.factor_over_Q`), and are
removed again by `uninstall`, so an untraced call runs the unmodified code.
Spans stay in memory until the run ends.

A span's self time is its duration minus the durations of its child spans.
The `ratpoly` counters are sums, not spans: their time is part of the self
time of whichever span was open.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict


def _digits(args, kwargs, _result):
    return kwargs.get("digits", args[1] if len(args) > 1 else None)


def _factor_info(_args, _kwargs, result):
    return [len(result.factors), max(int(p.degree) for p, _e in result.factors)]


# (module, attribute, span name, info recorded from (args, kwargs, result))
TARGETS = (
    ("rootsos.cli", "cmd_certify", "cli.cmd_certify", None),
    ("rootsos.cli", "cmd_verify", "cli.cmd_verify", None),
    ("rootsos.cli", "parse_poly", "cli.parse", None),
    ("rootsos.cli", "certify_nonnegative", "lifting.certify_nonnegative", None),
    ("rootsos.lifting", "reduce_nonneg_to_strict", "lifting.reduce", None),
    ("rootsos.lifting", "factor_over_Q", "factorq.factor", _factor_info),
    ("rootsos.lifting", "certify_strict_squarefree", "exactify.strict", None),
    ("rootsos.lifting", "hensel_lift_sos", "lifting.hensel", None),
    ("rootsos.lifting", "crt_combine_sos", "lifting.crt", None),
    ("rootsos.lifting", "verify", "certificate.verify", None),
    ("rootsos.numeric", "find_roots", "numeric.find_roots",
     lambda _a, _k, r: r.precision_bits),
    ("rootsos.numeric", "sturm_real_root_count", "numeric.sturm", None),
    ("rootsos.numeric", "build_interior_gram", "numeric.gram", None),
    ("rootsos.numeric", "lagrange_basis", "numeric.lagrange", None),
    ("rootsos.exactify", "round_to_digits", "exactify.round", _digits),
    ("rootsos.exactify", "project", "exactify.project", None),
    ("rootsos.exactify", "check_positive_definite", "exactify.ldl",
     lambda _a, _k, r: r is not None),
    ("rootsos.exactify", "gram_to_sos", "exactify.gram_to_sos", None),
    ("rootsos.certificate", "serialize", "certificate.serialize", None),
    ("rootsos.certificate", "deserialize", "certificate.deserialize", None),
    ("rootsos.certificate", "verify", "certificate.verify", None),
)


class Tracer:
    """Collects spans as [name, start, end, parent, instance, phase, info]."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.instance = ""
        self.phase = ""
        self.counts: dict[str, int] = defaultdict(int)
        self.mul_s = 0.0
        self._mul_depth = 0
        self._saved: list[tuple[object, str, object]] = []

    # -- spans ----------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.instance,
                           self.phase, None])
        index = len(self.spans) - 1
        self.stack.append(index)
        return index

    def close(self, index: int, info=None) -> None:
        self.spans[index][2] = time.perf_counter()
        self.spans[index][6] = info
        self.stack.pop()

    def _wrap(self, fn, name: str, info):
        tracer = self

        def traced(*args, **kwargs):
            index = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.close(index)
                raise
            tracer.close(index, tracer._info(info, args, kwargs, result))
            return result

        return traced

    @staticmethod
    def _info(info, args, kwargs, result):
        """The span's info, or None when there is none or when a later
        version of rootsos returns something this probe cannot read."""
        if info is None:
            return None
        try:
            return info(args, kwargs, result)
        except (AttributeError, TypeError, ValueError, IndexError):
            return None

    # -- ratpoly counters -----------------------------------------------

    def _count(self, fn, key: str, timed: bool):
        tracer = self

        def counted(*args, **kwargs):
            tracer.counts[key] += 1
            if not timed or tracer._mul_depth:
                return fn(*args, **kwargs)
            tracer._mul_depth += 1
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.mul_s += time.perf_counter() - start
                tracer._mul_depth -= 1

        return counted

    # -- installation ---------------------------------------------------

    def _replace(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap every target that exists.  A target that a later version of
        rootsos removes or moves is skipped, and its metrics read zero."""
        for module_name, attr, name, info in TARGETS:
            module = importlib.import_module(module_name)
            if hasattr(module, attr):
                self._replace(module, attr, self._wrap(getattr(module, attr), name, info))
        poly = importlib.import_module("rootsos.ratpoly").Poly
        lifting = importlib.import_module("rootsos.lifting")
        for owner, attr, key, timed in ((poly, "__mul__", "mul", True),
                                        (poly, "__divmod__", "divmod", False),
                                        (lifting, "extended_gcd", "xgcd", False)):
            if hasattr(owner, attr):
                self._replace(owner, attr, self._count(getattr(owner, attr), key, timed))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- analysis -------------------------------------------------------

    def self_times(self, keep) -> dict[str, float]:
        """Total self time per span name over spans whose index passes keep."""
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent, *_ in self.spans:
            if parent is not None:
                child_s[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, *_rest) in enumerate(self.spans):
            if keep(i):
                out[name] += (end - start) - child_s[i]
        return dict(out)

    def write(self, path) -> None:
        """One JSON object per span; times in seconds from the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            for i, (name, start, end, parent, instance, phase, info) in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": i, "name": name, "start": round(start - origin, 7),
                    "end": round(end - origin, 7), "parent": parent,
                    "instance": instance, "phase": phase, "info": info,
                }) + "\n")
