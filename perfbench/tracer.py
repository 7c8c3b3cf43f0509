"""Spans at the boundaries between lensring modules, recorded from outside.

A boundary is a function (or the RingElement product) that one module
calls in another.  Callers resolve it in different namespaces: valuation
binds `project` with `from .ring import project`, polynomials reaches
`ring._eval_f2_vec` through the module attribute, and cli imports most
names directly.  `Tracer.install` therefore replaces the function in every
lensring namespace that holds the same object, so each caller reaches the
wrapper, and `uninstall` puts the originals back.

A span is (name, start, end, parent).  Spans stay in memory; `write`
dumps them as JSON lines when the run ends.  Re-entering a boundary that
is already open (r_minus recursing, evaluate_at_f_squared calling
_eval_f2_vec) records no new span, so `calls` counts outermost entries
and self time is never counted twice.
"""

from __future__ import annotations

import importlib
import io
import json
import math
import sys
import time
from collections import defaultdict

# the worker's clock: CPU time of this process
CLOCK = time.process_time
MODULES = ("ring", "valuation", "polynomials", "structure", "cli")


def _den_bits(args, _result, stats):
    element = args[0]
    den = math.lcm(*(c.denominator for c in element.coeffs))
    stats["ring.den_bits.max"] = max(stats["ring.den_bits.max"],
                                     den.bit_length())


def _search(args, result, stats):
    stats["polynomials.search.candidates"] += 1 << len(args[1])
    stats["polynomials.search.winners"] += len(result)


def _enumerate_a(args, result, stats):
    K, d = args[0], args[2]
    c = (d - 1) // 2
    stats["polynomials.enumerate_A.tuples"] += 1 << (K * c)
    stats["polynomials.enumerate_A.members"] += 1 << (K * c - result.index_exponent)


def _smith(args, _result, stats):
    matrix = args[0]
    cells = len(matrix) * (len(matrix[0]) if matrix else 0)
    stats["polynomials.smith.max_cells"] = max(
        stats["polynomials.smith.max_cells"], cells)


def _kernel(args, result, stats):
    d, K = args[0], args[1]
    stats["structure.kernel_oracle.tuples"] += 1 << (K * ((d - 1) // 2))
    stats["structure.kernel_oracle.members"] += result.order


def _cli_output(_args, _result, stats):
    out = sys.stdout
    if isinstance(out, io.StringIO):
        stats["cli.main.output_bytes"] += len(out.getvalue().encode("utf-8"))


# (span name, defining module, attribute, observer of args and result)
BOUNDARIES = (
    ("ring.mul", "ring", "RingElement.__mul__", None),
    ("ring.project", "ring", "project", None),
    ("ring.crt_reconstruct", "ring", "crt_reconstruct", None),
    ("ring.invert", "ring", "invert", None),
    ("ring.family_eval", "ring", "_eval_f2_vec", None),
    ("ring.family_eval", "ring", "_family_vec", None),
    ("ring.family_eval", "ring", "evaluate_at_f_squared", None),
    ("ring.residue_images", "ring", "_residue_images", None),
    ("valuation.w_l", "valuation", "w_l", _den_bits),
    ("valuation.normal_form", "valuation", "normal_form", None),
    ("valuation.criterion", "valuation", "criterion_sufficient", None),
    ("valuation.criterion", "valuation", "criterion_necessary", None),
    ("valuation.criterion", "valuation", "criterion_necessary_search", None),
    ("polynomials.r_minus", "polynomials", "r_minus", None),
    ("polynomials.search", "polynomials", "_search_winners", _search),
    ("polynomials.enumerate_A", "polynomials", "brute_force_A", _enumerate_a),
    ("polynomials.smith", "polynomials", "_smith_normal_form", _smith),
    ("polynomials.shape_remark", "polynomials", "shape_remark_report", None),
    ("structure.kernel_oracle", "structure", "kernel_oracle", _kernel),
    ("structure.rho_bracket", "structure", "rho_bracket", None),
    ("cli.main", "cli", "main", _cli_output),
)

# stats the observers add up, reported per traced pass
SUMMED_STATS = (
    "polynomials.search.candidates", "polynomials.enumerate_A.tuples",
    "structure.kernel_oracle.tuples", "cli.main.output_bytes",
)
# stats the observers keep the maximum of
MAX_STATS = ("ring.den_bits.max", "polynomials.smith.max_cells")
# (metric, numerator stat, denominator stat) for the useful-outcome ratios
RATIOS = (
    ("polynomials.search.winner_ratio",
     "polynomials.search.winners", "polynomials.search.candidates"),
    ("polynomials.enumerate_A.member_ratio",
     "polynomials.enumerate_A.members", "polynomials.enumerate_A.tuples"),
    ("structure.kernel_oracle.member_ratio",
     "structure.kernel_oracle.members", "structure.kernel_oracle.tuples"),
)


class Tracer:
    """Records spans around wrapped calls; one instance per traced run."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stats: dict[str, int] = defaultdict(int)
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._open: dict[str, int] = defaultdict(int)
        self._patches: list[tuple[object, str, object]] = []

    def call(self, name: str, fn, *args, observer=None, **kwargs):
        """Run fn inside a span called name (no new span when name is open)."""
        if self._open[name]:
            return fn(*args, **kwargs)
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        span = [name, 0.0, 0.0, parent]
        self.spans.append(span)
        self._stack.append(index)
        self._open[name] += 1
        span[1] = CLOCK()
        try:
            result = fn(*args, **kwargs)
            if observer is not None:
                observer(args, result, self.stats)
            return result
        finally:
            span[2] = CLOCK()
            self._stack.pop()
            self._open[name] -= 1

    def _wrap(self, name, fn, observer):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, observer=observer, **kwargs)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every boundary in each lensring namespace that binds it."""
        package = importlib.import_module("lensring")
        namespaces = [package] + [
            importlib.import_module(f"lensring.{m}") for m in MODULES
        ]
        for name, module, attr, observer in BOUNDARIES:
            owner = importlib.import_module(f"lensring.{module}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name, None)
                fn = getattr(cls, meth, None) if cls is not None else None
                if fn is None:
                    self.missing.append(f"{module}.{attr}")
                    continue
                self._patches.append((cls, meth, fn))
                setattr(cls, meth, self._wrap(name, fn, observer))
                continue
            fn = getattr(owner, attr, None)
            if fn is None:
                self.missing.append(f"{module}.{attr}")
                continue
            wrapper = self._wrap(name, fn, observer)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is fn:
                        self._patches.append((ns, key, fn))
                        setattr(ns, key, wrapper)

    def uninstall(self) -> None:
        for target, key, original in reversed(self._patches):
            setattr(target, key, original)
        self._patches.clear()

    def self_times(self) -> tuple[dict[str, int], dict[str, float], float]:
        """Per-name call counts and self seconds, and the root-span total."""
        child_time = [0.0] * len(self.spans)
        root_total = 0.0
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
            else:
                root_total += end - start
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _parent) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (end - start) - child_time[i]
        return calls, self_s, root_total

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent in self.spans:
                handle.write(json.dumps([name, start, end, parent]) + "\n")
