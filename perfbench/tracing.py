"""Span recorder that times calls into liecs from outside the library.

A traced process installs one wrapper per binding of each timed public
function: ``is_integrable`` is bound in ``complex_structure``, ``report``,
``stratification`` and ``search``, and every one of those names is
replaced, so a call made through ``from .x import f`` is caught as well.
No file of the library changes.

Spans are kept in memory as ``[name, caller, start, end, parent, op]``
lists and written out when the run ends.  ``name`` is the function's home
(``linalg.rref``), ``caller`` the module whose binding was called
(``liecs.search``), ``parent`` the index of the enclosing span (-1 at top
level) and ``op`` the benchmark operation that was running.  Calls made
while no operation is running are not recorded.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

# Public functions timed per layer.  The search optimizer is the
# ``scipy.optimize.minimize`` call inside ``find_complex_structure``; it is
# attributed to the search layer.
LAYER_FUNCTIONS = {
    "cli": ("main",),
    "serialization": ("parse_algebra_file", "serialize_report", "serialize_algebra"),
    "report": ("build_report",),
    "algebra": ("validate", "bracket_subspaces", "change_of_basis"),
    "complex_structure": ("validate_almost_complex", "is_integrable", "classify_special"),
    "j_series": ("nilpotent_step", "containment_audit", "center_dim_bounds"),
    "stratification": (
        "classify_step2",
        "theorem_suite",
        "stratification_obstructions",
        "verify_stratification",
    ),
    "linalg": ("rref", "subspace_sum", "subspace_intersection", "image_subspace"),
    "catalog": ("builtin",),
    "search": ("find_complex_structure",),
}
LAYERS = tuple(LAYER_FUNCTIONS)
OPTIMIZER_SPAN = "search.minimize"


def _max_bits(matrix) -> int:
    """Largest numerator or denominator bit length among the entries."""
    return max(
        (max(abs(q.numerator).bit_length(), q.denominator.bit_length()) for q in matrix.entries),
        default=0,
    )


class Tracer:
    """Spans and per-operation counters of one process."""

    def __init__(self, optimizer_threshold: float | None = None):
        self.spans: list[list] = []
        self.counters: dict[str, Counter] = defaultdict(Counter)
        self.op: str | None = None
        self._stack: list[int] = []
        self._threshold = optimizer_threshold

    def _observe(self, name: str, caller: str, result) -> None:
        """Counters that need the returned value, taken at the call site."""
        counts = self.counters[self.op]
        if name == "linalg.rref":
            counts["max_bits"] = max(counts["max_bits"], _max_bits(result))
        elif name == "serialization.serialize_report":
            counts["report_bytes"] += len(result)
        elif name == OPTIMIZER_SPAN:
            counts["residual_evals"] += int(result.nfev)
            if self._threshold is not None and result.fun < self._threshold:
                counts["optimizer_hits"] += 1
        elif name == "complex_structure.is_integrable" and caller == "liecs.search":
            counts["gate_accepts"] += int(result.integrable)

    def wrap(self, fn, name: str, caller: str):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append([name, caller, 0.0, 0.0, stack[-1] if stack else -1, self.op])
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index][2], spans[index][3] = start, end
            self._observe(name, caller, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every binding of the timed functions in the loaded liecs modules."""
        homes = {}
        for layer, names in LAYER_FUNCTIONS.items():
            module = sys.modules.get(f"liecs.{layer}")
            if module is None:
                continue
            for fname in names:
                homes[id(getattr(module, fname))] = f"{layer}.{fname}"
        for modname, module in list(sys.modules.items()):
            if modname != "liecs" and not modname.startswith("liecs."):
                continue
            for attr, value in list(vars(module).items()):
                name = homes.get(id(value))
                if name is not None:
                    setattr(module, attr, self.wrap(value, name, modname))
        optimize = sys.modules.get("scipy.optimize")
        if optimize is not None:
            optimize.minimize = self.wrap(optimize.minimize, OPTIMIZER_SPAN, "scipy.optimize")


def self_times(spans: list[list]) -> list[float]:
    """Per span, its duration minus the part covered by its direct children.

    Calls are sequential, so children never overlap and their durations
    can simply be subtracted.
    """
    own = [end - start for _, _, start, end, _, _ in spans]
    for index, span in enumerate(spans):
        parent = span[4]
        if parent >= 0:
            own[parent] -= span[3] - span[2]
    return own
