"""In-memory span recorder wrapped around the calls into each pickpoly module.

Spans are recorded from the benchmark side only: ``Tracer.install`` swaps
every traced function for a timing wrapper in each namespace that binds it
(the package and all eight modules), so cross-module and intra-module calls
are both seen, and ``uninstall`` puts the originals back. Nothing under
``src/`` is edited.
"""

from __future__ import annotations

import time
import types

MODULES = ("bernstein", "pickands", "full_model", "submodel", "measures",
           "inference", "simulation", "cli")

# Private helpers worth their own span: the log-likelihood inside both MLEs,
# the multistart driver, the CLI's simulate body and the interior-zero test.
PRIVATE_TRACED = {
    "inference": ("_loglik_terms", "_multistart"),
    "cli": ("_cmd_simulate",),
    "submodel": ("_has_interior_zero",),
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "request", "attrs")

    def __init__(self, name, start, parent, request):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.request = request
        self.attrs = None

    @property
    def module(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    """Collects spans (name, start, end, parent index, request id) in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self.request = None
        self.active = True  # paused while the benchmark checks outputs
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, attrs=None):
        """Return fn wrapped in a span; ``attrs(result)`` may annotate it."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = Span(name, clock(), stack[-1] if stack else None, self.request)
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if attrs is not None:
                span.attrs = attrs(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, package) -> None:
        """Wrap every public function of the eight modules, plus PRIVATE_TRACED."""
        modules = {name: getattr(package, name) for name in MODULES}
        wrappers: dict[int, object] = {}
        for mname, mod in modules.items():
            for attr, obj in vars(mod).items():
                if not _traceable(obj, mod.__name__):
                    continue
                if attr.startswith("_") and attr not in PRIVATE_TRACED.get(mname, ()):
                    continue
                wrappers[id(obj)] = self.wrap(f"{mname}.{attr}", obj, _ATTRS.get(attr))
        for ns in (package, *modules.values()):
            for attr, obj in list(vars(ns).items()):
                w = wrappers.get(id(obj))
                if w is not None:
                    self._installed.append((ns, attr, obj))
                    setattr(ns, attr, w)

    def patch(self, ns, attr: str, name: str, attrs=None) -> None:
        """Trace one foreign callable where ``ns`` binds it (e.g. an optimizer)."""
        obj = getattr(ns, attr)
        self._installed.append((ns, attr, obj))
        setattr(ns, attr, self.wrap(name, obj, attrs))

    def uninstall(self) -> None:
        for ns, attr, obj in reversed(self._installed):
            setattr(ns, attr, obj)
        self._installed.clear()


def _traceable(obj, module_name: str) -> bool:
    if isinstance(obj, type):
        return False  # classes stay themselves so isinstance keeps working
    if isinstance(obj, types.FunctionType):
        return obj.__module__ == module_name
    # functools.lru_cache wrappers (coefficient_tensor, a_from_h_matrix, ...)
    return hasattr(obj, "cache_clear") and getattr(obj, "__module__", None) == module_name


# Counts attached where the work happens, read off each call's own result.
_ATTRS = {
    "certify_nonnegative": lambda r: {"subdivisions": r.subdivisions},
}


def minimize_attrs(res) -> dict:
    """What one local optimizer search did: evaluations, status, final value."""
    return {"nfev": int(res.nfev), "success": bool(res.success), "fun": float(res.fun)}


def covered(intervals) -> float:
    """Total length of the union of (start, end) intervals."""
    total, cur_s, cur_e = 0.0, None, None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        elif e > cur_e:
            cur_e = e
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for sp in spans:
        if sp.parent is not None:
            children[sp.parent].append((sp.start, sp.end))
    return [(sp.end - sp.start) - covered(children[i]) for i, sp in enumerate(spans)]


def module_breakdown(spans, wall: float) -> dict:
    """Self-time share of wall time per module, and the share no top-level span covers."""
    selfs = self_times(spans)
    share = {m: 0.0 for m in MODULES}
    for sp, st in zip(spans, selfs):
        if sp.module in share:
            share[sp.module] += st / wall
    top = covered((sp.start, sp.end) for sp in spans if sp.parent is None)
    return {"self_share": share, "uncovered_share": max(0.0, 1.0 - top / wall)}


def by_name(spans) -> dict[str, list]:
    out: dict[str, list] = {}
    for i, sp in enumerate(spans):
        out.setdefault(sp.name, []).append(i)
    return out
