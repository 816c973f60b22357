"""In-memory spans around the public functions of the sdcones modules.

The tracer replaces module attributes with timing wrappers, including names
that one module re-binds from another (`from .search import support_of`), so
every call between modules passes through a wrapper.  A span records its
name, start, end, parent span and the item it belongs to.  Span names come
from the table below, keyed by function name rather than by module, so a
function that moves to another module keeps its metric name.

A layer's self time is the time its spans cover minus the time their child
spans cover.  Counters that need arguments or results (iterations, subsets,
matrix sizes) are taken at the same boundaries.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
from collections import Counter, defaultdict
from time import perf_counter

PACKAGE = "sdcones"

SPAN_NAMES = {
    # cli
    "main": "cli.main",
    "build_parser": "cli.parse",
    "analyze_matrix": "cli.analyze_matrix",
    "certify_psd_slack": "cli.certify_psd_slack",
    "cmd_slack": "cli.cmd_slack",
    "cmd_dual": "cli.cmd_dual",
    "cmd_analyze": "cli.cmd_analyze",
    "cmd_verify": "cli.cmd_verify",
    "cmd_search": "cli.cmd_search",
    # linalg
    "asymmetry": "linalg.asymmetry",
    "require_symmetric": "linalg.require_symmetric",
    "sym_eigen": "linalg.sym_eigen",
    "singular_values": "linalg.singular_values",
    "numeric_rank": "linalg.numeric_rank",
    "null_space": "linalg.null_space",
    "psd_project": "linalg.psd_project",
    "low_rank_project": "linalg.low_rank_project",
    # geometry
    "is_full_dimensional": "geometry.is_full_dimensional",
    "is_pointed": "geometry.is_pointed",
    "facet_normals": "geometry.facet_normals",
    "dual_cone": "geometry.dual_cone",
    "extreme_rays": "geometry.extreme_rays",
    "slack_matrix": "geometry.slack_matrix",
    "slack_necessary_check": "geometry.slack_necessary_check",
    "cone_over_polytope": "geometry.cone_over_polytope",
    "cone_from_factorization": "geometry.cone_from_factorization",
    "match_generators": "geometry.match_generators",
    "save_cone": "geometry.save_cone",
    "load_cone": "geometry.load_cone",
    "save_matrix": "geometry.save_matrix",
    "load_matrix": "geometry.load_matrix",
    # selfdual
    "find_psd_scaling": "selfdual.find_psd_scaling",
    "is_self_dual": "selfdual.is_self_dual",
    "is_irreducible": "selfdual.is_irreducible",
    "is_simplicial": "selfdual.is_simplicial",
    # search
    "support_of": "search.support_of",
    "sisd_check": "search.sisd",
    "apply_sisd": "search.apply_sisd",
    "sdp_feasibility": "search.sdp",
    "rank_refine": "search.refine",
    "randomized_retry": "search.retry",
    "extract_realization": "search.extract",
    "verify_realization": "search.verify",
    "run_pipeline": "search.pipeline",
    "save_support": "search.save_support",
    "load_support": "search.load_support",
    # dnn
    "is_dnn": "dnn.is_dnn",
    "dnn_extremality": "dnn.extremality",
    "dnn5_classify": "dnn.classify",
    "classify_psd_slack": "dnn.classify",
    "verify_congruence": "dnn.verify_congruence",
}

LAYERS = ("cli", "search", "selfdual", "geometry", "dnn", "linalg")

# The involution iterator is timed per next() when find_psd_scaling drives
# it; inside sisd_check its time stays in the search.sisd span.
PERM_ITERATOR = "involution_permutations"
PERM_CONSUMER = "selfdual.find_psd_scaling"
PERM_SPAN = "selfdual.perm_enum"

# Functions that run the C(n, d-1) facet scan once per call; dual_cone
# delegates to facet_normals, so it counts as a call but adds no subsets.
FACET_SCANS = {"facet_normals", "extreme_rays", "is_pointed", "cone_over_polytope"}
FACET_CALLS = FACET_SCANS | {"dual_cone"}

# Call counts kept per item for the exact-count record.
COUNTED_CALLS = ("linalg.sym_eigen", "linalg.null_space", "search.sdp")


def _shape(obj) -> tuple[int, ...]:
    gens = getattr(obj, "generators", obj)
    return tuple(getattr(gens, "shape", ()) or (len(gens), len(gens[0])))


def _count_before(fname: str, args, counts: Counter) -> None:
    if fname in FACET_CALLS:
        counts["geometry.facet_calls"] += 1
    if fname in FACET_SCANS and args:
        n, d = _shape(args[0])
        if fname == "cone_over_polytope":
            d += 1  # vertices are lifted to (1, v)
        counts["geometry.facet_subsets"] += math.comb(n, d - 1)
    elif fname == "sym_eigen" and args:
        counts["linalg.sym_eigen.work_n3"] += _shape(args[0])[0] ** 3


def _count_after(fname: str, result, counts: Counter) -> None:
    if fname == "sdp_feasibility":
        counts["search.sdp.iterations"] += result.iterations
    elif fname == "rank_refine":
        counts["search.refine.iterations"] += result.iterations
    elif fname == "randomized_retry":
        counts["search.attempts"] += len(result.attempts)
        counts["search.certified_attempts"] += sum(
            a.certified is True for a in result.attempts)
    elif fname == "find_psd_scaling":
        counts["selfdual.certificates"] += result is not None


class Tracer:
    """Span recorder for the sdcones modules loaded in this process.

    Build it after the package is imported; `install` and `uninstall` swap
    the wrappers in and out, so untraced calls run the original functions.
    """

    def __init__(self) -> None:
        # (name, start, end, parent index, item index); None while open.
        self.spans: list[tuple | None] = []
        self.stack: list[tuple[int, str]] = []
        self.item = -1
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self._patches = []
        wrappers: dict[int, object] = {}
        for modname in sorted(sys.modules):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            module = sys.modules[modname]
            for attr, fn in list(vars(module).items()):
                if not inspect.isfunction(fn):
                    continue
                if fn.__name__ == PERM_ITERATOR:
                    wrapper = wrappers.setdefault(id(fn), self._wrap_iterator(fn))
                elif fn.__name__ in SPAN_NAMES:
                    wrapper = wrappers.setdefault(id(fn), self._wrap(fn))
                else:
                    continue
                self._patches.append((module, attr, fn, wrapper))

    def install(self) -> None:
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> tuple[int, int]:
        idx = len(self.spans)
        self.spans.append(None)
        parent = self.stack[-1][0] if self.stack else -1
        self.stack.append((idx, name))
        return idx, parent

    def _close(self, idx: int, parent: int, name: str, start: float) -> None:
        end = perf_counter()
        self.stack.pop()
        self.spans[idx] = (name, start, end, parent, self.item)

    def _wrap(self, fn):
        fname = fn.__name__
        span = SPAN_NAMES[fname]
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts = tracer.counts[tracer.item]
            _count_before(fname, args, counts)
            idx, parent = tracer._open(span)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx, parent, span, start)
            _count_after(fname, result, counts)
            if fname == "build_parser":
                # Argument parsing happens in the parser's parse_args.
                result.parse_args = tracer._wrap_method(result.parse_args, span)
            return result

        return wrapper

    def _wrap_method(self, method, span: str):
        tracer = self

        @functools.wraps(method)
        def wrapper(*args, **kwargs):
            idx, parent = tracer._open(span)
            start = perf_counter()
            try:
                return method(*args, **kwargs)
            finally:
                tracer._close(idx, parent, span, start)

        return wrapper

    def _wrap_iterator(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            if not tracer.stack or tracer.stack[-1][1] != PERM_CONSUMER:
                return inner
            return tracer._timed_next(inner)

        return wrapper

    def _timed_next(self, inner):
        while True:
            idx, parent = self._open(PERM_SPAN)
            start = perf_counter()
            try:
                value = next(inner)
            except StopIteration:
                return
            finally:
                self._close(idx, parent, PERM_SPAN, start)
            self.counts[self.item]["selfdual.perms_tried"] += 1
            yield value

    # -- summaries ---------------------------------------------------------

    def self_times(self, items: set[int] | None = None) -> tuple[dict, Counter]:
        """Per span name: summed self time and number of calls, over the
        spans of `items` (all items when None)."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span is not None and span[3] >= 0:
                child[span[3]] += span[2] - span[1]
        self_s: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for i, span in enumerate(self.spans):
            if span is None or (items is not None and span[4] not in items):
                continue
            self_s[span[0]] += span[2] - span[1] - child[i]
            calls[span[0]] += 1
        return self_s, calls

    def item_counts(self) -> dict[int, dict]:
        """Exact work counts per item: counters plus selected call counts."""
        per_item: dict[int, dict] = {i: dict(c) for i, c in self.counts.items()}
        for span in self.spans:
            if span is not None and span[0] in COUNTED_CALLS:
                counts = per_item.setdefault(span[4], {})
                key = f"{span[0]}.calls"
                counts[key] = counts.get(key, 0) + 1
        return {i: dict(sorted(c.items())) for i, c in per_item.items()}

    def dump(self) -> dict:
        """Spans in a compact columnar form for the run's output file; a
        span's parent is its row index."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        return {
            "names": names,
            "columns": ["name", "start_s", "end_s", "parent", "item"],
            "rows": [[index[s[0]], round(s[1], 7), round(s[2], 7), s[3], s[4]]
                     for s in self.spans],
        }
