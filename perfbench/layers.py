"""Spans and counts recorded around the calls into each layer.

The traced run replaces each function in ``WRAPS`` by a wrapper, in the
module namespace where its caller looks the name up, so nothing under
``src/`` changes.  A span is (name, start, end, parent span, job id);
spans stay in memory for one job, which is then folded into per-name
call counts, total seconds and self seconds.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

SPAN_ATTR = "__perfbench_span__"
CHECK = "homs.check_partial_hom"
ENDPAR = "semigroup.enumerate_endpar"
REJECT_KINDS = ("magnitude", "exchangeable_to_frozen", "sign_row", "sign_adjacent", "other")


def reject_kind(why: str) -> str:
    """The validity condition named by a check_partial_hom violation message."""
    if why.startswith("magnitude"):
        return "magnitude"
    if why.startswith("condition (a)"):
        return "exchangeable_to_frozen"
    if "within row" in why:
        return "sign_row"
    if "across adjacent rows" in why:
        return "sign_adjacent"
    return "other"


def _on_check(tracer, sid, args, result):
    ok, why = result
    tracer.counts[f"{CHECK}.accepted" if ok else f"homs.reject.{reject_kind(why)}"] += 1


def _on_endpar(tracer, sid, args, S):
    tracer.counts["semigroup.elements"] += len(S)
    tracer.peak("semigroup.table_bytes", S.product.nbytes)
    tracer.endpar_calls.append((sid, args[0]))


def _on_exchange(tracer, sid, args, value):
    terms = len(value.num.terms) + len(value.den.terms)
    tracer.counts["poly.terms_total"] += terms
    tracer.peak("poly.max_terms", terms)


def _on_clusters(tracer, sid, args, result):
    tracer.counts["poly.clusters"] += len(result.clusters)


def _on_structural(tracer, sid, args, report):
    tracer.counts["semigroup.check_structural_green.pairs"] += report.checked_pairs


def _on_sur(tracer, sid, args, ok):
    tracer.counts["surface.specs_checked"] += 1
    tracer.counts["surface.mismatches"] += not ok


# (module, attribute, span name, hook): one entry per namespace a caller uses.
WRAPS = [
    ("cli", "load_seed", "fileio.load", None),
    ("cli", "load_surface", "fileio.load", None),
    ("fileio", "load_seed", "fileio.load", None),
    ("cli", "enumerate_endpar", ENDPAR, _on_endpar),
    ("classify", "enumerate_endpar", ENDPAR, _on_endpar),
    ("semigroup", "enumerate_endpar", ENDPAR, _on_endpar),
    ("semigroup", "check_partial_hom", CHECK, _on_check),
    ("cli", "green_relations", "semigroup.green_relations", None),
    ("classify", "green_relations", "semigroup.green_relations", None),
    ("semigroup", "green_relations", "semigroup.green_relations", None),
    ("cli", "regular_D_classes", "semigroup.regular_D_classes", None),
    ("classify", "regular_D_classes", "semigroup.regular_D_classes", None),
    ("cli", "h_class_group", "semigroup.h_class_group", None),
    ("semigroup", "check_structural_green", "semigroup.check_structural_green", _on_structural),
    ("cli", "theorem_number_report", "classify.theorem_number_report", None),
    ("classify", "iso_classes_of_subseeds", "classify.iso_classes_of_subseeds", None),
    ("classify", "find_seed_iso", "homs.find_seed_iso", None),
    ("semigroup", "automorphism_group", "homs.automorphism_group", None),
    ("classify", "mixing_subseed", "homs.mixing_subseed", None),
    ("semigroup", "mixing_subseed", "homs.mixing_subseed", None),
    ("surface", "mixing_subseed", "homs.mixing_subseed", None),
    ("cli", "enumerate_clusters", "poly.enumerate_clusters", _on_clusters),
    ("poly", "mutate_state", "poly.mutate_state", None),
    ("poly", "exchange", "poly.exchange", _on_exchange),
    ("poly", "matrix_mutation", "seeds.matrix_mutation", None),
    ("cli", "check_theorem_sur", "surface.check_theorem_sur", _on_sur),
    ("cli", "seed_from_surface", "surface.seed_from_surface", None),
    ("surface", "seed_from_surface", "surface.seed_from_surface", None),
    ("cli", "paunched_surface", "surface.paunched_surface", None),
    ("surface", "paunched_surface", "surface.paunched_surface", None),
    ("cli", "cut_along", "surface.cut_along", None),
    ("surface", "cut_along", "surface.cut_along", None),
]

# (metric, unit, better), in the order BENCHMARK.json lists them.
PER_LAYER = (
    [(f"{CHECK}.{k}", u, b) for k, u, b in (("calls", "count", "lower"), ("s", "s", "lower"), ("accepted", "count", "lower"), ("accept_ratio", "ratio", "higher"))]
    + [(f"homs.reject.{k}", "count", "lower") for k in REJECT_KINDS]
    + [
        (f"{ENDPAR}.calls", "count", "lower"),
        (f"{ENDPAR}.s", "s", "lower"),
        (f"{ENDPAR}.self_s", "s", "lower"),
        ("semigroup.candidates", "count", "lower"),
        ("semigroup.elements", "count", "lower"),
        ("semigroup.table_bytes", "bytes", "lower"),
        ("semigroup.green_relations.calls", "count", "lower"),
        ("semigroup.green_relations.s", "s", "lower"),
        ("semigroup.regular_D_classes.s", "s", "lower"),
        ("semigroup.h_class_group.s", "s", "lower"),
        ("semigroup.check_structural_green.s", "s", "lower"),
        ("semigroup.check_structural_green.pairs", "count", "lower"),
        ("classify.theorem_number_report.calls", "count", "lower"),
        ("classify.theorem_number_report.s", "s", "lower"),
        ("classify.theorem_number_report.self_s", "s", "lower"),
        ("classify.iso_classes_of_subseeds.s", "s", "lower"),
        ("homs.find_seed_iso.calls", "count", "lower"),
        ("homs.find_seed_iso.s", "s", "lower"),
        ("homs.automorphism_group.calls", "count", "lower"),
        ("homs.automorphism_group.s", "s", "lower"),
        ("poly.enumerate_clusters.s", "s", "lower"),
        ("poly.enumerate_clusters.self_s", "s", "lower"),
        ("poly.mutate_state.calls", "count", "lower"),
        ("poly.mutate_state.self_s", "s", "lower"),
        ("seeds.matrix_mutation.calls", "count", "lower"),
        ("seeds.matrix_mutation.s", "s", "lower"),
        ("poly.cluster_yield", "ratio", "higher"),
        ("poly.exchange.calls", "count", "lower"),
        ("poly.exchange.s", "s", "lower"),
        ("poly.max_terms", "count", "lower"),
        ("poly.terms_total", "count", "lower"),
    ]
    + [
        (f"surface.{f}.{k}", u, "lower")
        for f in ("check_theorem_sur", "seed_from_surface", "paunched_surface", "cut_along")
        for k, u in (("calls", "count"), ("s", "s"))
    ]
    + [
        ("homs.mixing_subseed.calls", "count", "lower"),
        ("homs.mixing_subseed.s", "s", "lower"),
        ("surface.specs_checked", "count", "lower"),
        ("surface.mismatches", "count", "lower"),
        ("cli.self_s", "s", "lower"),
        ("fileio.load_s", "s", "lower"),
        ("cli.out_bytes", "bytes", "lower"),
        ("trace.overhead_frac", "ratio", "lower"),
    ]
)


class Tracer:
    """Installs the wrappers, records spans and counts, and removes them."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.job = None
        self.counts: Counter = Counter()
        self.endpar_calls: list = []
        self._patches: list = []

    def peak(self, key: str, value: int) -> None:
        self.counts[key] = max(self.counts[key], value)

    def _wrap(self, fn, name, hook):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[sid] = (name, start, end, parent, self.job)
            if hook is not None:
                hook(self, sid, args, result)
            return result

        wrapper.__wrapped__ = fn
        setattr(wrapper, SPAN_ATTR, name)
        return wrapper

    def install(self, modules: dict) -> None:
        for mod, attr, name, hook in WRAPS:
            module = modules[mod]
            original = getattr(module, attr)
            setattr(module, attr, self._wrap(original, name, hook))
            self._patches.append((module, attr, original))

    def remove(self) -> list[str]:
        """Restore every original; return the names still wrapped (none)."""
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        left = [f"{m.__name__}.{a}" for m, a, o in self._patches if getattr(m, a) is not o]
        self._patches = []
        for mod_name, module in list(sys.modules.items()):
            if mod_name.split(".")[0] == "clusterseeds":
                left += [f"{mod_name}.{a}" for a, v in vars(module).items() if hasattr(v, SPAN_ATTR)]
        return left

    @contextmanager
    def root(self, name: str, job_id: int):
        """The job's own span; every layer span of the job nests inside it."""
        self.spans.clear()
        self.endpar_calls.clear()
        self.job = job_id
        self.spans.append(None)
        self.stack.append(0)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self.stack.pop()
            self.spans[0] = (name, start, end, None, job_id)


def job_profile(tracer: Tracer, bound_of) -> tuple[dict, int, list[str]]:
    """Fold one job's spans into {name: [calls, seconds, self seconds]}.

    Also returns the candidates the job's enumerate_endpar calls validated
    and the self-check errors: spans must nest in their parents without
    overlapping siblings, self times must add up to the job's time, and
    each enumerate_endpar call must validate exactly
    ``bound_of(seed)`` candidates.
    """
    spans, job = tracer.spans, tracer.job
    errors = []
    children = defaultdict(list)
    for sid, (name, start, end, parent, span_job) in enumerate(spans):
        if span_job != job:
            errors.append(f"span {name} carries job {span_job}, expected {job}")
        if (parent is None) != (sid == 0):
            errors.append(f"span {name} has parent {parent}")
        if parent is not None:
            children[parent].append(sid)
    profile: dict = defaultdict(lambda: [0, 0.0, 0.0])
    self_total = 0.0
    for sid, (name, start, end, _, _) in enumerate(spans):
        cursor, child_s = start, 0.0
        for c in children[sid]:
            c_name, c_start, c_end = spans[c][:3]
            if c_start < cursor or c_end > end:
                errors.append(f"span {c_name} does not nest inside {name}")
            cursor = c_end
            child_s += c_end - c_start
        entry = profile[name]
        entry[0] += 1
        entry[1] += end - start
        entry[2] += end - start - child_s
        self_total += end - start - child_s
    job_s = spans[0][2] - spans[0][1]
    if abs(self_total - job_s) > 1e-9 * (1 + len(spans)):
        errors.append(f"self times add up to {self_total}, the job took {job_s}")
    candidates = 0
    for sid, seed in tracer.endpar_calls:
        checked = sum(1 for c in children[sid] if spans[c][0] == CHECK)
        candidates += checked
        if checked != bound_of(seed):
            errors.append(f"enumerate_endpar validated {checked} candidates, the bound is {bound_of(seed)}")
    return dict(profile), candidates, errors


def layer_metrics(profile: dict, counts: Counter, candidates: int, out_bytes: int) -> dict:
    """The per-layer metrics of one traced pass (all but trace.overhead_frac)."""

    def calls(name):
        return profile.get(name, (0, 0.0, 0.0))[0]

    def secs(name):
        return profile.get(name, (0, 0.0, 0.0))[1]

    def self_s(name):
        return profile.get(name, (0, 0.0, 0.0))[2]

    m = {
        f"{CHECK}.calls": calls(CHECK),
        f"{CHECK}.s": secs(CHECK),
        f"{CHECK}.accepted": counts[f"{CHECK}.accepted"],
        f"{CHECK}.accept_ratio": counts[f"{CHECK}.accepted"] / calls(CHECK) if calls(CHECK) else 0.0,
        **{f"homs.reject.{k}": counts[f"homs.reject.{k}"] for k in REJECT_KINDS},
        f"{ENDPAR}.calls": calls(ENDPAR),
        f"{ENDPAR}.s": secs(ENDPAR),
        f"{ENDPAR}.self_s": self_s(ENDPAR),
        "semigroup.candidates": candidates,
        "semigroup.elements": counts["semigroup.elements"],
        "semigroup.table_bytes": counts["semigroup.table_bytes"],
        "semigroup.check_structural_green.pairs": counts["semigroup.check_structural_green.pairs"],
        "classify.theorem_number_report.self_s": self_s("classify.theorem_number_report"),
        "poly.enumerate_clusters.self_s": self_s("poly.enumerate_clusters"),
        "poly.mutate_state.self_s": self_s("poly.mutate_state"),
        "poly.cluster_yield": counts["poly.clusters"] / calls("poly.exchange") if calls("poly.exchange") else 0.0,
        "poly.max_terms": counts["poly.max_terms"],
        "poly.terms_total": counts["poly.terms_total"],
        "surface.specs_checked": counts["surface.specs_checked"],
        "surface.mismatches": counts["surface.mismatches"],
        "cli.self_s": self_s("cli"),
        "fileio.load_s": secs("fileio.load"),
        "cli.out_bytes": out_bytes,
    }
    for metric, unit, _ in PER_LAYER:
        if metric not in m and metric != "trace.overhead_frac":
            name, _, kind = metric.rpartition(".")
            m[metric] = calls(name) if kind == "calls" else secs(name)
    return m


def rejects_balance(metrics: dict) -> list[str]:
    """candidates - elements must equal the rejections, kind by kind summed."""
    rejected = sum(metrics[f"homs.reject.{k}"] for k in REJECT_KINDS)
    kept = metrics["semigroup.elements"]
    if metrics["semigroup.candidates"] - kept != rejected:
        return [f"{metrics['semigroup.candidates']} candidates - {kept} elements != {rejected} rejections"]
    return []
