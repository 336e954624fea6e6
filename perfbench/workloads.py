"""Inputs, job lists and output checks of the four benchmark workloads.

A workload is a fixed list of jobs.  A CLI job is one call of
``clusterseeds.cli.main`` on input files written at set-up; a library job
calls the library directly (the structural Green cross-check has no CLI
command).  The workload seed permutes the vertex order of every quiver
and picks the lamination curves of every surface; the pinned counts and
the canonical digests in ``golden.json`` do not depend on it.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass, field
from math import comb

DEFAULT_SEED = 0
WORKLOADS = ("semigroup", "clusters_many", "clusters_deep", "surface")

# Pinned semigroup statistics of the benchmark seeds and the path quivers.
PINNED_STATS = {
    "a2": dict(size=19, regular=19, idempotents=11, regular_d=6, iso_classes=6),
    "amalgam": dict(size=178, regular=140, idempotents=52, regular_d=14, iso_classes=14),
    "double_arrow": dict(size=151, regular=112, idempotents=50, regular_d=18, iso_classes=18),
    "trivial_m1": dict(size=2, regular=2, idempotents=2, regular_d=2, iso_classes=2),
    "trivial_m2": dict(size=9, regular=9, idempotents=6, regular_d=3, iso_classes=3),
}
# Seeds with only some statistics pinned: the path quivers A1 and A3, and
# a2_y2 (A2 with a frozen vertex at each end), the largest semigroup here.
PINNED_PARTIAL = {"A1": dict(size=3), "A3": dict(size=162), "a2_y2": dict(size=773, regular=714)}
# Pinned statistic -> summary field, per job command.
PIN_FIELDS = {
    "endpar": {"size": "size"},
    "green": {"size": "size", "idempotents": "idempotents", "regular": "regular_count", "regular_d": "regular_d_count"},
    "classify": {"iso_classes": "iso_class_count", "regular_d": "regular_d_count"},
    "structural": {"regular": "regular_count"},
}
# (seed, --depth, cluster count, status) per clusters job.
CLUSTER_JOBS = {
    "clusters_many": [("A4", 30, 42, "closed"), ("D4", 30, 50, "closed"), ("A3_prin", 30, 14, "closed")],
    "clusters_deep": [("markov", 6, 190, "truncated"), ("kronecker", 20, 41, "truncated")],
}
SURFACE_SIZES = range(3, 9)
SURFACE_MAX_CUT = 2


# --- seeds as (exchangeable, frozen, rows) --------------------------------------


def _path(n: int, principal: bool = False):
    ex = [f"x{i}" for i in range(1, n + 1)]
    rows = [[0] * n for _ in range(n)]
    for i in range(n - 1):
        rows[i][i + 1], rows[i + 1][i] = 1, -1
    if not principal:
        return ex, [], rows
    return ex, [f"y{i}" for i in range(1, n + 1)], [r + [int(i == j) for j in range(n)] for i, r in enumerate(rows)]


SEEDS = {
    "A1": _path(1),
    "a2": _path(2),
    "A3": _path(3),
    "A4": _path(4),
    "a2_y2": (["x1", "x2"], ["y1", "y2"], [[0, 1, 1, 0], [-1, 0, 0, 1]]),
    "amalgam": (["x1", "x2", "x3"], [], [[0, 1, 0], [-1, 0, -1], [0, 1, 0]]),
    "double_arrow": (["x1", "x2", "x3"], [], [[0, 1, 0], [-1, 0, -1], [0, 2, 0]]),
    "trivial_m1": ([], ["y1"], []),
    "trivial_m2": ([], ["y1", "y2"], []),
    "D4": (["x1", "x2", "x3", "x4"], [], [[0, 1, 0, 0], [-1, 0, -1, -1], [0, 1, 0, 0], [0, 1, 0, 0]]),
    "A3_prin": _path(3, principal=True),
    "markov": (["x1", "x2", "x3"], [], [[0, 2, -2], [-2, 0, 2], [2, -2, 0]]),
    "kronecker": (["x1", "x2"], [], [[0, 2], [-2, 0]]),
}
# Every job kind runs on these; the tiny seeds get only `green`, so the
# median job of the workload is not a job of a millisecond.
SEMIGROUP_SEEDS = ("a2", "A3", "amalgam", "double_arrow")
TINY_SEEDS = ("A1", "trivial_m1", "trivial_m2")


def permuted_seed_doc(name: str, rng: random.Random) -> dict:
    """The seed with its exchangeable and frozen orders shuffled."""
    ex, fr, rows = SEEDS[name]
    pe = rng.sample(range(len(ex)), len(ex))
    pf = rng.sample(range(len(fr)), len(fr))
    cols = pe + [len(ex) + j for j in pf]
    return {
        "exchangeable": [ex[i] for i in pe],
        "frozen": [fr[j] for j in pf],
        "matrix": [[rows[i][c] for c in cols] for i in pe],
    }


# --- surfaces ----------------------------------------------------------------


def triangulations(N: int) -> list[tuple[tuple[int, int], ...]]:
    """All triangulations of the convex N-gon, by the apex over edge (0, N-1)."""

    def rec(vs):
        if len(vs) < 3:
            return [()]
        out = []
        for i in range(1, len(vs) - 1):
            sides = [(a, b) for a, b in ((vs[0], vs[i]), (vs[i], vs[-1])) if b - a not in (1, N - 1)]
            for left in rec(vs[: i + 1]):
                for right in rec(vs[i:]):
                    out.append(tuple(sorted(left + right + tuple(sides))))
        return out

    return rec(tuple(range(N)))


def surface_doc(N: int, diagonals, rng: random.Random) -> dict:
    """One lamination of one to three random curves."""
    curves = [rng.sample(range(N), 2) for _ in range(rng.randint(1, 3))]
    return {"N": N, "triangulation": [list(d) for d in diagonals], "laminations": [curves]}


def sweep_size(N: int, laminations: int = 1) -> int:
    """Specs `check-sur --all` visits: each chosen diagonal is frozen or deleted."""
    d = N - 3
    return sum(
        2**k * comb(d, k) * comb(laminations, size - k)
        for size in range(SURFACE_MAX_CUT + 1)
        for k in range(size + 1)
    )


# --- canonical summaries --------------------------------------------------------


def _monomial(text: str):
    coef, factors = 1, []
    for part in text.split("*"):
        if part.isdigit():
            coef = int(part)
        else:
            label, _, exp = part.partition("^")
            factors.append((label, int(exp or 1)))
    return coef, tuple(sorted(factors))


def _poly(text: str):
    text = text.strip()
    if text.startswith("(") and text.endswith(")"):
        text = text[1:-1]
    terms = text.replace(" - ", " + -").split(" + ")
    out = []
    for t in terms:
        sign = -1 if t.startswith("-") else 1
        coef, mono = _monomial(t.lstrip("-"))
        out.append((sign * coef, mono))
    return tuple(sorted(out, key=repr))


def canonical_fraction(text: str):
    """A printed Laurent polynomial as a term set independent of label order."""
    num, _, den = text.partition("/")
    return (_poly(num), _poly(den) if den else ((1, ()),))


def canonical(command: str, doc: dict) -> dict:
    """The part of a machine document that does not depend on vertex order."""
    if command == "endpar":
        return {
            "size": doc["size"],
            "projected_bound": doc["projected_bound"],
            "elements": sorted(
                [sorted(e["I0"]), sorted(e["I1"]), sorted(e["map"].items())] for e in doc["elements"]
            ),
        }
    if command == "green":
        return {
            "size": doc["size"],
            "idempotents": len(doc["idempotents"]),
            "regular_count": doc["regular_count"],
            "regular_d_count": doc["regular_d_count"],
            "d_classes": sorted(
                [
                    c["size"],
                    c["regular"],
                    c["h_group_order"] or 0,
                    c["id_form_member"] is not None,
                    sorted(len(cell) for row in c["rows"] for cell in row),
                ]
                for c in doc["d_classes"]
            ),
        }
    if command == "classify":
        return {
            "iso_class_count": doc["iso_class_count"],
            "regular_d_count": doc["regular_d_count"],
            "bijection_verified": doc["bijection_verified"],
            "classes": sorted(
                [
                    c["member_count"],
                    c["h_group_order"],
                    len(c["representative"]["I0"]),
                ]
                for c in doc["classes"]
            ),
        }
    if command == "clusters":
        clusters = sorted(sorted(canonical_fraction(v) for v in c) for c in doc["clusters"])
        return {"count": doc["count"], "status": doc["status"], "clusters": repr(clusters)}
    return doc  # check-sur and the structural cross-check are order-free


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


# --- jobs -----------------------------------------------------------------------


@dataclass(frozen=True)
class Job:
    """One job: a CLI call (``argv``) or the library structural cross-check."""

    name: str
    command: str
    argv: tuple[str, ...] | None
    seed_path: str
    pins: dict = field(default_factory=dict)

    def pin_errors(self, summary: dict) -> list[str]:
        return [
            f"{key} = {summary.get(key)!r}, expected {want!r}"
            for key, want in self.pins.items()
            if summary.get(key) != want
        ]


def _semigroup_pins(name: str, command: str) -> dict:
    stats = PINNED_STATS.get(name) or PINNED_PARTIAL[name]
    pins = {field: stats[key] for key, field in PIN_FIELDS[command].items() if key in stats}
    if command == "structural":
        # every pair of regular elements is compared
        pins["ok"] = True
        if "regular_count" in pins:
            pins["checked_pairs"] = pins["regular_count"] * (pins["regular_count"] - 1) // 2
    return pins


def build(workload: str, seed: int, workdir: str) -> list[Job]:
    """Write the workload's input files for this seed and return its jobs."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}:{seed}")
    os.makedirs(workdir, exist_ok=True)

    def write(name: str, doc: dict) -> str:
        path = os.path.join(workdir, f"{name}.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        return path

    jobs: list[Job] = []
    if workload == "semigroup":
        paths = {name: write(name, permuted_seed_doc(name, rng)) for name in TINY_SEEDS + SEMIGROUP_SEEDS + ("a2_y2",)}
        for name in TINY_SEEDS:
            jobs.append(Job(f"green:{name}", "green", ("green", paths[name]), paths[name], _semigroup_pins(name, "green")))
        for name in SEMIGROUP_SEEDS:
            for command in ("endpar", "green", "classify"):
                jobs.append(
                    Job(f"{command}:{name}", command, (command, paths[name]), paths[name], _semigroup_pins(name, command))
                )
        for command in ("endpar", "green"):
            path = paths["a2_y2"]
            jobs.append(Job(f"{command}:a2_y2", command, (command, path), path, _semigroup_pins("a2_y2", command)))
        for name in SEMIGROUP_SEEDS:
            jobs.append(Job(f"structural:{name}", "structural", None, paths[name], _semigroup_pins(name, "structural")))
    elif workload in CLUSTER_JOBS:
        for name, depth, count, status in CLUSTER_JOBS[workload]:
            path = write(name, permuted_seed_doc(name, rng))
            argv = ("clusters", path, "--depth", str(depth))
            jobs.append(Job(f"clusters:{name}:d{depth}", "clusters", argv, path, {"count": count, "status": status}))
    else:
        for N in SURFACE_SIZES:
            tris = triangulations(N)
            for t, diagonals in enumerate(tris):
                path = write(f"N{N}_t{t}", surface_doc(N, diagonals, rng))
                argv = ("check-sur", path, "--all", "--max-cut", str(SURFACE_MAX_CUT))
                pins = {"all_ok": True, "checked": sweep_size(N)}
                jobs.append(Job(f"check-sur:N{N}:t{t}", "check-sur", argv, path, pins))
    return jobs
