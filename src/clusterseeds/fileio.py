"""JSON schemas for seed, homomorphism, and surface files."""

from __future__ import annotations

import json

from .errors import ParseError
from .homs import PartialSeedHom, SubSeedSpec
from .seeds import Seed
from .surface import SurfaceData, make_surface

__all__ = [
    "seed_to_dict",
    "seed_from_dict",
    "load_seed",
    "spec_to_dict",
    "hom_to_dict",
    "hom_from_dict",
    "load_hom",
    "surface_to_dict",
    "surface_from_dict",
    "load_surface",
]


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ParseError(msg)


def _is_int(value) -> bool:
    """A JSON integer; JSON true/false arrive as bool, a subclass of int."""
    return isinstance(value, int) and not isinstance(value, bool)


def _label_list(value, field: str) -> tuple[str, ...]:
    _require(isinstance(value, list), f"{field} must be a list")
    _require(all(isinstance(x, str) for x in value), f"{field} entries must be strings")
    return tuple(value)


def seed_to_dict(seed: Seed) -> dict:
    return {
        "exchangeable": list(seed.exchangeable_labels),
        "frozen": list(seed.frozen_labels),
        "matrix": [list(row) for row in seed.matrix],
    }


def seed_from_dict(doc) -> Seed:
    _require(isinstance(doc, dict), "seed document must be an object")
    for field in ("exchangeable", "frozen", "matrix"):
        _require(field in doc, f"seed document is missing {field!r}")
    ex = _label_list(doc["exchangeable"], "exchangeable")
    fr = _label_list(doc["frozen"], "frozen")
    matrix = doc["matrix"]
    _require(isinstance(matrix, list), "matrix must be a list of rows")
    width = len(ex) + len(fr)
    _require(len(matrix) == len(ex), f"matrix needs {len(ex)} rows, got {len(matrix)}")
    for i, row in enumerate(matrix):
        _require(isinstance(row, list), f"matrix row {i} is not a list")
        _require(len(row) == width, f"matrix row {i} has {len(row)} entries, expected {width}")
        _require(
            all(_is_int(v) for v in row),
            f"matrix row {i} contains non-integer entries",
        )
    try:
        return Seed.from_data(ex, fr, matrix)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def load_seed(path: str) -> Seed:
    return seed_from_dict(_read_json(path))


def spec_to_dict(spec: SubSeedSpec, seed: Seed) -> dict:
    """I0 and I1 as label lists in the seed's label order."""
    return {"I0": sorted(spec.I0, key=seed.index), "I1": sorted(spec.I1, key=seed.index)}


def hom_to_dict(hom: PartialSeedHom) -> dict:
    return {**spec_to_dict(hom.spec, hom.source), "map": hom.map_dict()}


def hom_from_dict(doc, source: Seed, target: Seed) -> PartialSeedHom:
    _require(isinstance(doc, dict), "hom document must be an object")
    for field in ("I0", "I1", "map"):
        _require(field in doc, f"hom document is missing {field!r}")
    spec = SubSeedSpec(
        frozenset(_label_list(doc["I0"], "I0")), frozenset(_label_list(doc["I1"], "I1"))
    )
    raw = doc["map"]
    if isinstance(raw, list):
        _require(
            all(
                isinstance(p, list) and len(p) == 2 and all(isinstance(x, str) for x in p)
                for p in raw
            ),
            "map as a list must contain [from, to] pairs of label strings",
        )
        sources = [p[0] for p in raw]
        _require(len(set(sources)) == len(sources), "map as a list repeats a source label")
        raw = dict(raw)
    _require(isinstance(raw, dict), "map must be an object or a pair list")
    _require(
        all(isinstance(k, str) and isinstance(v, str) for k, v in raw.items()),
        "map entries must be label strings",
    )
    unknown = set(raw) - set(source.labels)
    _require(not unknown, f"map uses unknown source labels: {sorted(unknown)}")
    return PartialSeedHom.from_dict(source, spec, target, raw)


def load_hom(path: str, source: Seed, target: Seed) -> PartialSeedHom:
    return hom_from_dict(_read_json(path), source, target)


def surface_to_dict(data: SurfaceData) -> dict:
    return {
        "components": list(data.components),
        "diagonals": {lbl: [c, [a, b]] for lbl, (c, (a, b)) in data.diagonals},
        "laminations": {
            lbl: [[c, [s, t]] for c, (s, t) in curves] for lbl, curves in data.laminations
        },
    }


def _pair(value, field: str) -> tuple[int, int]:
    _require(
        isinstance(value, list) and len(value) == 2 and all(_is_int(v) for v in value),
        f"{field} must be a pair of integers",
    )
    return (value[0], value[1])


def surface_from_dict(doc) -> SurfaceData:
    _require(isinstance(doc, dict), "surface document must be an object")
    if "N" in doc:
        # single-polygon shorthand: N, triangulation, laminations
        N = doc["N"]
        _require(_is_int(N), "N must be an integer")
        tri = doc.get("triangulation", [])
        _require(isinstance(tri, list), "triangulation must be a list")
        diagonals = [_pair(d, "triangulation entry") for d in tri]
        lams = doc.get("laminations", [])
        _require(isinstance(lams, list), "laminations must be a list")
        laminations = []
        for i, curves in enumerate(lams):
            _require(isinstance(curves, list), f"lamination {i} must be a list of curves")
            laminations.append([_pair(pair, f"lamination {i} curve") for pair in curves])
        build, fields = make_surface, (N, diagonals, laminations)
    else:
        for field in ("components", "diagonals", "laminations"):
            _require(field in doc, f"surface document is missing {field!r}")
        comps = doc["components"]
        _require(
            isinstance(comps, list) and all(_is_int(v) for v in comps),
            "components must be a list of vertex counts",
        )
        diagonals = []
        _require(isinstance(doc["diagonals"], dict), "diagonals must be an object")
        for lbl, entry in doc["diagonals"].items():
            _require(
                isinstance(entry, list) and len(entry) == 2 and _is_int(entry[0]),
                f"diagonal {lbl!r} must be [component, [a, b]]",
            )
            a, b = _pair(entry[1], f"diagonal {lbl!r}")
            diagonals.append((lbl, (entry[0], (min(a, b), max(a, b)))))
        laminations = []
        _require(isinstance(doc["laminations"], dict), "laminations must be an object")
        for lbl, curves in doc["laminations"].items():
            _require(isinstance(curves, list), f"lamination {lbl!r} must be a list")
            cv = []
            for entry in curves:
                _require(
                    isinstance(entry, list) and len(entry) == 2 and _is_int(entry[0]),
                    f"lamination {lbl!r} curve must be [component, [s, t]]",
                )
                s, t = _pair(entry[1], f"lamination {lbl!r} curve")
                cv.append((entry[0], (min(s, t), max(s, t))))
            laminations.append((lbl, tuple(sorted(cv))))
        build = SurfaceData
        fields = (tuple(comps), tuple(sorted(diagonals)), tuple(sorted(laminations)))
    try:
        return build(*fields)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def load_surface(path: str) -> SurfaceData:
    return surface_from_dict(_read_json(path))


def _read_json(path: str):
    def object_without_repeats(pairs) -> dict:
        # json.load alone would keep the last value of a repeated key
        doc = {}
        for key, value in pairs:
            _require(key not in doc, f"{path} repeats the key {key!r}")
            doc[key] = value
        return doc

    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh, object_pairs_hook=object_without_repeats)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc
    except ParseError:  # a repeated key
        raise
    except (RecursionError, ValueError) as exc:  # too deep, or an integer too long
        raise ParseError(f"{path} cannot be decoded: {exc}") from exc
