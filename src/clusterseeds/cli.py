"""Command-line driver.

Machine output is a versioned JSON document; the human rendering is
derived from that document, never computed separately.  Exit codes:
0 success, 2 input error, 3 resource cap exceeded, 4 theorem violation.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys

from .errors import (
    HomError,
    LaurentViolation,
    ParseError,
    ResourceCapExceeded,
    SeedError,
    SpecError,
    TheoremViolation,
)
from .fileio import (
    hom_to_dict,
    load_hom,
    load_seed,
    load_surface,
    seed_to_dict,
    surface_to_dict,
)
from .homs import SubSeedSpec, check_partial_hom, compose, require_hom
from .poly import enumerate_clusters, initial_state, mutate_state
from .seeds import require_valid, validate_seed
from .semigroup import (
    DEFAULT_CAP,
    enumerate_endpar,
    green_relations,
    h_class_group,
    is_id_form,
    partition_classes,
    projected_endpar_bound,
    regular_D_classes,
)
from .classify import theorem_number_report
from .surface import check_theorem_sur, cut_along, paunched_surface, seed_from_surface, surface_iso

SCHEMA_VERSION = 1


def _spec_from_args(args, valid_labels) -> tuple[frozenset, frozenset]:
    def parse(csv):
        if not csv:
            return frozenset()
        parts = frozenset(p for p in csv.split(",") if p)
        unknown = parts - set(valid_labels)
        if unknown:
            raise ParseError(f"unknown labels: {sorted(unknown)}")
        return parts

    return parse(args.i0), parse(args.i1)


def cmd_validate(args):
    seed = load_seed(args.seed)
    report = validate_seed(seed)
    doc = {
        "ok": report.ok,
        "violations": report.violations,
        "symmetrizer": list(report.symmetrizer) if report.symmetrizer else None,
    }

    def human(d):
        if d["ok"]:
            sym = d["symmetrizer"]
            return f"valid (symmetrizer {sym})" if sym else "valid"
        return "invalid:\n" + "\n".join(f"  - {v}" for v in d["violations"])

    return doc, human, 0


def cmd_mutate(args):
    seed = require_valid(load_seed(args.seed))
    state = initial_state(seed)
    steps = [
        {
            "k": None,
            "matrix": [list(r) for r in state.matrix.entries],
            "cluster": [str(v) for v in state.assignment],
        }
    ]
    for k in args.sequence:
        if not 0 <= k < seed.n:
            raise ParseError(f"mutation index {k} out of range 0..{seed.n - 1}")
        state = mutate_state(state, k)
        steps.append(
            {
                "k": k,
                "matrix": [list(r) for r in state.matrix.entries],
                "cluster": [str(v) for v in state.assignment],
            }
        )
    doc = {"steps": steps}

    def human(d):
        out = []
        for step in d["steps"]:
            head = "initial seed" if step["k"] is None else f"after mutation at slot {step['k']}"
            out.append(head)
            out.extend("  " + " ".join(f"{v:>4}" for v in row) for row in step["matrix"])
            out.append("  cluster: " + ", ".join(step["cluster"]))
        return "\n".join(out)

    return doc, human, 0


def cmd_clusters(args):
    seed = require_valid(load_seed(args.seed))
    result = enumerate_clusters(seed, max_depth=args.depth, max_states=args.cap)
    doc = {
        "count": len(result.clusters),
        "status": result.status,
        "clusters": [sorted(str(v) for v in c) for c in result.clusters],
    }

    def human(d):
        lines = [f"{d['count']} clusters ({d['status']})"]
        lines += ["  {" + ", ".join(c) + "}" for c in d["clusters"]]
        return "\n".join(lines)

    return doc, human, 0


def cmd_hom_check(args):
    source = require_valid(load_seed(args.seed))
    target = require_valid(load_seed(args.target)) if args.target else source
    hom = load_hom(args.hom, source, target)
    ok, why = check_partial_hom(hom)
    doc = {"ok": ok, "violation": why}
    return doc, (lambda d: "valid homomorphism" if d["ok"] else f"invalid: {d['violation']}"), 0


def cmd_compose(args):
    seed = require_valid(load_seed(args.seed))
    g = require_hom(load_hom(args.outer, seed, seed))
    f = require_hom(load_hom(args.inner, seed, seed))
    doc = hom_to_dict(compose(g, f))
    return doc, (lambda d: json.dumps(d, indent=2)), 0


def cmd_endpar(args):
    seed = require_valid(load_seed(args.seed))
    bound = projected_endpar_bound(seed)
    S = enumerate_endpar(seed, cap=args.cap)
    doc = {
        "size": len(S),
        "projected_bound": bound,
        "zero_index": S.zero_index,
        "elements": [hom_to_dict(h) for h in S.elements],
    }

    def human(d):
        return (
            f"{d['size']} partial seed endomorphisms "
            f"(candidate bound {d['projected_bound']}, zero at index {d['zero_index']})"
        )

    return doc, human, 0


def _egg_box_doc(S, P):
    d_classes = []
    for rep, members in sorted(partition_classes(P.D).items()):
        r_reps = sorted({P.R[i] for i in members})
        l_reps = sorted({P.L[i] for i in members})
        rows = []
        for r in r_reps:
            row = []
            for l in l_reps:
                cell = sorted(i for i in members if P.R[i] == r and P.L[i] == l)
                row.append(cell)
            rows.append(row)
        id_members = [i for i in members if is_id_form(S.elements[i])]
        entry = {
            "representative": rep,
            "size": len(members),
            "regular": P.regular_flags[rep],
            "id_form_member": min(id_members) if id_members else None,
            "h_group_order": None,
            "rows": rows,
        }
        if id_members:
            e = min(i for i in id_members if P.idempotent_flags[i])
            entry["h_group_order"] = h_class_group(S, P, e).aut_order
        d_classes.append(entry)
    return d_classes


def cmd_green(args):
    seed = require_valid(load_seed(args.seed))
    S = enumerate_endpar(seed, cap=args.cap)
    P = green_relations(S)
    doc = {
        "size": len(S),
        "idempotents": [i for i, f in enumerate(P.idempotent_flags) if f],
        "regular_count": sum(P.regular_flags),
        "d_classes": _egg_box_doc(S, P),
        "regular_d_count": len(regular_D_classes(S, P)),
    }

    def human(d):
        lines = [
            f"semigroup size {d['size']}, {len(d['idempotents'])} idempotents, "
            f"{d['regular_d_count']} regular D-classes"
        ]
        idem = set(d["idempotents"])
        for cls in d["d_classes"]:
            flag = "regular" if cls["regular"] else "not regular"
            head = f"D-class of element {cls['representative']} ({cls['size']} elements, {flag}"
            if cls["h_group_order"] is not None:
                head += f", H-group order {cls['h_group_order']}"
            head += ")"
            lines.append(head)
            for row in cls["rows"]:
                cells = [
                    " ".join(f"{i}*" if i in idem else str(i) for i in cell) or "-"
                    for cell in row
                ]
                lines.append("  | " + " | ".join(cells) + " |")
        return "\n".join(lines)

    return doc, human, 0


def cmd_classify(args):
    seed = require_valid(load_seed(args.seed))
    report = theorem_number_report(seed, cap=args.cap)
    S, P = report.table, report.green
    order = seed.labels

    def spec_doc(spec):
        return {"I0": sorted(spec.I0, key=order.index), "I1": sorted(spec.I1, key=order.index)}

    classes = []
    for cls in report.iso_classes:
        d_rep = report.d_class_map[cls.representative]
        id_members = [
            i
            for i, h in enumerate(S.elements)
            if P.D[i] == d_rep and is_id_form(h) and P.idempotent_flags[i]
        ]
        classes.append(
            {
                "representative": spec_doc(cls.representative),
                "member_count": len(cls.members),
                "subalgebra_type": report.subalgebra_flags[cls.representative],
                "d_class": d_rep,
                "h_group_order": h_class_group(S, P, min(id_members)).aut_order,
            }
        )
    doc = {
        "iso_class_count": report.iso_class_count,
        "regular_d_count": report.regular_d_count,
        "bijection_verified": True,
        "classes": classes,
    }

    def human(d):
        lines = [
            f"{d['iso_class_count']} sub-seed iso-classes <-> "
            f"{d['regular_d_count']} regular D-classes (bijection verified)",
            "rep I0 | rep I1 | members | subalgebra-type | D-class | H-group order",
        ]
        for c in d["classes"]:
            lines.append(
                f"{{{','.join(c['representative']['I0'])}}} | "
                f"{{{','.join(c['representative']['I1'])}}} | "
                f"{c['member_count']} | {'yes' if c['subalgebra_type'] else 'no'} | "
                f"{c['d_class']} | {c['h_group_order']}"
            )
        return "\n".join(lines)

    return doc, human, 0


def cmd_surface_seed(args):
    data = load_surface(args.surface)
    doc = seed_to_dict(seed_from_surface(data))
    return doc, (lambda d: json.dumps(d, indent=2)), 0


def cmd_cut(args):
    data = load_surface(args.surface)
    doc = surface_to_dict(cut_along(data, args.diagonal, mode=args.mode))
    return doc, (lambda d: json.dumps(d, indent=2)), 0


def cmd_paunch(args):
    data = load_surface(args.surface)
    I0, I1 = _spec_from_args(args, data.diagonal_labels() + data.lamination_labels())
    doc = surface_to_dict(paunched_surface(data, I0, I1))
    return doc, (lambda d: json.dumps(d, indent=2)), 0


def cmd_check_sur(args):
    data = load_surface(args.surface)
    dlabels = data.diagonal_labels()
    labels = dlabels + data.lamination_labels()
    if args.all:
        specs = []
        for size in range(args.max_cut + 1):
            for chosen in itertools.combinations(labels, size):
                diag_part = [x for x in chosen if x in dlabels]
                for r in range(len(diag_part) + 1):
                    for I0 in itertools.combinations(diag_part, r):
                        specs.append((frozenset(I0), frozenset(set(chosen) - set(I0))))
    else:
        specs = [_spec_from_args(args, labels)]
    results = [
        {"I0": sorted(I0), "I1": sorted(I1), "ok": check_theorem_sur(data, I0, I1)}
        for I0, I1 in specs
    ]
    all_ok = all(r["ok"] for r in results)
    doc = {"all_ok": all_ok, "checked": len(results), "results": results}

    def human(d):
        lines = [f"{d['checked']} specs checked: " + ("all agree" if d["all_ok"] else "MISMATCH")]
        for r in d["results"]:
            if not r["ok"] or not args.all:
                lines.append(
                    f"  I0={{{','.join(r['I0'])}}} I1={{{','.join(r['I1'])}}}: "
                    + ("ok" if r["ok"] else "mismatch")
                )
        return "\n".join(lines)

    return doc, human, 0 if all_ok else 4


def cmd_surface_iso(args):
    a = load_surface(args.surface)
    b = load_surface(args.other)
    doc = {"isomorphic": surface_iso(a, b)}
    return doc, (lambda d: "isomorphic" if d["isomorphic"] else "not isomorphic"), 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clusterseeds",
        description="Seeds, partial seed endomorphisms, Green's relations, "
        "and triangulated-polygon realizations",
    )
    parser.add_argument("--format", choices=("human", "machine"), default="human")
    parser.add_argument("--out", help="write the report to this path instead of stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        return p

    p = add("validate", cmd_validate, help="check seed invariants")
    p.add_argument("seed")

    p = add("mutate", cmd_mutate, help="apply a mutation sequence symbolically")
    p.add_argument("seed")
    p.add_argument("sequence", nargs="*", type=int)

    p = add("clusters", cmd_clusters, help="breadth-first cluster enumeration")
    p.add_argument("seed")
    p.add_argument("--depth", type=int, default=10)
    p.add_argument("--cap", type=int, default=100_000, help="maximum explored states")

    p = add("hom-check", cmd_hom_check, help="validate a partial seed homomorphism")
    p.add_argument("seed")
    p.add_argument("hom")
    p.add_argument("--target", help="target seed file (defaults to the source)")

    p = add("compose", cmd_compose, help="compose two partial endomorphisms (outer inner)")
    p.add_argument("seed")
    p.add_argument("outer")
    p.add_argument("inner")

    p = add("endpar", cmd_endpar, help="enumerate the partial endomorphism semigroup")
    p.add_argument("seed")
    p.add_argument("--cap", type=int, default=DEFAULT_CAP)

    p = add("green", cmd_green, help="Green's relations egg-box report")
    p.add_argument("seed")
    p.add_argument("--cap", type=int, default=DEFAULT_CAP)

    p = add("classify", cmd_classify, help="sub-seed iso-classes vs regular D-classes")
    p.add_argument("seed")
    p.add_argument("--cap", type=int, default=DEFAULT_CAP)

    p = add("surface-seed", cmd_surface_seed, help="seed of a triangulated surface")
    p.add_argument("surface")

    p = add("cut", cmd_cut, help="cut a surface along one diagonal")
    p.add_argument("surface")
    p.add_argument("diagonal")
    p.add_argument("--mode", choices=("delete", "freeze"), default="delete")

    p = add("paunch", cmd_paunch, help="apply an (I0, I1) paunching")
    p.add_argument("surface")
    p.add_argument("--i0", default="", help="comma-separated diagonal labels to freeze")
    p.add_argument("--i1", default="", help="comma-separated labels to delete")

    p = add("check-sur", cmd_check_sur, help="sub-seed vs paunched-surface seed comparison")
    p.add_argument("surface")
    p.add_argument("--i0", default="")
    p.add_argument("--i1", default="")
    p.add_argument("--all", action="store_true", help="sweep all specs up to --max-cut labels")
    p.add_argument("--max-cut", type=int, default=2)

    p = add("surface-iso", cmd_surface_iso, help="combinatorial surface isomorphism")
    p.add_argument("surface")
    p.add_argument("other")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        doc, human, code = args.fn(args)
    except ParseError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except (SeedError, SpecError, HomError, IndexError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except ResourceCapExceeded as exc:
        extra = f" (partial count {exc.partial_count})" if exc.partial_count is not None else ""
        print(f"resource cap exceeded: {exc}{extra}", file=sys.stderr)
        return 3
    except (TheoremViolation, LaurentViolation) as exc:
        print(f"theorem violation: {exc}", file=sys.stderr)
        return 4
    doc = {"schema_version": SCHEMA_VERSION, "command": args.command, **doc}
    text = json.dumps(doc, indent=2) if args.format == "machine" else human(doc)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
