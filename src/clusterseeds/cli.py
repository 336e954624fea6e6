"""Command-line driver.

Machine output is a versioned JSON document; the human rendering is
derived from that document, never computed separately.  Every JSON
report, machine or human, is made by dumps_indented, which returns
json.dumps(doc, indent=2) of a report byte for byte without json's
pure-Python indenting encoder, and written in slices.  Exit codes: 0
success, 2 input error, 3 resource cap exceeded, 4 theorem violation.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import math
import os
import stat
import sys
from json.encoder import encode_basestring_ascii as _quote

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
    spec_to_dict,
    surface_to_dict,
)
from .homs import check_partial_hom, compose, require_hom
from .poly import enumerate_clusters, initial_state, mutate_state
from .seeds import require_valid, validate_seed
from .semigroup import (
    MAX_ELEMENTS,
    enumerate_endpar,
    green_relations,
    h_class_group,
    partition_classes,
    projected_endpar_bound,
    regular_D_classes,
)
from .classify import theorem_number_report
from .surface import check_theorem_sur, cut_along, paunched_surface, seed_from_surface, surface_iso

SCHEMA_VERSION = 1


def _refuse(value, what="value"):
    raise TypeError(f"a report {what} cannot be of type {value.__class__.__name__}")


# the text of a str, int, bool or None of exactly that type, from one
# lookup on its type
_exact_text = {
    str: _quote,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
}.get


def dumps_indented(doc, newline: str = "\n") -> str:
    """json.dumps(doc, indent=2) of a report, with the items of each
    container joined at once and strings quoted by json's C encoder.
    A report is a dict with str keys, a list, a str, an int, a bool or
    None, each of exactly that type; any other value or key is a
    TypeError that names its type.  newline is the line break and
    indent before doc's own closing bracket.

    A scalar item gets its text from one lookup on its type, a list
    whose items share one scalar type is written by one map, and any
    other item recurses at once.  The items are dropped once joined and
    the brackets added in one copy, so a large container's text is held
    at most twice while it is made."""
    inner = newline + "  "
    if type(doc) is dict:
        if not doc:
            return "{}"
        items = [
            (_quote(k) if type(k) is str else _refuse(k, "key"))
            + ": "
            + (text(v) if (text := _exact_text(type(v))) else dumps_indented(v, inner))
            for k, v in doc.items()
        ]
        items = ("," + inner).join(items)
        return f"{{{inner}{items}{newline}}}"
    if type(doc) is list:
        if not doc:
            return "[]"
        kinds = set(map(type, doc))
        if len(kinds) == 1 and (text := _exact_text(kinds.pop())):
            items = map(text, doc)
        else:
            items = [
                text(v) if (text := _exact_text(type(v))) else dumps_indented(v, inner)
                for v in doc
            ]
        items = ("," + inner).join(items)
        return f"[{inner}{items}{newline}]"
    return _exact_text(type(doc), _refuse)(doc)


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


def _human_variables(args, variables, monomials: dict) -> dict[str, str]:
    """The machine text of each cluster variable -> its human text, with
    a denominator of more than one factor bracketed; empty for a machine
    report, so that no polynomial is kept while the report is written."""
    if args.format != "human":
        return {}
    return {v.text(monomials): v.human_text(monomials) for v in variables}


def cmd_mutate(args):
    seed = require_valid(load_seed(args.seed))
    state = initial_state(seed)
    variables = list(state.assignment)
    steps = []
    for k in (None, *args.sequence):  # None stands for the initial seed
        if k is not None:
            if not 0 <= k < seed.n:
                raise ParseError(f"mutation index {k} out of range 0..{seed.n - 1}")
            state = mutate_state(state, k)
            variables += state.assignment
        steps.append(
            {
                "k": k,
                "matrix": [list(r) for r in state.matrix],
                "cluster": [str(v) for v in state.assignment],
            }
        )
    doc = {"steps": steps}
    shown = _human_variables(args, variables, {})

    def human(d):
        out = []
        for step in d["steps"]:
            head = "initial seed" if step["k"] is None else f"after mutation at slot {step['k']}"
            out.append(head)
            out.extend("  " + " ".join(f"{v:>4}" for v in row) for row in step["matrix"])
            out.append("  cluster: " + ", ".join(map(shown.__getitem__, step["cluster"])))
        return "\n".join(out)

    return doc, human, 0


def cmd_clusters(args):
    seed = load_seed(args.seed)  # enumerate_clusters rejects an invalid seed
    result = enumerate_clusters(seed, max_depth=args.depth, max_states=args.cap)
    monomials = {}  # one monomial table for every variable of this command
    doc = {
        "count": len(result.clusters),
        "status": result.status,
        "clusters": [sorted(v.text(monomials) for v in c) for c in result.clusters],
    }
    shown = _human_variables(args, itertools.chain.from_iterable(result.clusters), monomials)

    def human(d):
        lines = [f"{d['count']} clusters ({d['status']})"]
        lines += ["  {" + ", ".join(map(shown.__getitem__, c)) + "}" for c in d["clusters"]]
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
    return doc, dumps_indented, 0


def cmd_endpar(args):
    seed = require_valid(load_seed(args.seed))
    bound = projected_endpar_bound(seed)
    S = enumerate_endpar(seed, cap=args.cap)
    elements = []
    for row in S.digits.tolist():  # hom_to_dict of each element, read off its digit row
        I0, I1, mapping = S.decode(row)
        image = {x: v for x, v in zip(seed.labels, mapping) if v is not None}
        elements.append({"I0": list(I0), "I1": list(I1), "map": image})
    doc = {
        "size": len(S),
        "projected_bound": bound,
        "zero_index": S.zero_index,
        "elements": elements,
    }

    def human(d):
        return (
            f"{d['size']} partial seed endomorphisms "
            f"(candidate bound {d['projected_bound']}, zero at index {d['zero_index']})"
        )

    return doc, human, 0


def _egg_box_doc(S, P, regular):
    id_member = dict(regular)  # id-form members are idempotent
    d_classes = []
    for rep, members in sorted(partition_classes(P.D).items()):
        cells: dict[tuple[int, int], list[int]] = {}
        for i in members:
            cells.setdefault((P.R[i], P.L[i]), []).append(i)
        r_reps = sorted({r for r, _ in cells})
        l_reps = sorted({l for _, l in cells})
        e = id_member.get(rep)
        d_classes.append(
            {
                "representative": rep,
                "size": len(members),
                "regular": P.regular_flags[rep],
                "id_form_member": e,
                "h_group_order": None if e is None else h_class_group(S, P, e).aut_order,
                "rows": [[cells.get((r, l), []) for l in l_reps] for r in r_reps],
            }
        )
    return d_classes


def cmd_green(args):
    seed = require_valid(load_seed(args.seed))
    S = enumerate_endpar(seed, cap=args.cap)
    P = green_relations(S)
    regular = regular_D_classes(S, P)
    doc = {
        "size": len(S),
        "idempotents": [i for i, f in enumerate(P.idempotent_flags) if f],
        "regular_count": sum(P.regular_flags),
        "d_classes": _egg_box_doc(S, P, regular),
        "regular_d_count": len(regular),
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
    id_member = dict(report.regular)
    classes = []
    for cls in report.iso_classes:
        d_rep = report.d_class_map[cls.representative]
        classes.append(
            {
                "representative": spec_to_dict(cls.representative, seed),
                "member_count": len(cls.members),
                "subalgebra_type": report.subalgebra_flags[cls.representative],
                "d_class": d_rep,
                "h_group_order": h_class_group(S, P, id_member[d_rep]).aut_order,
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
    return doc, dumps_indented, 0


def cmd_cut(args):
    data = load_surface(args.surface)
    doc = surface_to_dict(cut_along(data, args.diagonal, mode=args.mode))
    return doc, dumps_indented, 0


def cmd_paunch(args):
    data = load_surface(args.surface)
    I0, I1 = _spec_from_args(args, data.diagonal_labels() + data.lamination_labels())
    doc = surface_to_dict(paunched_surface(data, I0, I1))
    return doc, dumps_indented, 0


# the most specs check-sur --all sweeps; a larger sweep is exit 3 before
# any spec is made
MAX_SWEEP_SPECS = 10**6


def sweep_spec_count(d: int, m: int, max_cut: int) -> int:
    """The number of specs check-sur --all --max-cut max_cut sweeps on a
    surface with d diagonals and m laminations: the sum over k + l <=
    max_cut of C(d, k) C(m, l) 2^k, each of the k chosen diagonals frozen
    or deleted."""
    return sum(
        math.comb(d, k) * 2**k * math.comb(m, l)
        for k in range(min(d, max_cut) + 1)
        for l in range(min(m, max_cut - k) + 1)
    )


def cmd_check_sur(args):
    data = load_surface(args.surface)
    dlabels = data.diagonal_labels()
    labels = dlabels + data.lamination_labels()
    if args.all:
        if args.i0 or args.i1:
            raise ParseError("--i0 and --i1 name one spec and cannot be combined with --all")
        count = sweep_spec_count(len(dlabels), len(data.lamination_labels()), args.max_cut)
        if count > MAX_SWEEP_SPECS:
            raise ResourceCapExceeded(
                f"check-sur --all --max-cut {args.max_cut} sweeps {count} specs, "
                f"more than {MAX_SWEEP_SPECS}",
                partial_count=count,
            )

        def sweep():  # one spec at a time, as the results below take them
            diagonal = set(dlabels)
            for size in range(args.max_cut + 1):
                for chosen in itertools.combinations(labels, size):
                    chosen_set = frozenset(chosen)
                    diag_part = [x for x in chosen if x in diagonal]
                    for r in range(len(diag_part) + 1):
                        for I0 in map(frozenset, itertools.combinations(diag_part, r)):
                            yield I0, chosen_set - I0

        specs = sweep()
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


def _count(text: str) -> int:
    """argparse type of depths, caps and cut sizes: an integer of at least 0."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by every
    later main call in the process (parse_args leaves it unchanged)."""
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
    p.add_argument("--depth", type=_count, default=10)
    p.add_argument("--cap", type=_count, default=100_000, help="maximum clusters kept")

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
    p.add_argument("--cap", type=_count, default=MAX_ELEMENTS)

    p = add("green", cmd_green, help="Green's relations egg-box report")
    p.add_argument("seed")
    p.add_argument("--cap", type=_count, default=MAX_ELEMENTS)

    p = add("classify", cmd_classify, help="sub-seed iso-classes vs regular D-classes")
    p.add_argument("seed")
    p.add_argument("--cap", type=_count, default=MAX_ELEMENTS)

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
    p.add_argument("--max-cut", type=_count, default=2)

    p = add("surface-iso", cmd_surface_iso, help="combinatorial surface isomorphism")
    p.add_argument("surface")
    p.add_argument("other")
    return parser


# characters per write: a report is written in slices, so writing it
# makes no full copy of its text, encoded or not
WRITE_SLICE = 1 << 20


def _write_report(fh, text: str) -> None:
    """text and a newline written to fh, in slices of WRITE_SLICE characters."""
    for start in range(0, len(text), WRITE_SLICE):
        fh.write(text[start : start + WRITE_SLICE])
    fh.write("\n")


def _write_out(path: str, text: str) -> None:
    """The report written to the file path.  If a write fails, the file
    is removed when it is a regular file, so no half-written report
    stays; a device or a FIFO is left alone.  The OSError is raised
    again."""
    with open(path, "w") as fh:
        try:
            _write_report(fh, text)
            fh.flush()
        except OSError:
            if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                with contextlib.suppress(OSError):
                    os.unlink(path)
            raise


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        doc, human, code = args.fn(args)
    except (ParseError, SeedError, SpecError, HomError) as exc:
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
    try:
        text = dumps_indented(doc) if args.format == "machine" else human(doc)
    except ValueError as exc:  # an integer over the interpreter's str digit limit
        print(f"resource cap exceeded: {exc}", file=sys.stderr)
        return 3
    if args.out:
        try:
            _write_out(args.out, text)
        except OSError as exc:
            print(f"input error: cannot write {args.out}: {exc}", file=sys.stderr)
            return 2
    else:
        try:
            _write_report(sys.stdout, text)
            sys.stdout.flush()
        except BrokenPipeError as exc:
            # the reader went away; point stdout at devnull so the flush
            # at interpreter exit cannot raise again
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            print(f"input error: cannot write stdout: {exc}", file=sys.stderr)
            return 2
    return code


if __name__ == "__main__":
    raise SystemExit(main())
