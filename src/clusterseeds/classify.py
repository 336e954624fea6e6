"""Iso-classes of mixing-type sub-seeds and the regular-D-class bijection.

The iso-class side is computed by pure isomorphism search over all
(I0, I1) specifications; the D-class side comes independently from the
semigroup.  Joining the two is a genuine cross-check, and any failure
of well-definedness, injectivity, or surjectivity is fatal.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import TheoremViolation
from .homs import SubSeedSpec, find_seed_iso, identity_inclusion, mixing_subseed
from .seeds import Seed
from .semigroup import (
    DEFAULT_CAP,
    GreenPartition,
    SemigroupTable,
    _all_specs,
    enumerate_endpar,
    green_relations,
    regular_D_classes,
)

__all__ = [
    "is_subalgebra_type",
    "IsoClass",
    "iso_classes_of_subseeds",
    "ClassificationReport",
    "theorem_number_report",
    "spec_universe_size",
]


def is_subalgebra_type(seed: Seed, spec: SubSeedSpec) -> bool:
    """True iff no surviving exchangeable variable touches a deleted one."""
    spec.validate(seed)
    survivors = [
        x for x in seed.exchangeable_labels if x not in spec.I0 and x not in spec.I1
    ]
    return all(seed.b(x, y) == 0 for x in survivors for y in spec.I1)


def spec_universe_size(seed: Seed) -> int:
    return 3**seed.n * 2**seed.m


@dataclass(frozen=True)
class IsoClass:
    representative: SubSeedSpec
    members: tuple[SubSeedSpec, ...]


def iso_classes_of_subseeds(seed: Seed) -> list[IsoClass]:
    """Partition of all valid specs by isomorphism of their sub-seeds.

    The representative is the lexicographically least spec in the
    seed's label order.
    """
    specs = sorted(_all_specs(seed), key=lambda s: s.sort_key(seed))
    reps: list[tuple[SubSeedSpec, Seed, list[SubSeedSpec]]] = []
    for spec in specs:
        sub = mixing_subseed(seed, spec)
        for _, rep_sub, members in reps:
            if find_seed_iso(sub, rep_sub) is not None:
                members.append(spec)
                break
        else:
            reps.append((spec, sub, [spec]))
    return [IsoClass(rep, tuple(members)) for rep, _, members in reps]


@dataclass
class ClassificationReport:
    iso_classes: list[IsoClass]
    d_class_map: dict[SubSeedSpec, int]
    subalgebra_flags: dict[SubSeedSpec, bool]
    regular_d_count: int
    table: SemigroupTable
    green: GreenPartition

    @property
    def iso_class_count(self) -> int:
        return len(self.iso_classes)


def theorem_number_report(seed: Seed, cap: int = DEFAULT_CAP) -> ClassificationReport:
    """Match sub-seed iso-classes with regular D-classes of the
    endomorphism semigroup and verify the correspondence is a bijection.

    The report keeps the semigroup table and its Green's partition, so
    callers need not build them again."""
    classes = iso_classes_of_subseeds(seed)
    S = enumerate_endpar(seed, cap=cap)
    P = green_relations(S)
    regular = regular_D_classes(S, P)
    regular_reps = {rep for rep, _ in regular}
    d_class_map: dict[SubSeedSpec, int] = {}
    for cls in classes:
        d_reps = set()
        for spec in cls.members:
            e = S.index[identity_inclusion(seed, spec)]
            d_reps.add(P.D[e])
        if len(d_reps) != 1:
            raise TheoremViolation(
                f"iso-class of {cls.representative} meets several D-classes"
            )
        d_class_map[cls.representative] = d_reps.pop()
    hit = list(d_class_map.values())
    if len(set(hit)) != len(hit):
        raise TheoremViolation("distinct iso-classes share a D-class")
    if set(hit) != regular_reps:
        raise TheoremViolation(
            f"iso-classes cover {len(set(hit))} D-classes "
            f"but there are {len(regular_reps)} regular D-classes"
        )
    flags = {
        spec: is_subalgebra_type(seed, spec)
        for cls in classes
        for spec in cls.members
    }
    return ClassificationReport(classes, d_class_map, flags, len(regular_reps), S, P)
