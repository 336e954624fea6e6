"""Claim 2 (sub-seed iso classes <-> regular D-classes) on two whole
families of small seeds, one representative per isomorphism class.

The families are every seed with three exchangeable variables and a
skew-symmetric matrix with entries in [-2, 2], and every seed with two
exchangeable variables and one frozen one, entries in [-2, 2].  Each
family is cut down to one seed per isomorphism class with find_seed_iso,
and on each representative theorem_number_report must hold, its
semigroup must be the one the brute-force enumerator finds, and the
search must check exactly projected_endpar_bound candidates.
"""

import itertools

import pytest

from clusterseeds import (
    Seed,
    find_seed_iso,
    projected_endpar_bound,
    theorem_number_report,
)
from clusterseeds import semigroup as semigroup_module
from oracles import brute_force_endpar, elements, to_key

ENTRIES = range(-2, 3)


def skew_rank3():
    """The 125 seeds x1, x2, x3 with b_12, b_13, b_23 in [-2, 2]."""
    for b12, b13, b23 in itertools.product(ENTRIES, repeat=3):
        rows = [[0, b12, b13], [-b12, 0, b23], [-b13, -b23, 0]]
        yield Seed.from_data(["x1", "x2", "x3"], [], rows)


def rank2_one_frozen():
    """The 125 seeds x1, x2 | y1 with b_12 and the frozen column in [-2, 2]."""
    for b12, b1y, b2y in itertools.product(ENTRIES, repeat=3):
        rows = [[0, b12, b1y], [-b12, 0, b2y]]
        yield Seed.from_data(["x1", "x2"], ["y1"], rows)


FAMILIES = {"skew_rank3": skew_rank3, "rank2_one_frozen": rank2_one_frozen}

# family -> (seeds, representatives, iso classes summed over the
# representatives, largest semigroup, semigroup sizes summed)
PINNED = {
    "skew_rank3": (125, 19, 262, 343, 3163),
    "rank2_one_frozen": (125, 36, 381, 144, 3509),
}


def representatives(seeds):
    """The first seed of each isomorphism class, in the given order."""
    reps = []
    for seed in seeds:
        if all(find_seed_iso(seed, rep) is None for rep in reps):
            reps.append(seed)
    return reps


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_claim2_on_every_representative(monkeypatch, family):
    seeds = list(FAMILIES[family]())
    reps = representatives(seeds)
    calls = []
    check = semigroup_module.check_partial_hom

    def counting(candidate, *layout):
        calls.append(candidate)
        return check(candidate, *layout)

    monkeypatch.setattr(semigroup_module, "check_partial_hom", counting)
    iso_classes = largest = total = 0
    for seed in reps:
        calls.clear()
        report = theorem_number_report(seed)
        S = report.table
        assert len(calls) == projected_endpar_bound(seed), seed
        assert {to_key(h) for h in elements(S)} == brute_force_endpar(seed), seed
        assert report.iso_class_count == report.regular_d_count
        iso_classes += report.iso_class_count
        largest = max(largest, len(S))
        total += len(S)
    assert (len(seeds), len(reps), iso_classes, largest, total) == PINNED[family]
