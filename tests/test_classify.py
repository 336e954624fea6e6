"""Sub-seed iso-classes and their match with regular D-classes."""

import dataclasses

import pytest

import clusterseeds.classify as classify_module
from clusterseeds import (
    TheoremViolation,
    is_subalgebra_type,
    iso_classes_of_subseeds,
    regular_D_classes,
    theorem_number_report,
)
from conftest import (
    BENCHMARK_SEEDS,
    PINNED_STATS,
    a2_seed,
    amalgam_seed,
    linear_path_seed,
    trivial_seed,
)
from oracles import spec_of, spec_universe_size


def test_spec_universe_size():
    assert spec_universe_size(a2_seed()) == 9
    assert spec_universe_size(trivial_seed(2)) == 4
    seed = linear_path_seed(3)
    assert spec_universe_size(seed) == 27


@pytest.mark.parametrize("name", sorted(BENCHMARK_SEEDS))
def test_iso_class_counts(name):
    seed = BENCHMARK_SEEDS[name]()
    classes = iso_classes_of_subseeds(seed)
    assert len(classes) == PINNED_STATS[name]["iso_classes"]
    # the classes partition the whole spec universe
    total = sum(len(c.members) for c in classes)
    assert total == spec_universe_size(seed)
    all_specs = [s for c in classes for s in c.members]
    assert len(set(all_specs)) == total


def test_a2_iso_class_shapes():
    # the six shapes: full seed, one frozen, two frozen, one vertex
    # deleted (exchangeable singleton), frozen singleton, empty
    classes = iso_classes_of_subseeds(a2_seed())
    sizes = sorted(len(c.members) for c in classes)
    assert sizes == [1, 1, 1, 2, 2, 2]


def test_trivial_seed_classes_count_by_cardinality():
    for m in (1, 2):
        classes = iso_classes_of_subseeds(trivial_seed(m))
        assert len(classes) == m + 1


def test_subalgebra_type_criterion():
    seed = amalgam_seed()
    # deleting the middle vertex disconnects, and no survivor touches it
    # only if the survivors are not its neighbours
    assert not is_subalgebra_type(seed, spec_of((), ["x2"]))
    assert is_subalgebra_type(seed, spec_of(["x1", "x3"], ["x2"]))
    assert is_subalgebra_type(seed, spec_of((), ()))
    assert is_subalgebra_type(seed, spec_of((), ["x1", "x2", "x3"]))


@pytest.mark.parametrize("name", sorted(BENCHMARK_SEEDS))
def test_bijection_with_regular_d_classes(name):
    seed = BENCHMARK_SEEDS[name]()
    report = theorem_number_report(seed)
    stats = PINNED_STATS[name]
    assert report.iso_class_count == stats["iso_classes"]
    assert report.regular_d_count == stats["regular_d"]
    # well-defined + injective + surjective checks passed inside; the
    # map itself must be a bijection onto the regular D-classes
    assert len(set(report.d_class_map.values())) == report.regular_d_count


def _report_with(monkeypatch, seed, perturb):
    """theorem_number_report on the seed, with Green's partition P of its
    semigroup S replaced by perturb(S, P)."""
    green = classify_module.green_relations
    monkeypatch.setattr(classify_module, "green_relations", lambda S: perturb(S, green(S)))
    return theorem_number_report(seed)


@pytest.mark.parametrize("name", ["a2", "amalgam", "double_arrow"])
def test_classify_rejects_a_d_class_split_along_its_r_classes(monkeypatch, name):
    """Each R-class of a regular D-class holds the identity inclusion of
    its image spec, so every piece keeps an id-form member and
    regular_D_classes accepts the split; the iso-class does not."""

    def split(S, P):
        rep = next(
            rep
            for rep, _ in regular_D_classes(S, P)
            if len({r for r, d in zip(P.R, P.D) if d == rep}) > 1
        )
        return dataclasses.replace(P, D=tuple(r if d == rep else d for r, d in zip(P.R, P.D)))

    with pytest.raises(TheoremViolation, match=r"^iso-class of .* meets several D-classes$"):
        _report_with(monkeypatch, BENCHMARK_SEEDS[name](), split)


@pytest.mark.parametrize("name", ["a2", "amalgam", "double_arrow"])
def test_classify_rejects_two_iso_classes_in_one_d_class(monkeypatch, name):
    def merge(S, P):
        (a, _), (b, _) = regular_D_classes(S, P)[:2]
        return dataclasses.replace(P, D=tuple(a if d == b else d for d in P.D))

    with pytest.raises(TheoremViolation, match="^distinct iso-classes share a D-class$"):
        _report_with(monkeypatch, BENCHMARK_SEEDS[name](), merge)


def test_classify_rejects_a_missing_identity_inclusion(monkeypatch):
    """The identity inclusion of the spec (I0, I1) = ((), (x2,)) of a2 is
    re-pointed to send x1 to x2.  Its iso-class has a second member in
    the same D-class, so regular_D_classes still accepts the table."""
    endpar = classify_module.enumerate_endpar

    def without_identity(seed, cap):
        S = endpar(seed, cap=cap)
        digits = S.digits.copy()
        (e,) = [i for i, row in enumerate(digits.tolist()) if row == [2, 0]]
        digits[e] = [4, 0]
        return dataclasses.replace(S, digits=digits)

    monkeypatch.setattr(classify_module, "enumerate_endpar", without_identity)
    with pytest.raises(
        TheoremViolation, match=r"^the identity inclusion of .*'x2'.* is not in the semigroup$"
    ):
        theorem_number_report(a2_seed())
