"""Sub-seed iso-classes and their match with regular D-classes."""

import pytest

from clusterseeds import (
    SubSeedSpec,
    is_subalgebra_type,
    iso_classes_of_subseeds,
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
from oracles import spec_universe_size


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
    assert not is_subalgebra_type(seed, SubSeedSpec.of((), ["x2"]))
    assert is_subalgebra_type(seed, SubSeedSpec.of(["x1", "x3"], ["x2"]))
    assert is_subalgebra_type(seed, SubSeedSpec.of((), ()))
    assert is_subalgebra_type(seed, SubSeedSpec.of((), ["x1", "x2", "x3"]))


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
