"""JSON round trips and schema rejection for seeds, homs, and surfaces."""

import json
import random

import pytest

from clusterseeds import ParseError, cli, make_surface
from clusterseeds.fileio import (
    hom_from_dict,
    hom_to_dict,
    load_seed,
    load_surface,
    seed_from_dict,
    seed_to_dict,
    surface_from_dict,
    surface_to_dict,
)
from conftest import a2_seed, amalgam_seed
from oracles import dump_seed, enumerate_triangulations, identity_inclusion, spec_of


def test_seed_round_trip(tmp_path):
    seed = amalgam_seed()
    path = tmp_path / "seed.json"
    dump_seed(seed, str(path))
    assert load_seed(str(path)) == seed


def test_seed_from_dict_rejects_bad_shapes():
    good = seed_to_dict(a2_seed())
    with pytest.raises(ParseError):
        seed_from_dict([])
    with pytest.raises(ParseError):
        seed_from_dict({k: v for k, v in good.items() if k != "matrix"})
    ragged = dict(good, matrix=[[0, 1], [-1]])
    with pytest.raises(ParseError):
        seed_from_dict(ragged)
    floats = dict(good, matrix=[[0, 1.5], [-1, 0]])
    with pytest.raises(ParseError):
        seed_from_dict(floats)
    bools = dict(good, matrix=[[0, True], [-1, 0]])
    with pytest.raises(ParseError):
        seed_from_dict(bools)
    dupes = dict(good, exchangeable=["x1", "x1"])
    with pytest.raises(ParseError):
        seed_from_dict(dupes)


def test_missing_and_invalid_files(tmp_path):
    with pytest.raises(ParseError):
        load_seed(str(tmp_path / "absent.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ParseError):
        load_seed(str(bad))


def test_hom_round_trip():
    seed = amalgam_seed()
    h = identity_inclusion(seed, spec_of(["x2"], ["x3"]))
    doc = hom_to_dict(h)
    assert doc == {"I0": ["x2"], "I1": ["x3"], "map": {"x1": "x1", "x2": "x2"}}
    assert hom_from_dict(doc, seed, seed) == h


def test_hom_map_as_pair_list():
    seed = a2_seed()
    doc = {"I0": [], "I1": [], "map": [["x1", "x2"], ["x2", "x1"]]}
    h = hom_from_dict(doc, seed, seed)
    assert h.map_dict() == {"x1": "x2", "x2": "x1"}


def test_hom_pair_list_rejects_non_string_items(tmp_path):
    seed = a2_seed()
    doc = {"I0": [], "I1": [], "map": [[["x1"], "x2"]]}
    with pytest.raises(ParseError):
        hom_from_dict(doc, seed, seed)
    seed_path, hom_path = tmp_path / "a2.json", tmp_path / "hom.json"
    dump_seed(seed, str(seed_path))
    hom_path.write_text(json.dumps(doc))
    assert cli.main(["hom-check", str(seed_path), str(hom_path)]) == 2


def test_hom_pair_list_rejects_repeated_source_labels():
    seed = a2_seed()
    doc = {"I0": [], "I1": [], "map": [["x1", "x2"], ["x1", "x1"]]}
    with pytest.raises(ParseError):
        hom_from_dict(doc, seed, seed)


def test_hom_rejects_unknown_labels():
    seed = a2_seed()
    with pytest.raises(ParseError):
        hom_from_dict({"I0": [], "I1": [], "map": {"zz": "x1"}}, seed, seed)
    with pytest.raises(ParseError):
        hom_from_dict({"I0": [], "map": {}}, seed, seed)


def test_surface_round_trip(tmp_path):
    surf = make_surface(5, [(0, 2), (0, 3)], laminations=[[(1, 4), (2, 4)]])
    path = tmp_path / "surf.json"
    path.write_text(json.dumps(surface_to_dict(surf)))
    assert load_surface(str(path)) == surf


def test_surface_single_polygon_shorthand():
    doc = {"N": 4, "triangulation": [[0, 2]], "laminations": [[[1, 3]]]}
    surf = surface_from_dict(doc)
    assert surf == make_surface(4, [(0, 2)], laminations=[[(1, 3)]])


@pytest.mark.parametrize("N", [11, 12])
def test_make_surface_equals_the_shorthand_document(N):
    # from N = 11 on, label order differs from vertex order (d1_10 sorts
    # before d1_2), and from 11 laminations on, L10 sorts before L2
    rng = random.Random(N)
    for tri in enumerate_triangulations(N)[:300]:
        laminations = [[rng.sample(range(N), 2)] for _ in range(rng.choice((0, 1, 12)))]
        doc = {"N": N, "triangulation": [list(d) for d in tri], "laminations": laminations}
        assert make_surface(N, tri, laminations) == surface_from_dict(doc)


def test_surface_from_dict_rejects_invalid_geometry():
    with pytest.raises(ParseError):
        surface_from_dict({"N": 4, "triangulation": [[0, 1]]})
    with pytest.raises(ParseError):
        surface_from_dict({"N": 4})  # no diagonals: not a triangulation
    with pytest.raises(ParseError):
        surface_from_dict({"components": [4]})  # missing fields


def test_surface_rejects_booleans_as_integers():
    with pytest.raises(ParseError):
        surface_from_dict({"N": 4, "triangulation": [[True, 3]]})
    with pytest.raises(ParseError):
        surface_from_dict({"N": True, "triangulation": []})
    good = surface_to_dict(make_surface(4, [(0, 2)]))
    with pytest.raises(ParseError):
        surface_from_dict(dict(good, components=[True]))
    with pytest.raises(ParseError):
        surface_from_dict(dict(good, diagonals={"d0_2": [False, [0, 2]]}))
    assert surface_from_dict(good) == make_surface(4, [(0, 2)])


def test_hom_map_rejects_repeated_keys(tmp_path, capsys):
    seed_path, hom_path = tmp_path / "a2.json", tmp_path / "hom.json"
    dump_seed(a2_seed(), str(seed_path))
    hom_path.write_text('{"I0": [], "I1": [], "map": {"x1": "x2", "x2": "x1", "x1": "x1"}}')
    assert cli.main(["hom-check", str(seed_path), str(hom_path)]) == 2
    assert "repeats the key 'x1'" in capsys.readouterr().err


def test_seed_rejects_repeated_keys(tmp_path):
    path = tmp_path / "seed.json"
    path.write_text(
        '{"exchangeable": ["x1", "x2"], "frozen": [],'
        ' "matrix": [[0, 1], [-1, 0]], "matrix": [[0, 2], [-2, 0]]}'
    )
    with pytest.raises(ParseError, match="repeats the key 'matrix'"):
        load_seed(str(path))
    assert cli.main(["validate", str(path)]) == 2


def test_surface_rejects_repeated_diagonal_labels(tmp_path):
    path = tmp_path / "surf.json"
    path.write_text(
        '{"components": [4], "diagonals": {"d": [0, [0, 2]], "d": [0, [1, 3]]},'
        ' "laminations": {}}'
    )
    with pytest.raises(ParseError, match="repeats the key 'd'"):
        load_surface(str(path))
