"""End-to-end command-line behaviour: reports, formats, and exit codes."""

import dataclasses
import enum
import errno
import hashlib
import json
import os
import random
import stat
import subprocess
import sys
import types

import pytest
from hypothesis import given, settings, strategies as st

import clusterseeds
import clusterseeds.poly as poly_module
import clusterseeds.semigroup as semigroup_module
import clusterseeds.surface as surface_module
from clusterseeds import MultiPoly, Seed, cli, enumerate_clusters, initial_state
from clusterseeds.fileio import hom_to_dict, surface_to_dict
from conftest import (
    a2_seed,
    a2_y2_seed,
    amalgam_seed,
    double_arrow_seed,
    linear_path_seed,
    seeded_polygons,
    two_component_surface,
)
from clusterseeds import make_surface
from oracles import dump_seed, enumerate_triangulations, reference_str


@pytest.fixture
def a2_file(tmp_path):
    path = tmp_path / "a2.json"
    dump_seed(a2_seed(), str(path))
    return str(path)


@pytest.fixture
def square_file(tmp_path):
    surf = make_surface(4, [(0, 2)], laminations=[[(1, 3)]])
    path = tmp_path / "square.json"
    path.write_text(json.dumps(surface_to_dict(surf)))
    return str(path)


@pytest.fixture
def hexagon_file(tmp_path):
    # the fan of the hexagon from vertex 0, with one lamination
    surf = make_surface(6, [(0, 2), (0, 3), (0, 4)], laminations=[[(1, 4)]])
    path = tmp_path / "hexagon.json"
    path.write_text(json.dumps(surface_to_dict(surf)))
    return str(path)


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------- validate


def test_validate_human(capsys, a2_file):
    code, out, _ = run(capsys, "validate", a2_file)
    assert code == 0
    assert "valid" in out


def test_validate_machine_schema(capsys, a2_file):
    code, out, _ = run(capsys, "--format", "machine", "validate", a2_file)
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"] == 1
    assert doc["command"] == "validate"
    assert doc["ok"] is True
    assert doc["symmetrizer"] == [1, 1]


def test_validate_reports_violations(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(
        json.dumps({"exchangeable": ["a", "b"], "frozen": [], "matrix": [[0, 1], [1, 0]]})
    )
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 0  # validation reports are a success, the seed is just invalid
    assert "invalid" in out


def test_out_writes_to_file(capsys, a2_file, tmp_path):
    dest = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "--format", "machine", "--out", str(dest), "validate", a2_file
    )
    assert code == 0 and out == ""
    assert json.loads(dest.read_text())["ok"] is True


@pytest.mark.parametrize("fmt", ["machine", "human"])
def test_reports_are_written_in_slices(capsys, monkeypatch, a2_file, tmp_path, fmt):
    """A report written five characters at a time, to stdout and to
    --out, is its text and one newline."""
    argv = ["--format", fmt, "clusters", a2_file]
    args = cli.build_parser().parse_args(argv)
    doc, human, _ = args.fn(args)
    doc = {"schema_version": cli.SCHEMA_VERSION, "command": "clusters", **doc}
    text = cli.dumps_indented(doc) if fmt == "machine" else human(doc)
    monkeypatch.setattr(cli, "WRITE_SLICE", 5)
    writes = []
    write = sys.stdout.write
    monkeypatch.setattr(sys.stdout, "write", lambda part: writes.append(part) or write(part))
    assert run(capsys, *argv) == (0, text + "\n", "")
    assert writes == [text[i : i + 5] for i in range(0, len(text), 5)] + ["\n"]
    dest = tmp_path / "report.txt"
    assert run(capsys, "--out", str(dest), *argv) == (0, "", "")
    assert dest.read_text() == text + "\n"


# -------------------------------------------------------------- exit codes


def test_exit_2_on_malformed_input(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{oops")
    code, _, err = run(capsys, "validate", str(path))
    assert code == 2
    assert "input error" in err


def test_exit_2_on_missing_file(capsys):
    code, _, err = run(capsys, "validate", "/no/such/file.json")
    assert code == 2


def test_exit_2_on_unwritable_out(capsys, a2_file, tmp_path):
    dest = tmp_path / "absent" / "report.json"
    code, out, err = run(capsys, "--out", str(dest), "validate", a2_file)
    assert (code, out) == (2, "")
    assert err.startswith(f"input error: cannot write {dest}: ")
    assert not dest.parent.exists()


def _open_failing_after_one_write(sizes):
    """open whose files raise ENOSPC on every write after the first, the
    first flushed at once; sizes gets the file's size at each failure."""

    def failing_open(path, mode="r"):
        fh = open(path, mode)
        write, writes = fh.write, []

        def write_once(part):
            if writes:
                sizes.append(os.fstat(fh.fileno()).st_size)
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            writes.append(write(part))
            fh.flush()
            return writes[0]

        fh.write = write_once
        return fh

    return failing_open


@pytest.mark.parametrize("fmt", ["machine", "human"])
def test_a_failed_out_write_removes_the_half_written_report(
    capsys, monkeypatch, a2_file, tmp_path, fmt
):
    # the second slice fails, as on a full disk, after the first reached the file
    dest = tmp_path / "report.json"
    sizes = []
    monkeypatch.setattr(cli, "WRITE_SLICE", 5)
    monkeypatch.setattr(cli, "open", _open_failing_after_one_write(sizes), raising=False)
    code, out, err = run(capsys, "--format", fmt, "--out", str(dest), "clusters", a2_file)
    assert (code, out) == (2, "")
    assert err == f"input error: cannot write {dest}: [Errno 28] No space left on device\n"
    assert sizes == [5]
    assert not dest.exists()


def test_a_failed_out_write_leaves_a_fifo_alone(capsys, monkeypatch, a2_file, tmp_path):
    # the same failure on a path that is not a regular file: nothing is
    # unlinked.  A reader held open lets the report's open return at once.
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDWR | os.O_NONBLOCK)
    try:
        sizes = []
        monkeypatch.setattr(cli, "WRITE_SLICE", 5)
        monkeypatch.setattr(cli, "open", _open_failing_after_one_write(sizes), raising=False)
        code, out, err = run(capsys, "--out", str(fifo), "clusters", a2_file)
        assert os.read(reader, 100) == b"5 clu"  # the first slice of "5 clusters (complete)"
    finally:
        os.close(reader)
    assert (code, out) == (2, "")
    assert err == f"input error: cannot write {fifo}: [Errno 28] No space left on device\n"
    assert len(sizes) == 1
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)


@pytest.mark.parametrize("kind", ["seed", "hom", "surface"])
def test_exit_2_on_non_utf8_input(capsys, a2_file, tmp_path, kind):
    bad = tmp_path / f"{kind}.json"
    bad.write_bytes(b"\xff\xfe")
    argv = {
        "seed": ["validate", str(bad)],
        "hom": ["hom-check", a2_file, str(bad)],
        "surface": ["surface-seed", str(bad)],
    }[kind]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"input error: {bad} is not UTF-8: ")


@pytest.mark.parametrize("kind", ["seed", "hom", "surface"])
@pytest.mark.parametrize(
    "text,message",
    [
        ("[" * 100_000 + "]" * 100_000, "cannot be decoded: maximum recursion depth exceeded"),
        ("[" + "9" * 5000 + "]", "cannot be decoded: Exceeds the limit (4300 digits)"),
        ('{"a": 1, "a": 2}', "repeats the key 'a'\n"),
    ],
    ids=["deep", "long-integer", "repeated-key"],
)
def test_exit_2_on_input_the_decoder_cannot_handle(capsys, a2_file, tmp_path, kind, text, message):
    bad = tmp_path / f"{kind}.json"
    bad.write_text(text)
    argv = {
        "seed": ["validate", str(bad)],
        "hom": ["hom-check", a2_file, str(bad)],
        "surface": ["surface-seed", str(bad)],
    }[kind]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"input error: {bad} {message}")


def test_exit_2_when_the_reader_closes_stdout(tmp_path):
    # a reader that stops early, as `| head -1` does; the report (about
    # 130 kB) is larger than a pipe buffer, so the write is still pending
    path = tmp_path / "a2y2.json"
    dump_seed(a2_y2_seed(), str(path))
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(clusterseeds.__file__)))
    proc = subprocess.Popen(
        [sys.executable, "-m", "clusterseeds.cli", "--format", "machine", "endpar", str(path)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.read(1) == b"{"
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 2
    assert "Traceback" not in err.decode()
    assert err.decode().startswith("input error: cannot write stdout: ")


def test_exit_2_on_bad_mutation_index(capsys, a2_file):
    code, _, err = run(capsys, "mutate", a2_file, "7")
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("endpar", "SEED", "--cap", "-1"),
        ("green", "SEED", "--cap", "-1"),
        ("classify", "SEED", "--cap", "-1"),
        ("clusters", "SEED", "--cap", "-1"),
        ("clusters", "SEED", "--depth", "-3"),
        ("check-sur", "SURFACE", "--all", "--max-cut", "-1"),
    ],
    ids=["endpar-cap", "green-cap", "classify-cap", "clusters-cap", "clusters-depth", "check-sur-max-cut"],
)
def test_exit_2_on_negative_count(capsys, a2_file, square_file, argv):
    files = {"SEED": a2_file, "SURFACE": square_file}
    with pytest.raises(SystemExit) as exc:
        cli.main([files.get(a, a) for a in argv])
    assert exc.value.code == 2
    assert "must be at least 0" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--i0", "--i1"])
def test_exit_2_on_single_spec_with_all(capsys, square_file, flag):
    # --all sweeps every spec, so a single spec given with it is an input error
    code, out, err = run(capsys, "check-sur", square_file, "--all", "--max-cut", "1", flag, "nope")
    assert code == 2 and out == ""
    assert "cannot be combined with --all" in err


@pytest.mark.parametrize(
    "spec,message",
    [
        (["--i0", "L0"], "I0 labels not exchangeable in the seed: ['L0']"),
        (["--i0", "d0_2", "--i1", "d0_2"], "I0 and I1 overlap: ['d0_2']"),
    ],
    ids=["frozen-in-i0", "overlap"],
)
def test_exit_2_on_a_bad_single_spec(capsys, hexagon_file, spec, message):
    # the sub-seed side reads the spec first, so its message is the one printed
    code, out, err = run(capsys, "check-sur", hexagon_file, *spec)
    assert (code, out, err) == (2, "", f"input error: {message}\n")


def test_exit_3_on_cap(capsys, tmp_path):
    path = tmp_path / "amalgam.json"
    dump_seed(amalgam_seed(), str(path))
    code, _, err = run(capsys, "endpar", str(path), "--cap", "20")
    assert code == 3
    assert "partial count 20" in err


def _sweep_files(tmp_path):
    """A 25-gon fan and the hexagon fan, each with one lamination."""
    paths = []
    for N, curve in ((25, (1, 12)), (6, (1, 4))):
        path = tmp_path / f"fan{N}.json"
        surf = make_surface(N, [(0, k) for k in range(2, N - 1)], laminations=[[curve]])
        path.write_text(json.dumps(surface_to_dict(surf)))
        paths.append(str(path))
    return paths


def test_exit_3_on_a_sweep_over_the_spec_cap(capsys, monkeypatch, tmp_path):
    # 22 diagonals and one lamination at --max-cut 23: about 6.3e10 specs,
    # refused from their count before any spec is made
    big, _ = _sweep_files(tmp_path)
    monkeypatch.setattr(cli, "itertools", types.SimpleNamespace())
    code, out, err = run(capsys, "check-sur", big, "--all", "--max-cut", "23")
    assert (code, out) == (3, "")
    assert err == (
        "resource cap exceeded: check-sur --all --max-cut 23 sweeps 62762119218 specs, "
        "more than 1000000 (partial count 62762119218)\n"
    )


def test_the_spec_cap_admits_a_sweep_of_its_size(capsys, monkeypatch, tmp_path):
    # the hexagon fan's 26 specs at --max-cut 2, on both sides of the cap
    _, hexagon = _sweep_files(tmp_path)
    argv = ("--format", "machine", "check-sur", hexagon, "--all", "--max-cut", "2")
    monkeypatch.setattr(cli, "MAX_SWEEP_SPECS", 26)
    code, out, _ = run(capsys, *argv)
    assert (code, json.loads(out)["checked"]) == (0, 26)
    monkeypatch.setattr(cli, "MAX_SWEEP_SPECS", 25)
    monkeypatch.setattr(cli, "itertools", types.SimpleNamespace())
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    assert err.endswith("sweeps 26 specs, more than 25 (partial count 26)\n")


def test_exit_3_on_a_product_over_the_term_product_cap(capsys, tmp_path):
    """The rank-2 seed with b = 60 squares a 7,216-term polynomial at depth
    3: 26,038,936 term products, refused before the first."""
    path = tmp_path / "b60.json"
    dump_seed(Seed.from_data(["x1", "x2"], [], [[0, 60], [-60, 0]]), str(path))
    code, out, err = run(capsys, "clusters", str(path), "--depth", "3")
    assert (code, out) == (3, "")
    assert err == (
        "resource cap exceeded: a product of 7216 by 7216 terms needs 26038936 term products, "
        "over the cap of 10000000 (partial count 26038936)\n"
    )


def test_exit_3_at_the_element_limit_before_any_table(capsys, tmp_path, monkeypatch):
    # a2_y2 has 773 elements; with the limit one below, no --cap lifts it
    # and the enumeration stops before a product table is built
    path = tmp_path / "a2_y2.json"
    dump_seed(a2_y2_seed(), str(path))
    tables = []
    product_table = semigroup_module._product_table

    def counted(rows):
        tables.append(len(rows))
        return product_table(rows)

    monkeypatch.setattr(semigroup_module, "_product_table", counted)
    monkeypatch.setattr(semigroup_module, "MAX_ELEMENTS", 772)
    code, out, err = run(capsys, "endpar", str(path), "--cap", "100000")
    assert (code, out, tables) == (3, "", [])
    assert err == (
        "resource cap exceeded: semigroup exceeds the int16 table limit of 772 elements "
        "(partial count 772)\n"
    )
    code, out, err = run(capsys, "endpar", str(path), "--cap", "10")
    assert (code, out, tables) == (3, "", [])
    assert err == "resource cap exceeded: semigroup exceeds the cap of 10 elements (partial count 10)\n"
    monkeypatch.setattr(semigroup_module, "MAX_ELEMENTS", 773)
    code, out, _ = run(capsys, "endpar", str(path), "--cap", "100000")
    assert (code, tables) == (0, [773])
    assert out.startswith("773 partial seed endomorphisms")


def test_the_element_limit_is_the_int16_range_and_the_default_cap():
    assert semigroup_module.MAX_ELEMENTS == 2**15 - 1  # the largest int16
    for command in ("endpar", "green", "classify"):
        assert cli.build_parser().parse_args([command, "SEED"]).cap == semigroup_module.MAX_ELEMENTS
    for fn in (semigroup_module.enumerate_endpar, clusterseeds.classify.theorem_number_report):
        assert fn.__defaults__ == (semigroup_module.MAX_ELEMENTS,)


@pytest.mark.parametrize("b", [2**70, 2**1000], ids=["2^70", "2^1000"])
@pytest.mark.parametrize(
    "argv", [("mutate", "SEED", "0"), ("clusters", "SEED", "--depth", "2")], ids=["mutate", "clusters"]
)
def test_exit_3_on_a_power_whose_exponents_do_not_fit_64_bits(capsys, tmp_path, b, argv):
    # x2**b is refused before it is computed, not after one recursion per bit of b
    path = tmp_path / "huge.json"
    dump_seed(Seed.from_data(["x1", "x2"], [], [[0, b], [-b, 0]]), str(path))
    code, out, err = run(capsys, *(str(path) if a == "SEED" else a for a in argv))
    assert (code, out) == (3, "")
    assert err.startswith("resource cap exceeded: ")


@pytest.mark.parametrize("fmt", ["human", "machine"])
def test_exit_3_on_a_report_integer_too_long_to_print(capsys, tmp_path, fmt):
    # the symmetrizer (1, P, P**2) has an 8,001-digit entry
    P = 10**4000 + 1
    path = tmp_path / "long.json"
    dump_seed(Seed.from_data(["a", "b", "c"], [], [[0, P, 0], [-1, 0, P], [0, -1, 0]]), str(path))
    code, out, err = run(capsys, "--format", fmt, "validate", str(path))
    assert (code, out) == (3, "")
    assert err.startswith("resource cap exceeded: ")


def test_exit_4_on_cross_check_failure(capsys, square_file, monkeypatch):
    # force the comparison to fail to exercise the failure path honestly
    monkeypatch.setattr(cli, "check_theorem_sur", lambda *a, **k: False)
    code, out, _ = run(capsys, "check-sur", square_file, "--i1", "d0_2")
    assert code == 4
    assert "MISMATCH" in out or "mismatch" in out


def test_exit_4_on_non_laurent_exchange(capsys, a2_file, monkeypatch):
    # with x1 + 1 in slot 0, the exchange gives (x2 + 1)/(x1 + 1), outside Z[x^+-1]
    def shifted_state(seed):
        state = initial_state(seed)
        x1 = state.assignment[0] + MultiPoly.constant(seed.labels, 1)
        return dataclasses.replace(state, assignment=(x1,) + state.assignment[1:])

    monkeypatch.setattr(cli, "initial_state", shifted_state)
    code, _, err = run(capsys, "mutate", a2_file, "0")
    assert code == 4
    assert "not a Laurent polynomial" in err


# ------------------------------------------------------------- computation


def test_mutate_sequence(capsys, a2_file):
    code, out, _ = run(capsys, "--format", "machine", "mutate", a2_file, "0", "1")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["steps"]) == 3
    assert doc["steps"][1]["matrix"] == [[0, -1], [1, 0]]
    assert doc["steps"][1]["cluster"][0] == "(x2 + 1)/x1"


def test_clusters_closed(capsys, a2_file):
    code, out, _ = run(capsys, "--format", "machine", "clusters", a2_file)
    doc = json.loads(out)
    assert (doc["count"], doc["status"]) == (5, "closed")


def test_clusters_depth_truncation(capsys, a2_file):
    code, out, _ = run(
        capsys, "--format", "machine", "clusters", a2_file, "--depth", "1"
    )
    assert json.loads(out)["status"] == "truncated"


@pytest.mark.parametrize(
    "name, options, count, status",
    [
        ("a2", ("--depth", "3"), 5, "closed"),
        ("A4", ("--depth", "5"), 42, "closed"),
        ("A4", ("--depth", "30", "--cap", "42"), 42, "closed"),
        ("A4", ("--depth", "30", "--cap", "41"), 41, "truncated"),
    ],
    ids=["a2-d3", "A4-d5", "A4-cap42", "A4-cap41"],
)
def test_clusters_close_with_no_new_cluster_and_cap_counts_clusters(
    capsys, tmp_path, name, options, count, status
):
    path = tmp_path / f"{name}.json"
    dump_seed({"a2": a2_seed(), "A4": linear_path_seed(4)}[name], str(path))
    code, out, _ = run(capsys, "--format", "machine", "clusters", str(path), *options)
    doc = json.loads(out)
    assert (code, doc["count"], doc["status"]) == (0, count, status)


# sha256 of the machine JSON, recorded before heap division replaced the
# remainder-rebuilding division, so the printed form is pinned byte for byte
DEEP_CLUSTERS = {
    "markov": (
        [[0, 2, -2], [-2, 0, 2], [2, -2, 0]], 6, 190,
        "4e4624885827bc7c0e45dc19a9deb62164e5d781dd4265b4f44ca5039c4540cd",
    ),
    "kronecker": (
        [[0, 2], [-2, 0]], 20, 41,
        "a199d22bdca366d71952ec6a91eedf5a783c8231bf155095fa04ef43a8306c27",
    ),
}


@pytest.mark.parametrize("name", sorted(DEEP_CLUSTERS))
def test_deep_clusters_are_pinned(capsys, tmp_path, name):
    matrix, depth, count, sha256 = DEEP_CLUSTERS[name]
    path = tmp_path / f"{name}.json"
    dump_seed(Seed.from_data([f"x{i + 1}" for i in range(len(matrix))], [], matrix), str(path))
    code, out, _ = run(capsys, "--format", "machine", "clusters", str(path), "--depth", str(depth))
    doc = json.loads(out)
    assert (code, doc["count"], doc["status"]) == (0, count, "truncated")
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


# sha256 of the machine JSON of searches that close, recorded before the
# search computed each edge of the exchange graph once
CLOSED_CLUSTERS = {
    "A4": (
        ["x1", "x2", "x3", "x4"], [],
        [[0, 1, 0, 0], [-1, 0, 1, 0], [0, -1, 0, 1], [0, 0, -1, 0]], 42,
        "6a266e5023cfda2f34602bb02fd27d6e41e54027f2aabf20cee1d8512d20bc75",
    ),
    "D4": (
        ["x1", "x2", "x3", "x4"], [],
        [[0, 1, 0, 0], [-1, 0, -1, -1], [0, 1, 0, 0], [0, 1, 0, 0]], 50,
        "adc848986cd50e853850c4a3b4cb9750df52cc1a99a96dff3f64949a0900da5c",
    ),
    "A3_prin": (
        ["x1", "x2", "x3"], ["y1", "y2", "y3"],
        [[0, 1, 0, 1, 0, 0], [-1, 0, 1, 0, 1, 0], [0, -1, 0, 0, 0, 1]], 14,
        "b323cc4c543505e79a3ac5d49e0c03a64a79a81b46849d73d1e26c8a53cf2b22",
    ),
}


@pytest.mark.parametrize("name", sorted(CLOSED_CLUSTERS))
def test_closed_clusters_are_pinned(capsys, tmp_path, name):
    exchangeable, frozen, rows, count, sha256 = CLOSED_CLUSTERS[name]
    path = tmp_path / f"{name}.json"
    dump_seed(Seed.from_data(exchangeable, frozen, rows), str(path))
    code, out, _ = run(capsys, "--format", "machine", "clusters", str(path), "--depth", "30")
    doc = json.loads(out)
    assert (code, doc["count"], doc["status"]) == (0, count, "closed")
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


def _pinned_searches():
    """(seed, depth) of every DEEP_CLUSTERS and CLOSED_CLUSTERS search."""
    for name, (matrix, depth, *_) in sorted(DEEP_CLUSTERS.items()):
        yield name, Seed.from_data([f"x{i + 1}" for i in range(len(matrix))], [], matrix), depth
    for name, (exchangeable, frozen, rows, *_) in sorted(CLOSED_CLUSTERS.items()):
        yield name, Seed.from_data(exchangeable, frozen, rows), 30


def test_one_monomial_table_prints_every_pinned_search_like_the_oracle():
    """One table shared by the variables of all five searches (three
    contexts) gives each variable the oracle's text."""
    monomials = {}
    for _, seed, depth in _pinned_searches():
        variables = set().union(*enumerate_clusters(seed, depth).clusters)
        for v in variables:
            assert v.text(monomials) == reference_str(v)
    assert {bits for _, bits in monomials} == {8}


def _printed_monomials(seed, depth):
    """The distinct (field width, monomial) pairs the variables of a
    search print: each term's numerator monomial and each denominator."""
    seen = set()
    for v in set().union(*enumerate_clusters(seed, depth).clusters):
        d = v._den_exponents()
        bits = v._packing.bits
        seen.update((bits, tuple(map(sum, zip(e, d)))) for e in v.terms)
        if any(d):
            seen.add((bits, d))
    return seen


def test_clusters_formats_each_monomial_once_per_command(monkeypatch, capsys, tmp_path):
    """A clusters command formats each distinct monomial once, and the
    next command formats them all again: the table lives for one command."""
    calls = []
    monomial_text = poly_module._monomial_text
    monkeypatch.setattr(
        poly_module, "_monomial_text", lambda context, e: calls.append(e) or monomial_text(context, e)
    )
    matrix, depth, *_ = DEEP_CLUSTERS["markov"]
    seed = Seed.from_data([f"x{i + 1}" for i in range(len(matrix))], [], matrix)
    path = tmp_path / "markov.json"
    dump_seed(seed, str(path))
    expected = len(_printed_monomials(seed, depth))
    assert expected == 1_749  # against 11,769 printed terms
    counts = []
    for _ in range(2):
        calls.clear()
        code, out, _ = run(capsys, "--format", "machine", "clusters", str(path), "--depth", str(depth))
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == DEEP_CLUSTERS["markov"][3]
        counts.append(len(calls))
    assert counts == [expected, expected]


# sha256 of the machine JSON, recorded before the label index moved into
# Seed and element codes were written at enumeration
SEMIGROUP_REPORTS = {
    ("A3", "endpar"): "495e010eb4584a26f7a9d7fed7ce09f8038741ec6876095be23506fabed8248e",
    ("A3", "green"): "d3d60cb6eabb3f98dcf4fe3ea825fa5121e6f1727209e2df5fd0c8583407d174",
    ("A3", "classify"): "f32b024c8746d1bc58eeab1ba5a0b5e2b95faf3b1583acd49966ef9b9855f235",
    # A4 recorded before green_relations read D and regularity off L and R
    ("A4", "green"): "6d9972844929f2c581f75f04bedce584cc3ac52f4ba20fa875d6b4e755d8f21a",
    ("A4", "classify"): "210560430261bafeb3bb307394debc788b5e1f8b772d32681284001e332fdc75",
    ("a2_y2", "endpar"): "ba1977af998bb0923a233a07b0fc958d1b5ad6b138e9ec5a09da1d889c443610",
    ("a2_y2", "green"): "d046801422be8d00acd8d96c7d005ee8cf1317b078bbe8981b98af60e22a83cd",
    ("a2_y2", "classify"): "803ab404d9cee1adecd4e07e29257354ee0f7357f95122ce4ef6c230095259cf",
}


@pytest.mark.parametrize("name,command", sorted(SEMIGROUP_REPORTS))
def test_semigroup_reports_are_pinned(capsys, tmp_path, name, command):
    seed = {"A3": linear_path_seed(3), "A4": linear_path_seed(4), "a2_y2": a2_y2_seed()}[name]
    path = tmp_path / f"{name}.json"
    dump_seed(seed, str(path))
    code, out, _ = run(capsys, "--format", "machine", command, str(path))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == SEMIGROUP_REPORTS[name, command]


# sha256 of the machine JSON of the two commands that print a seed's
# matrix rows, recorded before the matrix was stored as the seed's rows
MATRIX_REPORTS = {
    "mutate-markov": "c386d5d22b08b6dcd96ce6f0b81685172c3d1a8d5867c82ab1f05ba35186949f",
    "mutate-A3_prin": "88ab9fca391a8f4e57e38dafb42afcbe352663454eb4ff942d8a3521984a7d34",
    "surface-seed-two_component": "d50ef0f660e575c08f0e08c7858777f0d1f5be3da0b4e7d4c243aad741898743",
    "surface-seed-heptagon": "2d2f930ae362cee150f65bdce8f17a7632130a1533a49afc3750e8e47873ec4b",
}


def _matrix_report_argv(name, tmp_path):
    path = tmp_path / f"{name}.json"
    if name == "mutate-markov":
        dump_seed(Seed.from_data(["x1", "x2", "x3"], [], [[0, 2, -2], [-2, 0, 2], [2, -2, 0]]), str(path))
        return "mutate", str(path), "0", "1", "2", "0", "1"
    if name == "mutate-A3_prin":
        rows = [[0, 1, 0, 1, 0, 0], [-1, 0, 1, 0, 1, 0], [0, -1, 0, 0, 0, 1]]
        dump_seed(Seed.from_data(["x1", "x2", "x3"], ["y1", "y2", "y3"], rows), str(path))
        return "mutate", str(path), "0", "1", "2", "1", "0"
    if name == "surface-seed-two_component":
        surf = two_component_surface()
    else:
        surf = make_surface(7, [(0, 2), (0, 3), (3, 5), (3, 6)], laminations=[[(1, 4), (2, 6)], [(0, 5)]])
    path.write_text(json.dumps(surface_to_dict(surf)))
    return "surface-seed", str(path)


@pytest.mark.parametrize("name", sorted(MATRIX_REPORTS))
def test_matrix_reports_are_pinned(capsys, tmp_path, name):
    code, out, _ = run(capsys, "--format", "machine", *_matrix_report_argv(name, tmp_path))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == MATRIX_REPORTS[name]


def test_surface_sweep_is_pinned(capsys, tmp_path):
    surf = make_surface(6, [(0, 2), (0, 3), (3, 5)], laminations=[[(1, 4)]])
    path = tmp_path / "hexagon.json"
    path.write_text(json.dumps(surface_to_dict(surf)))
    code, out, _ = run(capsys, "--format", "machine", "check-sur", str(path), "--all", "--max-cut", "2")
    assert (code, json.loads(out)["checked"]) == (0, 26)
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "1efcc02815312d76207910ef69a8472ed8f477c4649b57a4a31f2bce19b5021b"
    )


def test_sweep_of_every_small_polygon_is_pinned(capsys, tmp_path):
    # one sha256 over the machine output of check-sur --all --max-cut 2 on
    # every triangulated N-gon, N = 3..8, each with one lamination of one
    # to three curves drawn from random.Random(34)
    rng = random.Random(34)
    digest = hashlib.sha256()
    jobs = specs = 0
    path = tmp_path / "polygon.json"
    for N in range(3, 9):
        for tri in enumerate_triangulations(N):
            curves = [rng.sample(range(N), 2) for _ in range(rng.randint(1, 3))]
            path.write_text(json.dumps(surface_to_dict(make_surface(N, tri, [curves]))))
            code, out, _ = run(
                capsys, "--format", "machine", "check-sur", str(path), "--all", "--max-cut", "2"
            )
            assert code == 0, (N, tri)
            digest.update(out.encode())
            jobs += 1
            specs += json.loads(out)["checked"]
    assert (jobs, specs) == (196, 10_396)
    assert digest.hexdigest() == (
        "08f9cd6e8ad6f08c0abf6ae098e621d0abdc5a9f41950085b5819f7cfdb2f387"
    )


def test_surface_sweep_builds_rows_once_per_cut_set(
    capsys, monkeypatch, fresh_surface_caches, hexagon_file
):
    # the 26 specs of --max-cut 2 have 7 cut sets (the diagonals of
    # I0 | I1): the empty one, 3 single diagonals and 3 pairs.  One row
    # build for the surface seed, which is also the empty cut set's, and
    # one per nonempty cut set, all made by one builder; one Seed, the
    # surface's, since each cut set is compared on rows; one validation,
    # of the loaded surface, since each cut's rows are built from its
    # fields; one cut per nonempty cut set, each pair cut from the cut
    # set of its first diagonal
    calls = {"seed_from_surface": 0, "_rows_of_fields": 0, "validate_surface": 0, "_cut": 0}
    for name in calls:

        def counting(*args, real=getattr(surface_module, name), name=name):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(surface_module, name, counting)
    seeds = []
    real_post_init = Seed.__post_init__
    monkeypatch.setattr(Seed, "__post_init__", lambda s: seeds.append(s) or real_post_init(s))
    fresh_surface_caches()
    code, out, _ = run(capsys, "--format", "machine", "check-sur", hexagon_file, "--all", "--max-cut", "2")
    doc = json.loads(out)
    assert (code, doc["checked"], doc["all_ok"]) == (0, 26, True)
    assert calls == {"seed_from_surface": 1, "_rows_of_fields": 7, "validate_surface": 1, "_cut": 6}
    assert len(seeds) == 1


def test_two_component_sweep_is_pinned(capsys, tmp_path):
    surf = two_component_surface()
    path = tmp_path / "two.json"
    path.write_text(json.dumps(surface_to_dict(surf)))
    code, out, _ = run(capsys, "--format", "machine", "check-sur", str(path), "--all", "--max-cut", "2")
    assert (code, json.loads(out)["checked"]) == (0, 74)
    # recorded before the sweep compared rows and memoised polygon checks
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "736ac9773c498c844203d8eb383c05ab1083145ac6fc70201012999bb3944d7c"
    )


def test_polygon_sweeps_are_pinned(capsys, tmp_path):
    # every triangulated N-gon, N = 3..7, with a seeded lamination: one
    # sha256 over the 64 machine reports, recorded before the surface seed
    # was built from per-polygon side-pair and shear-row tables
    digest = hashlib.sha256()
    checked = 0
    for i, surf in enumerate(seeded_polygons()):
        path = tmp_path / f"polygon{i}.json"
        path.write_text(json.dumps(surface_to_dict(surf)))
        code, out, err = run(capsys, "--format", "machine", "check-sur", str(path), "--all", "--max-cut", "2")
        doc = json.loads(out)
        assert (code, err, doc["all_ok"]) == (0, "", True)
        checked += doc["checked"]
        digest.update(out.encode())
    assert (i, checked) == (63, 2 * 1 + 6 * 2 + 14 * 5 + 26 * 14 + 42 * 42)  # 2 + 2d + 2d² specs
    assert digest.hexdigest() == (
        "cf73edfd3b1c306ddb3987833758dae6c1ea070dc152ab3b5ac5c6fb9e019fc4"
    )


# sha256 of the human output of the four commands whose human form is
# the report's JSON, recorded while both formats went through json.dumps;
# surface-seed's equals the machine pin of the same surface above
HUMAN_JSON_REPORTS = {
    "compose": "913973181479ae3461cf7cb89fb24fa90b7d0caeaac14c3700e33e9c1e0ce0c5",
    "surface-seed": "d50ef0f660e575c08f0e08c7858777f0d1f5be3da0b4e7d4c243aad741898743",
    "cut": "7ae94d8e844b0a86bf96d58198e5c422bdadf3da4d30a0af9ea49ec83bf2b159",
    "paunch": "04d0fc88baafc5f068ba28970f7e86dd993f50d2b27c793ed203fe5b7b5a456d",
}


def _human_json_report_argv(command, tmp_path):
    surf = tmp_path / "two.json"
    surf.write_text(json.dumps(surface_to_dict(two_component_surface())))
    if command == "surface-seed":
        return "surface-seed", str(surf)
    if command == "cut":
        return "cut", str(surf), "b", "--mode", "freeze"
    if command == "paunch":
        return "paunch", str(surf), "--i0", "a,f", "--i1", "c,L1"
    seed = tmp_path / "a2_y2.json"
    dump_seed(a2_y2_seed(), str(seed))
    outer, inner = tmp_path / "outer.json", tmp_path / "inner.json"
    outer_map = {"x1": "y2", "x2": "x2", "y1": "y2", "y2": "x1"}
    outer.write_text(json.dumps({"I0": ["x1"], "I1": [], "map": outer_map}))
    inner_map = {"x1": "x1", "x2": "x2", "y1": "y2"}
    inner.write_text(json.dumps({"I0": ["x1", "x2"], "I1": ["y2"], "map": inner_map}))
    return "compose", str(seed), str(outer), str(inner)


@pytest.mark.parametrize("command", sorted(HUMAN_JSON_REPORTS))
def test_human_json_reports_are_pinned(capsys, tmp_path, command):
    code, out, err = run(capsys, *_human_json_report_argv(command, tmp_path))
    assert (code, err) == (0, "")
    assert json.loads(out)["command"] == command
    assert hashlib.sha256(out.encode()).hexdigest() == HUMAN_JSON_REPORTS[command]


def test_reused_parser_matches_fresh_processes(capsys, monkeypatch, a2_file, square_file):
    # argparse wraps usage lines to the terminal width; fix it on both sides
    monkeypatch.setenv("COLUMNS", "80")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(clusterseeds.__file__)))
    calls = [
        ["check-sur", square_file, "--all"],
        ["check-sur", square_file, "--i0", "d0_2"],
        ["--format", "machine", "check-sur", square_file, "--i1", "L0"],
        ["check-sur", square_file, "--i1", "L0"],
        ["endpar", a2_file, "--cap", "5"],
        ["endpar", a2_file],
        ["check-sur", square_file, "--max-cut", "-1"],
        ["--format", "machine", "validate", a2_file],
    ]
    codes = []
    for argv in calls:
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr()
        fresh = subprocess.run(
            [sys.executable, "-m", "clusterseeds.cli", *argv],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert (code, out.out, out.err) == (fresh.returncode, fresh.stdout, fresh.stderr), argv
        codes.append(code)
    assert codes == [0, 0, 0, 0, 3, 0, 2, 0]
    assert cli.build_parser() is cli.build_parser()


def test_hom_check_and_compose(capsys, tmp_path):
    seed_path = tmp_path / "da.json"
    dump_seed(double_arrow_seed(), str(seed_path))
    f = tmp_path / "f.json"
    f.write_text(
        json.dumps({"I0": [], "I1": ["x3"], "map": {"x1": "x3", "x2": "x2"}})
    )
    code, out, _ = run(capsys, "--format", "machine", "hom-check", str(seed_path), str(f))
    assert code == 0 and json.loads(out)["ok"] is True

    g = tmp_path / "g.json"
    g.write_text(
        json.dumps({"I0": [], "I1": ["x1"], "map": {"x2": "x2", "x3": "x1"}})
    )
    code, out, _ = run(capsys, "--format", "machine", "hom-check", str(seed_path), str(g))
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is False and "magnitude" in doc["violation"]

    code, out, _ = run(
        capsys, "--format", "machine", "compose", str(seed_path), str(f), str(f)
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["I1"] == ["x1", "x3"]  # x1 maps outside Dom(f) and drops out
    assert doc["map"] == {"x2": "x2"}


def test_hom_file_mapping_a_label_of_i1_is_invalid(capsys, a2_file, tmp_path):
    """The map entry of a deleted label is kept as given, so hom-check
    reports it and compose refuses the file."""
    h = tmp_path / "h.json"
    h.write_text(json.dumps({"I0": [], "I1": ["x2"], "map": {"x1": "x1", "x2": "x1"}}))
    code, out, _ = run(capsys, "hom-check", a2_file, str(h))
    assert (code, out) == (0, "invalid: 'x2' lies in I1 but is mapped\n")
    code, out, err = run(capsys, "compose", a2_file, str(h), str(h))
    assert (code, out, err) == (2, "", "input error: 'x2' lies in I1 but is mapped\n")


def test_endpar_report(capsys, a2_file):
    code, out, _ = run(capsys, "--format", "machine", "endpar", a2_file)
    doc = json.loads(out)
    assert doc["size"] == 19
    assert len(doc["elements"]) == 19


@pytest.mark.parametrize("seed", [a2_seed(), a2_y2_seed(), linear_path_seed(3)], ids=["a2", "a2_y2", "A3"])
def test_endpar_elements_are_the_decoded_homs(capsys, tmp_path, seed):
    # the report reads each element off its digit row; element(i) decodes
    # the same row into a PartialSeedHom, written by hom_to_dict
    path = tmp_path / "seed.json"
    dump_seed(seed, str(path))
    code, out, _ = run(capsys, "--format", "machine", "endpar", str(path))
    S = semigroup_module.enumerate_endpar(seed)
    expected = [hom_to_dict(S.element(i)) for i in range(len(S))]
    assert code == 0
    assert out == cli.dumps_indented({**json.loads(out), "elements": expected}) + "\n"


def test_green_egg_box(capsys, a2_file):
    code, out, _ = run(capsys, "--format", "machine", "green", a2_file)
    doc = json.loads(out)
    assert doc["regular_d_count"] == 6
    assert len(doc["idempotents"]) == 11
    sizes = sum(c["size"] for c in doc["d_classes"])
    assert sizes == 19
    # human rendering marks idempotents with a star
    code, out, _ = run(capsys, "green", a2_file)
    assert "*" in out and "regular D-classes" in out


def test_classify_report(capsys, a2_file):
    code, out, _ = run(capsys, "--format", "machine", "classify", a2_file)
    doc = json.loads(out)
    assert doc["iso_class_count"] == 6
    assert doc["regular_d_count"] == 6
    assert doc["bijection_verified"] is True


# ----------------------------------------------------------------- surface


def test_surface_seed_command(capsys, square_file):
    code, out, _ = run(capsys, "--format", "machine", "surface-seed", square_file)
    doc = json.loads(out)
    assert doc["exchangeable"] == ["d0_2"]
    assert doc["frozen"] == ["L0"]
    assert doc["matrix"] in ([[0, 1]], [[0, -1]])


def test_cut_and_paunch_commands(capsys, square_file):
    code, out, _ = run(
        capsys, "--format", "machine", "cut", square_file, "d0_2", "--mode", "freeze"
    )
    assert code == 0
    doc = json.loads(out)
    assert sorted(doc["components"]) == [3, 3]
    assert "d0_2" in doc["laminations"]

    code, out, _ = run(
        capsys, "--format", "machine", "paunch", square_file, "--i1", "d0_2,L0"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["laminations"] == {}


def test_check_sur_sweep(capsys, square_file):
    code, out, _ = run(
        capsys, "--format", "machine", "check-sur", square_file, "--all", "--max-cut", "2"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["all_ok"] is True
    assert doc["checked"] > 1


def test_surface_iso_command(capsys, tmp_path, square_file):
    other = tmp_path / "other.json"
    other.write_text(
        json.dumps(surface_to_dict(make_surface(4, [(1, 3)], laminations=[[(0, 2)]])))
    )
    code, out, _ = run(capsys, "surface-iso", square_file, str(other))
    assert code == 0 and "isomorphic" in out


# ------------------------------------------------------------------ writer

_STRINGS = st.one_of(
    st.text(),
    st.text(st.sampled_from('"\\/\x00\x08\x1f\x7f\u00e9\u2028\ud800\U0001d11e ab')),
)
# the values a report holds: dicts with str keys, lists, str, int, bool
# and None, each of exactly that type; lists of one scalar type, which
# the writer maps at once, and mixed lists, which it does item by item
_REPORT_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.sampled_from([2**64, -(2**70) - 1, 10**40]),
    _STRINGS,
)
_REPORTS = st.recursive(
    _REPORT_SCALARS,
    lambda children: st.one_of(
        st.lists(children),
        st.one_of([st.lists(s) for s in (_STRINGS, st.integers(), st.booleans(), st.none())]),
        st.dictionaries(_STRINGS, children),
    ),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(_REPORTS)
def test_writer_matches_json_dumps(doc):
    assert cli.dumps_indented(doc) == json.dumps(doc, indent=2)


# each scalar kind a report holds, drawn one kind at a time
_SCALAR_KINDS = {
    "None": st.none(),
    "bool": st.booleans(),
    "int": st.one_of(st.integers(), st.sampled_from([2**64, -(2**70) - 1, 10**40])),
    "str": _STRINGS,
}


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(sorted(_SCALAR_KINDS)).flatmap(
        lambda kind: st.lists(_SCALAR_KINDS[kind], min_size=1)
    ),
    _REPORT_SCALARS,
    _STRINGS,
)
def test_writer_matches_json_dumps_on_every_scalar_kind(values, other, key):
    # one kind alone, as the one type of a list, among items of another
    # kind, as a dict value and nested under lists and dicts
    value = values[0]
    docs = (
        value,
        values,
        values + [other],
        [other] + values,
        {key: value},
        {key: values},
        [{key: values}, [values]],
        {key: {"": value, "k": [values, other]}},
    )
    for doc in docs:
        assert cli.dumps_indented(doc) == json.dumps(doc, indent=2)


@pytest.mark.parametrize(
    "doc,name",
    [
        ({1, 2}, "set"),
        (object(), "object"),
        ({"a": [1, {"b": frozenset()}]}, "frozenset"),
        ([1, "x", object()], "object"),
        ({(1, 2): 0}, "tuple"),
        ({"a": 1, b"k": 2}, "bytes"),
        ({"a": {"b": 1, 2.5: [], (): 3}}, "float"),
    ],
    ids=[
        "set", "object", "nested-set", "object-item", "tuple-key", "bytes-key", "nested-tuple-key",
    ],
)
def test_writer_raises_where_json_dumps_does(doc, name):
    with pytest.raises(TypeError):
        json.dumps(doc, indent=2)
    with pytest.raises(TypeError, match=f"cannot be of type {name}$"):
        cli.dumps_indented(doc)


class _Level(enum.IntEnum):
    LOW = 1


class _Name(str):
    pass


class _Record(dict):
    pass


class _Row(list):
    pass


@pytest.mark.parametrize(
    "value,where",
    [
        (0.5, "value"),
        (float("nan"), "value"),
        ((1, 2), "value"),
        (_Name("a"), "value"),
        (_Level.LOW, "value"),
        (_Record(a=1), "value"),
        (_Row([1]), "value"),
        (1, "key"),
        (2.5, "key"),
        (True, "key"),
        (None, "key"),
        (_Name("k"), "key"),
    ],
    ids=[
        "float", "nan", "tuple", "str-subclass", "IntEnum", "dict-subclass", "list-subclass",
        "int-key", "float-key", "bool-key", "None-key", "str-subclass-key",
    ],
)
def test_writer_refuses_what_json_dumps_writes_but_reports_do_not_hold(value, where):
    # alone, as the one type of a list, among other items and nested
    if where == "value":
        docs = (value, [value], [value, value], [1, "x", value], {"a": value}, {"a": [{"b": value}]})
    else:
        docs = ({value: 0}, {"a": 1, value: 2}, {"a": [{"b": 1, value: []}]})
    for doc in docs:
        json.dumps(doc, indent=2)
        with pytest.raises(TypeError, match=f"report {where} cannot be of type {type(value).__name__}$"):
            cli.dumps_indented(doc)


def _holds_report_types_only(doc) -> bool:
    if type(doc) is dict:
        return all(type(k) is str and _holds_report_types_only(v) for k, v in doc.items())
    if type(doc) is list:
        return all(map(_holds_report_types_only, doc))
    return type(doc) in (str, int, bool, type(None))


# arguments of each subcommand on the fixtures; HOM keeps x1 and deletes x2
_TRAFFIC = {
    "validate": ["SEED"],
    "mutate": ["SEED", "0", "1"],
    "clusters": ["SEED"],
    "hom-check": ["SEED", "HOM"],
    "compose": ["SEED", "HOM", "HOM"],
    "endpar": ["SEED"],
    "green": ["SEED"],
    "classify": ["SEED"],
    "surface-seed": ["SURFACE"],
    "cut": ["SURFACE", "d0_2", "--mode", "freeze"],
    "paunch": ["SURFACE", "--i0", "d0_2"],
    "check-sur": ["SURFACE", "--all"],
    "surface-iso": ["SURFACE", "SURFACE"],
}


@pytest.mark.parametrize("command", sorted(_TRAFFIC))
def test_every_machine_report_holds_report_types_and_prints_as_json_dumps(
    capsys, tmp_path, a2_file, square_file, command
):
    hom = tmp_path / "hom.json"
    hom.write_text(json.dumps({"I0": [], "I1": ["x2"], "map": {"x1": "x1"}}))
    files = {"SEED": a2_file, "SURFACE": square_file, "HOM": str(hom)}
    argv = ["--format", "machine", command, *(files.get(a, a) for a in _TRAFFIC[command])]
    args = cli.build_parser().parse_args(argv)
    doc, _, code = args.fn(args)
    doc = {"schema_version": cli.SCHEMA_VERSION, "command": command, **doc}
    assert _holds_report_types_only(doc)
    text = json.dumps(doc, indent=2)
    assert cli.dumps_indented(doc) == text
    assert run(capsys, *argv) == (code, text + "\n", "")


# ------------------------------------------------- renderings and failures


def test_mutate_human_output_is_pinned(capsys, a2_file):
    code, out, err = run(capsys, "mutate", a2_file, "0", "1")
    assert (code, err) == (0, "")
    assert out == (
        "initial seed\n"
        "     0    1\n"
        "    -1    0\n"
        "  cluster: x1, x2\n"
        "after mutation at slot 0\n"
        "     0   -1\n"
        "     1    0\n"
        "  cluster: (x2 + 1)/x1, x2\n"
        "after mutation at slot 1\n"
        "     0    1\n"
        "    -1    0\n"
        "  cluster: (x2 + 1)/x1, (x1 + x2 + 1)/(x1*x2)\n"
    )


def test_human_denominators_are_bracketed_whatever_the_labels(capsys, tmp_path):
    # labels holding / and *: the machine text keeps num/den as it was,
    # and the human text brackets a denominator of more than one factor,
    # found by its own text rather than by reading the labels
    path = tmp_path / "a2.json"
    dump_seed(Seed(("a/b", "c*d"), (), ((0, 1), (-1, 0))), str(path))
    code, out, _ = run(capsys, "--format", "machine", "mutate", str(path), "0", "1")
    assert code == 0
    assert json.loads(out)["steps"][2]["cluster"] == ["(c*d + 1)/a/b", "(a/b + c*d + 1)/a/b*c*d"]
    code, out, _ = run(capsys, "mutate", str(path), "0", "1")
    assert out.splitlines()[-1] == "  cluster: (c*d + 1)/a/b, (a/b + c*d + 1)/(a/b*c*d)"
    code, out, _ = run(capsys, "clusters", str(path))
    assert code == 0
    assert out.splitlines()[1:] == [
        "  {a/b, c*d}",
        "  {(c*d + 1)/a/b, c*d}",
        "  {(a/b + 1)/c*d, a/b}",
        "  {(a/b + c*d + 1)/(a/b*c*d), (c*d + 1)/a/b}",
        "  {(a/b + 1)/c*d, (a/b + c*d + 1)/(a/b*c*d)}",
    ]


def test_classify_human_output_is_pinned(capsys, a2_file):
    code, out, err = run(capsys, "classify", a2_file)
    assert (code, err) == (0, "")
    assert out == (
        "6 sub-seed iso-classes <-> 6 regular D-classes (bijection verified)\n"
        "rep I0 | rep I1 | members | subalgebra-type | D-class | H-group order\n"
        "{} | {} | 1 | yes | 0 | 2\n"
        "{} | {x1} | 2 | no | 2 | 1\n"
        "{} | {x1,x2} | 1 | yes | 6 | 1\n"
        "{x1} | {} | 2 | yes | 7 | 1\n"
        "{x1} | {x2} | 2 | yes | 9 | 1\n"
        "{x1,x2} | {} | 1 | yes | 16 | 2\n"
    )


def test_exit_2_on_a_count_that_is_not_an_integer(capsys, a2_file):
    with pytest.raises(SystemExit) as exc:
        cli.main(["endpar", a2_file, "--cap", "ten"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith("argument --cap: invalid int value: 'ten'\n")


def test_exit_2_on_a_stdout_closed_before_the_command_starts(tmp_path, a2_file):
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(clusterseeds.__file__)))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "clusterseeds.cli", "validate", a2_file],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert proc.stderr.decode() == "input error: cannot write stdout: [Errno 32] Broken pipe\n"


def test_exit_2_on_a_closed_stdout_in_process(capsys, monkeypatch, a2_file):
    # the same write, made in this process: stdout is a pipe with no reader
    read_end, write_end = os.pipe()
    os.close(read_end)
    with open(write_end, "w") as stdout:
        monkeypatch.setattr(sys, "stdout", stdout)
        code = cli.main(["validate", a2_file])
        monkeypatch.undo()
    assert code == 2
    assert capsys.readouterr().err == "input error: cannot write stdout: [Errno 32] Broken pipe\n"


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="counts descriptors in /proc/self/fd")
def test_a_closed_stdout_leaks_no_descriptor(capsys, monkeypatch, a2_file):
    """Each in-process call that meets a stdout with no reader points it
    at os.devnull and closes the descriptor it opened to do so."""
    before = len(os.listdir("/proc/self/fd"))
    for _ in range(5):
        read_end, write_end = os.pipe()
        os.close(read_end)
        with open(write_end, "w") as stdout:
            monkeypatch.setattr(sys, "stdout", stdout)
            code = cli.main(["validate", a2_file])
            monkeypatch.undo()
        assert code == 2
    capsys.readouterr()
    assert len(os.listdir("/proc/self/fd")) == before


def test_a_seed_with_no_skew_symmetrizer_is_invalid(capsys, tmp_path):
    path = tmp_path / "no_symmetrizer.json"
    dump_seed(Seed.from_data(["x1", "x2", "x3"], [], [[0, 1, -1], [-1, 0, 2], [1, -1, 0]]), str(path))
    code, out, err = run(capsys, "--format", "machine", "validate", str(path))
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert (doc["ok"], doc["violations"], doc["symmetrizer"]) == (
        False, ["no positive integer skew-symmetrizer exists"], None
    )
    for command in ("green", "clusters"):
        assert run(capsys, command, str(path)) == (
            2, "", "input error: no positive integer skew-symmetrizer exists\n"
        )


@pytest.mark.parametrize(
    "diagonals, laminations, message",
    [
        ({"d": [0, [0, 2]]}, {"d": [[0, [1, 3]]]}, "diagonal and lamination labels must be distinct"),
        ({"d": [1, [0, 2]]}, {}, "diagonal 'd' names unknown component 1"),
        ({"d": [0, [0, 2]]}, {"l": [[1, [1, 3]]]}, "lamination 'l' names unknown component 1"),
        ({"d": [0, [0, 5]]}, {}, "diagonal 'd': endpoints (0,5) out of range"),
        ({"d": [0, [0, 2]]}, {"l": [[0, [1, 7]]]}, "lamination 'l': segment out of range"),
    ],
    ids=["repeated-label", "diagonal-component", "lamination-component", "endpoints", "segment"],
)
def test_exit_2_on_an_inconsistent_full_format_surface(capsys, tmp_path, diagonals, laminations, message):
    path = tmp_path / "square.json"
    path.write_text(json.dumps({"components": [4], "diagonals": diagonals, "laminations": laminations}))
    assert run(capsys, "surface-seed", str(path)) == (2, "", f"input error: {message}\n")


def test_exit_4_when_the_iso_classes_miss_a_regular_d_class(capsys, monkeypatch, a2_file):
    # one regular D-class too many: the iso-classes cover every other one
    classify_module = clusterseeds.classify
    regular_D_classes = classify_module.regular_D_classes

    def one_more(S, P):
        regular = regular_D_classes(S, P)
        return regular + [(len(S), regular[0][1])]

    monkeypatch.setattr(classify_module, "regular_D_classes", one_more)
    assert run(capsys, "classify", a2_file) == (
        4, "", "theorem violation: iso-classes cover 6 D-classes but there are 7 regular D-classes\n"
    )


def test_an_index_error_is_a_fault_not_an_input_error(monkeypatch, a2_file):
    # every index into input is checked before it is used, so an
    # IndexError is a bug and leaves main as one
    def fault(seed):
        raise IndexError("a fault")

    monkeypatch.setattr(cli, "validate_seed", fault)
    with pytest.raises(IndexError, match="a fault"):
        cli.main(["validate", a2_file])


def test_exit_3_on_a_product_over_the_term_cap(capsys, monkeypatch, tmp_path):
    # Markov at depth 4 first makes a polynomial of more than 20 terms in a product
    path = tmp_path / "markov.json"
    dump_seed(Seed.from_data(["x1", "x2", "x3"], [], [[0, 2, -2], [-2, 0, 2], [2, -2, 0]]), str(path))
    monkeypatch.setattr(poly_module, "MAX_TERMS", 20)
    assert run(capsys, "clusters", str(path), "--depth", "4") == (
        3, "", "resource cap exceeded: polynomial exceeded 20 terms (partial count 29)\n"
    )
