"""Document round-trips, parser errors, and the command line contract."""

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cubicomb
from cubicomb import (
    TOPOLOGY_TAGS,
    CubicalComplex,
    GeneratedComplex,
    ParseError,
    SimplicialComplex,
    ValidationFailed,
    build_simplicial,
    cube_boundary,
    cubical_torus,
    parse,
    parses,
    pile_of_cubes,
    serialize,
    serializes,
    solid_cube,
    stacked_simplicial_ball,
    stacked_sphere,
)
from cubicomb import cli, complexes, files
from cubicomb.cli import INVARIANTS, entry
from families import cubical_family, simplicial_family


def test_round_trip_identity_across_families():
    for gc in cubical_family() + simplicial_family():
        text = serializes(gc)
        back = parses(text)
        assert back == gc, gc.provenance
        assert serializes(back) == text, gc.provenance


def test_serialize_writes_identical_bytes(tmp_path):
    gc = cube_boundary(3)
    path = tmp_path / "shell.json"
    serialize(gc, path)
    assert path.read_text(encoding="utf-8") == serializes(gc)
    assert serializes(gc) == serializes(cube_boundary(3))


def test_document_field_layout():
    doc = json.loads(serializes(cubical_torus(3, 3)))
    assert doc["format_version"] == "1"
    assert doc["kind"] == "cubical"
    assert doc["dim"] == 2
    assert doc["topology"] == "torus"
    assert doc["provenance"] == "cubical_torus(3, 3)"
    assert len(doc["cells"]) == 9
    assert all(len(c) == 4 for c in doc["cells"])
    poly = json.loads(serializes(cube_boundary(2)))
    assert poly["polytopal"] is True


def test_empty_complexes_round_trip():
    for empty in (CubicalComplex.empty(), SimplicialComplex.empty()):
        gc = GeneratedComplex(empty, "none", "")
        assert parses(serializes(gc)) == gc


def test_bare_complex_serializes_with_defaults():
    text = serializes(build_simplicial([[0, 1, 2]]))
    doc = json.loads(text)
    assert "topology" not in doc and "provenance" not in doc
    assert parses(text).topology == "none"


def test_parse_error_on_invalid_json():
    with pytest.raises(ParseError) as err:
        parses("{not json")
    assert err.value.line == 1
    assert err.value.column is not None
    assert "line 1" in str(err.value)


def test_parse_error_on_deep_nesting():
    with pytest.raises(ParseError, match="too deeply"):
        parses("[" * 200_000)


def test_parse_error_on_an_integer_past_the_digit_limit():
    doc = '{"format_version": "1", "kind": "cubical", "dim": %s, "cells": []}' % ("9" * 5000)
    with pytest.raises(ParseError, match="too many digits"):
        parses(doc)


def test_parse_error_on_a_file_that_is_not_utf8(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"provenance": "café"}'.encode("latin-1"))
    with pytest.raises(ParseError, match="not UTF-8"):
        parse(path)
    assert entry(["compute", "f", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: not UTF-8")


def test_cli_reports_any_other_exception_as_an_internal_error_with_exit_4(monkeypatch, capsys):
    def broken(args):
        raise RuntimeError("boom\non two lines")

    monkeypatch.setattr(cli, "_cmd_compute", broken)
    assert entry(["compute", "f", "unread.json"]) == 4
    assert capsys.readouterr().err == "error: internal: RuntimeError('boom\\non two lines')\n"


def test_parse_error_on_schema_problems():
    good = json.loads(serializes(cube_boundary(2)))

    def broken(**changes):
        doc = dict(good)
        doc.update(changes)
        for key, value in list(doc.items()):
            if value is None:
                del doc[key]
        return json.dumps(doc)

    with pytest.raises(ParseError):
        parses("[1, 2]")
    with pytest.raises(ParseError):
        parses(broken(format_version="2"))
    with pytest.raises(ParseError):
        parses(broken(format_version=None))
    with pytest.raises(ParseError):
        parses(broken(kind="mixed"))
    with pytest.raises(ParseError):
        parses(broken(dim="two"))
    with pytest.raises(ParseError):
        parses(broken(cells="nope"))
    with pytest.raises(ParseError):
        parses(broken(color="red"))
    with pytest.raises(ParseError):
        parses(broken(topology=7))
    with pytest.raises(ParseError):
        parses(broken(polytopal="yes"))
    with pytest.raises(ParseError):
        parses(broken(provenance=3))


def test_parse_error_on_malformed_cells():
    base = {"format_version": "1", "kind": "cubical", "dim": 2}
    three_corner_square = dict(base, cells=[[0, 1, 2]])
    with pytest.raises(ParseError) as err:
        parses(json.dumps(three_corner_square))
    assert "power-of-two" in str(err.value)
    assert "cells[0]" in str(err.value)
    with pytest.raises(ParseError):
        parses(json.dumps(dict(base, cells=[[0, 1, 2, -3]])))
    with pytest.raises(ParseError):
        parses(json.dumps(dict(base, cells=[[0, 1, 1, 2]])))
    with pytest.raises(ParseError):
        parses(json.dumps(dict(base, cells=[[]])))
    with pytest.raises(ParseError):
        parses(json.dumps(dict(base, cells=[[0, True, 2, 3]])))


ID_ERROR = "vertex ids must be nonnegative integers, got "
BAD_CELLS = [
    ([0, -1], ID_ERROR + "-1"),
    ([0, True], ID_ERROR + "True"),
    ([0, 1.5], ID_ERROR + "1.5"),
    ([0, [1]], ID_ERROR + "[1]"),
    ([0, "1"], ID_ERROR + "'1'"),
    ([7, 7], "cell repeats a vertex"),
]


def _doc_with_second_cell(kind, cell):
    return json.dumps({"format_version": "1", "kind": kind, "dim": 1, "cells": [[0, 1], cell]})


@pytest.mark.parametrize("kind", ["cubical", "simplicial"])
@pytest.mark.parametrize("cell, message", BAD_CELLS)
def test_parse_error_text_of_a_bad_cell(kind, cell, message):
    with pytest.raises(ParseError) as err:
        parses(_doc_with_second_cell(kind, cell))
    assert str(err.value) == "cells[1]: " + message


def test_parse_error_text_of_a_three_corner_cubical_cell():
    with pytest.raises(ParseError) as err:
        parses(_doc_with_second_cell("cubical", [0, 1, -2]))
    assert str(err.value) == "cells[1]: " + ID_ERROR + "-2"
    with pytest.raises(ParseError) as err:
        parses(_doc_with_second_cell("cubical", [0, 1, 2]))
    assert str(err.value) == "cells[1]: a cubical cell needs a power-of-two corner count, got 3"


def test_cli_reports_a_bad_cell_with_exit_2(tmp_path):
    path = _write(tmp_path, "bad.json", _doc_with_second_cell("simplicial", [7, 7]))
    env = dict(os.environ, PYTHONPATH=str(Path(cubicomb.__file__).parent.parent))
    done = subprocess.run(
        [sys.executable, "-m", "cubicomb.cli", "verify", "all", path],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert (done.returncode, done.stdout, done.stderr) == (
        2, "", "error: cells[1]: cell repeats a vertex\n"
    )


def test_validation_failed_on_semantic_problems():
    with pytest.raises(ValidationFailed) as err:
        parses(json.dumps({
            "format_version": "1", "kind": "cubical", "dim": 3,
            "cells": [[0, 1, 2, 3]],
        }))
    assert "dim" in str(err.value)
    # two squares meeting across a diagonal: not a complex
    with pytest.raises(ValidationFailed):
        parses(json.dumps({
            "format_version": "1", "kind": "cubical", "dim": 2,
            "cells": [[0, 1, 2, 3], [0, 4, 5, 3]],
        }))
    # a ball labeled as a sphere
    with pytest.raises(ValidationFailed):
        parses(serializes(GeneratedComplex(solid_cube(2).complex, "sphere", "wrong")))
    with pytest.raises(ValidationFailed):
        parses(serializes(GeneratedComplex(solid_cube(2).complex, "blob", "wrong")))


def _cubical_doc(cells, topology):
    dim = max(len(c) for c in cells).bit_length() - 1
    return json.dumps(
        {"format_version": "1", "kind": "cubical", "dim": dim, "topology": topology, "cells": cells}
    )


SQUARE_AND_EDGE = [[0, 1, 2, 3], [3, 4]]
TOPOLOGY_REFUSALS = [
    (SQUARE_AND_EDGE, "ball", "topology 'ball' needs a pure complex"),
    # f = (12, 24, 13) and reduced Euler 0, but every edge lies in two or three squares
    (
        [list(c.corners) for c in cubical_torus(4, 3).complex.cells] + [[0, 3, 9, 6]],
        "ball",
        "topology 'ball' needs a nonempty boundary",
    ),
    (
        SQUARE_AND_EDGE,
        "manifold-with-boundary",
        "topology 'manifold-with-boundary' needs a pure complex",
    ),
    (
        [[0, 1, 2, 3], [0, 1, 4, 5], [0, 1, 6, 7]],
        "manifold-with-boundary",
        "topology 'manifold-with-boundary' allows ridge degrees 1 and 2, got [1, 3]",
    ),
    (
        [[0, 1], [1, 3], [2, 3], [0, 2]],
        "manifold-with-boundary",
        "topology 'manifold-with-boundary' needs a nonempty boundary",
    ),
]


@pytest.mark.parametrize("cells, topology, message", TOPOLOGY_REFUSALS)
def test_parse_refuses_a_topology_tag_the_cells_contradict(cells, topology, message):
    with pytest.raises(ValidationFailed) as err:
        parses(_cubical_doc(cells, topology))
    assert str(err.value) == message


def test_cli_reports_a_contradicted_topology_tag_with_exit_2(tmp_path, capsys):
    path = _write(tmp_path, "ball.json", _cubical_doc(SQUARE_AND_EDGE, "ball"))
    assert entry(["verify", "all", path]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: topology 'ball' needs a pure complex\n")


def test_parse_gates_each_cubical_cell_once(monkeypatch):
    calls = []
    gate = complexes._check_corners

    def counted(corners):
        calls.append(corners)
        return gate(corners)

    monkeypatch.setattr(complexes, "_check_corners", counted)
    monkeypatch.setattr(files, "_check_corners", counted)
    torus = cubical_torus(4, 4, 4)
    text = serializes(torus)
    calls.clear()
    assert parses(text) == torus
    assert len(calls) == len(torus.complex.cells) == 64


def test_parse_gates_each_simplicial_facet_once(monkeypatch):
    calls = []
    gate = complexes._check_corners

    def counted(corners):
        calls.append(corners)
        return gate(corners)

    monkeypatch.setattr(complexes, "_check_corners", counted)
    monkeypatch.setattr(files, "_check_corners", counted)
    ball = stacked_simplicial_ball(3, 40, seed=2)
    text = serializes(ball)
    calls.clear()
    assert parses(text) == ball
    assert len(calls) == len(ball.complex.cells) == 40


@pytest.mark.parametrize("kind", ["cubical", "simplicial"])
def test_parse_names_the_first_bad_cell_in_document_order(kind):
    cells = [[0, 1], [2, -2], [], [5, 5]]
    doc = {"format_version": "1", "kind": kind, "dim": 1, "cells": cells}
    with pytest.raises(ParseError) as err:
        parses(json.dumps(doc))
    assert str(err.value) == "cells[1]: " + ID_ERROR + "-2"
    doc["cells"] = [[0, 1], [3, 3], "x", [0, -1]]
    with pytest.raises(ParseError) as err:
        parses(json.dumps(doc))
    assert str(err.value) == "cells[1]: cell repeats a vertex"
    doc["cells"] = [[0, 1], 7, [3, 3]]
    with pytest.raises(ParseError) as err:
        parses(json.dumps(doc))
    assert str(err.value) == "cells[1]: each cell is a nonempty list of vertex ids"


BOWTIE_TEXT = serializes(
    GeneratedComplex(
        build_simplicial([[1, 2, 3], [3, 4, 5]]), "manifold-with-boundary", "bowtie"
    )
)


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


def test_cli_gen_families_round_trip(tmp_path):
    cases = [
        (["cube-boundary", "3"], cube_boundary(3)),
        (["solid-cube", "2"], solid_cube(2)),
        (["pile", "2", "1"], pile_of_cubes(2, 1)),
        (["torus", "4", "4"], cubical_torus(4, 4)),
    ]
    for argv, expect in cases:
        out = str(tmp_path / ("-".join(argv) + ".json"))
        assert entry(["gen", *argv, "-o", out]) == 0
        assert parse(out) == expect


def test_cli_gen_all_families_produce_valid_documents(tmp_path):
    specs = [
        ["cube-boundary", "2"],
        ["solid-cube", "3"],
        ["pile", "2", "2"],
        ["pile-boundary", "2", "1"],
        ["torus", "3", "3"],
        ["stacked-cubical-ball", "2", "3"],
        ["stacked-cubical-sphere", "2", "3"],
        ["simplex", "3"],
        ["simplex-boundary", "3"],
        ["cross-polytope", "3"],
        ["stacked-ball", "3", "4"],
        ["stacked-sphere", "2", "6"],
    ]
    for argv in specs:
        out = str(tmp_path / ("_".join(argv) + ".json"))
        assert entry(["gen", *argv, "-o", out]) == 0, argv
        parse(out)


def test_cli_gen_stacked_ball_options(tmp_path):
    out = str(tmp_path / "tree.json")
    assert entry(["gen", "stacked-ball", "3", "7", "--gluing", "tree", "--seed", "2", "-o", out]) == 0
    expect = stacked_simplicial_ball(3, 7, gluing="tree", seed=2)
    assert parse(out) == expect


def test_cli_gen_prism(tmp_path):
    base = str(tmp_path / "base.json")
    out = str(tmp_path / "prism.json")
    assert entry(["gen", "cube-boundary", "2", "-o", base]) == 0
    assert entry(["gen", "prism", base, "-o", out]) == 0
    assert parse(out).complex.f_counts() == (8, 12, 4)


def test_cli_gen_errors(tmp_path):
    out = str(tmp_path / "x.json")
    assert entry(["gen", "no-such-family", "1", "-o", out]) == 2
    assert entry(["gen", "torus", "2", "2", "-o", out]) == 2
    assert entry(["gen", "pile", "-o", out]) == 2
    assert entry(["gen", "pile", "two", "-o", out]) == 2
    assert entry(["gen", "simplex", "3", "4", "-o", out]) == 2
    assert entry(["gen", "prism", str(tmp_path / "missing.json"), "-o", out]) == 2


@pytest.mark.parametrize("params", [[], ["a.json", "b.json"]])
def test_cli_gen_prism_refuses_a_parameter_count_other_than_one(tmp_path, capsys, params):
    out = tmp_path / "x.json"
    assert entry(["gen", "prism", *params, "-o", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: prism takes one parameter: the document of the cubical base\n"
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "family, params",
    [("torus", ["99999999999999999999", "3"]), ("solid-cube", ["99999999999999999999"])],
)
def test_cli_gen_refuses_a_parameter_past_the_index_range(tmp_path, family, params):
    out = tmp_path / "x.json"
    env = dict(os.environ, PYTHONPATH=str(Path(cubicomb.__file__).parent.parent))
    done = subprocess.run(
        [sys.executable, "-m", "cubicomb.cli", "gen", family, *params, "-o", str(out)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr == (
        f"error: {family} parameter 99999999999999999999 is too large (at most {sys.maxsize})\n"
    )
    assert not out.exists()


def test_cli_compute_human_output(tmp_path, capsys):
    shell = _write(tmp_path, "shell.json", serializes(cube_boundary(4)))
    assert entry(["compute", "hc", shell]) == 0
    out = capsys.readouterr().out
    assert out.splitlines() == [f"hc[{i}] = 8" for i in range(5)]
    assert entry(["compute", "euler", shell]) == 0
    assert capsys.readouterr().out.strip() == "euler = -1"


def test_cli_compute_simplicial_vectors(tmp_path, capsys):
    octa = _write(
        tmp_path, "octa.json",
        serializes(GeneratedComplex(build_simplicial(
            [[0, 2, 4], [0, 2, 5], [0, 3, 4], [0, 3, 5],
             [1, 2, 4], [1, 2, 5], [1, 3, 4], [1, 3, 5]]), "sphere", "octahedron")),
    )
    assert entry(["compute", "f", octa]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "f[-1] = 1"
    assert entry(["compute", "h", octa]) == 0
    assert [line.split(" = ")[1] for line in capsys.readouterr().out.splitlines()] == ["1", "3", "3", "1"]
    assert entry(["compute", "g", octa]) == 0
    assert capsys.readouterr().out.splitlines()[1] == "g[1] = 2"


def test_cli_compute_machine_output(tmp_path, capsys):
    shell = _write(tmp_path, "shell.json", serializes(cube_boundary(3)))
    assert entry(["compute", "hsc", shell, "--machine"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["invariant"] == "hsc"
    assert payload["entries"] == [[0, 8], [1, 8], [2, 8]]
    assert entry(["compute", "links", shell, "--machine"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["links"][0] == [0, [3, 3]]
    assert entry(["compute", "euler", shell, "--machine"]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == 1


def test_cli_compute_kind_mismatch_is_an_error(tmp_path, capsys):
    simp = _write(tmp_path, "simp.json", serializes(stacked_simplicial_ball(2, 3)))
    shell = _write(tmp_path, "shell.json", serializes(cube_boundary(3)))
    for invariant, path in [("hsc", simp), ("hc", simp), ("gc", simp), ("h", shell), ("g", shell)]:
        assert entry(["compute", invariant, path]) == 2, invariant
        assert "error:" in capsys.readouterr().err
    assert entry(["compute", "f", simp]) == 0
    assert entry(["compute", "links", simp]) == 0
    capsys.readouterr()


def test_cli_compute_file_errors(tmp_path, capsys):
    assert entry(["compute", "f", str(tmp_path / "missing.json")]) == 2
    bad = _write(tmp_path, "bad.json", "{broken")
    assert entry(["compute", "f", bad]) == 2
    err = capsys.readouterr().err
    assert "error:" in err


def test_cli_deep_nesting_is_an_input_error(tmp_path, capsys):
    deep = _write(tmp_path, "deep.json", "[" * 200_000)
    assert entry(["verify", "all", deep]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_cli_verify_pass_fail_inapplicable(tmp_path, capsys):
    torus = _write(tmp_path, "torus.json", serializes(cubical_torus(4, 4)))
    bowtie = _write(tmp_path, "bowtie.json", BOWTIE_TEXT)
    assert entry(["verify", "adin-ds", torus]) == 0
    out = capsys.readouterr().out
    assert "check adin-dehn-sommerville: pass" in out
    assert "1 passed, 0 failed, 0 inapplicable" in out
    # closed complex: every boundary identity is out of scope
    assert entry(["verify", "boundary-ds", torus]) == 3
    assert "inapplicable" in capsys.readouterr().out
    # the bowtie satisfies every precondition the report can see, yet fails
    assert entry(["verify", "ns-ds", bowtie]) == 1
    out = capsys.readouterr().out
    assert "i=1: -3 == -2 FAIL" in out
    assert "0 passed, 1 failed, 0 inapplicable" in out


def test_cli_verify_all_and_machine(tmp_path, capsys):
    shell = _write(tmp_path, "shell.json", serializes(cube_boundary(3)))
    assert entry(["verify", "all", shell]) == 0
    capsys.readouterr()
    assert entry(["verify", "all", shell, "--machine"]) == 0
    reports = json.loads(capsys.readouterr().out)
    names = [r["name"] for r in reports]
    assert "adin-dehn-sommerville" in names and "vertex-count-lower-bound" in names
    assert all(r["status"] in ("pass", "inapplicable") for r in reports)
    assert any(r["status"] == "pass" for r in reports)


def test_cli_verify_all_on_a_closed_simplicial_sphere_has_no_applicable_suite(tmp_path, capsys):
    # The one simplicial verifier needs a boundary; the g-theorem conditions
    # are library-only, so nothing applies and the exit code is 3.
    sphere = _write(tmp_path, "sphere.json", serializes(stacked_sphere(3, 20)))
    assert entry(["verify", "all", sphere]) == 3
    assert capsys.readouterr().out.splitlines()[-1] == "0 passed, 0 failed, 1 inapplicable"


def test_cli_verify_kind_mismatch_and_unknown_suite(tmp_path, capsys):
    shell = _write(tmp_path, "shell.json", serializes(cube_boundary(3)))
    assert entry(["verify", "ns-ds", shell]) == 2
    assert "error:" in capsys.readouterr().err
    assert entry(["verify", "bogus-suite", shell]) == 2
    capsys.readouterr()


def test_cli_requires_a_command(capsys):
    assert entry([]) == 2
    capsys.readouterr()
    assert entry(["--help"]) == 0
    assert "gen" in capsys.readouterr().out


def test_readme_family_and_invariant_lists_match_the_cli():
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")

    def names_after(label):
        paragraph = readme.split(label, 1)[1].split("\n\n", 1)[0]
        names = [item.split()[0] for item in paragraph.split("`")[1::2]]
        return [name for name in names if not name.startswith("--")]

    assert sorted(names_after("`gen` families:")) == sorted(cli.FAMILIES)
    assert names_after("`compute` invariants:") == list(cli.INVARIANTS)


_JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 9), st.floats(), st.text(max_size=2),
    st.just([]), st.just({}),
)


@st.composite
def _documents(draw) -> dict:
    """A small document: cells of distinct small vertex ids, or of junk one
    time in four, a dimension that matches them three times in four, a
    topology tag or none, and one time in three up to two fields replaced
    by junk."""
    kind = draw(st.sampled_from(["cubical", "simplicial"]))
    vertex = st.integers(0, 7) | _JUNK if draw(st.integers(0, 3)) == 0 else st.integers(0, 7)
    sizes = st.sampled_from([1, 2, 4] if kind == "cubical" else [1, 2, 3, 4])
    cell = sizes.flatmap(lambda n: st.lists(vertex, min_size=n, max_size=n, unique_by=repr))
    cells = draw(st.lists(cell, max_size=3))
    dims = [len(c).bit_length() - 1 if kind == "cubical" else len(c) - 1 for c in cells]
    dim = max(dims, default=-1)
    doc = {
        "format_version": "1",
        "kind": kind,
        "dim": dim if draw(st.integers(0, 3)) else draw(st.integers(-1, 3)),
        "cells": cells,
    }
    if draw(st.booleans()):
        doc["topology"] = draw(st.sampled_from(TOPOLOGY_TAGS))
        doc["polytopal"] = draw(st.booleans())
    if draw(st.integers(0, 2)) == 0:
        for field in draw(st.lists(st.sampled_from([*doc, "extra"]), min_size=1, max_size=2)):
            doc[field] = draw(_JUNK)
    return doc


@settings(max_examples=100)
@given(doc=_documents())
def test_cli_never_exits_4_on_small_documents(tmp_path_factory, doc):
    path = tmp_path_factory.getbasetemp() / "fuzzed.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    runs = [["verify", "all", str(path)], ["verify", "all", str(path), "--machine"]]
    runs += [["compute", invariant, str(path)] for invariant in INVARIANTS]
    for argv in runs:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
            code = entry(argv)
        assert code in (0, 1, 2, 3), (argv, doc, err.getvalue())
