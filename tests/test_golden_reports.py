"""Golden digests of every verifier report and CLI output on a fixed corpus.

Each (member, verifier) pair maps to the sha256 of the report's JSON form
followed by its plain-text rendering, so any change to a status, a
precondition, a check value or the wording of either rendering shows up
here with the member and the verifier named.  Each member's document and
each ``cubicomb compute`` invariant on it, as a table and under
``--machine``, is pinned the same way (exit code, stdout and stderr).

Run this file as a script to rewrite the digest files after an intended
change to the outputs.
"""

import hashlib
import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from cubicomb import (
    CubicalCell,
    CubicalComplex,
    GeneratedComplex,
    SimplicialComplex,
    build_cubical,
    build_simplicial,
    cube_boundary,
    cubical_torus,
    format_report,
)
from cubicomb.cli import INVARIANTS, entry
from cubicomb.files import serializes
from cubicomb.verify import CUBICAL_VERIFIERS, SIMPLICIAL_VERIFIERS
from families import cubical_family, simplicial_family

DIGESTS = Path(__file__).parent / "golden" / "report_digests.json"
OUTPUT_DIGESTS = Path(__file__).parent / "golden" / "output_digests.json"


def corpus() -> dict:
    """Generated families plus bare hand-made inputs, keyed by a unique name."""
    members = {gc.provenance: gc for gc in cubical_family() + simplicial_family()}
    members["bowtie"] = GeneratedComplex(
        build_simplicial([[1, 2, 3], [3, 4, 5]]), "manifold-with-boundary", "bowtie"
    )
    members["three-square book"] = build_cubical(
        [CubicalCell(2, (0, 1, 2, 3)), CubicalCell(2, (0, 1, 4, 5)), CubicalCell(2, (0, 1, 6, 7))]
    )
    members["square and edge"] = build_cubical(
        [CubicalCell(2, (0, 1, 2, 3)), CubicalCell(1, (3, 4)), CubicalCell(1, (5, 6))]
    )
    members["triangle and edge"] = build_simplicial([[0, 1, 2], [2, 3]])
    # Wrong topology tags reach the gates no generated member reaches.
    members["cube boundary tagged ball"] = GeneratedComplex(
        cube_boundary(3).complex, "ball", "cube boundary tagged ball"
    )
    members["torus tagged polytopal sphere"] = GeneratedComplex(
        cubical_torus(4, 4).complex, "sphere", "torus tagged polytopal sphere", True
    )
    members["empty cubical"] = CubicalComplex.empty()
    members["empty simplicial"] = SimplicialComplex.empty()
    return members


def digests() -> dict[str, dict[str, str]]:
    out = {}
    for member, x in corpus().items():
        row = {}
        for fn in CUBICAL_VERIFIERS + SIMPLICIAL_VERIFIERS:
            report = fn(x)
            text = json.dumps(report.to_dict(), indent=2) + "\n" + format_report(report)
            row[report.name] = hashlib.sha256(text.encode("utf-8")).hexdigest()
        out[member] = row
    return out


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _cli(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = entry(argv)
    return f"exit {code}\n--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}"


def output_digests() -> dict[str, dict[str, str]]:
    """Digest of each member's document and of every compute invariant on it."""
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for n, (member, x) in enumerate(corpus().items()):
            text = serializes(x)
            path = Path(tmp) / f"member{n}.json"
            path.write_text(text, encoding="utf-8")
            row = {"serializes": _sha(text)}
            for inv in INVARIANTS:
                row[f"compute {inv}"] = _sha(_cli(["compute", inv, str(path)]))
                row[f"compute {inv} --machine"] = _sha(_cli(["compute", inv, str(path), "--machine"]))
            out[member] = row
    return out


def _mismatches(golden: dict, found: dict) -> list[str]:
    assert sorted(found) == sorted(golden), "corpus members differ from the golden file"
    out = [
        f"{member} / {name}"
        for member, row in golden.items()
        for name, digest in row.items()
        if found[member].get(name) != digest
    ]
    return out + [
        f"{member} / {name} (not in the golden file)"
        for member, row in found.items()
        for name in row
        if name not in golden[member]
    ]


def test_corpus_names_are_unique():
    generated = cubical_family() + simplicial_family()
    assert len({gc.provenance for gc in generated}) == len(generated) == 59


def test_reports_match_golden_digests():
    golden = json.loads(DIGESTS.read_text(encoding="utf-8"))
    mismatches = _mismatches(golden, digests())
    assert not mismatches, "reports changed: " + "; ".join(mismatches)


def test_documents_and_compute_outputs_match_golden_digests():
    golden = json.loads(OUTPUT_DIGESTS.read_text(encoding="utf-8"))
    mismatches = _mismatches(golden, output_digests())
    assert not mismatches, "outputs changed: " + "; ".join(mismatches)


if __name__ == "__main__":
    DIGESTS.parent.mkdir(exist_ok=True)
    for path, table in ((DIGESTS, digests()), (OUTPUT_DIGESTS, output_digests())):
        path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
