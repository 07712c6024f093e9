"""The four workloads, their items, their output checks and their probes.

A round is one pass over a workload's fixed set of item kinds with fresh
seeded inputs: the shapes and sizes never depend on the seed, only vertex
labels, corner orders, cell order, gluing trees and sequence values do.
``run`` is the timed part of an item and ``check`` compares its outputs with
the closed forms in ``oracles``.  ``probe`` runs only in the traced pass,
after the item: extra calls that exist to split the item's time by layer
and that the untraced pass never makes.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from argparse import Namespace
from dataclasses import dataclass, field
from math import comb
from pathlib import Path

from cubicomb import (
    CubicalCell,
    CubicalComplex,
    GeneratedComplex,
    HVector,
    SimplicialComplex,
    boundary_complex,
    build_cubical,
    build_simplicial,
    check_g_theorem_conditions,
    f_vector,
    format_report,
    g_vector,
    h_long_cubical,
    h_short_cubical_from_f,
    h_short_cubical_from_links,
    h_simplicial,
    is_m_vector,
    macaulay_rep,
    parse,
    pseudopower,
    run_suite,
    serialize,
)
from cubicomb.cli import FAMILIES
from cubicomb.verify import CUBICAL_VERIFIERS, SIMPLICIAL_VERIFIERS, SUITES

import inputs
import oracles

CLI_TIMEOUT_S = 120


@dataclass
class Item:
    label: str
    kind: str
    cells: list | None = None  # the input cells, for the input-property record
    f: tuple | None = None  # closed-form face counts f_0 .. f_dim
    spec: dict = field(default_factory=dict)

    @property
    def cell_dim(self) -> int:
        if not self.cells:
            return -1
        if self.spec.get("complex") == "cubical":
            return max(len(c).bit_length() - 1 for c in self.cells)
        return max(len(c) for c in self.cells) - 1


# ---------------------------------------------------------------- layer calls


def verify(tr, x, kind: str, suite: str = "all"):
    """run_suite, or with tracing on its verifiers one by one in the same order."""
    if not tr.enabled:
        return run_suite(suite, x)
    if suite == "all":
        fns = CUBICAL_VERIFIERS if kind == "cubical" else SIMPLICIAL_VERIFIERS
    else:
        fns = SUITES[suite][1]
    reports = []
    with tr.span("verify.all"):
        for fn in fns:
            with tr.span("verify") as rec:
                report = fn(x)
                rec["name"] = "verify." + report.name
            reports.append(report)
    for report in reports:
        tr.add("verify." + report.status, 1)
    return reports


def statuses(reports) -> dict[str, str]:
    return {r.name: r.status for r in reports}


def status_problems(found: dict[str, str], must_pass) -> list[str]:
    problems = [f"{name} failed" for name, status in found.items() if status == "fail"]
    for name in must_pass:
        if found.get(name) != "pass":
            problems.append(f"{name} is {found.get(name)}, expected pass")
    return problems


def cubical_item(tr, cells, topology: str, polytopal: bool) -> dict:
    with tr.span("complexes.build"):
        C = build_cubical(cells)
    with tr.span("complexes.f_counts"):
        f = C.f_counts()
    with tr.span("complexes.vertex_coface_counts"):
        C.vertex_coface_counts
    with tr.span("complexes.link_euler"):
        C.link_euler
    with tr.span("vectors.transforms"):
        hc = h_long_cubical(h_short_cubical_from_f(f_vector(C)))
        g_vector(hc)
    with tr.span("vectors.h_short_from_links"):
        hl = h_short_cubical_from_links(C)
    reports = verify(tr, GeneratedComplex(C, topology, "bench", polytopal), "cubical")
    return {"C": C, "f": f, "hc": hc.entries, "hl": hl.entries, "status": statuses(reports)}


def cubical_problems(out: dict, f: tuple, must_pass) -> list[str]:
    problems = []
    if out["f"] != f:
        problems.append(f"f = {out['f']}, closed form {f}")
    if out["hc"] != oracles.h_long_cubical(f):
        problems.append(f"long cubical h = {out['hc']}")
    if out["hl"] != oracles.h_short_cubical(f):
        problems.append(f"link-sum short cubical h = {out['hl']}")
    return problems + status_problems(out["status"], must_pass)


def cubical_probe(tr, cells, out) -> None:
    C = out["C"]
    with tr.span("complexes.closure", probe=True):
        CubicalComplex.from_cells(cells, validate=False)
    with tr.span("complexes.ridge_degrees", probe=True):
        C.ridge_degrees()
    with tr.span("complexes.boundary", probe=True):
        boundary_complex(C)


# ------------------------------------------------------------------------ CLI


class Cli:
    """``python -m cubicomb.cli`` in a child process, with src on PYTHONPATH."""

    def __init__(self, root: Path):
        self.root = root
        self.env = dict(os.environ)
        old = self.env.get("PYTHONPATH")
        src = str(root / "src")
        self.env["PYTHONPATH"] = src + (os.pathsep + old if old else "")

    def call(self, args: list[str]) -> tuple[int, str]:
        done = subprocess.run(
            [sys.executable, "-m", "cubicomb.cli", *args],
            cwd=self.root,
            env=self.env,
            capture_output=True,
            text=True,
            timeout=CLI_TIMEOUT_S,
        )
        return done.returncode, done.stdout


def cli_args(spec: dict) -> list[str]:
    cmd = spec["cmd"]
    if cmd == "gen":
        return ["gen", spec["family"], *spec["params"], "-o", spec["path"]]
    if cmd == "verify":
        return ["verify", spec["suite"], spec["path"]] + (["--machine"] if spec.get("machine") else [])
    return ["compute", spec["invariant"], spec["path"]]


def replay(tr, spec: dict, scratch: Path) -> None:
    """The layer calls behind one CLI command, made in this process."""
    cmd = spec["cmd"]
    with tr.span("cli.replay", probe=True):
        if cmd == "gen":
            with tr.span("generators.gen"):
                gc = FAMILIES[spec["family"]](spec["params"], Namespace(gluing="linear", seed=None))
            with tr.span("files.serialize"):
                serialize(gc, scratch)
            tr.add("files.bytes", scratch.stat().st_size)
            return
        with tr.span("files.parse"):
            gc = parse(spec["path"])
        tr.add("files.bytes", Path(spec["path"]).stat().st_size)
        C = gc.complex
        if cmd == "verify":
            reports = verify(tr, gc, C.kind, spec["suite"])
            with tr.span("report.render"):
                if spec.get("machine"):
                    json.dumps([r.to_dict() for r in reports], indent=2)
                else:
                    [format_report(r) for r in reports]
        elif spec["invariant"] == "hc":
            with tr.span("vectors.transforms"):
                h_long_cubical(h_short_cubical_from_f(f_vector(C)))
        else:
            with tr.span("complexes.link"):
                [C.link(v).f_counts() for v in C.vertices]


_CHECK = re.compile(r"^check (\S+): (\w+)$", re.M)
_WROTE = re.compile(r"^wrote .*: (cubical|simplicial) dim (\d+), f = \(([^)]*)\), topology (\S+)$", re.M)
_SUMMARY = re.compile(r"^(\d+) passed, (\d+) failed, (\d+) inapplicable$", re.M)


def verify_output_problems(code: int, out: str, machine: bool, must_pass, must_fail=()) -> list[str]:
    """Statuses, summary line and exit code of one ``verify`` command."""
    if machine:
        try:
            found = {r["name"]: r["status"] for r in json.loads(out)}
        except (ValueError, KeyError, TypeError) as e:
            return [f"unreadable --machine output: {e}"]
    else:
        found = dict(_CHECK.findall(out))
        summary = _SUMMARY.findall(out)
        counts = tuple(str(list(found.values()).count(s)) for s in ("pass", "fail", "inapplicable"))
        if summary[-1:] != [counts]:
            return [f"summary {summary[-1:]} disagrees with statuses {counts}"]
    values = set(found.values())
    want = 1 if "fail" in values else 3 if values == {"inapplicable"} else 0
    problems = [] if code == want else [f"exit code {code}, expected {want}"]
    problems += [f"{n} failed" for n, s in found.items() if s == "fail" and n not in must_fail]
    problems += [f"{n} is {found.get(n)}, expected fail" for n in must_fail if found.get(n) != "fail"]
    for name in must_pass:
        if found.get(name) != "pass":
            problems.append(f"{name} is {found.get(name)}, expected pass")
    return problems


def link_sum_problems(rows: list[tuple[int, ...]], f: tuple) -> list[str]:
    """Column i of a simplicial link table sums to (i+2) f_{i+1}: every
    (i+1)-face lies in the links of its i+2 vertices."""
    if len(rows) != f[0]:
        return [f"{len(rows)} link rows for {f[0]} vertices"]
    width = len(f) - 1
    sums = [sum(r[i] for r in rows if i < len(r)) for i in range(width)]
    want = [(i + 2) * f[i + 1] for i in range(width)]
    return [] if sums == want else [f"link column sums {sums}, expected {want}"]


def write_doc(path: Path, kind: str, cells, topology: str, polytopal: bool = False) -> None:
    """A format-1 document written by the benchmark, not by the program."""
    dim = max((len(c).bit_length() - 1) if kind == "cubical" else len(c) - 1 for c in cells)
    doc = {"format_version": "1", "kind": kind, "dim": dim, "topology": topology, "cells": cells}
    if polytopal:
        doc["polytopal"] = True
    path.write_text(json.dumps(doc), encoding="utf-8")


# ------------------------------------------------------------------ workloads


class Workload:
    name = ""

    def __init__(self, rng_for, workdir: Path, cli: Cli, tr):
        self.rng_for = rng_for  # (round index, stream name) -> random.Random
        self.workdir = workdir
        self.cli = cli
        self.tr = tr

    def make_round(self, r: int) -> list[Item]:
        raise NotImplementedError

    def run(self, item: Item):
        raise NotImplementedError

    def check(self, item: Item, out) -> list[str]:
        raise NotImplementedError

    def probe(self, item: Item, out) -> None:
        """Traced pass only: extra calls that split the item's time by layer."""

    def end_round(self, r: int) -> list[str] | None:
        """The bowtie negative control: ``verify ns-ds`` must fail with exit 1.

        Two triangles sharing one vertex are tagged as a manifold with
        boundary; the boundary-corrected identity must reject them.  Returns
        the problems found, or None when the round ends without a check.
        """
        tr = self.tr
        rng = self.rng_for(r, "control")
        a, b, c, d, e = rng.sample(range(100), 5)
        facets = [[a, b, c], [a, d, e]]
        tr.item = f"{r}:control"
        with tr.span("complexes.build"):
            S = build_simplicial(facets)
        path = self.workdir / "bowtie.json"
        with tr.span("files.serialize"):
            serialize(GeneratedComplex(S, "manifold-with-boundary", "bowtie"), path)
        doc = json.loads(path.read_text(encoding="utf-8"))
        problems = []
        if (doc.get("kind"), doc.get("dim"), doc.get("topology")) != ("simplicial", 2, "manifold-with-boundary"):
            problems.append(f"bowtie document header {doc}")
        if sorted(sorted(x) for x in doc.get("cells", [])) != sorted(sorted(x) for x in facets):
            problems.append(f"bowtie document cells {doc.get('cells')}")
        spec = {"cmd": "verify", "suite": "ns-ds", "path": str(path)}
        with tr.span("cli.verify"):
            code, out = self.cli.call(cli_args(spec))
        problems += verify_output_problems(code, out, False, (), ("simplicial-boundary-ds",))
        if tr.enabled:
            replay(tr, spec, self.workdir / "replay.json")
            self.startup()
        return problems

    def startup(self) -> None:
        """Interpreter and argument-parser start-up: a no-op ``--help`` call."""
        with self.tr.span("cli.startup", probe=True):
            self.cli.call(["--help"])


class TorusValidate(Workload):
    """Few large closed tori: pairwise cell validation dominates, boundary work is small."""

    name = "torus-validate"
    # Sizes chosen so that the three item kinds cost about the same.
    SHAPES = ((50, 50), (12, 12, 12), (5, 5, 6, 6))

    def make_round(self, r):
        rng = self.rng_for(r, "round")
        items = []
        for sides in self.SHAPES:
            sides = list(sides)
            rng.shuffle(sides)
            cells = inputs.torus_cells(rng, sides)
            spec = {"complex": "cubical", "input": [CubicalCell(len(sides), c) for c in cells]}
            items.append(Item(f"torus{tuple(sides)}", "torus", cells, oracles.torus_f(sides), spec))
        rng.shuffle(items)
        return items

    def run(self, item):
        return cubical_item(self.tr, item.spec["input"], "torus", False)

    def check(self, item, out):
        return cubical_problems(out, item.f, ("h-vector-identities", "adin-dehn-sommerville"))

    def probe(self, item, out):
        cubical_probe(self.tr, item.spec["input"], out)


class PileSweep(Workload):
    """Many small piles and pile-boundary spheres: verifiers, derived views and
    boundary builds dominate, so a fixed cost per complex shows."""

    name = "pile-sweep"
    CELL_CAP = {2: 16, 3: 12, 4: 6}

    def make_round(self, r):
        rng = self.rng_for(r, "round")
        items = []
        for axes, cap in self.CELL_CAP.items():
            for shape in inputs.descending_shapes(axes, cap):
                sides = list(shape)
                rng.shuffle(sides)
                for tag in ("ball", "sphere"):
                    if tag == "ball":
                        cells, f = inputs.pile_cells(rng, sides), oracles.pile_f(sides)
                    else:
                        cells, f = inputs.pile_boundary_cells(rng, sides), oracles.pile_boundary_f(sides)
                    dim = len(cells[0]).bit_length() - 1
                    spec = {
                        "complex": "cubical",
                        "tag": tag,
                        "input": [CubicalCell(dim, c) for c in cells],
                    }
                    items.append(Item(f"{tag}{tuple(sides)}", "pile", cells, f, spec))
        rng.shuffle(items)
        return items

    def run(self, item):
        return cubical_item(self.tr, item.spec["input"], item.spec["tag"], True)

    def check(self, item, out):
        if item.spec["tag"] == "ball":
            must = ("h-vector-identities", "cubical-boundary-ds", "cubical-ball-ds")
        else:
            must = ("h-vector-identities", "adin-dehn-sommerville")
        return cubical_problems(out, item.f, must)

    def probe(self, item, out):
        cubical_probe(self.tr, item.spec["input"], out)


class SimplicialMacaulay(Workload):
    """Stacked simplicial balls and long M-vector sequences: the only load on
    the simplicial layer and on the Macaulay search."""

    name = "simplicial-macaulay"
    # Sizes chosen so that every item kind costs about the same.
    BALLS = ((2, 1000), (2, 1000), (3, 600), (3, 600), (4, 400), (4, 400))
    G1_LADDER = tuple(range(2000, 20001, 2000)) * 4
    SPHERES = ((3, 2000), (4, 500), (5, 300))
    BATCHES = 3

    def make_round(self, r):
        rng = self.rng_for(r, "round")
        items = []
        for d, n in self.BALLS:
            facets = inputs.stacked_ball_facets(rng, d, n)
            items.append(
                Item(f"ball({d},{n})", "ball", facets, oracles.stacked_ball_f(d, n), {"complex": "simplicial", "d": d, "n": n})
            )
        for b in range(self.BATCHES):
            seqs = []
            for k, g1 in enumerate(self.G1_LADDER):
                g1 -= rng.randrange(g1 // 100 + 1)
                seqs.append(inputs.m_vector_candidates(rng, g1, rng.randint(3, 5), violate=(k + b) % 3 == 0))
            hs = [inputs.stacked_sphere_h(d, n) for d, n in self.SPHERES]
            items.append(Item(f"macaulay#{b}", "macaulay", spec={"seqs": seqs, "h": hs}))
        rng.shuffle(items)
        return items

    def run(self, item):
        tr = self.tr
        if item.kind == "macaulay":
            return self._macaulay(item)
        with tr.span("complexes.build"):
            S = build_simplicial(item.cells)
        with tr.span("complexes.f_counts"):
            f = S.f_counts()
        with tr.span("vectors.transforms"):
            h_simplicial(f_vector(S))
        reports = verify(tr, GeneratedComplex(S, "ball", "bench"), "simplicial", "ns-ds")
        with tr.span("complexes.link"):
            links = [S.link(v).f_counts() for v in S.vertices]
        with tr.span("complexes.boundary"):
            B = boundary_complex(S)
        with tr.span("vectors.transforms"):
            hb = h_simplicial(f_vector(B))
        with tr.span("macaulay.g_theorem"):
            g_report = check_g_theorem_conditions(hb)
        tr.add("macaulay.calls", 1)
        return {
            "S": S,
            "f": f,
            "fb": B.f_counts(),
            "hb": hb.entries,
            "links": links,
            "status": statuses(reports + [g_report]),
        }

    def _macaulay(self, item):
        tr = self.tr
        verdicts, reps, powers, reports = [], [], [], []
        for seq, _ in item.spec["seqs"]:
            with tr.span("macaulay.is_m_vector"):
                verdicts.append(is_m_vector(seq))
            for i, value in enumerate(seq):
                if i == 0:
                    continue
                with tr.span("macaulay.rep"):
                    rep = macaulay_rep(value, i)
                    total = rep.total()
                with tr.span("macaulay.pseudopower"):
                    powers.append(pseudopower(value, i))
                reps.append((value, i, rep.terms, total))
                tr.peak("macaulay.max_value", value)
            tr.add("macaulay.calls", 1 + 2 * (len(seq) - 1))
        for h in item.spec["h"]:
            with tr.span("macaulay.g_theorem"):
                reports.append(check_g_theorem_conditions(HVector("simplicial", len(h) - 2, h)))
            tr.add("macaulay.calls", 1)
        return {"verdicts": verdicts, "reps": reps, "powers": powers, "status": statuses(reports)}

    def check(self, item, out):
        if item.kind == "macaulay":
            return self._check_macaulay(item, out)
        d, n = item.spec["d"], item.spec["n"]
        problems = []
        if out["f"] != item.f:
            problems.append(f"f = {out['f']}, closed form {item.f}")
        hb = (1,) + (n,) * (d - 1) + (1,)
        if out["hb"] != hb:
            problems.append(f"boundary h = {out['hb']}, closed form {hb}")
        if out["fb"] != oracles.f_from_h(hb):
            problems.append(f"boundary f = {out['fb']}")
        problems += link_sum_problems(out["links"], item.f)
        return problems + status_problems(out["status"], ("simplicial-boundary-ds", "g-theorem-conditions"))

    def _check_macaulay(self, item, out):
        problems = []
        for (seq, bad_at), verdict in zip(item.spec["seqs"], out["verdicts"]):
            if oracles.m_vector_violation(seq) != bad_at:
                problems.append(f"generated sequence {seq} is not what it claims")
            if (verdict.ok, verdict.violation_index) != (bad_at is None, bad_at):
                problems.append(f"is_m_vector{tuple(seq)} = {verdict}, expected violation at {bad_at}")
        for (value, i, terms, total), power in zip(out["reps"], out["powers"]):
            if total != value or sum(comb(n, t) for n, t in terms) != value:
                problems.append(f"macaulay_rep({value}, {i}) does not sum back")
            if terms != oracles.macaulay_terms(value, i):
                problems.append(f"macaulay_rep({value}, {i}) = {terms}")
            if power != oracles.pseudopower_oracle(value, i):
                problems.append(f"pseudopower({value}, {i}) = {power}")
        return problems + status_problems(out["status"], ("g-theorem-conditions",))

    def probe(self, item, out):
        if item.kind == "macaulay":
            return
        tr = self.tr
        with tr.span("complexes.closure", probe=True):
            SimplicialComplex.from_facets(item.cells)
        with tr.span("complexes.ridge_degrees", probe=True):
            out["S"].ridge_degrees()


class CliRoundtrip(Workload):
    """gen, verify and compute as child processes: start-up, parse with
    re-validation, serialization and report rendering.  Writes sit beside
    reads so that a gain on one that costs the other shows."""

    name = "cli-roundtrip"
    TORUS = (8, 9, 10)
    SPHERE = (3, 300)
    PILE = (5, 4, 3)
    PILE_BOUNDARY = (6, 5, 4)
    BALL = (3, 400)

    def make_round(self, r):
        rng = self.rng_for(r, "round")
        w = self.workdir
        torus = list(self.TORUS)
        rng.shuffle(torus)
        sd, sn = self.SPHERE
        sphere_f = oracles.f_from_h(inputs.stacked_sphere_h(sd, sn))
        torus_f = oracles.torus_f(torus)
        pile = inputs.pile_cells(rng, self.PILE)
        write_doc(w / "pile.json", "cubical", pile, "ball", True)
        pb = inputs.pile_boundary_cells(rng, self.PILE_BOUNDARY)
        write_doc(w / "pile-boundary.json", "cubical", pb, "sphere", True)
        bd, bn = self.BALL
        ball = inputs.stacked_ball_facets(rng, bd, bn)
        write_doc(w / "ball.json", "simplicial", ball, "ball")
        a, b, c, d, e = rng.sample(range(100), 5)
        write_doc(w / "bowtie.json", "simplicial", [[a, b, c], [a, d, e]], "manifold-with-boundary")

        def item(label, spec, cells=None, f=None, complex_kind="cubical"):
            spec["complex"] = complex_kind
            return Item(label, spec["cmd"], cells, f, spec)

        tp, sp = str(w / "torus.json"), str(w / "sphere.json")
        torus_cells = inputs.torus_cells(rng, torus)
        sphere_cells = inputs.linear_stacked_sphere_facets(sd, sn)
        ball_f = oracles.stacked_ball_f(bd, bn)
        return [
            item("gen torus", {"cmd": "gen", "family": "torus", "params": [str(s) for s in torus], "path": tp, "topology": "torus"}, f=torus_f),
            item("gen stacked-sphere", {"cmd": "gen", "family": "stacked-sphere", "params": [str(sd), str(sn)], "path": sp, "topology": "sphere"}, f=sphere_f, complex_kind="simplicial"),
            item("verify all torus", {"cmd": "verify", "suite": "all", "path": tp, "must": ("h-vector-identities", "adin-dehn-sommerville")}, torus_cells, torus_f),
            item("compute hc torus", {"cmd": "compute", "invariant": "hc", "path": tp}, f=torus_f),
            item("compute links sphere", {"cmd": "compute", "invariant": "links", "path": sp}, sphere_cells, sphere_f, "simplicial"),
            item("verify all --machine pile", {"cmd": "verify", "suite": "all", "machine": True, "path": str(w / "pile.json"), "must": ("h-vector-identities", "cubical-boundary-ds", "cubical-ball-ds")}, pile, oracles.pile_f(self.PILE)),
            item("compute hc pile-boundary", {"cmd": "compute", "invariant": "hc", "path": str(w / "pile-boundary.json")}, pb, oracles.pile_boundary_f(self.PILE_BOUNDARY)),
            item("compute links ball", {"cmd": "compute", "invariant": "links", "path": str(w / "ball.json")}, ball, ball_f, "simplicial"),
            item("verify ns-ds ball", {"cmd": "verify", "suite": "ns-ds", "path": str(w / "ball.json"), "must": ("simplicial-boundary-ds",)}, f=ball_f, complex_kind="simplicial"),
            item("verify ns-ds bowtie", {"cmd": "verify", "suite": "ns-ds", "path": str(w / "bowtie.json"), "must": (), "must_fail": ("simplicial-boundary-ds",)}, complex_kind="simplicial"),
        ]

    def run(self, item):
        with self.tr.span("cli." + item.kind):
            return self.cli.call(cli_args(item.spec))

    def check(self, item, out):
        code, text = out
        spec = item.spec
        if spec["cmd"] == "gen":
            found = _WROTE.search(text)
            want = (spec["complex"], str(len(item.f) - 1), ", ".join(map(str, item.f)), spec["topology"])
            if code != 0 or not found or found.groups() != want:
                return [f"gen printed {text.strip()!r} with exit {code}"]
            return []
        if spec["cmd"] == "verify":
            return verify_output_problems(code, text, spec.get("machine", False), spec["must"], spec.get("must_fail", ()))
        if code != 0:
            return [f"compute exit code {code}"]
        if spec["invariant"] == "hc":
            got = tuple(int(v) for v in re.findall(r"^hc\[\d+\] = (-?\d+)$", text, re.M))
            want = oracles.h_long_cubical(item.f)
            return [] if got == want else [f"hc = {got}, expected {want}"]
        rows = [tuple(int(x) for x in row.split(",") if x.strip()) for row in re.findall(r"^links\[\d+\] = \(([^)]*)\)$", text, re.M)]
        return link_sum_problems(rows, item.f)

    def probe(self, item, out):
        replay(self.tr, item.spec, self.workdir / "replay.json")

    def end_round(self, r):
        # The bowtie control is an item of every round here.
        if self.tr.enabled:
            self.startup()
        return None


WORKLOADS = {w.name: w for w in (TorusValidate, PileSweep, CliRoundtrip, SimplicialMacaulay)}
