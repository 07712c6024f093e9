"""Command line surface: generate families, compute invariants, run verifiers.

Exit codes form a stable contract: 0 success / all applicable checks pass,
1 at least one check fails, 2 usage or input error, 3 every check was
inapplicable to the input, 4 an internal error (any other exception).

Only ``verify`` loads the verifiers and the report module, the half of the
package that ``gen`` and ``compute`` never use.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter

from .complexes import _link_counts
from .files import parse, serialize
from .generators import (
    cross_polytope_boundary,
    cube_boundary,
    cubical_torus,
    pile_boundary,
    pile_of_cubes,
    prism,
    simplex,
    simplex_boundary,
    solid_cube,
    stacked_cubical,
    stacked_simplicial_ball,
    stacked_sphere,
)
from .vectors import f_vector, g_vector, h_simplicial, reduced_euler

__all__ = ["entry", "main", "FAMILIES", "INVARIANTS"]


def _ints(params: list[str], count: int | None, family: str) -> list[int]:
    if count is not None and len(params) != count:
        raise ValueError(f"{family} takes {count} integer parameter(s), got {len(params)}")
    if count is None and not params:
        raise ValueError(f"{family} takes at least one integer parameter")
    values = [int(p) for p in params]
    for value in values:
        # Past this no size or count fits a machine index.
        if value > sys.maxsize:
            raise ValueError(f"{family} parameter {value} is too large (at most {sys.maxsize})")
    return values


def _gen_prism(params: list[str], args) -> object:
    if len(params) != 1:
        raise ValueError("prism takes one parameter: the document of the cubical base")
    return prism(parse(params[0]))


def _gen_stacked_ball(params: list[str], args) -> object:
    d, n = _ints(params, 2, "stacked-ball")
    return stacked_simplicial_ball(d, n, gluing=args.gluing, seed=args.seed)


FAMILIES = {
    "cube-boundary": lambda p, a: cube_boundary(*_ints(p, 1, "cube-boundary")),
    "solid-cube": lambda p, a: solid_cube(*_ints(p, 1, "solid-cube")),
    "pile": lambda p, a: pile_of_cubes(*_ints(p, None, "pile")),
    "pile-boundary": lambda p, a: pile_boundary(*_ints(p, None, "pile-boundary")),
    "torus": lambda p, a: cubical_torus(*_ints(p, None, "torus")),
    "stacked-cubical-ball": lambda p, a: stacked_cubical(*_ints(p, 2, "stacked-cubical-ball"))[0],
    "stacked-cubical-sphere": lambda p, a: stacked_cubical(*_ints(p, 2, "stacked-cubical-sphere"))[1],
    "simplex": lambda p, a: simplex(*_ints(p, 1, "simplex")),
    "simplex-boundary": lambda p, a: simplex_boundary(*_ints(p, 1, "simplex-boundary")),
    "cross-polytope": lambda p, a: cross_polytope_boundary(*_ints(p, 1, "cross-polytope")),
    "stacked-ball": _gen_stacked_ball,
    "stacked-sphere": lambda p, a: stacked_sphere(*_ints(p, 2, "stacked-sphere")),
    "prism": _gen_prism,
}

INVARIANTS = ("f", "euler", "h", "g", "hsc", "hc", "gc", "links")


class _SuiteChoices:
    """The ``verify`` suite names, read off the registry when argparse first
    iterates them, so that only ``verify`` loads the verifiers."""

    def __iter__(self):
        from .verify import SUITES

        return iter(sorted(SUITES) + ["all"])


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cubicomb",
        description="Generate cubical and simplicial complexes, compute their "
        "enumerative invariants, and verify exact identities and bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a named family and write it to a document")
    g.add_argument("family", choices=sorted(FAMILIES))
    g.add_argument("params", nargs="*", help="family parameters (integers, or a path for prism)")
    g.add_argument("-o", "--output", required=True, help="output document path")
    g.add_argument("--gluing", choices=("linear", "tree"), default="linear",
                   help="stacked-ball gluing pattern")
    g.add_argument("--seed", type=int, default=None, help="seed for tree gluing")
    g.set_defaults(func=_cmd_gen)

    c = sub.add_parser("compute", help="print an invariant of a stored complex")
    c.add_argument("invariant", choices=INVARIANTS)
    c.add_argument("path")
    c.add_argument("--machine", action="store_true", help="emit JSON instead of a table")
    c.set_defaults(func=_cmd_compute)

    v = sub.add_parser("verify", help="run a verification suite on a stored complex")
    # set after add_argument, which formats the choices to check the metavar
    v.add_argument("suite").choices = _SuiteChoices()
    v.add_argument("path")
    v.add_argument("--machine", action="store_true", help="emit JSON reports")
    v.set_defaults(func=_cmd_verify)
    return parser


def _cmd_gen(args) -> int:
    gc = FAMILIES[args.family](args.params, args)
    serialize(gc, args.output)
    C = gc.complex
    print(f"wrote {args.output}: {C.kind} dim {C.dim}, f = {C.f_counts()}, topology {gc.topology}")
    return 0


def _vector_rows(inv: str, C) -> list[tuple[int, int]]:
    if inv == "f":
        f = f_vector(C)
        start = -1 if C.kind == "simplicial" else 0
        return [(start + i, value) for i, value in enumerate(f.entries)]
    if inv in ("h", "g"):
        if C.kind != "simplicial":
            raise ValueError(f"invariant {inv!r} needs a simplicial complex, got {C.kind}")
        h = h_simplicial(f_vector(C))
        vec = h.entries if inv == "h" else g_vector(h).entries
        return list(enumerate(vec))
    if C.kind != "cubical":
        raise ValueError(f"invariant {inv!r} needs a cubical complex, got {C.kind}")
    if C.dim < 0:
        raise ValueError(f"invariant {inv!r} needs a nonempty complex")
    if inv == "hsc":
        return list(enumerate(C.h_short.entries))
    if inv == "hc":
        return list(enumerate(C.h_long.entries))
    return list(enumerate(g_vector(C.h_long).entries))


def _link_rows(C) -> list[tuple[int, list[int]]]:
    """Face counts of every vertex link, read off the vertex coface counts:
    a simplicial row ends at the link's own dimension, where the counts
    turn zero; a cubical row runs to dimension dim - 1 of the complex."""
    rows = C.vertex_coface_counts.items()
    if C.kind == "simplicial":
        return [(v, list(_link_counts(counts))) for v, counts in rows]
    return [(v, list(counts[1:])) for v, counts in rows]


def _cmd_compute(args) -> int:
    gc = parse(args.path)
    C = gc.complex
    inv = args.invariant
    payload: dict = {"command": "compute", "invariant": inv, "kind": C.kind, "dim": C.dim}
    if inv == "euler":
        value = reduced_euler(C)
        payload["value"] = value
        lines = [f"euler = {value}"]
    elif inv == "links":
        rows = _link_rows(C)
        payload["links"] = [[v, counts] for v, counts in rows]
        lines = [f"links[{v}] = ({', '.join(str(n) for n in counts)})" for v, counts in rows]
    else:
        rows = _vector_rows(inv, C)
        payload["entries"] = [[i, value] for i, value in rows]
        lines = [f"{inv}[{i}] = {value}" for i, value in rows]
    if args.machine:
        print(json.dumps(payload, indent=2))
    else:
        for line in lines:
            print(line)
    return 0


def _cmd_verify(args) -> int:
    from .report import format_report
    from .verify import run_suite

    gc = parse(args.path)
    reports = run_suite(args.suite, gc)
    counts = Counter(r.status for r in reports)
    if args.machine:
        print(json.dumps([r.to_dict() for r in reports], indent=2))
    else:
        for report in reports:
            print(format_report(report))
            print()
        print(
            f"{counts['pass']} passed, {counts['fail']} failed, "
            f"{counts['inapplicable']} inapplicable"
        )
    if counts["fail"]:
        return 1
    if counts.keys() == {"inapplicable"}:
        return 3
    return 0


def entry(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # a fault in the program, kept apart from a failed check
        print(f"error: internal: {e!r}", file=sys.stderr)
        return 4


def main() -> None:
    raise SystemExit(entry())


if __name__ == "__main__":
    main()
