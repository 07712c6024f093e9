"""Paired runs of one command in two trees, alternating which runs first.

Usage, from anywhere:

    python tools/paired.py BASE CHANGE -- python3 bench/run.py \
        --workload torus-validate --seed 91 --seconds 20
    python tools/paired.py BASE CHANGE -- env PYTHONPATH=src python -m pytest -q

The command runs with each tree root as its working directory, N times per
tree (``-n``, default 10).  Pair i runs BASE first when i is even and
CHANGE first when it is odd, so a drift in the host's speed falls on both
sides alike.

Each run yields its wall time as ``wall_s`` and, when the last line of the
command's standard output is a JSON object with ``metrics: {name: {"value":
...}}`` as ``bench/run.py`` prints it, every metric named there.  Every
metric that both sides report is compared.  Whether higher is better comes
from the ``end_to_end`` and ``per_layer`` lists of ``BENCHMARK.json`` in
CHANGE; anything else, ``wall_s`` included, is better lower.

For each metric and side it prints the median and the quartiles, then the
pairs CHANGE won, the median of the per-pair ratio CHANGE / BASE, and
whether a gain may be claimed (``claim_met``): CHANGE won at least nine
tenths of the pairs, ties counting for neither side, and its median is
better than BASE's by more than the distance between BASE's quartiles.  For
every ``end_to_end`` metric with a ``bound`` it also says whether CHANGE
``regressed``: its median is worse than BASE's median by more than ``bound``
times BASE's median, which is a regression past the benchmark's bound.  The
last line of standard output is the same summary as one JSON object.  A run
that exits nonzero stops the script with its exit code.

A child that finds the package's compiled bytecode under
``src/cubicomb/__pycache__`` skips compiling it, which can be a fifth of a
short process's time.  So the script exits 2, before any run, when one tree
holds such ``.pyc`` files and the other none, and every metric's row in the
summary says per side whether the tree had them (``bytecode_cached``).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter


def run(root: Path, command: list[str]) -> dict[str, float]:
    started = perf_counter()
    done = subprocess.run(command, cwd=root, capture_output=True, text=True)
    wall = perf_counter() - started
    if done.returncode != 0:
        sys.stderr.write(done.stdout[-2000:] + done.stderr[-2000:])
        print(f"error: {' '.join(command)} exited {done.returncode} in {root}", file=sys.stderr)
        sys.exit(done.returncode)
    values = {"wall_s": wall}
    lines = done.stdout.strip().splitlines()
    if lines:
        try:
            reported = json.loads(lines[-1]).get("metrics", {})
        except (json.JSONDecodeError, AttributeError):
            reported = {}
        values.update({name: m["value"] for name, m in reported.items()})
    return values


def bytecode_cached(root: Path) -> bool:
    return any((root / "src" / "cubicomb" / "__pycache__").glob("*.pyc"))


def metric_rules(root: Path) -> tuple[set[str], dict[str, float]]:
    """The metrics of ``BENCHMARK.json`` under ``root`` that are better
    higher, and the bound of every end-to-end metric that has one."""
    try:
        spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    except FileNotFoundError:
        return set(), {}
    entries = spec.get("end_to_end", []) + spec.get("per_layer", [])
    bounds = {m["name"]: m["bound"] for m in spec.get("end_to_end", []) if "bound" in m}
    return {m["name"] for m in entries if m.get("better") == "higher"}, bounds


def spread(values: list[float]) -> dict[str, float]:
    if len(values) == 1:
        return dict.fromkeys(("median", "q1", "q3"), values[0])
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        usage="%(prog)s BASE CHANGE [-n N] -- COMMAND...",
    )
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("-n", type=int, default=10, help="pairs to run (default 10)")
    argv = sys.argv[1:] if argv is None else argv
    cut = argv.index("--") if "--" in argv else len(argv)
    args, command = parser.parse_args(argv[:cut]), argv[cut + 1 :]
    if not command or args.n < 1:
        parser.error("need a command after -- and n >= 1")

    sides = {"base": args.base.resolve(), "change": args.change.resolve()}
    cached = {side: bytecode_cached(root) for side, root in sides.items()}
    if cached["base"] != cached["change"]:
        side, other = ("base", "change") if cached["base"] else ("change", "base")
        print(
            f"error: {sides[side]} has compiled bytecode under src/cubicomb/__pycache__ and "
            f"{sides[other]} has none; remove it or compile both trees",
            file=sys.stderr,
        )
        return 2
    runs: dict[str, list[dict[str, float]]] = {"base": [], "change": []}
    for i in range(args.n):
        for side in ("base", "change") if i % 2 == 0 else ("change", "base"):
            runs[side].append(run(sides[side], command))
            print(f"# pair {i + 1} {side}: " + json.dumps(runs[side][-1]), flush=True)

    names = [m for m in runs["change"][0] if m in runs["base"][0]]
    higher, bounds = metric_rules(sides["change"])
    summary = {}
    for name in names:
        base = [r[name] for r in runs["base"]]
        change = [r[name] for r in runs["change"]]
        sign = 1 if name in higher else -1
        won = sum(sign * (c - b) > 0 for b, c in zip(base, change))
        ratios = [c / b for b, c in zip(base, change) if b]
        base_spread, change_spread = spread(base), spread(change)
        gap = sign * (change_spread["median"] - base_spread["median"])
        summary[name] = {
            "better": "higher" if sign > 0 else "lower",
            "base": base_spread,
            "change": change_spread,
            "change_won": won,
            "pairs": args.n,
            "median_ratio": statistics.median(ratios) if ratios else None,
            "claim_met": 10 * won >= 9 * args.n and gap > base_spread["q3"] - base_spread["q1"],
            "bytecode_cached": cached,
        }
        row = summary[name]
        verdict = ""
        if name in bounds:
            row["regressed"] = -gap > bounds[name] * abs(base_spread["median"])
            past = "regressed past" if row["regressed"] else "within"
            verdict = f", {past} bound {bounds[name]:g}"
        sides_text = "  ".join(
            f"{side} {row[side]['median']:.6g} [{row[side]['q1']:.6g}, {row[side]['q3']:.6g}]"
            for side in ("base", "change")
        )
        ratio = f"{row['median_ratio']:.4f}" if ratios else "n/a"
        print(
            f"{name} ({row['better']} is better): {sides_text}  "
            f"change won {won}/{args.n}, median ratio {ratio}, "
            f"claim {'met' if row['claim_met'] else 'not met'}{verdict}"
        )
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
