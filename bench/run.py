"""Benchmark of the cubicomb toolkit: one workload, one seed, one run.

Usage, from the root of the repository:

    python3 bench/run.py --workload pile-sweep --seed 1 --seconds 20 --trace 0

Every workload is a closed loop with one client in one process: the next
item starts when the previous one has finished, and no threads are used.
Each round regenerates the workload's inputs from the seed and the round
number, outside the item timers, and the timed phase runs whole rounds
until ``--seconds`` have passed.  Every output is compared with closed
forms that do not call cubicomb; an item that disagrees or raises counts as
failed.  Item and set-up times are reported at the fixed speed of a
reference computation sampled between items (see ``reference.py``), since
the shared host's speed drifts within seconds.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics.  With ``--trace 1`` the same rounds run twice,
untraced and then traced, and the JSON carries the per-layer metrics: the
summed self time of each layer's spans per round, the work counts, and the
tracing overhead.  The spans are written to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import oracles
from reference import NOMINAL_S, Speed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"

SETUP_REPEATS = 11
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile
OVERRUN_S = 60  # a round stops early once the run is this far past --seconds
TRACED_LIMIT_S = 60  # the traced pass replays the untraced rounds within this time

WORKLOAD_NAMES = ("torus-validate", "pile-sweep", "cli-roundtrip", "simplicial-macaulay")

VERIFIERS = (
    "adin-dehn-sommerville",
    "vertex-pair-bound",
    "vertex-count-lower-bound",
    "face-count-lower-bounds",
    "h-vector-identities",
    "stacked-link-plateau",
    "four-sphere-glbc",
    "middle-g-nonnegative",
    "alternating-g-sum",
    "small-g2-glbc",
    "small-link-glbc",
    "cubical-boundary-ds",
    "cubical-ball-ds",
    "simplicial-boundary-ds",
)

LAYER_SPANS = (
    "complexes.build",
    "complexes.closure",
    "complexes.f_counts",
    "complexes.vertex_coface_counts",
    "complexes.link_euler",
    "complexes.ridge_degrees",
    "complexes.boundary",
    "complexes.link",
    "vectors.transforms",
    "vectors.h_short_from_links",
    *("verify." + name for name in VERIFIERS),
    "macaulay.rep",
    "macaulay.pseudopower",
    "macaulay.is_m_vector",
    "macaulay.g_theorem",
    "files.serialize",
    "files.parse",
    "report.render",
    "generators.gen",
    "cli.startup",
    "cli.gen",
    "cli.verify",
    "cli.compute",
)

PER_ROUND_COUNTERS = ("verify.pass", "verify.fail", "verify.inapplicable", "macaulay.calls", "files.bytes")


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _rng_factory(workload: str, seed: int):
    return lambda r, stream: random.Random(f"{workload}/{seed}/{r}/{stream}")


def _commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _make_workload(name: str, seed: int, workdir: Path):
    """Imports cubicomb on first use, so that set-up probes time the import."""
    from spans import Tracer
    from workloads import WORKLOADS, Cli

    tr = Tracer(False)
    return WORKLOADS[name](_rng_factory(name, seed), workdir, Cli(ROOT), tr), tr


def _setup_probe(args) -> int:
    """Fresh-process set-up: import cubicomb and build round 0's inputs."""
    workdir = WORK / f"probe-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        t0 = perf_counter()
        wl, _ = _make_workload(args.workload, args.seed, workdir)
        wl.make_round(0)
        elapsed = perf_counter() - t0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"setup_s": elapsed}))
    return 0


def _measure_setup(args, speed) -> tuple[list[float], list[float]]:
    """Set-up times of fresh processes, as measured and at the reference speed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--setup-probe",
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0",
    ]
    raw, spans = [], []
    for _ in range(SETUP_REPEATS):
        speed.sample()
        t0 = perf_counter()
        done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=True)
        spans.append((t0, perf_counter()))
        raw.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    speed.sample()
    return raw, [t * speed.scale(*span) for t, span in zip(raw, spans)]


class Phase:
    """Item times and failures of one pass over whole rounds.

    ``raw`` holds the item wall times and ``times`` the same times at the
    reference speed (see ``reference.py``); every reported time uses
    ``times``.
    """

    def __init__(self):
        self.raw: list[float] = []
        self.times: list[float] = []
        self.intervals: list[tuple[float, float]] = []
        self.round_ends: list[int] = []  # item count at the end of each round
        self.labels: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.rounds = 0
        self.round_rates: list[float] = []  # items per second of item time, per round

    def note(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append(f"{label}: {'; '.join(problems)}")


def _run_rounds(wl, tr, speed, seconds: float, max_rounds: int | None = None) -> tuple[Phase, list]:
    """Whole rounds until ``seconds`` have passed, or until ``max_rounds`` are done.

    A round is cut short only when the run is OVERRUN_S past ``seconds``.
    The reference computation is sampled between items, never inside one.
    """
    phase = Phase()
    speed.sample()
    first_round = None
    t_end = perf_counter() + seconds
    r = 0
    while True:
        items = wl.make_round(r)
        if first_round is None:
            first_round = items
        over = False
        for item in items:
            speed.maybe_sample()
            tr.item = f"{r}:{item.label}"
            t0 = perf_counter()
            elapsed = None
            try:
                with tr.span("item"):
                    out = wl.run(item)
                elapsed = perf_counter() - t0
                problems = wl.check(item, out)
                if tr.enabled:
                    wl.probe(item, out)
            except Exception as e:  # a failing item is recorded, not fatal
                problems = [f"raised {type(e).__name__}: {e}"]
            phase.labels.append(tr.item)
            phase.raw.append(perf_counter() - t0 if elapsed is None else elapsed)
            phase.intervals.append((t0, t0 + phase.raw[-1]))
            phase.note(tr.item, problems)
            over = perf_counter() > t_end + OVERRUN_S
            if over:
                break
        try:
            problems = wl.end_round(r)
        except Exception as e:  # as above
            problems = [f"raised {type(e).__name__}: {e}"]
        if problems is not None:
            phase.note(f"{r}:control", problems)
        phase.round_ends.append(len(phase.raw))
        phase.rounds += 1
        r += 1
        if over or (r >= max_rounds if max_rounds is not None else perf_counter() >= t_end):
            break
    speed.sample()
    phase.times = [t * speed.scale(*span) for t, span in zip(phase.raw, phase.intervals)]
    start = 0
    for end in phase.round_ends:
        phase.round_rates.append((end - start) / sum(phase.times[start:end]))
        start = end
    return phase, first_round


def _tail(times: list[float]) -> tuple[float, float]:
    """Value and percentile of the highest percentile with TAIL_BEYOND samples
    beyond it, and no higher than p99.

    Above p99 the tail measures the host, not the program: in a 20-s
    pile-sweep run on a shared 2-vCPU guest, tens of items stall for 5 to 12
    times their usual length, and the 11th-largest of 3,000 items is one of
    those stalls.
    """
    ordered = sorted(times)
    n = len(ordered)
    k = max(n - max(TAIL_BEYOND, n // 100) - 1, 0)
    return ordered[k], 100.0 * (k + 1) / n


def _input_record(items) -> dict:
    cells = [it for it in items if it.cells]
    n_cells = sum(len(it.cells) for it in cells)
    pairs = sum(len(it.cells) * (len(it.cells) - 1) // 2 for it in cells)
    meeting = sum(oracles.intersecting_pairs(it.cells) for it in cells)
    return {
        "complexes.cells": n_cells,
        "complexes.faces": sum(sum(it.f) for it in cells),
        "complexes.vertices": sum(it.f[0] for it in cells),
        "complexes.max_cell_dim": max((it.cell_dim for it in cells), default=-1),
        "complexes.cell_pairs": pairs,
        "complexes.intersecting_pairs": meeting,
        "complexes.intersecting_pair_ratio": meeting / pairs if pairs else 0.0,
    }


def _layer_metrics(tr, traced: Phase, untraced: Phase) -> dict[str, tuple[float, str]]:
    rounds = traced.rounds
    own = tr.self_times()
    out: dict[str, tuple[float, str]] = {}
    for name in LAYER_SPANS:
        out[name + "_s"] = (own.get(name, 0.0) / rounds, "s")
    out["complexes.validate_s"] = (out["complexes.build_s"][0] - out["complexes.closure_s"][0], "s")
    out["verify.all_s"] = (sum(tr.durations("verify.all")) / rounds, "s")
    cli_total = sum(sum(tr.durations(n)) for n in ("cli.gen", "cli.verify", "cli.compute"))
    out["cli.overhead_s"] = ((cli_total - sum(tr.durations("cli.replay"))) / rounds, "s")
    for name in PER_ROUND_COUNTERS:
        out[name] = (tr.counters.get(name, 0) / rounds, "bytes" if name == "files.bytes" else "count")
    out["macaulay.max_value"] = (tr.counters.get("macaulay.max_value", 0), "count")
    out["bench.unattributed_s"] = (own.get("item", 0.0) / rounds, "s")
    base = sum(untraced.times[: len(traced.times)])
    out["bench.trace_overhead"] = ((sum(traced.times) - base) / base, "ratio")
    out["bench.rounds"] = (rounds, "count")
    return out


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "cubicomb" / "__init__.py").is_file():
        print(f"error: no cubicomb sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        return _setup_probe(args)

    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return _run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:  # another run still has its directory there
            pass


def _run(args, workdir: Path) -> int:
    traced = bool(args.trace)
    wl, tr = _make_workload(args.workload, args.seed, workdir)
    seconds = args.seconds / 2 if traced else args.seconds
    speed = Speed()
    phase, first_round = _run_rounds(wl, tr, speed, seconds)
    kind = "children" if args.workload == "cli-roundtrip" else "self"
    who = resource.RUSAGE_CHILDREN if kind == "children" else resource.RUSAGE_SELF
    peak_mb = resource.getrusage(who).ru_maxrss / 1024
    record = _input_record(first_round)

    print(f"# cubicomb benchmark: workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"# python={platform.python_version()} commit={_commit()} nproc={os.cpu_count()}")
    print(f"# loop: closed, 1 client, 1 process, no threads; {phase.rounds} rounds of {len(first_round)} items")
    print("# inputs per round: " + " ".join(f"{k.split('.', 1)[1]}={v:g}" for k, v in record.items()))

    attempted, failed, problems = phase.attempted, phase.failed, list(phase.problems)
    metrics: dict[str, tuple[float, str]] = {}
    notes: dict[str, str] = {}
    if traced:
        tr.enabled = True
        traced_phase, _ = _run_rounds(wl, tr, speed, TRACED_LIMIT_S, max_rounds=phase.rounds)
        attempted += traced_phase.attempted
        failed += traced_phase.failed
        problems += traced_phase.problems
        metrics.update(_layer_metrics(tr, traced_phase, phase))
        metrics.update({k: (v, "count" if k != "complexes.intersecting_pair_ratio" else "ratio") for k, v in record.items()})
        OUT.mkdir(exist_ok=True)
        span_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        tr.dump(span_file)
        print(f"# spans: {len(tr.spans)} written to {span_file.relative_to(ROOT)}")
    else:
        tail, pct = _tail(phase.times)
        n = len(phase.times)
        setup_raw, setup = _measure_setup(args, speed)
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "items_per_s": (statistics.median(phase.round_rates), "1/s"),
            "item_p50_s": (statistics.median(phase.times), "s"),
            "item_tail_s": (tail, "s"),
            "peak_rss_mb": (peak_mb, "MB"),
            "correct_ratio": ((attempted - failed) / attempted, "ratio"),
        }
        OUT.mkdir(exist_ok=True)
        with open(OUT / f"items-{args.workload}-seed{args.seed}.json", "w", encoding="utf-8") as fh:
            json.dump({
                "items": list(zip(phase.labels, phase.times, phase.raw)),
                "setup_s": setup,
                "setup_raw_s": setup_raw,
                "reference_s": list(zip(speed.mids, speed.times)),
            }, fh)
        print(
            f"# reference: {len(speed.times)} samples, median {statistics.median(speed.times):.6g} s,"
            f" nominal {NOMINAL_S:g} s; times below are at the nominal speed"
        )
        notes = {
            "setup_s": f"n={len(setup)} fresh processes, as measured {statistics.median(setup_raw):.6g}",
            "items_per_s": f"n={phase.rounds} rounds of {len(first_round)} items, median",
            "item_p50_s": f"n={n}, as measured {statistics.median(phase.raw):.6g}",
            "item_tail_s": f"n={n} percentile=p{pct:.1f} beyond={n - round(pct * n / 100)}",
            "peak_rss_mb": f"n=1 process={kind}",
            "correct_ratio": f"n={attempted} failed_ratio={failed / attempted:g}",
        }

    for name, (value, unit) in metrics.items():
        print(f"metric {args.workload} {name} = {value!r} {unit} {notes.get(name, '')}".rstrip())
    for line in problems[:20]:
        print(f"# FAILED {line[:400]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
