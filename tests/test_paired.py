"""``tools/paired.py`` on two stub trees: run order, spreads, wins, claims, bounds and exit codes.

The command is a stub that logs which tree ran it and prints the next
entry of its tree's ``values.json`` as a ``bench/run.py`` metrics line.
"""

import json
import subprocess
import sys
from pathlib import Path

PAIRED = Path(__file__).parent.parent / "tools" / "paired.py"

STUB = """
import json, sys
from pathlib import Path

here = Path.cwd()
count = int((here / "count").read_text()) if (here / "count").exists() else 0
(here / "count").write_text(str(count + 1))
with open(sys.argv[1], "a") as log:
    log.write(here.name + "\\n")
run = json.loads((here / "values.json").read_text())[count]
print("a line that is not JSON")
print(json.dumps({"metrics": {name: {"value": v} for name, v in run["metrics"].items()}}))
sys.exit(run.get("exit", 0))
"""


ITEMS = {"name": "items_per_s", "better": "higher"}


def trees(tmp_path, base_runs, change_runs, end_to_end=(ITEMS,)):
    for name, runs in (("base", base_runs), ("change", change_runs)):
        root = tmp_path / name
        root.mkdir()
        (root / "values.json").write_text(json.dumps(runs))
    spec = {"end_to_end": list(end_to_end), "per_layer": []}
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps(spec))
    (tmp_path / "stub.py").write_text(STUB)


def paired(tmp_path, n):
    command = [sys.executable, str(tmp_path / "stub.py"), str(tmp_path / "log")]
    return subprocess.run(
        [sys.executable, str(PAIRED), str(tmp_path / "base"), str(tmp_path / "change"),
         "-n", str(n), "--", *command],
        capture_output=True, text=True, timeout=120,
    )


def test_paired_alternates_and_summarises(tmp_path):
    base = [{"metrics": {"items_per_s": x, "t": t}} for x, t in ((10, 1.0), (20, 2.0), (30, 4.0))]
    change = [{"metrics": {"items_per_s": x, "t": t}} for x, t in ((12, 1.0), (20, 1.0), (25, 5.0))]
    trees(tmp_path, base, change)
    done = paired(tmp_path, 3)
    assert done.returncode == 0, done.stderr
    order = (tmp_path / "log").read_text().split()
    assert order == ["base", "change", "change", "base", "base", "change"]
    summary = json.loads(done.stdout.splitlines()[-1])
    assert set(summary) == {"wall_s", "items_per_s", "t"}
    items, t = summary["items_per_s"], summary["t"]
    assert items["better"] == "higher" and t["better"] == "lower"
    assert items["base"] == {"median": 20, "q1": 15, "q3": 25}
    assert items["change"] == {"median": 20, "q1": 16, "q3": 22.5}
    assert t["base"] == {"median": 2.0, "q1": 1.5, "q3": 3.0}
    # one win, one tie and one loss on each metric: a tie is no win
    assert items["change_won"] == 1 and t["change_won"] == 1
    assert items["pairs"] == 3
    assert items["median_ratio"] == 1.0 and t["median_ratio"] == 1.0
    assert not items["claim_met"] and not t["claim_met"]


def test_paired_claims_a_gain_only_past_the_base_quartile_spread(tmp_path):
    # BASE reads 10..19 on every metric: median 14.5, quartiles 12.25 and
    # 16.75, so a claim needs a median gap over 4.5.
    def run(items, t, u):
        return {"metrics": {"items_per_s": items, "t": t, "u": u}}

    base = [run(10 + i, 10 + i, 10 + i) for i in range(10)]
    # items_per_s: every pair won by 5; t: every pair won by 1; u: won by 6
    # but pairs 1 and 2 tie, so only 8 of 10 are won.
    change = [run(15 + i, 9 + i, 10 + i if i in (1, 2) else 4 + i) for i in range(10)]
    trees(tmp_path, base, change)
    done = paired(tmp_path, 10)
    assert done.returncode == 0, done.stderr
    summary = json.loads(done.stdout.splitlines()[-1])
    items, t, u = summary["items_per_s"], summary["t"], summary["u"]
    assert (items["change_won"], items["claim_met"]) == (10, True)
    assert (t["change_won"], t["claim_met"]) == (10, False)
    assert (u["change_won"], u["claim_met"]) == (8, False)
    lines = {line.split(" ")[0]: line for line in done.stdout.splitlines()}
    assert lines["items_per_s"].endswith("claim met")
    assert lines["t"].endswith("claim not met")


def test_paired_flags_a_regression_past_a_bound_by_the_medians(tmp_path):
    def run(items, p50, t):
        return {"metrics": {"items_per_s": items, "item_p50_s": p50, "t": t}}

    # items_per_s falls 30% in the median against a 0.25 bound; item_p50_s
    # rises 20% against the same bound, and one pair rising 50% does not
    # move the median; t has no bound.
    base = [run(100, 1.0, 1.0)] * 3
    change = [run(70, 1.2, 9.0), run(70, 1.5, 9.0), run(70, 1.2, 9.0)]
    trees(tmp_path, base, change, (
        {"name": "items_per_s", "better": "higher", "bound": 0.25},
        {"name": "item_p50_s", "better": "lower", "bound": 0.25},
    ))
    done = paired(tmp_path, 3)
    assert done.returncode == 0, done.stderr
    summary = json.loads(done.stdout.splitlines()[-1])
    assert summary["items_per_s"]["regressed"] is True
    assert summary["item_p50_s"]["regressed"] is False
    assert "regressed" not in summary["t"] and "regressed" not in summary["wall_s"]
    lines = {line.split(" ")[0]: line for line in done.stdout.splitlines()}
    assert lines["items_per_s"].endswith("claim not met, regressed past bound 0.25")
    assert lines["item_p50_s"].endswith("claim not met, within bound 0.25")
    assert lines["t"].endswith("claim not met")


def test_paired_passes_a_failing_run_exit_code_through(tmp_path):
    runs = [{"metrics": {"items_per_s": 1}}] * 3
    trees(tmp_path, runs, runs[:1] + [{"metrics": {"items_per_s": 1}, "exit": 7}] + runs[2:])
    done = paired(tmp_path, 3)
    assert done.returncode == 7
    assert "exited 7" in done.stderr
    # pair 2 runs CHANGE first, and its failure stops the script there
    assert (tmp_path / "log").read_text().split() == ["base", "change", "change"]


def test_paired_refuses_trees_of_which_only_one_holds_compiled_bytecode(tmp_path):
    runs = [{"metrics": {"items_per_s": 1}}] * 2
    trees(tmp_path, runs, runs)
    for side in ("base", "change"):
        cache = tmp_path / side / "src" / "cubicomb" / "__pycache__"
        cache.mkdir(parents=True)
        # a cache directory with no compiled module in it counts as none
        (cache / "README").write_text("")
    done = paired(tmp_path, 2)
    assert done.returncode == 0, done.stderr
    summary = json.loads(done.stdout.splitlines()[-1])
    assert summary["items_per_s"]["bytecode_cached"] == {"base": False, "change": False}

    for count in tmp_path.glob("*/count"):
        count.unlink()
    (tmp_path / "change" / "src" / "cubicomb" / "__pycache__" / "cli.cpython-311.pyc").write_bytes(b"")
    done = paired(tmp_path, 2)
    assert done.returncode == 2
    assert str(tmp_path / "change") in done.stderr and "src/cubicomb/__pycache__" in done.stderr
    assert done.stdout == ""
    assert (tmp_path / "log").read_text().split() == ["base", "change", "change", "base"]

    (tmp_path / "base" / "src" / "cubicomb" / "__pycache__" / "cli.cpython-311.pyc").write_bytes(b"")
    done = paired(tmp_path, 2)
    assert done.returncode == 0, done.stderr
    summary = json.loads(done.stdout.splitlines()[-1])
    assert summary["wall_s"]["bytecode_cached"] == {"base": True, "change": True}
