"""What a ``cubicomb`` process loads.

``import cubicomb.cli`` loads neither ``dataclasses`` (nor the ``inspect``
it pulls in), ``typing``, nor the verification half of the package:
``verify``, ``report`` and ``macaulay``, which need ``typing``, load when
``verify`` runs or when one of their names is first read from the package.
Each check runs in a fresh ``python -S`` child, so that no module the test
runner loaded counts (``site`` may load ``typing``).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
UNLOADED = (
    "dataclasses", "inspect", "typing", "cubicomb.verify", "cubicomb.report", "cubicomb.macaulay"
)


def child(code: str) -> list:
    """Run ``code`` in a fresh ``python -S`` with ``src`` on the path and
    return the JSON it prints on its last line."""
    done = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def loaded(before: str = "") -> str:
    return f"import json, sys\n{before}\nprint(json.dumps([m for m in {UNLOADED!r} if m in sys.modules]))"


def test_cli_import_loads_no_verification_module():
    assert child(loaded("import cubicomb.cli")) == []


def test_only_verify_loads_the_verification_modules(tmp_path):
    doc = tmp_path / "t.json"
    run = f"""import cubicomb.cli as cli, contextlib, io
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.entry(["gen", "torus", "3", "3", "-o", {str(doc)!r}]) == 0
    for inv in ("f", "hc", "links"):
        assert cli.entry(["compute", inv, {str(doc)!r}]) == 0"""
    assert child(loaded(run)) == []
    run = f"""import cubicomb.cli as cli, contextlib, io
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.entry(["verify", "all", {str(doc)!r}]) == 0"""
    assert child(loaded(run)) == ["typing", "cubicomb.verify", "cubicomb.report", "cubicomb.macaulay"]


def test_lazily_loaded_names_resolve():
    code = """import json, cubicomb
print(json.dumps([cubicomb.verify.REGISTRY[0].name, cubicomb.run_suite.__module__]))"""
    assert child(code) == ["adin-dehn-sommerville", "cubicomb.verify"]
    code = """import json
from cubicomb import *
print(json.dumps([run_suite.__module__, format_report.__module__, MacaulayDecomposition.__module__,
                  CubicalCell.__module__, "entry" in dir()]))"""
    assert child(code) == ["cubicomb.verify", "cubicomb.report", "cubicomb.macaulay", "cubicomb.complexes", False]
    code = """import json, cubicomb
try:
    cubicomb.no_such_name
except AttributeError as e:
    print(json.dumps([str(e), hasattr(cubicomb, "MVectorCheck"), len(cubicomb.__all__)]))"""
    message, found, count = child(code)
    assert message == "module 'cubicomb' has no attribute 'no_such_name'"
    assert found and count > 0
