"""Shared acceptance bookkeeping, verdict lines echoed after the run, and the
hypothesis profiles.  ``cubicomb``, loaded here, is derandomized so every run
draws the same examples, with no deadline (the host's speed drifts) and a
bounded example count.  ``deep`` draws 2,000 fresh examples per property;
select it with ``--hypothesis-profile=deep`` and pick the draws with
``--hypothesis-seed``."""

from hypothesis import settings

settings.register_profile(
    "cubicomb", derandomize=True, deadline=None, max_examples=200, database=None
)
settings.register_profile(
    "deep", derandomize=False, deadline=None, max_examples=2000, database=None
)
settings.load_profile("cubicomb")

_RESULTS: dict[int, bool] = {}


def begin(criterion: int) -> None:
    _RESULTS[criterion] = False


def finish(criterion: int, failures: list) -> None:
    _RESULTS[criterion] = not failures
    print(f"ACCEPTANCE {criterion}: {'PASS' if not failures else 'FAIL'}")
    assert not failures, f"criterion {criterion}: " + "; ".join(str(f) for f in failures[:10])


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for criterion in sorted(_RESULTS):
        verdict = "PASS" if _RESULTS[criterion] else "FAIL"
        terminalreporter.write_line(f"ACCEPTANCE {criterion}: {verdict}")
