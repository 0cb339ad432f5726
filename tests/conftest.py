import importlib.util
import pathlib
import re
import sys
import time

import pytest

from physkernel.unitdb import builtin_database

ROOT = pathlib.Path(__file__).resolve().parent.parent
CORPUS_DIR = ROOT / "corpus"

_CRITERION = re.compile(r"test_criterion_(\d{2})")
_SUITE_BUDGET_S = 60.0
_session_started = time.time()


def pytest_sessionstart(session):
    global _session_started
    _session_started = time.time()


@pytest.fixture(scope="session")
def db():
    return builtin_database()


@pytest.fixture(scope="session")
def corpus_dir():
    return CORPUS_DIR


@pytest.fixture(scope="session")
def gen():
    """The benchmark's statement generators, ``bench/gen.py``."""
    spec = importlib.util.spec_from_file_location(
        "bench_gen", ROOT / "bench" / "gen.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Print one verdict line per acceptance criterion."""
    seen: dict[str, bool] = {}
    for status in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(status, []):
            match = _CRITERION.search(getattr(report, "nodeid", ""))
            if match is None:
                continue
            num = match.group(1)
            seen[num] = seen.get(num, True) and status == "passed"
    if not seen:
        return
    writer = terminalreporter
    writer.section("acceptance criteria")
    for num in sorted(seen):
        verdict = "PASS" if seen[num] else "FAIL"
        writer.write_line(f"criterion {num}: {verdict}")
    elapsed = time.time() - _session_started
    within = elapsed < _SUITE_BUDGET_S
    writer.write_line(
        f"criterion 09 runtime budget (< {_SUITE_BUDGET_S:.0f}s): "
        f"{'PASS' if within else 'FAIL'} ({elapsed:.1f}s)")
