"""What each entry point imports.

A cold command-line process pays for every module it loads, so each
subcommand loads only the layers it runs, and the packages resolve their
exported names on first access.  Records are built without ``dataclasses``.
"""

import ast
import functools
import importlib
import json
import os
import pathlib
import subprocess
import sys
import types

import pytest

import physkernel
import physkernel.checker
import physkernel.lang

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
CORPUS = SRC.parent / "corpus"
ENTRY = CORPUS / "electromagnetism" / "parallel_plate_capacitance.phys"
SCRIPT = SRC.parent / "bench" / "scripts"


def test_no_module_imports_dataclasses():
    for path in sorted((SRC / "physkernel").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not any(n.split(".")[0] == "dataclasses" for n in names), (
                f"{path.relative_to(SRC)}:{node.lineno}")


@pytest.mark.parametrize("package", [physkernel, physkernel.checker,
                                     physkernel.lang])
def test_every_exported_name_is_its_home_module_object(package):
    table = package._EXPORTS
    assert package.__all__ == list(table)
    for name, module in table.items():
        home = importlib.import_module(f"{package.__name__}.{module}")
        value = getattr(package, name)
        assert value is getattr(home, name), name
        if isinstance(value, (type, types.FunctionType)):
            assert value.__module__ == home.__name__, name
        assert name in dir(package)
    with pytest.raises(AttributeError):
        package.no_such_name


#: Modules a subcommand must not load; every one of them must not load these.
NEVER = {"dataclasses", "inspect", "difflib"}
NO_PROVER = {"physkernel.checker.prover", "physkernel.checker.ring",
             "physkernel.checker.script", "physkernel.harness",
             "physkernel.corpus"}
NO_HARNESS = {"physkernel.harness", "physkernel.corpus", "subprocess",
              "concurrent.futures"}


def _script_of(entry: pathlib.Path) -> pathlib.Path:
    return next(SCRIPT.glob(f"{entry.stem}.script"))


def _modules_after(code: str) -> tuple[object, list[str]]:
    """The value ``code`` leaves in ``status``, and every module loaded by
    then, in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    code += "\nprint(json.dumps([status, sorted(sys.modules)]), file=sys.stderr)"
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=60)
    return json.loads(out.stderr.splitlines()[-1])


@functools.cache
def _bare_modules() -> frozenset[str]:
    """What an interpreter loads before any physkernel code (its ``site``
    hooks may load some of the modules the tests below look for)."""
    return frozenset(_modules_after("import json, sys\nstatus = None")[1])


@pytest.mark.parametrize("argv, absent", [
    (["--help"], NO_PROVER),
    (["check", str(ENTRY)], NO_PROVER),
    (["units"], NO_PROVER | {"physkernel.lang.parser"}),
    (["prove", str(ENTRY)], NO_HARNESS),
    (["verify-script", str(ENTRY), str(_script_of(ENTRY))], NO_HARNESS),
    (["eval", str(CORPUS)], {"subprocess", "concurrent.futures"}),
])
def test_each_subcommand_loads_only_what_it_runs(argv, absent):
    status, loaded = _modules_after("import json, sys\n"
                                    "from physkernel.cli import main\n"
                                    "try:\n"
                                    f"    status = main({argv!r})\n"
                                    "except SystemExit as exc:\n"
                                    "    status = exc.code")
    assert status == 0
    assert "physkernel.cli" in loaded
    assert sorted((NEVER | absent) & (set(loaded) - _bare_modules())) == []
