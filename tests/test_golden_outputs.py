"""The CLI's outputs, byte for byte, against the files in ``tests/golden``.

Covered: ``eval`` of the corpus in text and JSON; ``prove --format json``
and ``check --format json`` on every corpus entry; ``verify-script
--format json`` on each script in ``bench/scripts``; ``units --format
json``, which renders the dimension of every unit and kind.  Each output's
stdout is one golden file; ``exit_codes.json`` holds the exit codes.  The
commands run in process through :func:`physkernel.cli.main`.

Run this file as a script to print every output as one JSON object, or
with ``--write`` to rewrite the golden files (only when an output is meant
to change)::

    PYTHONPATH=src python tests/test_golden_outputs.py --write
"""

import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys

import pytest

from physkernel.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"
SCRIPTS = ROOT / "bench" / "scripts"
GOLDEN = ROOT / "tests" / "golden"
EXIT_CODES = "exit_codes.json"


def _commands() -> dict[str, list[str]]:
    """Golden file name -> CLI arguments."""
    commands = {
        "eval.txt": ["eval", str(CORPUS)],
        "eval.json": ["eval", str(CORPUS), "--format", "json"],
    }
    for path in sorted(CORPUS.glob("*/*.phys")):
        for command in ("prove", "check"):
            commands[f"{command}/{path.stem}.json"] = [
                command, str(path), "--format", "json"]
    for script in sorted(SCRIPTS.glob("*.script")):
        (path,) = CORPUS.glob(f"*/{script.stem}.phys")
        commands[f"verify-script/{script.stem}.json"] = [
            "verify-script", str(path), str(script), "--format", "json"]
    commands["units.json"] = ["units", "--format", "json"]
    return commands


def render_all() -> dict[str, object]:
    """Every golden file's expected content, keyed by its relative path."""
    outputs: dict[str, object] = {}
    codes: dict[str, int] = {}
    for name, argv in _commands().items():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            codes[name] = main(argv)
        assert err.getvalue() == "", (name, err.getvalue())
        outputs[name] = out.getvalue()
    outputs[EXIT_CODES] = codes
    return outputs


def _read_golden() -> dict[str, object]:
    golden: dict[str, object] = {}
    for name in _commands():
        golden[name] = (GOLDEN / name).read_text(encoding="utf-8")
    golden[EXIT_CODES] = json.loads(
        (GOLDEN / EXIT_CODES).read_text(encoding="utf-8"))
    return golden


def _write_golden(outputs: dict[str, object]) -> None:
    for name, content in outputs.items():
        path = GOLDEN / name
        path.parent.mkdir(parents=True, exist_ok=True)
        if name == EXIT_CODES:
            content = json.dumps(content, indent=2, sort_keys=True) + "\n"
        path.write_text(content, encoding="utf-8")


def test_cli_outputs_match_golden_files():
    outputs = render_all()
    golden = _read_golden()
    assert outputs.keys() == golden.keys()
    for name in outputs:
        assert outputs[name] == golden[name], name


def test_golden_file_set_is_complete():
    on_disk = {str(p.relative_to(GOLDEN)) for p in GOLDEN.rglob("*")
               if p.is_file()}
    assert on_disk == set(_commands()) | {EXIT_CODES}
    # 2 eval outputs, prove and check on the 8 entries, 2 scripts, units.
    assert len(_commands()) == 2 + 2 * 8 + 2 + 1


@pytest.mark.parametrize("seed", ["0", "1"])
def test_outputs_do_not_depend_on_the_hash_seed(seed):
    env = dict(os.environ, PYTHONHASHSEED=seed)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    out = subprocess.run([sys.executable, __file__], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr[-2000:]
    assert json.loads(out.stdout) == _read_golden()


if __name__ == "__main__":
    if sys.argv[1:] == ["--write"]:
        _write_golden(render_all())
    else:
        json.dump(render_all(), sys.stdout, ensure_ascii=False)
