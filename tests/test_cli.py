"""Exit codes of the command-line interface, run as a separate process."""

import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _run(code: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-c", code], env=_env(),
                          capture_output=True, text=True, timeout=60)


def test_a_long_sum_checks_and_proves(tmp_path):
    # The sum is a tree 2,000 levels deep; no layer recurses on it.
    path = tmp_path / "deep.phys"
    path.write_text("theorem repeated_sum\n  (x : Length)\n"
                    f"  : {' + '.join(['x'] * 2000)} = 2000 * x\n",
                    encoding="utf-8")
    for command, verdict in (("check", "goal: homogeneous\n"),
                             ("prove", "proved (exactly)\n")):
        out = _run("import sys\nfrom physkernel.cli import main\n"
                   f"sys.exit(main([{command!r}, {str(path)!r}]))\n")
        assert out.returncode == 0, (command, out.stderr[-500:])
        assert out.stdout.startswith(verdict), out.stdout[:200]
        assert out.stderr == ""


def _cli(*argv: str) -> subprocess.CompletedProcess:
    return _run("import sys\nfrom physkernel.cli import main\n"
                f"sys.exit(main({list(argv)!r}))\n")


def test_fixed_constant_override_is_bad_input_on_every_subcommand(
        corpus_dir, tmp_path):
    path = str(corpus_dir / "electromagnetism"
               / "parallel_plate_capacitance.phys")
    script = tmp_path / "numeric.script"
    script.write_text("numeric\n", encoding="utf-8")
    for argv in (("check", path), ("prove", path),
                 ("verify-script", path, str(script)),
                 ("eval", str(corpus_dir)), ("units",)):
        out = _cli(*argv, "--constants", "pi = 3")
        assert out.returncode == 3, (argv, out.stdout[-500:])
        assert out.stdout == ""
        assert out.stderr == "error: 1:6: constant 'pi' is not overridable\n"


def test_constants_option_may_write_a_kind_unit(corpus_dir):
    path = str(corpus_dir / "mechanics"
               / "two_block_acceleration_identity.phys")
    for unit in ("unit(Acceleration)", "cast(std, Acceleration)"):
        out = _cli("prove", path, "--constants", f"g = 10 • {unit}")
        assert out.returncode == 0, (unit, out.stderr[-500:])
        assert out.stdout.startswith("proved (exactly)\n")


def test_inst_argument_may_name_a_front_matter_constant(tmp_path):
    path = tmp_path / "doubled_light.phys"
    path.write_text("name: doubled_light\n"
                    "constants: c = 3 • meter / second\n\n"
                    "theorem doubled_light\n"
                    "  (f : Speed -> Speed)\n"
                    "  (hv := forall w, f(w) = 2 * w)\n"
                    "  : f(c) = 6 • meter / second\n", encoding="utf-8")
    script = tmp_path / "doubled_light.script"
    script.write_text("inst hv c\nsubst hv@1\nnumeric\n", encoding="utf-8")
    out = _cli("verify-script", str(path), str(script))
    assert out.returncode == 0, out.stderr[-500:]
    assert out.stdout.startswith("proved (exactly)\ninst hv c\n")


def test_unexpected_exception_exits_internal_with_traceback(corpus_dir):
    path = corpus_dir / "mechanics" / "crate_friction_coefficients.phys"
    out = _run(
        "import sys\nimport physkernel.cli as cli\n"
        "import physkernel.checker.dims as dims\n"
        "def broken(*args, **kwargs):\n"
        "    raise ZeroDivisionError('planted')\n"
        "dims.check_dimensions = broken\n"
        f"sys.exit(cli.main(['check', {str(path)!r}]))\n")
    assert out.returncode == 4, out.stderr[-500:]
    assert "Traceback" in out.stderr
    assert out.stderr.rstrip().endswith("ZeroDivisionError: planted")


def test_huge_residual_coefficient_is_unknown_not_internal(tmp_path):
    path = tmp_path / "big.phys"
    path.write_text("theorem big\n  (n : Real)\n  : n = 2**20000\n",
                    encoding="utf-8")
    out = _cli("prove", str(path))
    assert out.returncode == 1, out.stderr[-500:]
    assert out.stdout == ("unknown: the goal does not follow by ring"
                          " arithmetic; residual: n - <20001-bit integer>\n")
    assert out.stderr == ""


def test_an_overflowing_value_is_unknown_not_internal(tmp_path):
    # exp, and a real power through its exp, past the decimal exponent
    # range; the third reaches the refutation witness through a consumed
    # definition, and the fourth a side condition on a constant, in range,
    # whose square is not.  Each step ends Unknown and says why.
    statements = [
        "theorem e (x : Real) (h := x = 1) : exp(10 ** 7) = x",
        "theorem e (x : Real) (h := x = 1) : rpow(10, exp(30)) = x",
        "theorem e (x y : Real) (h := x = exp(10 ** 7)) (hy := y = 2)"
        " : y = 3",
        "constants: g = exp(1500000) • meter / second**2\n"
        "theorem e (x : Real) : x * g**2 / g**2 = x",
    ]
    paths = []
    for k, text in enumerate(statements):
        paths.append(str(tmp_path / f"overflow{k}.phys"))
        pathlib.Path(paths[-1]).write_text(text + "\n", encoding="utf-8")
    out = _run("from physkernel.cli import main\n"
               f"for path in {paths!r}:\n    print(main(['prove', path]))\n")
    overflow = "a value overflows the decimal exponent range (1e999999)"
    assert out.stdout.splitlines() == [
        f"unknown: evaluation failed: {overflow}", "1",
        f"unknown: evaluation failed: {overflow}", "1",
        "unknown: goal is exactly false, but consumed hypothesis 'h' failed"
        f" to evaluate: {overflow}", "1",
        "unknown: side condition g**2 ≠ 0 cannot be checked: a value"
        " overflows the decimal exponent range", "1"], out.stderr[-500:]
    assert out.stderr == ""


def test_a_digit_like_character_is_bad_input(tmp_path):
    # "²" is a digit to str.isdigit, but no number starts with it.
    path = tmp_path / "square.phys"
    path.write_text("theorem t (x : Length) : x = ² • meter\n",
                    encoding="utf-8")
    out = _cli("check", str(path))
    assert out.returncode == 3, out.stderr[-500:]
    assert out.stderr == "error: 1:30: unexpected character '²'\n"


def _bad_input(cases) -> None:
    """Run ``main`` on each argv in one process: each exits 3 with its
    message as one ``error:`` line."""
    out = _run("from physkernel.cli import main\n"
               f"for argv, _ in {cases!r}:\n    print(main(argv))\n")
    assert out.stdout.split() == ["3"] * len(cases), out.stderr[-500:]
    assert out.stderr == "".join(f"error: {message}\n"
                                 for _, message in cases)


def test_unreadable_input_is_bad_input(corpus_dir, tmp_path):
    binary = tmp_path / "binary.phys"
    binary.write_bytes(b"theorem t (x : Length) : x = x\xff\n")
    missing = tmp_path / "missing.phys"
    _bad_input([
        (["prove", str(corpus_dir)],
         f"[Errno 21] Is a directory: '{corpus_dir}'"),
        (["check", str(binary)],
         f"{binary} is not UTF-8 text: 'utf-8' codec can't decode byte 0xff"
         " in position 30: invalid start byte"),
        (["check", str(missing)],
         f"[Errno 2] No such file or directory: '{missing}'"),
    ])


def test_eval_counts_must_be_positive(corpus_dir):
    corpus = str(corpus_dir)
    _bad_input([
        (["eval", corpus, "-k", "0"], "-k must be positive, not 0"),
        (["eval", corpus, "--jobs", "0"], "--jobs must be positive, not 0"),
        (["eval", corpus, "--timeout", "-1"],
         "--timeout must be positive, not -1.0"),
        (["eval", corpus, "--timeout", "nan"],
         "--timeout must be positive, not nan"),
    ])


def test_an_empty_corpus_or_an_unwritable_output_is_bad_input(corpus_dir,
                                                              tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    (empty / "manifest.json").write_text('{"entries": {}}', encoding="utf-8")
    _bad_input([
        (["eval", str(empty)],
         f"corpus validation failed:\n  - corpus has no entries: {empty}"),
        *((["eval", str(corpus_dir), option, str(tmp_path)],
           f"[Errno 21] Is a directory: '{tmp_path}'")
          for option in ("--report", "--attempts")),
    ])


def test_eval_refuses_an_unwritable_output_before_the_run(corpus_dir,
                                                          tmp_path):
    # run_eval must not be called, and the --report file written by an
    # earlier run must keep its text when the --attempts path is refused.
    report = tmp_path / "report.json"
    report.write_text("earlier report\n", encoding="utf-8")
    out = _run("import sys\nimport physkernel.harness as harness\n"
               "harness.run_eval = lambda *a, **k: sys.exit(99)\n"
               "from physkernel.cli import main\n"
               f"sys.exit(main(['eval', {str(corpus_dir)!r}, '--report', "
               f"{str(report)!r}, '--attempts', {str(tmp_path)!r}]))\n")
    assert out.returncode == 3, out.stderr[-500:]
    assert out.stderr == f"error: [Errno 21] Is a directory: '{tmp_path}'\n"
    assert report.read_text(encoding="utf-8") == "earlier report\n"


def test_a_reader_that_closes_stdout_leaves_the_exit_code(corpus_dir):
    # The read end of stdout is closed before the command writes: the
    # output is dropped, and the command exits with its own code, not 4.
    plate = corpus_dir / "electromagnetism" / "parallel_plate_capacitance.phys"
    rope = str(corpus_dir / "mechanics" / "rope_friction_turns.phys")
    script = SRC.parent / "bench" / "scripts" / f"{plate.stem}.script"
    for argv, code in ((["units"], 0), (["check", rope], 0),
                       (["prove", rope], 1),
                       (["verify-script", str(plate), str(script)], 0)):
        read, write = os.pipe()
        os.close(read)
        try:
            out = subprocess.run(
                [sys.executable, "-m", "physkernel.cli", *argv], env=_env(),
                stdout=write, stderr=subprocess.PIPE, text=True, timeout=60)
        finally:
            os.close(write)
        assert (out.returncode, out.stderr) == (code, ""), argv
