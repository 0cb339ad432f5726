"""Command-line interface.

Subcommands:

``check FILE``
    Dimension-check a statement file and print the per-hypothesis report.
``prove FILE``
    Run the automatic prover; on success print the replayable script.
``verify-script FILE SCRIPT``
    Replay a hand-written derivation script against a statement.
``eval CORPUS``
    Run the pass@k evaluation harness over a corpus directory.
``units``
    Print the built-in unit/prefix/constant/kind tables.

Exit codes: 0 proved (or, for ``check``, homogeneous; for ``eval``, run
completed), 1 unknown / not homogeneous, 2 refuted, 3 bad input (including
input that nests too deeply to check), 4 internal error (an unexpected
exception; its traceback is printed).

Each subcommand imports the layers it runs when it runs: ``--help`` loads
none, ``check`` neither the prover nor the harness, and ``prove`` and
``verify-script`` not the harness.  A cold process pays for the import of
what it loads, and a checker often starts once per candidate proof.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import PhysKernelError

EXIT_PROVED = 0
EXIT_UNKNOWN = 1
EXIT_REFUTED = 2
EXIT_BAD_INPUT = 3
EXIT_INTERNAL = 4


def _load_db(args):
    from .unitdb import builtin_database
    db = builtin_database()
    if getattr(args, "constants", None):
        from .checker.evaluate import with_overrides
        from .lang.parser import parse_overrides
        db = with_overrides(db, parse_overrides(args.constants, db))
    return db


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as f:
        return f.read()


def _read_statement(path: str, db):
    from .lang.parser import parse_statement
    return parse_statement(_read(path), db)


def _verdict_payload(verdict) -> dict:
    from .checker.script import print_script
    if verdict.kind == "proved":
        return {
            "verdict": "proved",
            "approx_decided": verdict.approx_decided,
            "eval_count": verdict.eval_count,
            "script": print_script(verdict.steps),
            "side_conditions": [
                {"claim": sc.claim, "verified": sc.verified}
                for sc in verdict.side_conditions
            ],
        }
    if verdict.kind == "refuted":
        return {
            "verdict": "refuted",
            "env": {name: value for name, value in verdict.env},
            "detail": verdict.detail,
        }
    payload: dict = {"verdict": "unknown", "reason": verdict.reason}
    if verdict.failed_step is not None:
        payload["failed_step"] = verdict.failed_step
    if verdict.dim_report is not None:
        payload["dimensions"] = verdict.dim_report.to_records()
    return payload


def _print_verdict(verdict, fmt: str) -> int:
    from .checker.script import print_script
    if fmt == "json":
        print(json.dumps(_verdict_payload(verdict), indent=2,
                         ensure_ascii=False))
    else:
        if verdict.kind == "proved":
            flavor = "up to numeric tolerance" if verdict.approx_decided \
                else "exactly"
            print(f"proved ({flavor})")
            print(print_script(verdict.steps))
            for sc in verdict.side_conditions:
                status = {True: "holds", False: "violated",
                          None: "assumed"}[sc.verified]
                print(f"  side condition: {sc.claim}  [{status}]")
        elif verdict.kind == "refuted":
            print("refuted")
            for name, value in verdict.env:
                print(f"  {name} = {value}")
            print(f"  {verdict.detail}")
        else:
            print(f"unknown: {verdict.reason}")
            if verdict.failed_step is not None:
                print(f"  failed at step {verdict.failed_step}")
            if verdict.dim_report is not None:
                print(verdict.dim_report.render())
    return {"proved": EXIT_PROVED, "refuted": EXIT_REFUTED,
            "unknown": EXIT_UNKNOWN}[verdict.kind]


def _cmd_check(args) -> int:
    from .checker.dims import check_dimensions
    from .checker.evaluate import database_for
    db = _load_db(args)
    stmt = _read_statement(args.file, db)
    full_db = database_for(stmt, db)
    report = check_dimensions(stmt, full_db)
    if args.format == "json":
        print(json.dumps({"homogeneous": report.homogeneous,
                          "entries": report.to_records()},
                         indent=2, ensure_ascii=False))
    else:
        print(report.render())
    return EXIT_PROVED if report.homogeneous else EXIT_UNKNOWN


def _cmd_prove(args) -> int:
    from .checker.prover import auto_prove
    db = _load_db(args)
    stmt = _read_statement(args.file, db)
    verdict = auto_prove(stmt, db)
    return _print_verdict(verdict, args.format)


def _cmd_verify_script(args) -> int:
    from .checker.prover import check_derivation, database_for
    from .checker.script import parse_script
    db = _load_db(args)
    stmt = _read_statement(args.file, db)
    script_text = _read(args.script)
    full_db = database_for(stmt, db)
    steps = parse_script(script_text, stmt, full_db)
    verdict = check_derivation(stmt, steps, db)
    return _print_verdict(verdict, args.format)


def _cmd_eval(args) -> int:
    from pathlib import Path

    from .corpus import load_corpus
    from .harness import (BuiltinProver, ExternalProver, render_attempt_log,
                          render_report, run_eval)
    db = _load_db(args)
    entries = load_corpus(args.corpus, db)
    if args.prover_cmd:
        import shlex
        binding = ExternalProver(tuple(shlex.split(args.prover_cmd)),
                                 timeout=args.timeout)
    else:
        binding = BuiltinProver(db)
    report, attempts = run_eval(entries, binding, k=args.k, jobs=args.jobs,
                                db=db)
    if args.report:
        Path(args.report).write_text(report.to_json(), encoding="utf-8")
    if args.attempts:
        Path(args.attempts).write_text(render_attempt_log(attempts) + "\n",
                                       encoding="utf-8")
    if args.format == "json":
        print(report.to_json(), end="")
    else:
        print(render_report(report))
    return EXIT_PROVED


def _cmd_units(args) -> int:
    db = _load_db(args)
    if args.format == "json":
        obj = {
            "units": {n: db.units[n].dim.render() for n in sorted(db.units)},
            "prefixes": {n: str(db.prefixes[n].factor)
                         for n in sorted(db.prefixes)},
            "constants": {n: db.constants[n].quantity.render()
                          for n in sorted(db.constants)},
            "kinds": {n: db.kinds[n].dim.render() for n in sorted(db.kinds)},
        }
        print(json.dumps(obj, indent=2, ensure_ascii=False))
    else:
        print(db.render_table())
    return EXIT_PROVED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="physkernel",
        description="dimension checking and derivation verification for"
                    " physics statements")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--constants", metavar="OVERRIDES",
                       help="constant overrides, e.g. 'g = 9.8 •"
                            " meter / second**2'")

    p = sub.add_parser("check", help="dimension-check a statement file")
    p.add_argument("file")
    common(p)
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("prove", help="run the automatic prover")
    p.add_argument("file")
    common(p)
    p.set_defaults(fn=_cmd_prove)

    p = sub.add_parser("verify-script",
                       help="replay a derivation script against a statement")
    p.add_argument("file")
    p.add_argument("script")
    common(p)
    p.set_defaults(fn=_cmd_verify_script)

    p = sub.add_parser("eval", help="run the pass@k harness over a corpus")
    p.add_argument("corpus")
    p.add_argument("-k", type=int, default=1,
                   help="attempts per entry (default 1)")
    p.add_argument("--jobs", type=int, default=1,
                   help="external prover processes run at once (default 1);"
                        " the built-in prover runs one entry at a time")
    p.add_argument("--timeout", type=float, default=60.0,
                   help="per-attempt timeout for external provers, seconds")
    p.add_argument("--report", metavar="FILE",
                   help="write the deterministic JSON report here")
    p.add_argument("--attempts", metavar="FILE",
                   help="write the timed attempt log here")
    p.add_argument("--prover-cmd", metavar="CMD",
                   help="external prover command speaking line-JSON;"
                        " default is the built-in automatic prover")
    common(p)
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("units", help="print the built-in unit tables")
    common(p)
    p.set_defaults(fn=_cmd_units)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except PhysKernelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except Exception:  # a bug, not a verdict: never exit as Unknown (1)
        import traceback
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
