"""Command line front end.

Subcommands: generate (full run from a config), verify (re-check stored
outputs), export (re-project meshes), report (print a stored report).
Exit codes: 0 pass, 1 verification failure, 2 configuration error,
3 numerical failure.  Errors print one line to stderr in the form
'error: <kind>: <message>'.  Subcommands run with numpy's floating-point
warnings off: an overflow or a NaN reaches a gate, which refuses it, and
that gate's message is the one line printed.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .config import load_config
from .errors import ConfigError, InvalidInputError, NumericalError
from .pipeline import export_meshes, read_machine_report, run, verify_outputs
from .report import render_text

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="cmclab",
        description="constant mean curvature surface laboratory",
    )
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="run the full pipeline from a config file")
    g.add_argument("--config", required=True, help="path to a JSON run config")

    v = sub.add_parser("verify", help="re-run verification on stored outputs")
    v.add_argument("--in", dest="in_dir", required=True, help="run output directory")

    e = sub.add_parser("export", help="rewrite ball-model meshes from stored frames")
    e.add_argument("--in", dest="in_dir", required=True, help="run output directory")

    r = sub.add_parser("report", help="print a stored verification report")
    r.add_argument("--in", dest="in_dir", required=True, help="run output directory")
    r.add_argument(
        "--machine", action="store_true", help="emit the one-check-per-line format"
    )
    return p


def _cmd_generate(args) -> int:
    config = load_config(args.config)
    report = run(config)
    print(f"outputs written to {config.out_dir}")
    print(f"verification: {'PASS' if report.overall_pass() else 'FAIL'}")
    return EXIT_PASS if report.overall_pass() else EXIT_FAIL


def _cmd_verify(args) -> int:
    report = verify_outputs(args.in_dir)
    print(render_text(report), end="")
    return EXIT_PASS if report.overall_pass() else EXIT_FAIL


def _cmd_export(args) -> int:
    for path in export_meshes(args.in_dir):
        print(f"wrote {path}")
    return EXIT_PASS


def _cmd_report(args) -> int:
    text, report, _ = read_machine_report(args.in_dir)
    if args.machine:
        print(text, end="")
    else:
        print(render_text(report), end="")
    return EXIT_PASS if report.overall_pass() else EXIT_FAIL


_COMMANDS = {
    "generate": _cmd_generate,
    "verify": _cmd_verify,
    "export": _cmd_export,
    "report": _cmd_report,
}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        with np.errstate(all="ignore"):
            return _COMMANDS[args.command](args)
    except NumericalError as exc:
        print(f"error: numerical: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ConfigError, InvalidInputError, OSError, UnicodeDecodeError, MemoryError) as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
