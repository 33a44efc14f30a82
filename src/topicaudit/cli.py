"""Command-line entry point.

One config file drives every stage; subcommands run them in order:
prepare, train, explain, profile, score, evaluate, repair, report.
Exit codes: 0 success, 1 usage problem, 2 stage failure.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import BLAS_THREAD_VARS

# Kernel explain forks a worker per core, and only from a process whose
# BLAS runs one thread (attribution._default_workers).  So the explain
# process sets each BLAS variable the caller left unset to 1.  That has
# to happen before numpy loads, so here, from argv, and not in main.
# The other stages keep the BLAS's own threads: train multiplies the
# dense message-by-feature matrix, and more threads speed that up.
if sys.argv[1:2] == ["explain"]:
    for _var in BLAS_THREAD_VARS:
        os.environ.setdefault(_var, "1")

from . import pipeline, report
from .config import ConfigError, load_config

COMMANDS = {
    "prepare": (pipeline.cmd_prepare, "split, tokenize and vectorize"),
    "train": (pipeline.cmd_train, "fit the classifier"),
    "explain": (pipeline.cmd_explain, "per-message attributions"),
    "profile": (pipeline.cmd_profile, "per-polarity topic models"),
    "score": (pipeline.cmd_score, "group profiles, divergence and "
                                  "uncertainty scores"),
    "evaluate": (pipeline.cmd_evaluate, "detector AUROC / FRR metrics"),
    "repair": (pipeline.cmd_repair, "reject and re-accept messages"),
    "report": (report.cmd_report, "markdown summary tables"),
}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad arguments; the contract reserves 2 for
    # stage failures, so turn parse problems into a catchable error.
    def error(self, message: str):
        raise UsageError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="topicaudit",
                     description="Profile why a spam classifier errs, "
                                 "score misclassification risk, and "
                                 "repair overzealous rejections.")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    for name, (_, blurb) in COMMANDS.items():
        cmd = sub.add_parser(name, help=blurb)
        cmd.add_argument("--config", required=True,
                         help="path to the pipeline config JSON")
        cmd.add_argument("--out", default=None,
                         help="output directory (overrides config)")
        cmd.add_argument("--seed", type=int, default=None,
                         help="global seed (overrides config)")
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    if args.command is None:
        print("usage error: missing subcommand "
              f"(one of: {', '.join(COMMANDS)})", file=sys.stderr)
        return 1
    try:
        cfg = load_config(args.config, out_dir=args.out, seed=args.seed)
    except ConfigError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    if not cfg.out_dir:
        print("usage error: no output directory (set out_dir in the "
              "config or pass --out)", file=sys.stderr)
        return 1
    try:
        COMMANDS[args.command][0](cfg)
    except pipeline.StageError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
