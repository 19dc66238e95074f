"""The ``lieq`` command.

    lieq verify (FILE | --packaged NAME) [--seed N] [--k N]

``verify`` checks every entry of a corpus file, or of a bundled one such as
``appendix_a.lalg``, at seeded parameter assignments and prints the report's
``to_text()`` exactly.  The exit status is 0 when every claim passes, 1 when
one fails, and 2 when the corpus cannot be read or verified.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from .corpus import packaged_corpus, parse_corpus, verify_entries


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="lieq", description="Exact workbench for small real Lie algebras.")
    commands = parser.add_subparsers(dest="command", required=True)
    verify = commands.add_parser("verify", help="verify a corpus claim by claim")
    source = verify.add_mutually_exclusive_group(required=True)
    source.add_argument("file", nargs="?", type=Path, help="a corpus file (.lalg)")
    source.add_argument("--packaged", metavar="NAME", help="a bundled corpus, e.g. appendix_b.lalg")
    verify.add_argument("--seed", type=int, default=1, help="sampling seed (default 1)")
    verify.add_argument("--k", type=int, default=3, help="assignments per entry (default 3)")
    args = parser.parse_args(argv)
    try:
        if args.packaged is not None:
            entries = packaged_corpus(args.packaged)
        else:
            entries = parse_corpus(args.file.read_text(encoding="utf-8"))
        report = verify_entries(entries, seed=args.seed, k=args.k)
    except (OSError, ValueError) as exc:  # unreadable file, ParseError, CorpusError
        print(f"lieq: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(report.to_text())
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
