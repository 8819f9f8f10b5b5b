#!/usr/bin/env python3
"""Compare two JSONL telemetry traces family by family.

Prints each tracepoint family's record count in both traces, then
checks that the new trace differs from the old one only by *dropping*
records of the allowed families:

* every record outside the allowed families is byte-identical and in
  the same order in both traces;
* within each allowed family, the new records are an ordered
  subsequence of the old ones (records may vanish, never appear,
  change or move).

With no ``--allow`` the two traces must be identical. This is how a
change that removes work (for example no longer switching released
connections) proves it moved nothing else.

Usage::

    python tools/trace_family_diff.py OLD.jsonl NEW.jsonl --allow tdtcp:tdn_switch

Exit 0 when both checks hold, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from itertools import zip_longest
from typing import Iterator, Optional, Sequence, Tuple


def records(path: str) -> Iterator[Tuple[str, bytes]]:
    """Yield ``(family, raw line)`` for every record of a JSONL trace."""
    with open(path, "rb") as handle:
        for line in handle:
            if line.strip():
                yield json.loads(line)["tp"], line.rstrip(b"\n")


def family_counts(path: str) -> Counter:
    return Counter(family for family, _line in records(path))


def first_divergence(old: str, new: str, allowed: frozenset) -> Optional[str]:
    """Where the records outside ``allowed`` first differ, or None."""
    kept_old = (line for family, line in records(old) if family not in allowed)
    kept_new = (line for family, line in records(new) if family not in allowed)
    for index, (a, b) in enumerate(zip_longest(kept_old, kept_new)):
        if a != b:
            return (
                f"record {index} outside the allowed families differs:\n"
                f"  old: {a.decode() if a is not None else '<end of trace>'}\n"
                f"  new: {b.decode() if b is not None else '<end of trace>'}"
            )
    return None


def first_unmatched(old: str, new: str, family: str) -> Optional[str]:
    """The first new ``family`` record that is not in order among the
    old ones (None when new is an ordered subsequence of old)."""
    remaining = (line for fam, line in records(old) if fam == family)
    for line in (line for fam, line in records(new) if fam == family):
        if not any(candidate == line for candidate in remaining):
            return f"{family}: new record not an ordered subsequence of old:\n  {line.decode()}"
    return None


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", help="reference JSONL trace")
    parser.add_argument("new", help="JSONL trace to check against it")
    parser.add_argument("--allow", action="append", default=[], metavar="FAMILY",
                        help="family whose records may be dropped (repeatable)")
    args = parser.parse_args(argv)
    allowed = frozenset(args.allow)

    old_counts = family_counts(args.old)
    new_counts = family_counts(args.new)
    families = sorted(set(old_counts) | set(new_counts))
    width = max([len("family")] + [len(f) for f in families])
    print(f"{'family':<{width}} {'old':>10} {'new':>10} {'delta':>10}")
    for family in families:
        old_n, new_n = old_counts[family], new_counts[family]
        mark = "  (allowed)" if family in allowed else ""
        print(f"{family:<{width}} {old_n:>10,} {new_n:>10,} {new_n - old_n:>+10,}{mark}")
    print(f"{'total':<{width}} {sum(old_counts.values()):>10,} "
          f"{sum(new_counts.values()):>10,} "
          f"{sum(new_counts.values()) - sum(old_counts.values()):>+10,}")

    problems = [first_divergence(args.old, args.new, allowed)]
    problems += [first_unmatched(args.old, args.new, family) for family in sorted(allowed)]
    problems = [p for p in problems if p is not None]
    for problem in problems:
        print(f"FAIL: {problem}", file=sys.stderr)
    if problems:
        return 1
    print("ok: records outside the allowed families identical and in order; "
          "allowed families only dropped records")
    return 0


if __name__ == "__main__":
    sys.exit(main())
