#!/usr/bin/env python3
"""Count the non-test, non-vendor lines of Rust in the repository.

A line counts when it is not blank and sits in a `*.rs` file that is
not under a `tests/` directory. Each file is cut at its first
`#[cfg(test)]` that starts in column 0, so inline unit-test modules do
not count. `target/`, `perfbench/`, `crates/vendor/` and hidden
directories are skipped.

Usage, from anywhere in the repository:

    python3 scripts/count_lines.py          # per-crate counts, then the total
    python3 scripts/count_lines.py DIR      # the same for a checkout at DIR

Crates under `crates/` are listed by name; files elsewhere are listed
by their top-level directory (`src`, `examples`).
"""

import collections
import pathlib
import sys

SKIP_DIRS = {"target", "tests"}
SKIP_PATHS = {("perfbench",), ("crates", "vendor")}
TEST_CUT = "#[cfg(test)]"


def counted_lines(path):
    """Non-blank lines of `path` before its first column-0 test cut."""
    count = 0
    with open(path, encoding="utf-8") as f:
        for line in f:
            if line.startswith(TEST_CUT):
                break
            if line.strip():
                count += 1
    return count


def rust_files(root):
    """Every counted `*.rs` file under `root`, as paths relative to it."""
    stack = [pathlib.Path()]
    while stack:
        rel = stack.pop()
        for entry in sorted((root / rel).iterdir()):
            child = rel / entry.name
            if entry.is_dir():
                hidden = entry.name.startswith(".")
                skipped = entry.name in SKIP_DIRS or child.parts in SKIP_PATHS
                if not hidden and not skipped:
                    stack.append(child)
            elif entry.suffix == ".rs":
                yield child


def group(rel):
    """`crates/<name>` for a crate's file, else its top-level directory."""
    if rel.parts[0] == "crates" and len(rel.parts) > 2:
        return rel.parts[1]
    return rel.parts[0] if len(rel.parts) > 1 else "."


def main(argv):
    if len(argv) > 2:
        sys.exit(__doc__)
    default = pathlib.Path(__file__).resolve().parent.parent
    root = pathlib.Path(argv[1]) if len(argv) == 2 else default
    per_group = collections.Counter()
    for rel in rust_files(root):
        per_group[group(rel)] += counted_lines(root / rel)
    width = max(map(len, per_group), default=0)
    for name, count in sorted(per_group.items()):
        print(f"{name:<{width}}  {count:>7,}")
    print(f"{'total':<{width}}  {sum(per_group.values()):>7,}")


if __name__ == "__main__":
    main(sys.argv)
