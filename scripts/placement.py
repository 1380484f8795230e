#!/usr/bin/env python3
"""Print where the linker placed the EMD solver's hot functions.

perfbench's emd-k32 throughput has moved by 5-13% between builds of the
same code whose `emd::transport::solve_core` started at a different
address mod 64, so two builds compare fairly only when their placement
is known. This script runs `nm -C` on a built binary and prints, for
every function of `emd::transport` that kept its own symbol (the rest
were inlined), its address and that address mod 64. Report its output
next to any benchmark pair of an EMD-heavy workload.

Usage, from the repository root:

    python3 scripts/placement.py                    # perfbench/target/release/perfbench
    python3 scripts/placement.py path/to/binary ...  # any other builds
"""

import subprocess
import sys

DEFAULT = "perfbench/target/release/perfbench"
PREFIX = "emd::transport::"


def placement(binary):
    """`(name, address)` of each text symbol under `PREFIX`, by address."""
    out = subprocess.run(
        ["nm", "-C", binary], check=True, capture_output=True, text=True
    ).stdout
    symbols = []
    for line in out.splitlines():
        fields = line.split(maxsplit=2)
        if len(fields) == 3 and fields[1] in "tT" and fields[2].startswith(PREFIX):
            symbols.append((fields[2], int(fields[0], 16)))
    return sorted(symbols, key=lambda s: s[1])


def main():
    binaries = sys.argv[1:] or [DEFAULT]
    for binary in binaries:
        symbols = placement(binary)
        print(binary)
        if not symbols:
            print(f"  no {PREFIX} symbols (stripped, or not an EMD build?)")
        for name, address in symbols:
            print(f"  {address:#012x}  mod 64 = {address % 64:2d}  {name}")


if __name__ == "__main__":
    main()
