#!/usr/bin/env python3
"""Check that a binary's matmul kernels start on 64-byte boundaries.

Usage: check_kernel_alignment.py <binary>

Lists the text symbols whose demangled name contains "raw_matmul" with
`nm -n -C` (the kernels themselves and the pool lambdas that run their
row blocks), skips the compiler's cold-path splits ("[clone .cold]",
which are never entered on the hot path and are not aligned), and fails
(exit 1) if any entry address is not 0 mod 64, or if no symbol matches
at all (a stripped binary proves nothing).

The build aligns function entries to 64 bytes (-falign-functions=64) so
that a code-size change elsewhere moves a kernel by whole cache lines; a
kernel off that grid means the flag was lost and a timing difference may
come from code layout rather than from the change being measured. CI runs
this over build/bench/bench_parallel_scaling.
"""

import argparse
import subprocess
import sys

PATTERN = "raw_matmul"
ALIGN = 64
TEXT_TYPES = {"t", "T", "w", "W"}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("binary", help="ELF binary to inspect")
    args = parser.parse_args()

    try:
        out = subprocess.run(
            ["nm", "-n", "-C", args.binary],
            check=True,
            capture_output=True,
            text=True,
        ).stdout
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"nm failed on {args.binary}: {err}", file=sys.stderr)
        return 1

    checked = 0
    misaligned = []
    for line in out.splitlines():
        parts = line.split(" ", 2)
        if len(parts) != 3 or parts[1] not in TEXT_TYPES:
            continue
        address, _, name = parts
        if PATTERN not in name or "[clone .cold]" in name:
            continue
        checked += 1
        offset = int(address, 16) % ALIGN
        print(f"{address}  {offset:2d} mod {ALIGN}  {name}")
        if offset != 0:
            misaligned.append(name)

    if checked == 0:
        print(f"no {PATTERN} text symbols in {args.binary}", file=sys.stderr)
        return 1
    if misaligned:
        print(
            f"{len(misaligned)} of {checked} {PATTERN} entries are not at "
            f"0 mod {ALIGN}",
            file=sys.stderr,
        )
        return 1
    print(f"all {checked} {PATTERN} entries at 0 mod {ALIGN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
