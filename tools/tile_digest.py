"""Print a byte-identity digest of a tile directory.

    python tools/tile_digest.py DIR

One line ``relpath size sha256`` per ``.glb`` under DIR, sorted by path,
then one ``TOTAL n_files n_bytes sha256`` line over those lines. Two tile
directories hold the same bytes exactly when the outputs are equal, so a
byte-identity check of two checkouts is one ``diff`` of their outputs.
"""

from __future__ import annotations

import hashlib
import os
import sys


def tile_lines(root: str) -> list[str]:
    lines = []
    for d, _, names in os.walk(root):
        for f in names:
            if f.endswith(".glb"):
                path = os.path.join(d, f)
                with open(path, "rb") as fh:
                    blob = fh.read()
                rel = os.path.relpath(path, root)
                lines.append(f"{rel} {len(blob)} {hashlib.sha256(blob).hexdigest()}")
    return sorted(lines)


def main(argv: list[str]) -> int:
    if len(argv) != 1 or not os.path.isdir(argv[0]):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    lines = tile_lines(argv[0])
    total = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    n_bytes = sum(int(line.split(" ")[1]) for line in lines)
    print("\n".join(lines + [f"TOTAL {len(lines)} {n_bytes} {total}"]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
