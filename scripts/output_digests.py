"""Print one SHA-256 per benchmark catalogue op: a fingerprint of every output.

Usage (from the root of a checkout):

  python scripts/output_digests.py > digests.txt

It runs each op of the four benchmark workloads (``bench/workloads.py``:
every figure preset, the ``validate`` report, every ``exact_large`` point
and every ``closed_sweep`` sweep) once, against the checkout's own ``src/``,
and prints ``<workload> <op key> <sha256 of the op's text>`` per line, in
catalogue order.  Two checkouts give the same bytes on every op exactly
when ``diff`` finds no difference between their outputs:

  diff <(python ../before/scripts/output_digests.py) <(python scripts/output_digests.py)
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import workloads  # noqa: E402  (puts the checkout's src first on sys.path)


def main() -> int:
    for workload in workloads.WORKLOADS:
        for ops in workloads.catalogue(workload).values():
            for op in ops:
                text = workloads.run_op(op).text
                digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
                print(workload, op.key, digest)
    return 0


if __name__ == "__main__":
    sys.exit(main())
