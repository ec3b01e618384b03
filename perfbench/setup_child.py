"""Set-up probe: import arstep, then make the first call of each size class.

run.py starts this script in a fresh interpreter, with PYTHONPATH set to
the checkout's src directory, and takes its wall time as one setup_s
sample: interpreter start, ``import arstep`` and the first, cold call of
each operation class of the workload.

usage: python3 perfbench/setup_child.py WORKLOAD SEED
"""

import sys

import arstep  # noqa: F401  -- the import is part of what is measured
from workloads import WORKLOADS


def main(workload, seed):
    seen = set()
    for case in WORKLOADS[workload](int(seed)).cases:
        if case.cls not in seen:
            seen.add(case.cls)
            case.call()


if __name__ == "__main__":
    main(*sys.argv[1:])
