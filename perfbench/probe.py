"""Set-up probe: from a fresh interpreter, import lipbound and run the
workload's first op once. run.py times this script end to end.

    python3 perfbench/probe.py --workload NAME --seed N --workdir DIR
"""

import argparse
import shutil
import sys
from pathlib import Path

from workloads import WORKLOADS, load_lipbound


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args(argv)
    lb = load_lipbound(Path(__file__).resolve().parent.parent)
    wl = WORKLOADS[args.workload]
    try:
        items, _, _ = wl.prepare(lb, args.seed, args.workdir, count=1, references=False)
        wl.op(lb, items[0])
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
