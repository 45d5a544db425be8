"""One repetition of one workload, in a process of its own.

``run.py`` starts this script once per repetition, so each repetition's
``ru_maxrss`` is its own peak and no state carries over between them.
``--t-spawn`` is the parent's ``time.monotonic()`` just before the start,
so set-up time includes interpreter start and imports.

The last line of standard output is ``PERFBENCH_REP`` and the
repetition's measurements as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

MARKER = "PERFBENCH_REP "

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--tmp", required=True,
                        help="working directory for snapshots and journal")
    parser.add_argument("--t-spawn", type=float, required=True,
                        help="time.monotonic() when the parent started us")
    parser.add_argument("--trace", action="store_true",
                        help="install the per-layer tracer")
    parser.add_argument("--setup-only", action="store_true",
                        help="stop after set-up; report only setup_s")
    args = parser.parse_args(argv)
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    from workloads import run_rep

    rep = run_rep(args.workload, args.seed, args.tmp, args.t_spawn,
                  args.trace, args.setup_only)
    print(MARKER + json.dumps(rep))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
