"""The repository benchmark: host time, memory and decision latency.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sb-week-1k --seed 20071001 \\
        --seconds 30 --trace 0

Runs repetitions of one workload, each in a fresh process, until
``--seconds`` have passed (at least one), checks every repetition's
outputs, and prints as its last line one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

A failed check makes ``correct`` false and leaves ``metrics`` empty.
Without ``src/repro`` to measure it exits with code 2 and prints no
result.

With ``--trace 0`` the metrics are the end-to-end ones, each the median
over the repetitions.  With ``--trace 1`` repetitions alternate between
untraced and traced, and the metrics are the per-layer ones from the
traced repetitions plus the tracing overhead.  ``README.md`` defines
every metric and says why each workload was chosen.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from rep import MARKER  # noqa: E402
from workloads import PAPER_SEED, WORKLOADS  # noqa: E402

#: No repetition starts later than this into the run, so that the whole
#: run ends well inside its 180 s allowance.
START_LIMIT_S = 120.0
#: Hard limit for the whole run; a repetition still going is killed.
HARD_LIMIT_S = 170.0
#: setup_s is the median of at least this many set-ups: runs with fewer
#: repetitions add set-up-only processes after the timed ones.
MIN_SETUPS = 5

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "peak_rss_mb": "MB",
    "decision_p50_ms": "ms",
}


def _spawn(workload: str, seed: int, tmp: str, deadline: float,
           *flags: str) -> Dict:
    """Run one repetition in a fresh process and return its measurements."""
    os.makedirs(tmp)
    cmd = [
        sys.executable, os.path.join(HERE, "rep.py"),
        "--workload", workload, "--seed", str(seed), "--tmp", tmp, *flags,
    ]
    t_spawn = time.monotonic()
    cmd += ["--t-spawn", repr(t_spawn)]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True,
            timeout=max(1.0, deadline - t_spawn),
        )
    except subprocess.TimeoutExpired:
        return {"errors": ["repetition ran past the run's time limit"]}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines or not lines[-1].startswith(MARKER):
        tail = proc.stderr.strip().splitlines()[-5:]
        return {"errors": [f"repetition exited {proc.returncode}: {tail}"]}
    return json.loads(lines[-1][len(MARKER):])


def _describe(i: int, rep: Dict, traced: bool) -> str:
    if "run_s" not in rep:
        return f"rep {i}: failed: {rep['errors']}"
    decision = rep["decision"]
    text = (
        f"rep {i}{' (traced)' if traced else ''}: setup {rep['setup_s']:.3f} s, "
        f"run {rep['run_s']:.3f} s, peak RSS {rep['peak_rss_mb']:.1f} MB, "
        f"decision p50 {decision['p50_ms']:.3f} ms / "
        f"p99 {decision['p99_ms']:.3f} ms (n={decision['n']}), "
        f"{rep['failed']}/{rep['attempted']} failed, "
        f"{rep['snapshots']} snapshots ({rep['ckpt_bytes'] / 1e6:.1f} MB)"
    )
    if "lag" in rep:
        lag = rep["lag"]
        text += (
            f", generator lag p50 {lag['p50_ms']:.3f} ms / p99 "
            f"{lag['p99_ms']:.3f} ms (n={lag['n']}), {rep['sheds']} shed"
        )
    if rep["errors"]:
        text += f", CHECK FAILED: {rep['errors']}"
    return text


def _consistency_errors(name: str, reps: List[Dict]) -> List[str]:
    """Repetitions of one input must agree on every deterministic output."""
    prints = [json.dumps(r["fingerprint"], sort_keys=True)
              for r in reps if "fingerprint" in r]
    if len(set(prints)) > 1:
        return [f"{name}: repetitions disagree on the fingerprint: {prints}"]
    return []


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=PAPER_SEED)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measure for this long (whole repetitions)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"perfbench: no program to measure: {src}/repro is missing",
              file=sys.stderr)
        return 2
    # Byte-compile once, outside every repetition: users do not pay
    # compilation per run, so set-up time should not either.
    compileall.compile_dir(src, quiet=1)

    t_start = time.monotonic()
    deadline = t_start + HARD_LIMIT_S
    tmp_root = os.path.join(ROOT, ".perfbench_tmp", str(os.getpid()))
    untraced: List[Dict] = []
    traced: List[Dict] = []
    setups: List[float] = []
    errors: List[str] = []

    def spawn(*flags: str) -> Dict:
        tmp = os.path.join(tmp_root, str(len(setups)))
        rep = _spawn(args.workload, args.seed, tmp, deadline, *flags)
        errors.extend(rep.get("errors", ()))
        if "setup_s" in rep:
            setups.append(rep["setup_s"])
        return rep

    try:
        # Timed repetitions; with --trace 1 they alternate untraced and
        # traced, so the run has at least one of each.
        while not errors:
            elapsed = time.monotonic() - t_start
            enough = untraced and (traced or not args.trace)
            if enough and (elapsed >= args.seconds or elapsed >= START_LIMIT_S):
                break
            trace = bool(args.trace) and len(untraced) > len(traced)
            rep = spawn("--trace") if trace else spawn()
            if "run_s" not in rep:
                break
            (traced if trace else untraced).append(rep)
            print(_describe(len(untraced) + len(traced), rep, trace), flush=True)
        while (not errors and len(setups) < MIN_SETUPS
               and time.monotonic() - t_start < START_LIMIT_S):
            spawn("--setup-only")
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(tmp_root))
        except OSError:
            pass

    reps = untraced + traced
    errors += _consistency_errors(args.workload, reps)
    metrics: Dict[str, Dict[str, object]] = {}
    if not errors and args.trace:
        for name in traced[0]["layers"]:
            values = [r["layers"][name] for r in traced]
            metrics[name] = {
                "value": statistics.median(values),
                "unit": _layer_unit(name),
            }
        metrics["trace.overhead_s"] = {
            "value": statistics.median([r["run_s"] for r in traced])
            - statistics.median([r["run_s"] for r in untraced]),
            "unit": "s",
        }
        # The tail is too unsteady to gate (see README.md); it is
        # reported here, from the untraced repetitions.
        for key, unit in (("p99_ms", "ms"), ("n", "count")):
            values = [r["decision"][key] for r in untraced]
            metrics[f"decision.{key}"] = {
                "value": statistics.median(values),
                "unit": unit,
            }
    elif not errors:
        values = {
            "setup_s": setups,
            "run_s": [r["run_s"] for r in untraced],
            "peak_rss_mb": [r["peak_rss_mb"] for r in untraced],
            "decision_p50_ms": [r["decision"]["p50_ms"] for r in untraced],
        }
        for name, unit in END_TO_END_UNITS.items():
            metrics[name] = {
                "value": statistics.median(values[name]), "unit": unit
            }
        print(f"setup_s: median of {len(setups)} set-ups "
              f"{[round(x, 3) for x in setups]}")
    for error in errors:
        print(f"CHECK FAILED: {error}", file=sys.stderr)
    print(json.dumps({
        "correct": not errors and bool(untraced),
        "attempted": sum(r["attempted"] for r in reps) or 1,
        "failed": sum(r["failed"] for r in reps),
        "metrics": metrics,
    }))
    return 0


def _layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("mb"):
        return "MB"
    if name.endswith(("_rate", "_frac", "coverage")):
        return "fraction"
    return "count"


if __name__ == "__main__":
    raise SystemExit(main())
