"""The OQL pipeline benchmark: one workload per call, in fresh processes.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload catalogue-cold --seed 1 --seconds 30 --trace 0

The workloads and metrics are those ``BENCHMARK.json`` at the root
declares (``workloads.py`` says what each workload stresses and why).
With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` a separate traced run reports the per-layer ones. Every
metric is printed by name with its unit, and the last line of standard
output is one JSON object: ``{"correct", "attempted", "failed",
"metrics"}``.

The workload runs in a fresh Python process with every ``REPRO_*``
variable removed from its environment, so a mode flag set for the test
suite cannot change what is measured. Set-up time is the median over
several fresh processes. ``perfbench/BASELINE.md`` records the metrics,
their layers and the figures at the commit that added the benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

#: Fresh processes that only set up, each timed, run half before and
#: half after the workload so that they sample the machine at both ends
#: of the run. One more runs first and is discarded: it pays for
#: compiling the sources to bytecode.
SETUP_PROBES = 8
#: Every process this run starts must end before this many seconds.
DEADLINE_S = 170.0

#: Printed for reading but not in the result line: only serving-mixed
#: has writes, and error_rate is ``failed / attempted``.
REPORTED = (
    ("raw_latency_p50_ms", "ms"),
    ("write_p50_ms", "ms"),
    ("write_p90_ms", "ms"),
    ("error_rate", "fraction"),
)


class RunError(Exception):
    pass


def clean_env() -> dict[str, str]:
    """This process's environment without any ``REPRO_*`` mode flag,
    importing ``repro`` from this checkout only."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def calibrate() -> float:
    """Seconds a fixed pure-Python loop takes here (the best of 3), to
    compare runs made on different machines. Metadata, not a metric."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(1_000_000):
            total += i * i % 7
        best = min(best, time.perf_counter() - start)
    return best


def call_worker(args: list[str], env: dict[str, str], deadline: float) -> dict[str, Any]:
    """Run ``worker.py`` in a fresh process; its last output line is JSON."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RunError("out of time before starting a workload process")
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), *args], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as err:
        raise RunError(f"workload process timed out after {timeout:.0f}s") from err
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RunError(f"workload process exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run(args: argparse.Namespace, spec: dict[str, Any]) -> dict[str, Any]:
    deadline = time.monotonic() + DEADLINE_S
    env = clean_env()
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "calibration_s": calibrate(),
    }
    print("meta " + json.dumps(meta))
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds)]
    if args.trace:
        out = call_worker(common + ["--trace", "1"], env, deadline)
        values = out["per_layer"]
        declared = spec["per_layer"]
    else:
        def probes(n: int) -> list[float]:
            return [call_worker(common + ["--setup-only"], env, deadline)["setup_s"]
                    for _ in range(n)]

        setup = probes(SETUP_PROBES // 2 + 1)[1:]
        out = call_worker(common + ["--trace", "0"], env, deadline)
        setup += [out["setup_s"]] + probes(SETUP_PROBES - SETUP_PROBES // 2)
        values = dict(out, setup_s=statistics.median(setup),
                      error_rate=out["failed"] / out["attempted"])
        declared = spec["end_to_end"]
        print(f"setup_s samples {json.dumps(setup)}")
        print(f"operations reads={out['reads']} writes={out['writes']} "
              f"kinds={out['kinds']} mismatches={out['mismatches']}")
        if out["cache"] is not None:
            print("cache " + json.dumps(out["cache"]))
        for name, unit in REPORTED:
            print(f"{name} {values[name]!r} {unit}")
    for error in out["errors"]:
        print("error " + error)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    for name, metric in metrics.items():
        print(f"{name} {metric['value']!r} {metric['unit']}")
    return {
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": metrics,
    }


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # On SIGTERM, unwind through subprocess.run, which kills and waits
    # for the workload process.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result = run(args, spec)
    except RunError as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
