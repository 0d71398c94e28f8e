#!/usr/bin/env python3
"""Benchmark entry point: builds the runner from source, runs one seeded
workload, checks it, and prints the metrics.

    python3 perfbench/run.py --workload decode_batch --seed 1 \
        --seconds 10 --trace 0

Run from the root of the source tree. The build goes to
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench). The last
line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with every end-to-end metric (--trace 0, timings taken with tracing off)
or every per-layer metric (--trace 1). Above it a table gives each
metric's sample count, percentile used or ratio base. Exit status: 0 when
every output check passed, 1 when one failed, 2 when the benchmark could
not run (no source tree, build failure, timeout).
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import metrics  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SOURCE_ROOT = BENCH_DIR.parent
TARGET = "protea_perfbench"
BUILD_BUDGET_S = 700  # the first run in a checkout also builds
RUN_MARGIN_S = 150  # beyond --seconds: setups, references, the traced replay


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def run_bounded(cmd, deadline, **kwargs):
    """Runs cmd in its own process group until `deadline` (monotonic); on
    overrun the whole group (make, compilers) is killed and reaped. Returns
    (returncode, stdout) or fails."""
    with subprocess.Popen(cmd, start_new_session=True, **kwargs) as proc:
        try:
            out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            fail(f"{Path(cmd[0]).name} did not finish in time")
    return proc.returncode, out


def build_dir():
    root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not root.is_absolute():
        root = Path.cwd() / root
    return root / "perfbench"


def build(out_dir, deadline):
    """Configures (once) and builds the runner; returns the binary path."""
    if not (SOURCE_ROOT / "CMakeLists.txt").is_file() or not (SOURCE_ROOT / "src").is_dir():
        fail(f"no protea source tree around {BENCH_DIR}")
    out_dir.mkdir(parents=True, exist_ok=True)
    log_path = out_dir / "build.log"
    jobs = str(min(2, os.cpu_count() or 1))  # keep compiler memory small
    steps = []
    if not (out_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out_dir), "--target", TARGET, "-j", jobs])
    with open(log_path, "a") as log:
        for cmd in steps:
            try:
                code, _ = run_bounded(cmd, deadline, stdout=log, stderr=subprocess.STDOUT)
            except OSError as e:
                fail(f"cannot run {cmd[0]}: {e}")
            if code != 0:
                tail = log_path.read_text(errors="replace").splitlines()[-20:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed (log: {log_path})")
    return out_dir / TARGET


def binary_digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()[:16]


def ledger_check(out_dir, binary, raw):
    """Cross-run determinism guard: the exact part of a run (pass outcome
    digest and counters, engine MACs, cycle-model figures) must repeat bit
    for bit for the same binary, workload and seeds. The first run records
    it; later runs compare. Returns the error list."""
    record = {"pass": raw["passes"][0]["exact"], "table1_err_pct": raw["table1_err_pct"]}
    if "layers_exact" in raw:
        record["layers"] = raw["layers_exact"]
    ledger = out_dir / "ledger"
    ledger.mkdir(exist_ok=True)
    name = f"{binary_digest(binary)}-{raw['workload']}-{raw['seed']}"
    path = ledger / f"{name}.json"
    if not path.is_file():
        path.write_text(json.dumps(record, sort_keys=True))
        return []
    seen = json.loads(path.read_text())
    errors = []
    for part, value in record.items():
        if part in seen and seen[part] != value:
            errors.append(f"exact '{part}' differs from an earlier run with this seed")
    if "layers" in record and "layers" not in seen:
        seen["layers"] = record["layers"]
        path.write_text(json.dumps(seen, sort_keys=True))
    return errors


def print_summary(raw, table, errors):
    host = raw["host"]
    checks = raw["checks"]
    print(f"workload {raw['workload']}  seed {raw['seed']}  trace {int(raw['trace'])}")
    print(f"shape: {raw['shape']}")
    print("host: " + ", ".join(f"{k}={v}" for k, v in host.items()))
    print("requests: " + ", ".join(f"{k} {checks[k]}" for k in
                                   ("sent", "completed", "late", "shed", "cancelled", "failed")))
    width = max(len(name) for name in table)
    for name, (value, unit, note) in table.items():
        print(f"  {name:<{width}}  {value:>14.6g} {unit:<11} {note}")
    for e in errors:
        print(f"ERROR: {e}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=metrics.ALL)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    out_dir = build_dir()
    binary = build(out_dir, time.monotonic() + BUILD_BUDGET_S)

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    deadline = time.monotonic() + args.seconds + RUN_MARGIN_S
    code, stdout = run_bounded(cmd, deadline, stdout=subprocess.PIPE, text=True)
    lines = stdout.strip().splitlines()
    if code not in (0, 1) or not lines:
        fail(f"runner exited with {code}")
    raw = json.loads(lines[-1])

    errors = list(raw["checks"]["errors"])
    errors += metrics.check_exact_repeats(raw["passes"])
    errors += ledger_check(out_dir, binary, raw)
    try:
        table = metrics.per_layer(raw) if args.trace else metrics.end_to_end(raw)
    except metrics.BenchError as e:
        fail(str(e))
    correct = code == 0 and not errors

    print_summary(raw, table, errors)
    result = {
        "correct": correct,
        "attempted": raw["checks"]["sent"],
        "failed": raw["checks"]["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in table.items()},
    }
    print(json.dumps(result))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
