"""Smoke check of the benchmark itself.

Usage: python3 perfbench/smoke.py [WORKLOAD ...]

For each workload (default: all), runs run.py for one second with --trace 0
and with --trace 1, and confirms that the last stdout line is a result whose
metrics are exactly the ones BENCHMARK.json names, each with its unit, that
each metric is also printed by name with its unit above that line, and that
no op failed.  It also confirms that layer_map.json maps every per-layer
metric, and that run.py exits non-zero without printing a result in a
directory holding only BENCHMARK.json and perfbench/.
Exits 0 when every check passes.
"""

from __future__ import annotations

import fnmatch
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIMEOUT = 600


def run_bench(cwd: Path, workload: str, trace: int):
    argv = [sys.executable, str(Path("perfbench") / "run.py"), "--workload", workload,
            "--seed", "0", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT)


def check_result(spec: dict, workload: str, trace: int) -> list:
    key = "per_layer" if trace else "end_to_end"
    res = run_bench(ROOT, workload, trace)
    where = f"{workload} --trace {trace}"
    if res.returncode != 0:
        return [f"{where}: exit {res.returncode}: {res.stderr.strip()[-500:]}"]
    lines = res.stdout.strip().splitlines()
    doc = json.loads(lines[-1])
    problems = []
    if set(doc) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(doc)}")
    if not doc.get("correct") or doc.get("failed") != 0 or doc.get("attempted", 0) < 1:
        problems.append(f"{where}: correct={doc.get('correct')} failed={doc.get('failed')}")
    wanted = {m["name"]: m["unit"] for m in spec[key]}
    if set(doc["metrics"]) != set(wanted):
        problems.append(f"{where}: metric names differ from BENCHMARK.json {key}")
    printed = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) == 3:
            printed[parts[0]] = parts[2]
    for name, unit in wanted.items():
        got = doc["metrics"].get(name, {})
        if got.get("unit") != unit or not isinstance(got.get("value"), (int, float)):
            problems.append(f"{where}: {name} lacks a numeric value with unit {unit}")
        if printed.get(name) != unit:
            problems.append(f"{where}: {name} is not printed with its unit {unit}")
    return problems


def check_layer_map(spec: dict) -> list:
    rules = json.loads((HERE / "layer_map.json").read_text(encoding="utf-8"))["layers"]
    patterns = [p for rule in rules for p in rule["metrics"]]
    return [
        f"layer_map.json does not map {m['name']}"
        for m in spec["per_layer"]
        if not any(fnmatch.fnmatchcase(m["name"], p) for p in patterns)
    ]


def check_bare_directory(workload: str) -> list:
    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    try:
        res = run_bench(bare, workload, 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if res.returncode == 0 or res.stdout.strip():
        return [f"bare directory: exit {res.returncode}, stdout {res.stdout.strip()[-200:]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = sys.argv[1:] or [w["name"] for w in spec["workloads"]]
    problems = check_layer_map(spec) + check_bare_directory(names[0])
    for name in names:
        for trace in (0, 1):
            found = check_result(spec, name, trace)
            print(f"{name} --trace {trace}: {'ok' if not found else 'FAILED'}", flush=True)
            problems += found
    for line in problems:
        print("FAILED " + line)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
