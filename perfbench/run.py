"""qknot benchmark: end-to-end and per-layer metrics of exact q-series checks.

Run from the root of a checkout:

    python3 perfbench/run.py --workload suite-desk --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one after another
    python3 perfbench/run.py --selftest                # seeds, tracing and digests agree
    python3 perfbench/run.py --freeze                  # rewrite digests.json (trusted code only)

With ``--trace 0`` a run measures ``setup_s`` (median over fresh interpreters
importing qknot), then runs the workload's items in fresh single-threaded
interpreters, one pass each, for about ``--seconds`` in all;
``wall_s`` and ``peak_rss_mb`` are medians over those passes.  With
``--trace 1`` it runs one untraced and one traced pass and reports the
per-layer metrics of the traced one; ``trace.overhead_s`` is the difference
of their wall times.  Every output is checked against ``digests.json``; an
item fails if it raises, exits non-zero, reports anything but ``pass`` or
digests differently.  The last stdout line is the result JSON.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"
DIGESTS = BENCH / "digests.json"
SETUP_PER_PASS = 2
SETUP_MIN_SAMPLES = 7
PASS_TIMEOUT_S = 150

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith(("PYTHON", "QKNOT_"))}
    env.update(
        PYTHONPATH=str(SRC),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def run_record() -> dict:
    """What code ran, and on what machine; taken at the start of a run."""
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    try:
        loadavg = Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        loadavg = None
    sources = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        sources.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": sha,
        "src_sha256": sources.hexdigest(),
        "python": platform.python_version(),
        "numpy_installed": numpy_version,
        "cpu_count": os.cpu_count(),
        "loadavg": loadavg,
    }


def setup_sample() -> float:
    """Seconds from starting a fresh interpreter to `import qknot` returning."""
    t0 = time.monotonic()
    out = subprocess.run(
        [sys.executable, "-c", "import time, qknot; print(time.monotonic())"],
        env=child_env(), capture_output=True, text=True, timeout=60, check=True,
    )
    return float(out.stdout.split()[-1]) - t0


def run_pass(workload: str, seed: int, tag: str, pass_index: int = 0,
             trace_file: Path | None = None, untraced_wall: float = 0.0, plant: bool = False) -> dict:
    """One pass in a fresh interpreter; its JSON result, or a failure record."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--pass-index", str(pass_index), "--work-dir", str(WORK / tag)]
    if trace_file:
        cmd += ["--trace-file", str(trace_file), "--untraced-wall", repr(untraced_wall)]
    if plant:
        cmd.append("--plant-unwrapped")
    try:
        out = subprocess.run(cmd, env=child_env(), capture_output=True, text=True,
                             timeout=PASS_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        return {"crashed": f"pass timed out after {PASS_TIMEOUT_S} s"}
    lines = out.stdout.strip().splitlines()
    if out.returncode or not lines:
        return {"crashed": f"worker exited {out.returncode}: {out.stderr.strip()[-2000:]}"}
    return json.loads(lines[-1])


def score(result: dict, expected: dict[str, str]) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) of one pass against the frozen digests."""
    if "crashed" in result or result["guard"]:
        return len(expected), len(expected), result.get("guard") or [result["crashed"]]
    problems = [f"{item} raised {err}" for item, err in result["errors"].items()]
    bad = {key for key in expected if key not in {o[0] for o in result["outputs"]}}
    problems += [f"{key}: no output" for key in sorted(bad)]
    unexpected = 0
    for key, ok, digest in result["outputs"]:
        if key not in expected:
            unexpected += 1
            problems.append(f"{key}: output not in the frozen digests")
        elif not ok or digest != expected[key]:
            bad.add(key)
            problems.append(f"{key}: " + ("did not pass" if not ok else "differs from the frozen digest"))
    return len(expected) + unexpected, len(bad) + unexpected, problems


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_share", "_ratio")):
        return "ratio"
    if name.endswith(".bytes"):
        return "bytes"
    return "count"


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run of a workload: the result object plus diagnostics."""
    expected = json.loads(DIGESTS.read_text())[workload]
    tag = f"{workload}-{seed}"
    if trace:
        untraced = run_pass(workload, seed, f"{tag}-plain")
        traced = run_pass(workload, seed, f"{tag}-traced", 0, WORK / f"trace-{tag}.json",
                          untraced.get("wall_s", 0.0))
        passes = [untraced, traced]
        layers = traced.get("layers", {})
        metrics = {name: {"value": v, "unit": layer_unit(name)} for name, v in layers.items()}
    else:
        # Setup samples are spread between the passes, so that a slow spell
        # of the machine lands on few of them; the very first start also
        # writes bytecode and is dropped.
        setup_sample()
        setup: list[float] = []
        passes = []
        began = time.monotonic()
        while True:
            setup += [setup_sample() for _ in range(SETUP_PER_PASS)]
            passes.append(run_pass(workload, seed, f"{tag}-{len(passes)}", len(passes)))
            elapsed = time.monotonic() - began
            # Stop where the run ends nearest to `seconds`.
            if "crashed" in passes[-1] or elapsed * (len(passes) + 0.5) / len(passes) > seconds:
                break
        while len(setup) < SETUP_MIN_SAMPLES:
            setup.append(setup_sample())
        timed = [p for p in passes if "wall_s" in p] or [{"wall_s": math.nan, "peak_rss_mb": math.nan}]
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(p["wall_s"] for p in timed),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in timed),
        }
        metrics = {n: {"value": v, "unit": END_TO_END_UNITS[n]} for n, v in values.items()}
    attempted = failed = 0
    problems: list[str] = []
    for p in passes:
        a, f, probs = score(p, expected)
        attempted, failed, problems = attempted + a, failed + f, problems + probs
    if trace and sorted(map(tuple, passes[0].get("outputs", []))) != sorted(
        map(tuple, passes[1].get("outputs", []))
    ):
        failed = max(failed, 1)
        problems.append("the traced pass digests differently from the untraced one")
    return {
        "result": {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics},
        "problems": problems,
        "passes": len(passes),
        "pass_walls": [p.get("wall_s") for p in passes],
        "numpy_loaded": passes[0].get("numpy"),
        "caches": passes[-1].get("caches", {}),
    }


def freeze() -> int:
    """Write digests.json from one seed-0 pass per workload; every item must pass."""
    frozen = {}
    for workload in workloads.WORKLOADS:
        result = run_pass(workload, 0, f"freeze-{workload}")
        if "crashed" in result or result["guard"] or result["errors"] or not all(o[1] for o in result["outputs"]):
            print(f"{workload}: cannot freeze: {json.dumps(result)[:2000]}", file=sys.stderr)
            return 1
        frozen[workload] = {key: digest for key, _, digest in sorted(result["outputs"])}
        print(f"{workload}: {len(frozen[workload])} outputs frozen")
    DIGESTS.write_text(json.dumps(frozen, indent=1, sort_keys=True) + "\n")
    return 0


def selftest() -> int:
    """Two seeds and a traced pass give the frozen digests; the tracer finds a
    planted unwrapped binding."""
    frozen = json.loads(DIGESTS.read_text())
    failures = []
    for workload in workloads.WORKLOADS:
        plain = run_pass(workload, 1, f"self-{workload}-plain")
        traced = run_pass(workload, 2, f"self-{workload}-traced", 0, WORK / f"self-trace-{workload}.json")
        for label, result in (("seed 1", plain), ("seed 2, traced", traced)):
            _, failed, problems = score(result, frozen[workload])
            if failed:
                failures.append(f"{workload} ({label}): {problems[:5]}")
        if sorted(map(tuple, plain.get("outputs", []))) != sorted(map(tuple, traced.get("outputs", []))):
            failures.append(f"{workload}: seeds 1 and 2 (traced) give different digest sets")
        print(f"{workload}: seed 1 untraced and seed 2 traced checked")
    planted = run_pass("roots-scale", 0, "self-planted", 0, WORK / "self-trace-planted.json", plant=True)
    found = any("_planted" in g for g in planted.get("guard", []))
    print("planted unwrapped binding " + ("found" if found else "missed"))
    if not found:
        failures.append(f"a planted unwrapped binding went unnoticed: {planted}")
    for f in failures:
        print("FAIL " + f, file=sys.stderr)
    return 1 if failures else 0


def show(workload: str, run: dict) -> None:
    """Human-readable lines for one workload; the JSON result comes last."""
    res = run["result"]
    for name, m in res["metrics"].items():
        print(f"{workload:13s} {name:40s} {m['value']:>14.6g} {m['unit']}")
    ratio = res["failed"] / res["attempted"]
    print(f"{workload:13s} {'fail_ratio':40s} {ratio:>14.6g} ratio  "
          f"({res['failed']} of {res['attempted']} items failed over {run['passes']} passes)")
    for p in run["problems"][:20]:
        print(f"{workload}: {p}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="qknot benchmark")
    ap.add_argument("--workload", default="all", choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true", help="check seeds, tracing and digests")
    ap.add_argument("--freeze", action="store_true", help="rewrite digests.json from this code")
    args = ap.parse_args(argv)
    if not (SRC / "qknot" / "__init__.py").is_file():
        print(f"run.py: no qknot sources at {SRC}; run from the root of a qknot checkout",
              file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    if args.freeze:
        return freeze()
    if args.selftest:
        return selftest()
    record = run_record()
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    runs = {}
    for name in names:
        runs[name] = measure(name, args.seed, args.seconds, bool(args.trace))
        show(name, runs[name])
        run = runs[name]
        print(json.dumps({"record": {**record, "numpy_loaded_by_qknot": run["numpy_loaded"]},
                          "workload": name, "seed": args.seed, "pass_walls": run["pass_walls"],
                          "final_cache_sizes": run["caches"]}))
    if len(runs) == 1:
        final = runs[names[0]]["result"]
    else:
        final = {
            "correct": all(r["result"]["correct"] for r in runs.values()),
            "attempted": sum(r["result"]["attempted"] for r in runs.values()),
            "failed": sum(r["result"]["failed"] for r in runs.values()),
            "metrics": {f"{w}.{k}": v for w, r in runs.items() for k, v in r["result"]["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
