"""One benchmark pass: run a workload's items once in this fresh interpreter.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's ``src``.
Prints one JSON object as its last stdout line:

    {"wall_s", "peak_rss_mb", "guard": [problems], "caches": {name: size},
     "outputs": [[key, ok, digest]], "errors": {item id: error},
     "item_s": {item id: seconds}, "numpy": version loaded by qknot or null,
     "layers": {metric: value}  (traced passes only)}

``wall_s`` runs from the first item's start to the last item's end; outputs
are digested after that.  Before the first item, every ``lru_cache`` in qknot
must be empty (the pass starts cold); any violation lands in ``guard`` and
makes the whole pass count as failed.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import shutil
import sys
import time
from pathlib import Path

import tracer as tracing
import workloads


def lru_caches() -> dict[str, object]:
    return {
        f"{m.__name__}.{name}": obj
        for m in tracing.qknot_modules()
        for name, obj in vars(m).items()
        if hasattr(obj, "cache_info") and getattr(obj, "__module__", None) == m.__name__
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pass-index", type=int, default=0, help="picks the item order with the seed")
    ap.add_argument("--work-dir", required=True, help="scratch space for CLI outputs")
    ap.add_argument("--trace-file", help="trace this pass and write its spans here")
    ap.add_argument("--untraced-wall", type=float, default=0.0,
                    help="wall_s of the matching untraced pass, for the overhead")
    ap.add_argument("--plant-unwrapped", action="store_true",
                    help="self-test: leave one unwrapped binding and expect the tracer to find it")
    args = ap.parse_args(argv)

    import qknot
    import qknot.cli  # noqa: F401  (`import qknot` leaves the CLI module unloaded)

    caches = lru_caches()
    guard = [
        f"{name} holds {c.cache_info().currsize} entries before the first item"
        for name, c in caches.items()
        if c.cache_info().currsize
    ]
    src = Path(__file__).resolve().parent.parent / "src"
    if not Path(qknot.__file__).resolve().is_relative_to(src):
        guard.append(f"qknot was imported from {qknot.__file__}, not from {src}")

    tracer = None
    if args.trace_file:
        tracer = tracing.Tracer()
        tracer.install()
        if args.plant_unwrapped:
            qknot.laurent._planted = caches["qknot.laurent.qbinomial"]
        guard += tracer.unwrapped()
        if args.plant_unwrapped:
            del qknot.laurent._planted

    work = Path(args.work_dir)
    work.mkdir(parents=True, exist_ok=True)
    items = workloads.ordered_items(args.workload, args.seed, args.pass_index)
    raws: list = []
    errors: dict[str, str] = {}
    item_s: dict[str, float] = {}
    sink = io.StringIO()
    started = time.perf_counter()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        for i, item in enumerate(items):
            call = lambda: workloads.run_item(item, args.seed, work / f"item{i}.out")
            t0 = time.perf_counter()
            try:
                raws.append(tracer.run_item(item.id, call) if tracer else call())
            except (Exception, SystemExit) as exc:  # an item that raises counts as failed
                raws.append(None)
                errors[item.id] = f"{type(exc).__name__}: {exc}"
            item_s[item.id] = time.perf_counter() - t0
    wall_s = time.perf_counter() - started
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        tracer.uninstall()

    outputs = []
    for item, raw in zip(items, raws):
        if raw is not None:
            outputs.extend(workloads.outputs(item, raw))
    shutil.rmtree(work, ignore_errors=True)
    result = {
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "guard": guard,
        "caches": {name: c.cache_info().currsize for name, c in caches.items()},
        "outputs": outputs,
        "errors": errors,
        "item_s": item_s,
        "numpy": getattr(sys.modules.get("numpy"), "__version__", None),
    }
    if tracer:
        result["layers"] = tracer.layer_metrics(wall_s, args.untraced_wall, caches)
        tracer.write(args.trace_file, [item.id for item in items])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
