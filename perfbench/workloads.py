"""The benchmark's workloads: fixed lists of items that call qknot's public API.

An item is one call into qknot: ``verify.run_suite``, a ``verify.check_*``
function, or ``qknot.cli.main([...])`` writing to a file.  The set of items of
a workload never changes; the run seed and the pass number only permute their
order (and the seed feeds ``run_suite``), so every pass does the same work.

Every item turns into one or more *outputs* ``(key, ok, digest)``.  ``ok`` is
the item's own verdict (no exception, CLI exit code 0, report status
``pass``); ``digest`` is the SHA-256 of the byte-deterministic part of its
output, compared by the caller against the digests frozen in
``digests.json``.

This module does not import qknot at import time, so the parent process can
read the workload table without paying for qknot's import.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Item:
    """One public qknot call.

    ``kind`` is ``"suite"`` (args: profile), ``"check"`` (args: the name of a
    ``verify`` function and its positional arguments) or ``"cli"`` (args: the
    argv without ``--output``).
    """

    kind: str
    args: tuple

    @property
    def id(self) -> str:
        if self.kind == "cli":
            return "cli " + " ".join(self.args)
        if self.kind == "check":
            name, *rest = self.args
            return f"{name}{tuple(rest)!r}"
        return f"run_suite({self.args[0]!r})"


def _cli(*argv: str) -> Item:
    return Item("cli", argv)


def _check(name: str, *args) -> Item:
    return Item("check", (name, *args))


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS: dict[str, tuple[Item, ...]] = {
    "suite-desk": (Item("suite", ("desk",)),),
    "series-scale": (
        _cli("series", "U", "--t", "2", "--m", "2", "--trunc", "70"),
        _cli("series", "U", "--t", "3", "--m", "1", "--trunc", "60"),
        _cli("series", "U", "--t", "1", "--m", "1", "--trunc", "120"),
        _cli("series", "hecke", "--t", "2", "--m", "1", "--trunc", "80"),
        _cli("series", "hecke", "--double", "--trunc", "120"),
        _cli("series", "theta", "--t", "2", "--m", "1", "--trunc", "6000", "--product-side"),
        _cli("check", "hecke", "--t", "2", "--m", "2", "--trunc", "50"),
        _cli("check", "bailey", "--t", "3", "--n", "6", "--trunc", "50"),
        _check("check_bailey_conjugate", "andrews", 20),
    ),
    "polys-scale": (
        _check("check_cyclotomic_coeffs", 2, 1, 24),
        _check("check_cyclotomic_coeffs", 3, 2, 16),
        _check("check_cyclotomic_coeffs", 4, 2, 12),
        _check("check_jones_consistency", 3, 20),
        _check("check_habiro_roundtrip", 2, 1, 12),
        _check("check_habiro_roundtrip", 3, 2, 8),
        _cli("series", "C", "--t", "3", "--m", "1", "--n", "25"),
    ),
    "roots-scale": (
        *(_check("check_duality", t, m, n) for t in (1, 2) for m in range(1, t + 1) for n in (24, 36)),
        *(_check("check_duality", 3, m, n) for m in (1, 2, 3) for n in (16, 24)),
        _check("check_jones_f_agreement", 2, 1, 24),
        _check("check_jones_f_agreement", 3, 1, 16),
        _check("check_jones_f_agreement", 3, 2, 20),
        _check("check_bernoulli_formula", 2, 1, 12),
        _check("check_bernoulli_formula", 3, 2, 8),
    ),
}


def ordered_items(workload: str, seed: int, pass_index: int = 0) -> list[Item]:
    """The workload's items in the order fixed by the run seed and the pass.

    Each pass of a run takes its own order, so that a median over the passes
    does not hang on one order's cache reuse or memory peak.
    """
    items = list(WORKLOADS[workload])
    random.Random(f"{seed}/{pass_index}").shuffle(items)
    return items


def run_item(item: Item, seed: int, out_path: Path):
    """Make the qknot call; return its raw output (digested after timing)."""
    from qknot import cli, verify

    if item.kind == "suite":
        return verify.run_suite(item.args[0], parallelism=1, seed=seed)
    if item.kind == "check":
        name, *args = item.args
        return getattr(verify, name)(*args)
    code = cli.main([*item.args, "--output", str(out_path)])
    return code, out_path.read_bytes() if out_path.exists() else b""


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _canonical(report: dict) -> str:
    """Report JSON without its timing, in a fixed key order."""
    report = {k: v for k, v in report.items() if k != "elapsed_ms"}
    return json.dumps(report, sort_keys=True, separators=(",", ":"))


def outputs(item: Item, raw) -> list[tuple[str, bool, str]]:
    """``(key, ok, digest)`` for every output of an item that returned."""
    if item.kind == "suite":
        out = []
        for rep in raw:
            d = rep.to_json_dict()
            if d["check_id"].startswith("mutation:"):
                # Where the mutation lands depends on the suite seed; a pass
                # already proves the witness found it there.
                d["params"] = {k: v for k, v in d["params"].items() if k != "injected"}
            key = d["check_id"] + json.dumps(d["params"], sort_keys=True)
            out.append((key, rep.status == "pass", _sha(_canonical(d))))
        return out
    if item.kind == "check":
        return [(item.id, raw.status == "pass", _sha(_canonical(raw.to_json_dict())))]
    code, data = raw
    if item.args[0] == "check":
        text = "\n".join(_canonical(json.loads(line)) for line in data.decode().splitlines())
    else:
        text = data.decode()
    return [(item.id, code == 0, _sha(text))]
