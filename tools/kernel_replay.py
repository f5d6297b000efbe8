"""Replay every input of the exact Hermite kernel and time it, input by input.

Captures each ``exactlin._hnf_core`` call made by

* ``c13-verify``: one cold verification of C13 on C13 itself (the steps of
  perfbench's c13-direct sample, unrelabeled): build, R3, P3, R3⊥, Im δ̄,
  ker τ̃ = U, τ̃⁻¹(Im δ̄) = U+B, κ(plus, plus) and κ(plus, minus);
* ``u-lattice``: the canonical form of ``u_lattice(glue_c13())``, all of
  U reduced at once (1296 generator rows in A = ZZ^1104, rank 1068), as
  ``maclane-report``'s kernel check does on c8; ``Lattice`` reduces its
  basis on first use, so the source reads ``canonical_form``,

then replays each captured input best of ``REPEAT`` on fresh copies and
writes one record per input: source, calling function, shape, nonzeros in
and out, whether a transform is carried, seconds, and a sha256 of the
result ``(a, u, pivots)`` with each row's entries sorted by column, so
runs of two commits can be checked for identical output as well as
compared for speed.  Each run records ``git describe`` and a sha256 of
the ``src/`` tree it imported (``src_sha256``), so a run of uncommitted
code still names what it timed.

    python3 tools/kernel_replay.py --label change --out BENCH.json

The program is imported from ``src/`` next to this script.  An existing
``--out`` file keeps its other labels, so running a copy of the script in
a second checkout with another label puts both runs in one file.  The
other ``tools/*_replay.py`` scripts parse the same options and write their
run records through this script's ``replay_args`` and ``write_run``.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from arrlcs import config, exactlin, lcs  # noqa: E402

REPEAT = 5


def capture(work) -> list[tuple[str, list, int, list | None]]:
    """Run ``work()`` and return (caller, rows, ncols, transform) of every kernel call."""
    calls = []
    core = exactlin._hnf_core

    def recording(a, ncols, u):
        calls.append((sys._getframe(1).f_code.co_name, copy.deepcopy(a), ncols, copy.deepcopy(u)))
        return core(a, ncols, u)

    exactlin._hnf_core = recording
    try:
        work()
    finally:
        exactlin._hnf_core = core
    return calls


def c13_verify() -> None:
    data = lcs.build_lcs(config.glue_c13())
    data.r3, data.p3, data.r3perp, data.im_delta  # noqa: B018 - computed in order
    plus, minus = lcs.builtin_g_map("plus"), lcs.builtin_g_map("minus")
    g_pp, g_pm = lcs.glued_g_map(plus, plus), lcs.glued_g_map(plus, minus)
    checks = (
        lcs.tau_kernel_equals_u(data),
        lcs.tau_preimage_equals_u_plus_b(data),
        lcs.kappa(data, g_pp, g_pp).zero,
        not lcs.kappa(data, g_pp, g_pm).zero,
    )
    if not all(checks):
        raise SystemExit(f"C13 verification failed: {checks}")


def replay(caller, rows, ncols, u) -> dict:
    best, digests = float("inf"), set()
    for _ in range(REPEAT):
        a, t = copy.deepcopy(rows), copy.deepcopy(u)
        t0 = time.perf_counter()
        pivots = exactlin._hnf_core(a, ncols, t)
        best = min(best, time.perf_counter() - t0)
        digests.add(digest(a, t, pivots))
    if len(digests) != 1:
        raise SystemExit(f"{caller}: the kernel gave different results on equal inputs")
    return {
        "caller": caller,
        "rows": len(rows),
        "cols": ncols,
        "nnz_in": sum(map(len, rows)),
        "nnz_out": sum(map(len, a)),
        "transform": u is not None,
        "seconds": round(best, 6),
        "digest": digests.pop(),
    }


def digest(a, u, pivots) -> str:
    """sha256 of ``(a, u, pivots)`` with each row as its sorted ``(column, entry)`` items.

    A row's value does not depend on the order its entries were inserted
    in, as for ``IntMatrix.__eq__``, so neither does the digest.
    """
    def rows(m):
        return [sorted(row.items()) for row in m]

    key = (rows(a), None if u is None else rows(u), pivots)
    return hashlib.sha256(repr(key).encode()).hexdigest()


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            return next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "unknown")
    except OSError:
        return platform.processor() or "unknown"


def commit() -> str:
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return out.stdout.strip() or "unknown"


def src_sha256() -> str:
    """sha256 over the relative path and bytes of every file under ``src/``, in path order."""
    h = hashlib.sha256()
    for path in sorted(p for p in (ROOT / "src").rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        h.update(f"{path.relative_to(ROOT).as_posix()}\0".encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def replay_args(doc: str) -> argparse.Namespace:
    """Parse the ``--label`` and ``--out`` options of a replay script with docstring ``doc``."""
    ap = argparse.ArgumentParser(description=doc.split("\n\n")[0])
    ap.add_argument("--label", required=True, help="key of this run in the output file")
    ap.add_argument("--out", required=True, type=Path, help="JSON file to write (other labels are kept)")
    return ap.parse_args()


def write_run(args: argparse.Namespace, script: str, repeat: int, **fields) -> dict:
    """Write one run record under ``args.label`` into ``args.out`` and return it.

    The record is the run metadata (``commit``, ``src_sha256``, ``python``,
    ``machine``, ``repeat``) followed by ``fields``.  An existing file keeps
    its other labels.
    """
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc["command"] = f"python3 tools/{script} --label LABEL --out FILE"
    run = doc.setdefault("runs", {})[args.label] = {
        "commit": commit(),
        "src_sha256": src_sha256(),
        "python": platform.python_version(),
        "machine": f"{cpu_model()}, {os.cpu_count()} CPUs",
        "repeat": repeat,
        **fields,
    }
    args.out.write_text(dump(doc))
    return run


def main() -> None:
    args = replay_args(__doc__)
    sources = {"c13-verify": c13_verify, "u-lattice": lambda: lcs.u_lattice(config.glue_c13()).canonical_form}
    captured = [(source, call) for source, work in sources.items() for call in capture(work)]
    empty = sorted(set(sources) - {source for source, _ in captured})
    if empty:
        raise SystemExit(f"no kernel input captured from source(s): {', '.join(empty)}")
    records = [{"source": source, **replay(*call)} for source, call in captured]
    totals: dict[str, float] = {}
    for rec in records:
        totals[rec["source"]] = totals.get(rec["source"], 0.0) + rec["seconds"]

    run = write_run(args, "kernel_replay.py", REPEAT, total_s={k: round(v, 4) for k, v in totals.items()}, inputs=records)
    print(f"{args.label}: {len(records)} inputs, seconds by source {run['total_s']}")
    for rec in sorted(records, key=lambda rec: -rec["seconds"])[:5]:
        print(f"  {rec['source']:10} {rec['caller']:18} {rec['rows']:5} x {rec['cols']:<5} "
              f"nnz {rec['nnz_in']:>6} -> {rec['nnz_out']:<6} {rec['seconds']:.4f} s")


def dump(doc: dict) -> str:
    """``doc`` as indented JSON, with each input record on one line."""
    runs = []
    for label, run in doc["runs"].items():
        head = "".join(f"   {json.dumps(k)}: {json.dumps(v)},\n" for k, v in run.items() if k != "inputs")
        inputs = ",\n".join(f"    {json.dumps(rec)}" for rec in run["inputs"])
        runs.append(f'  {json.dumps(label)}: {{\n{head}   "inputs": [\n{inputs}\n   ]\n  }}')
    runs_text = ",\n".join(runs)
    return f'{{\n "command": {json.dumps(doc["command"])},\n "runs": {{\n{runs_text}\n }}\n}}\n'


if __name__ == "__main__":
    main()
