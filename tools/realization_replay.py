"""Time every call of the Q(w) realization check, call by call.

The calls are those of ``maclane-report`` and ``c13-report`` and of the
seeds a glued search can reach:

* ``phi_c8`` for both signs;
* ``check_realization`` of ``maclane_c8()`` on each ``phi_c8`` realization;
* ``glue_realization(sign, psi_generic(seed))`` and ``check_realization``
  of ``glue_c13()`` on its lines, for seeds 0..39 and both signs (seeds 17,
  20, 24, 28 and 36 are degenerate and exercise the ``extra`` path).

Each call runs best of ``REPEAT`` and is recorded with its seconds and a
sha256 of its output as JSON (the lines' ``to_json()``, or the report's
``to_json_dict()``), so runs of two commits can be checked for identical
output as well as compared for speed.  Run metadata (``git describe``, a
sha256 of the ``src/`` tree, Python, machine) is as in
``tools/kernel_replay.py``, whose helpers this script uses.

    python3 tools/realization_replay.py --label change --out BENCH.json

The program is imported from ``src/`` next to this script.  An existing
``--out`` file keeps its other labels.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from arrlcs import config, geom  # noqa: E402
from kernel_replay import replay_args, write_run  # noqa: E402

REPEAT = 5
SEEDS = range(40)


def calls():
    """(record fields, thunk) for every timed call, in order."""
    c8, c13 = config.maclane_c8(), config.glue_c13()
    for sign in ("+", "-"):
        yield {"call": "phi_c8", "sign": sign}, lambda sign=sign: geom.phi_c8(sign)
    for sign in ("+", "-"):
        lines = geom.phi_c8(sign)
        yield {"call": "check_realization", "config": "c8", "sign": sign}, lambda lines=lines: (
            geom.check_realization(c8, lines)
        )
    for sign in ("+", "-"):
        for seed in SEEDS:
            psi = geom.psi_generic(seed)
            yield {"call": "glue_realization", "sign": sign, "seed": seed}, lambda sign=sign, psi=psi: (
                geom.glue_realization(sign, psi)
            )
            lines = geom.glue_realization(sign, psi)
            yield {"call": "check_realization", "config": "c13", "sign": sign, "seed": seed}, lambda lines=lines: (
                geom.check_realization(c13, lines)
            )


def as_json(result) -> str:
    if isinstance(result, geom.RealizationReport):
        return json.dumps(result.to_json_dict(), sort_keys=True)
    return json.dumps([line.to_json() for line in result])


def replay(fields: dict, thunk) -> dict:
    best, digests, ok = float("inf"), set(), None
    for _ in range(REPEAT):
        t0 = time.perf_counter()
        result = thunk()
        best = min(best, time.perf_counter() - t0)
        digests.add(hashlib.sha256(as_json(result).encode()).hexdigest())
        if isinstance(result, geom.RealizationReport):
            ok = result.ok
    if len(digests) != 1:
        raise SystemExit(f"{fields}: equal calls gave different outputs")
    extra = {} if ok is None else {"ok": ok}
    return {**fields, **extra, "seconds": round(best, 6), "digest": digests.pop()}


def main() -> None:
    args = replay_args(__doc__)

    records = [replay(fields, thunk) for fields, thunk in calls()]
    totals: dict[str, float] = {}
    for rec in records:
        key = rec["call"] if "config" not in rec else f"{rec['call']} {rec['config']}"
        totals[key] = totals.get(key, 0.0) + rec["seconds"]

    run = write_run(args, "realization_replay.py", REPEAT, total_s={k: round(v, 4) for k, v in totals.items()}, inputs=records)
    degenerate = sorted({rec["seed"] for rec in records if rec.get("ok") is False and "seed" in rec})
    print(f"{args.label}: {len(records)} calls, seconds by call {run['total_s']}, "
          f"degenerate seeds {degenerate}")


if __name__ == "__main__":
    main()
