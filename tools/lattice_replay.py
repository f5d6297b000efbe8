"""Replay every quotient presentation and orthogonal complement of a cold verification.

For the MacLane configuration c8 and the glued C13, each with its bundled
labels and relabeled at seed 41 (perfbench's ``inputs.relabel``), runs the
steps of perfbench's c13-direct sample on a fresh ``LcsData``: build, R3,
P3, R3⊥, the τ̃ matrix, Im δ̄, ker τ̃ = U and τ̃⁻¹(Im δ̄) = U+B.  It
captures the lattice of every ``quotient_presentation`` and ``perp`` call
on the way (the first call per lattice; ``perp`` caches), then replays
each on a fresh copy of that lattice, best of ``REPEAT``, so the time
includes the lattice's own reduction.  A record holds the calling
function, the basis shape, the rank, the seconds and a sha256 of the
result: ``(divisors, projection, section)`` of a presentation, the
canonical form of a complement.  Im δ̄'s ``(h, keep, pivots)``, the one
reduction that membership and the kernel identities share, is replayed
and digested the same way.  Runs of two commits can so be checked for
identical output as well as compared for speed.  Run metadata is as in
``tools/kernel_replay.py``, whose helpers this script uses.

    python3 tools/lattice_replay.py --label change --out BENCH.json

The program is imported from ``src/`` next to this script.  An existing
``--out`` file keeps its other labels.
"""

from __future__ import annotations

import hashlib
import sys
import time
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(ROOT / "perfbench"))

from arrlcs import config, exactlin, lcs  # noqa: E402
from inputs import relabel  # noqa: E402
from kernel_replay import replay_args, write_run  # noqa: E402

REPEAT = 5
SEED = 41
CALLS = ("quotient_presentation", "perp")


def configurations():
    mods = SimpleNamespace(config=config)
    for name, cfg in (("c8", config.maclane_c8()), ("c13", config.glue_c13())):
        yield name, cfg
        yield f"{name}@{SEED}", relabel(mods, cfg, SEED).config


def verify(cfg) -> tuple[lcs.LcsData, tuple[bool, bool]]:
    data = lcs.build_lcs(cfg)
    data.r3, data.p3, data.r3perp, data.tau_matrix, data.im_delta  # noqa: B018 - computed in order
    return data, (lcs.tau_kernel_equals_u(data), lcs.tau_preimage_equals_u_plus_b(data))


def capture(cfg) -> tuple[list[tuple[str, str, exactlin.Lattice]], lcs.LcsData, tuple[bool, bool]]:
    """Verify ``cfg`` cold; return (call, caller, lattice) of each call's first use of a lattice."""
    calls, seen, real = [], set(), {name: getattr(exactlin, name) for name in CALLS}

    def recording(name):
        def record(lat):
            if (name, id(lat)) not in seen:
                seen.add((name, id(lat)))
                calls.append((name, sys._getframe(1).f_code.co_name, lat))
            return real[name](lat)

        return record

    for name in CALLS:
        for module in (exactlin, lcs):
            setattr(module, name, recording(name))
    try:
        data, verdicts = verify(cfg)
    finally:
        for name in CALLS:
            for module in (exactlin, lcs):
                setattr(module, name, real[name])
    return calls, data, verdicts


def sha(*matrices_and_values) -> str:
    """sha256 of the values, each matrix as its rows of sorted ``(column, entry)`` items."""
    key = [
        [sorted(row.items()) for row in x.sparse_rows] if isinstance(x, exactlin.IntMatrix) else x
        for x in matrices_and_values
    ]
    return hashlib.sha256(repr(key).encode()).hexdigest()


def run(call: str, lat: exactlin.Lattice) -> str:
    """The digest of ``call`` on a fresh copy of ``lat``."""
    fresh = exactlin.Lattice(lat.ambient_rank, lat.basis)
    if call == "quotient_presentation":
        q = exactlin.quotient_presentation(fresh)
        return sha(q.elementary_divisors, q.projection, q.section)
    if call == "perp":
        return sha(exactlin.perp(fresh).canonical_form)
    h, keep, pivots, _ = fresh._reduction_data()
    return sha(h, keep, pivots)


def replay(name: str, call: str, caller: str, lat: exactlin.Lattice) -> dict:
    best, digests = float("inf"), set()
    for _ in range(REPEAT):
        t0 = time.perf_counter()
        digests.add(run(call, lat))
        best = min(best, time.perf_counter() - t0)
    if len(digests) != 1:
        raise SystemExit(f"{name} {call}: different results on equal inputs")
    return {
        "config": name,
        "call": call,
        "caller": caller,
        "rows": lat.basis.rows,
        "cols": lat.ambient_rank,
        "rank": lat.rank,
        "seconds": round(best, 7),
        "digest": digests.pop(),
    }


def main() -> None:
    args = replay_args(__doc__)

    records, verdicts = [], {}
    for name, cfg in configurations():
        calls, data, verdicts[name] = capture(cfg)
        records += [replay(name, call, caller, lat) for call, caller, lat in calls]
        records.append(replay(name, "im_delta_reduction", "im_delta", data.im_delta))
    totals: dict[str, float] = {}
    for rec in records:
        key = f"{rec['config']} {rec['call']}"
        totals[key] = round(totals.get(key, 0.0) + rec["seconds"], 6)

    write_run(
        args, "lattice_replay.py", REPEAT,
        verdicts={name: list(v) for name, v in verdicts.items()}, total_s=totals, inputs=records,
    )
    print(f"{args.label}: {len(records)} replays, seconds by config and call {totals}")


if __name__ == "__main__":
    main()
