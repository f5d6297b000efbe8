"""Time a cold per-point U record and digest what both kernel identities read from it.

For the MacLane configuration c8, the glued C13, C13 relabeled at seed 41,
the 9-line test fixture and the 3- and 4-fold MacLane gluings (the last
four from ``tests/helpers.py``), builds a fresh ``LcsData`` with its τ̃
blocks and times ``u_points`` alone, best of ``REPEAT``, after a full
garbage collection.  Per finite point
it records a sha256 of (f_p, the torsion part of A_p/U_p, the canonical
form of ker π_p, rank τ̃_p∘s_p); per configuration it records the two
kernel identities, ker τ̃ = U and τ̃⁻¹(Im δ̄) = U+B.  None of these depends
on the basis that presents A_p/U_p, so runs of two commits can be checked
for identical output as well as compared for speed.  Run metadata is as
in ``tools/kernel_replay.py``, whose helpers this script uses.

    python3 tools/u_replay.py --label change --out BENCH.json

The program is imported from ``src/`` next to this script.  An existing
``--out`` file keeps its other labels.
"""

from __future__ import annotations

import gc
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(ROOT / "tests"))

from arrlcs import config, exactlin, lcs  # noqa: E402
from helpers import ASYMMETRIC_9, glue_copies, relabel  # noqa: E402
from kernel_replay import replay_args, write_run  # noqa: E402
from lattice_replay import sha  # noqa: E402

REPEAT = 5
SEED = 41


def configurations():
    c13 = config.glue_c13()
    yield "c8", config.maclane_c8()
    yield "c13", c13
    yield f"c13@{SEED}", relabel(c13, SEED)
    yield "fixture9", config.load_configuration(ASYMMETRIC_9)
    yield "glued3", glue_copies(3)
    yield "glued4", glue_copies(4)


def point_digest(pt: lcs.PointU) -> str:
    q = pt.quotient
    kernel = exactlin.Lattice(q.ambient_rank, exactlin.kernel_basis(q.projection))
    torsion = tuple(d for d in q.elementary_divisors if d != 1)
    return sha(q.free_rank, torsion, kernel.canonical_form, exactlin.hnf(q.section @ pt.tau).rows)


def replay(name: str, cfg) -> dict:
    best = float("inf")
    for _ in range(REPEAT):
        data = lcs.build_lcs(cfg)
        data.tau_blocks  # noqa: B018 - built before timing
        gc.collect()  # earlier builds' garbage is not collected inside the timed call
        t0 = time.perf_counter()
        data.u_points  # noqa: B018
        best = min(best, time.perf_counter() - t0)
    return {
        "config": name,
        "points": len(data.u_points),
        "a_rank": data.a_rank,
        "u_points_s": round(best, 6),
        "identities": [lcs.tau_kernel_equals_u(data), lcs.tau_preimage_equals_u_plus_b(data)],
        "point_digests": [point_digest(pt) for pt in data.u_points],
    }


def main() -> None:
    args = replay_args(__doc__)
    records = [replay(name, cfg) for name, cfg in configurations()]
    run = write_run(
        args, "u_replay.py", REPEAT, total_s={rec["config"]: rec["u_points_s"] for rec in records}, inputs=records
    )
    print(f"{args.label}: cold u_points seconds by config {run['total_s']}")
    for rec in records:
        print(f"  {rec['config']:9} {rec['points']:4} points  identities {rec['identities']}")


if __name__ == "__main__":
    main()
