"""Time the cold degree-3 build, layer by layer: the bracket map, R3 and P3.

For the MacLane configuration c8, the glued C13 and C13 relabeled at seed
41 (perfbench's ``inputs.relabel``), builds a fresh ``LcsData`` and times
its cached ``bracket`` (H⊗Λ²H → L3), then ``r3``, then ``p3``, best of
``REPEAT``, with the ``words.lie_basis`` cache cleared before each build so
no run reuses a Lyndon basis.  The degree-2 build itself is not timed.  A
record holds the shapes, each layer's best seconds, the best total and a
sha256 of the bracket rows, of R3's canonical form and of the P3
projection, so runs of two commits can be checked for identical output as
well as compared for speed.  Run metadata is as in
``tools/kernel_replay.py``, whose helpers this script uses.

    python3 tools/bracket_replay.py --label change --out BENCH.json

The program is imported from ``src/`` next to this script.  An existing
``--out`` file keeps its other labels.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(ROOT / "perfbench"))

from arrlcs import config, lcs, words  # noqa: E402
from inputs import relabel  # noqa: E402
from kernel_replay import replay_args, write_run  # noqa: E402
from lattice_replay import sha  # noqa: E402

REPEAT = 5
SEED = 41
LAYERS = ("bracket", "r3", "p3")


def configurations():
    c13 = config.glue_c13()
    yield "c8", config.maclane_c8()
    yield "c13", c13
    yield f"c13@{SEED}", relabel(SimpleNamespace(config=config), c13, SEED).config


def cold(cfg) -> tuple[lcs.LcsData, dict[str, float]]:
    """A fresh ``LcsData`` of ``cfg`` with its bracket, R3 and P3 built, and each layer's seconds."""
    words.lie_basis.cache_clear()
    data, seconds = lcs.build_lcs(cfg), {}
    for layer in LAYERS:
        t0 = time.perf_counter()
        getattr(data, layer)
        seconds[layer] = time.perf_counter() - t0
    return data, seconds


def replay(name: str, cfg) -> dict:
    best, digests = {layer: float("inf") for layer in (*LAYERS, "total")}, set()
    for _ in range(REPEAT):
        data, seconds = cold(cfg)
        seconds["total"] = sum(seconds.values())
        best = {k: min(v, seconds[k]) for k, v in best.items()}
        digests.add((sha(data.bracket), sha(data.r3.canonical_form), sha(data.p3.projection)))
    if len(digests) != 1:
        raise SystemExit(f"{name}: equal builds gave different results")
    bracket, r3, p3 = digests.pop()
    return {
        "config": name,
        "bracket_shape": list(data.bracket.shape),
        "r3_shape": list(data.r3.basis.shape),
        "p3_rank": data.p3.free_rank,
        **{f"{k}_s": round(v, 6) for k, v in best.items()},
        "bracket_digest": bracket,
        "r3_digest": r3,
        "p3_digest": p3,
    }


def main() -> None:
    args = replay_args(__doc__)
    records = [replay(name, cfg) for name, cfg in configurations()]
    run = write_run(
        args, "bracket_replay.py", REPEAT, total_s={rec["config"]: rec["total_s"] for rec in records}, inputs=records
    )
    print(f"{args.label}: cold bracket + R3 + P3 seconds by config {run['total_s']}")
    for rec in records:
        print(f"  {rec['config']:7} bracket {rec['bracket_s']:.4f}  r3 {rec['r3_s']:.4f}  p3 {rec['p3_s']:.4f} s")


if __name__ == "__main__":
    main()
