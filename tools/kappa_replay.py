"""Time warm κ queries part by part, query by query.

Builds ``LcsData`` for the MacLane configuration c8 and for the glued C13,
warms each (τ̃ blocks, Im δ̄ and its Hermite reduction), then runs a seeded
stream of ``QUERIES`` κ queries on each.  The stream is generated here from
``SEED`` and repeats in a period of four kinds: the two conjugator maps
differ by an element of U+B (κ = 0) or by a random vector, and the
difference is dense or sparse.  A sparse U+B difference combines three
rows of the U and B bases, a dense one all of them; a sparse random one
sets two coordinates at each of three flags, a dense one every coordinate.

Each query records its seconds, best of ``REPEAT``, for the difference
``g - g'``, for ``tau_tilde`` of it, for ``member`` of the τ̃ value in
Im δ̄, and for the whole ``kappa(data, g, g')``, with a sha256 of
``KappaReport.to_json_dict()`` as sorted JSON, so runs of two commits can
be checked for identical output as well as compared for speed.  Run
metadata is as in ``tools/kernel_replay.py``, whose helpers this script
uses.

    python3 tools/kappa_replay.py --label change --out BENCH.json

The program is imported from ``src/`` next to this script.  An existing
``--out`` file keeps its other labels.
"""

from __future__ import annotations

import hashlib
import json
import random
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from arrlcs import config, exactlin, lcs, words  # noqa: E402
from kernel_replay import replay_args, write_run  # noqa: E402

REPEAT = 5
QUERIES = 64
SEED = 16
KINDS = (("in_UB", False), ("random", False), ("in_UB", True), ("random", True))
PARTS = ("difference", "tau_tilde", "member", "kappa")


def warm(cfg) -> tuple[lcs.LcsData, list[tuple[int, ...]]]:
    """The warm ``LcsData`` of ``cfg`` and the dense rows of the U and B bases."""
    data = lcs.build_lcs(cfg)
    zero = words.AbelianGMap(cfg)
    lcs.kappa(data, zero, zero)  # τ̃ blocks, Im δ̄ and its reduction
    return data, list(lcs.u_lattice(cfg).basis.entries) + list(lcs.b_lattice(cfg).basis.entries)


def query(cfg, ub_rows, name: str, k: int):
    """The conjugator pair of query ``k`` on ``cfg``, with its kind."""
    kind, sparse = KINDS[k % len(KINDS)]
    rng = random.Random(f"kappa-replay:{SEED}:{name}:{k}")
    n, dim = cfg.index.n, len(ub_rows[0])
    base = [rng.randint(-3, 3) for _ in range(dim)]
    diff = [0] * dim
    if kind == "in_UB":
        for row in rng.sample(ub_rows, 3) if sparse else ub_rows:
            c = rng.choice((-2, -1, 1, 2))
            for j, x in enumerate(row):
                diff[j] += c * x
    elif sparse:
        for flag in rng.sample(range(dim // n), 3):
            for j in rng.sample(range(n), 2):
                diff[flag * n + j] = rng.choice((-1, 1))
    else:
        diff = [rng.randint(-2, 2) for _ in range(dim)]
    g = words.AbelianGMap.from_vector(cfg, base)
    gprime = words.AbelianGMap.from_vector(cfg, [a + d for a, d in zip(base, diff)])
    return g, gprime, kind, sparse


def best_of(thunk) -> tuple[float, object]:
    best = float("inf")
    for _ in range(REPEAT):
        t0 = time.perf_counter()
        out = thunk()
        best = min(best, time.perf_counter() - t0)
    return best, out


def replay(data, name: str, k: int, g, gprime, kind: str, sparse: bool) -> dict:
    seconds = {}
    seconds["difference"], diff = best_of(lambda: g - gprime)
    seconds["tau_tilde"], value = best_of(lambda: lcs.tau_tilde(data, diff))
    seconds["member"], _ = best_of(lambda: exactlin.member(value.flat, data.im_delta))
    seconds["kappa"], report = best_of(lambda: lcs.kappa(data, g, gprime))
    text = json.dumps(report.to_json_dict(), sort_keys=True)
    return {
        "config": name,
        "query": k,
        "kind": kind,
        "sparse": sparse,
        "zero": report.zero,
        "modulus": None if report.witness is None else report.witness.modulus,
        **{f"{part}_s": round(seconds[part], 7) for part in PARTS},
        "digest": hashlib.sha256(text.encode()).hexdigest(),
    }


def main() -> None:
    args = replay_args(__doc__)

    records = []
    for name, cfg in (("c8", config.maclane_c8()), ("c13", config.glue_c13())):
        data, ub_rows = warm(cfg)
        for k in range(QUERIES):
            records.append(replay(data, name, k, *query(cfg, ub_rows, name, k)))
    summary = {
        f"{name} {part}": round(statistics.median(rec[f"{part}_s"] for rec in records if rec["config"] == name), 7)
        for name in ("c8", "c13")
        for part in PARTS
    }

    write_run(args, "kappa_replay.py", REPEAT, median_s=summary, inputs=records)
    zero = sum(rec["zero"] for rec in records)
    rational = sum(rec["modulus"] == 0 for rec in records)
    print(f"{args.label}: {len(records)} queries ({zero} zero, {rational} rational failures), median seconds {summary}")


if __name__ == "__main__":
    main()
