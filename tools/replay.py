"""Replay one layer of the exact pipeline input by input, timed and digested.

    python3 tools/replay.py SOURCE --label LABEL --out FILE [--commit COMMIT]

Each source times a fixed set of inputs, best of ``REPEAT``, and records
a sha256 of each output, so runs of two commits can be checked for
identical output as well as compared for speed.  A run also records
``git describe`` (or ``--commit``, for a run in a ``git archive`` copy,
which has no git history) and a sha256 of the ``src/`` tree it imported
(next to this script).  An existing ``--out`` file keeps its other labels,
so a copy of this script run in a second checkout adds its run to the same file.
Each run also records its source, so one file can hold runs of several
sources (from ``BENCH_45.json`` on); ``command`` names the last one written.

The first six sources each replace one older script and keep its inputs,
record fields and digests, so every committed record can be regenerated
and compared digest by digest:

=========================  ===========  ===============================================
old script                 source       BENCH files
=========================  ===========  ===============================================
``kernel_replay.py``       kernel       BENCH_12, BENCH_13, BENCH_14, BENCH_20_kernel
``realization_replay.py``  realization  BENCH_15
``kappa_replay.py``        kappa        BENCH_16
``lattice_replay.py``      lattice      BENCH_17
``bracket_replay.py``      bracket      BENCH_19
``u_replay.py``            u            BENCH_20
=========================  ===========  ===============================================

The 3-, 4- and 6-fold MacLane gluings ``glued3``, ``glued4`` and ``glued6``
are ``config.glue_copies(k)``.  Records up to ``BENCH_28.json`` built them
with a gluing of the tests' own that named their points differently (``c1p45``
for ``p'45``, ``x3.8`` for ``p''33``), so their digests for these inputs do not
compare with later runs.

* ``kernel``: every Hermite kernel input of a cold verification
  of C13 (``c13-verify``) and of the canonical form of U on C13
  (``u-lattice``), replayed on fresh copies.  Each input is captured at
  ``_hnf_forward``, which every reduction runs, and replayed through the
  back-substitution too, so the digests of every committed record still
  compare; ``kernel_basis`` runs the forward pass alone.
* ``lattice``: the first ``quotient_presentation`` and ``perp`` of each
  lattice in a cold verification of c8 and C13, each also relabeled at
  ``SEED``, replayed on fresh lattices, and Im δ̄'s reduction stage by
  stage through its readers: ``rank`` cold (``im_delta_echelon``), then
  a divisibility failure's witness (``im_delta_witness``) and the
  canonical form (``im_delta_canonical``), each after ``rank``.  Records
  before ``BENCH_28.json`` time the whole reduction as
  ``im_delta_reduction`` instead.  From ``BENCH_45.json`` on, a witness
  reads the Hermite form, so ``im_delta_witness`` includes its
  back-substitution, where earlier records time the pivot block's alone.
* ``kappa``: ``QUERIES`` warm κ queries on c8, C13, ``glued4`` and
  ``glued6`` from ``KAPPA_SEED``, ``g - g'`` in U+B or random, dense or
  sparse; the parts κ runs, τ̃ of the pair and the membership test of its
  value, and the whole κ are timed apart, and the shapes of Im δ̄ and τ̃'s
  support (its nonzero rows and, from ``BENCH_36.json`` on, the columns of
  its image, ``tau_image_cols``) are recorded per configuration.  A failed
  query solves its witness functional once per failing pivot row or
  column and caches it with Im δ̄, so every best-of repeat after the
  first, and every later query failing at the same key, meets a warm
  witness cache.  Records
  before ``BENCH_30.json`` hold c8 and C13 only; records before
  ``BENCH_32.json`` hold no ``glued6`` and time the difference g - g' as
  a part of its own, then τ̃ of it and ``member`` of its dense value.  A
  run of a src from before ``BENCH_32.json`` still times it that way
  (``PAIR_TAU``), with the subtraction inside its ``tau_tilde`` part.
  From ``BENCH_41.json`` on, κ reads only Im δ̄'s core, and ``member`` times
  the core's membership test (``CORE``); the witness of a κ ≠ 0 report moved
  with it, so the digests of those reports in earlier records do not
  regenerate on this src.
* ``realization``: ``phi_c8``, ``check_realization`` on c8, and
  ``glue_realization`` and ``check_realization`` on C13 for
  ``REALIZATION_SEEDS``, both signs each.
* ``bracket``: the cold ``bracket``, ``r3``, ``p3``, the P3 map
  ``_bracket_p3`` (as ``bracket_p3``), ``r3perp`` and ``im_delta`` of c8,
  C13, C13 at ``SEED`` and ``glued6``, each timed with the earlier layers
  built and the Lyndon basis cache cleared; ``total_s`` sums the best
  times.  Records before ``BENCH_34.json`` hold the first three layers
  only, and no ``glued6``.  From ``BENCH_39.json`` on, each record also
  holds ``p3_reduction_shape``, the rows and columns of the first
  reduction a cold ``p3`` runs: R3's residual after its unit rows are
  peeled, or R3 itself where the src reduces it whole.
* ``u``: the cold ``u_points`` of c8, C13, C13 at ``SEED``, the 9-line
  test fixture, the 3-, 4-, 6- and 12-fold MacLane gluings and Hesse (the
  12 lines of AG(2,3)), with both kernel identities, timed apart
  (``identities_s``) on data whose ``u_points`` and Im δ̄ reduction are
  built; its per-point digest does not depend on the basis that
  presents A_p/U_p.  ``points_digest`` is sha256 of the JSON list of those
  digests; records before ``BENCH_33.json`` hold the list itself
  (``point_digests``), so hashing it the same way compares them.  τ̃ (``tau_matrix``) is built untimed there, and
  timed cold on its own (``tau_matrix_s``, digest ``tau_digest``) with P3
  and the map ``_bracket_p3`` built; each record holds τ̃'s nonzero rows
  and the nonzero and total rows of ``_bracket_p3``.  Records before
  ``BENCH_31.json`` built τ̃ per point instead; records before
  ``BENCH_33.json`` hold no ``glued12`` and no τ̃ timing.  From
  ``BENCH_37.json`` on, each record also times π(B) cold with its
  canonical form (``pi_b_s``, digest ``pi_b_digest``) on data whose π
  and B are built, and holds ``live_points``, the points with τ̃_p ≠ 0
  and f_p > 0, and ``pi_b_shape``, the shape of B·π and of the basis
  π(B) is built from.  From ``BENCH_42.json`` on, each record also holds
  ``kept_coordinates``, the A coordinates that survive the closed-form
  unit-row peel of U (``lcs._peeled_u``), where the forests run.
  From ``BENCH_43.json`` on, π(B) is built from B·π itself, so both
  shapes are equal, and A_p/U_p is presented on those coordinates alone:
  the per-point digest reads U_p from ``PointU.generators`` and τ̃_p∘s_p
  from ``PointU.s_tau``, the values earlier records hashed.
* ``words``: on c8, C13, C13 at ``SEED`` and the 3- and 4-fold MacLane
  gluings, ``G_MAPS`` g-maps from ``WORDS_SEED`` each: ``relators_from_g``,
  ``magnus`` of every relator, and the relator route to degree-3
  coordinates, ``lie_coords(magnus(r) - magnus(r0), 3, n)`` at each flag
  against the relator r0 of the identity g-map (whose expansions, like
  the Lyndon basis, are built untimed).  Its digests read the relator
  letters and the Magnus coefficients through ``component``, so they do
  not depend on how a series is stored.
* ``taustar``: on c8, ``transport_group``, each of the 42 τ̃* pullbacks
  that ``tau_star_identities`` makes (σ's action on the base functionals
  is not timed) and the whole ``tau_star_identities``, cold (a fresh
  ``LcsData`` and ``maclane_dual_basis`` cache) and warm (the data of a
  finished call).  It digests the group's line permutations, each
  pullback's functional Φ and value as their sorted nonzero (key, entry)
  pairs, and the report JSON.  A src whose ``tau_star`` takes a class
  and a dense φ is timed on those and digested through Φ = class ⊗ φ, so
  its digests compare with a src that takes Φ.  Records before
  ``BENCH_35.json`` digest those two dense arguments and the dense value
  instead.
* ``core``: on c8, C13 and the 3-, 4- and 6-fold MacLane gluings, Im δ̄
  plus the preimage identity plus κ of a zero and a nonzero pair
  (``core_pair``), cold on data whose τ̃, U per point, π(B) and Im δ̄'s
  basis are built: by the flat route, which reduces all of Im δ̄
  (``helpers.flat_preimage_equals_u_plus_b``, ``helpers.flat_kappa_member``;
  ``flat_s``), and by the core (``LcsData.im_delta_core``; ``core_s``, the
  peel included).  Each record holds Im δ̄'s shape, the core's rows and
  the columns they use, its rank, the rows peeled, both routes' verdicts
  (which must agree) and the nonzero pair's witness modulus by each route.
* ``c13report``: ``c13-report --seed S`` in process for ``C13_REPORT_SEEDS``,
  as perfbench's cli-suite cycle meets it: every ``cache_clear`` on the
  modules perfbench clears is called and ``maclane-report`` runs, both
  untimed, so c8's data and witness are warm and C13's are cold.  Each
  record holds the exit code, the sha256 of stdout, and the details of the
  ``glued_classes`` check and, from ``BENCH_46.json`` on, of the
  ``glued_certificate`` check (null where the src has none).
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import gc
import hashlib
import inspect
import io
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.dont_write_bytecode = True  # no bytecode left beside the sources it times
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(ROOT / "tests"))

from arrlcs import cli, config, exactlin, geom, lcs, maclane, words  # noqa: E402
import helpers  # noqa: E402
from helpers import ASYMMETRIC_9, hesse, relabel  # noqa: E402

REPEAT = 5
SEED = 41  # the relabeling of ``c8@41`` and ``c13@41``
KAPPA_SEED = 16
QUERIES = 64
REALIZATION_SEEDS = range(40)
WORDS_SEED = 25
G_MAPS = 4

CONFIGS = {
    "c8": config.maclane_c8,
    "c13": config.glue_c13,
    f"c8@{SEED}": lambda: relabel(config.maclane_c8(), SEED),
    f"c13@{SEED}": lambda: relabel(config.glue_c13(), SEED),
    "fixture9": lambda: config.load_configuration(ASYMMETRIC_9),
    "glued3": lambda: config.glue_copies(3),
    "glued4": lambda: config.glue_copies(4),
    "glued6": lambda: config.glue_copies(6),
    "glued12": lambda: config.glue_copies(12),
    "hesse": hesse,
}


# -- the shared core ---------------------------------------------------------------


def best_of(what: str, prepare, timed, digest=lambda result: result):
    """Best seconds of ``timed(prepare())`` over ``REPEAT`` runs, with the digest, argument and result of the last.

    ``prepare`` runs untimed.  Raises if ``digest(result)`` differs
    between the runs.
    """
    best, digests = float("inf"), []
    for _ in range(REPEAT):
        arg = prepare()
        t0 = time.perf_counter()
        result = timed(arg)
        best = min(best, time.perf_counter() - t0)
        digests.append(digest(result))
    if any(d != digests[0] for d in digests):
        raise SystemExit(f"{what}: equal inputs gave different results")
    return round(best, 7), digests[0], arg, result


def capture(work, targets, record):
    """Run ``work()`` with each function ``module.name`` of ``targets`` recorded, and return its value.

    Each call first runs ``record(name, caller, *args)``, ``caller`` being
    the name of the calling function, then the replaced function.  The
    functions are restored when ``work`` ends.
    """
    def recorder(name, real):
        def call(*args):
            record(name, sys._getframe(1).f_code.co_name, *args)
            return real(*args)

        return call

    saved = [(module, name, getattr(module, name)) for module, name in targets]
    for module, name, real in saved:
        setattr(module, name, recorder(name, real))
    try:
        return work()
    finally:
        for module, name, real in saved:
            setattr(module, name, real)


def sha(*values) -> str:
    """sha256 of the values, each matrix as its rows of sorted ``(column, entry)`` items."""
    key = [[sorted(row.items()) for row in x.sparse_rows] if isinstance(x, exactlin.IntMatrix) else x for x in values]
    return hashlib.sha256(repr(key).encode()).hexdigest()


def sha_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def total_s(records, key, field="seconds") -> dict[str, float]:
    totals: dict[str, float] = {}
    for rec in records:
        totals[key(rec)] = totals.get(key(rec), 0.0) + rec[field]
    return {k: round(v, 6) for k, v in totals.items()}


def kernel_identities(data: lcs.LcsData) -> tuple[bool, bool]:
    return lcs.tau_kernel_equals_u(data), lcs.tau_preimage_equals_u_plus_b(data)


# -- kernel: every input of the exact Hermite kernel ------------------------------------


def c13_verify() -> None:
    data = lcs.build_lcs(config.glue_c13())
    data.r3, data.p3, data.r3perp, data.im_delta  # noqa: B018 - computed in order
    plus, minus = maclane.builtin_g_map("plus"), maclane.builtin_g_map("minus")
    g_pp, g_pm = lcs.glued_g_map(plus, plus), lcs.glued_g_map(plus, minus)
    checks = (*kernel_identities(data), lcs.kappa(data, g_pp, g_pp).zero, not lcs.kappa(data, g_pp, g_pm).zero)
    if not all(checks):
        raise SystemExit(f"C13 verification failed: {checks}")


def kernel_digest(result) -> str:
    """sha256 of ``(a, u, pivots)``, each row as its sorted ``(column, entry)`` items, as ``IntMatrix.__eq__`` reads it."""
    a, u, pivots = result

    def rows(m):
        return [sorted(row.items()) for row in m]

    return sha_text(repr((rows(a), None if u is None else rows(u), pivots)))


def kernel() -> dict:
    sources = {"c13-verify": c13_verify, "u-lattice": lambda: lcs.u_lattice(config.glue_c13()).canonical_form}
    records = []
    for source, work in sources.items():
        calls = []
        capture(work, [(exactlin, "_hnf_forward")],
                lambda _, caller, a, ncols, u: calls.append((caller, copy.deepcopy(a), ncols, copy.deepcopy(u))))
        if not calls:
            raise SystemExit(f"no kernel input captured from source {source}")
        for caller, rows, ncols, u in calls:
            seconds, digest, _, (a, _, _) = best_of(
                caller,
                lambda: (copy.deepcopy(rows), copy.deepcopy(u)),
                lambda arg: (arg[0], arg[1], exactlin._hnf_back(arg[0], exactlin._hnf_forward(arg[0], ncols, arg[1]), arg[1])),
                kernel_digest,
            )
            records.append({
                "source": source, "caller": caller, "rows": len(rows), "cols": ncols, "nnz_in": sum(map(len, rows)),
                "nnz_out": sum(map(len, a)), "transform": u is not None, "seconds": seconds, "digest": digest,
            })
    return {"total_s": total_s(records, lambda rec: rec["source"]), "inputs": records}


# -- lattice: quotient presentations and orthogonal complements -------------------


LATTICE_CALLS = {  # call: (timed function of a fresh lattice, digest of its value)
    "quotient_presentation": (exactlin.quotient_presentation, lambda q: sha(q.elementary_divisors, q.projection, q.section)),
    "perp": (lambda lat: exactlin.perp(lat).canonical_form, sha),
}


def im_delta_stages(im_delta: exactlin.Lattice) -> list[tuple[str, object, object, object]]:
    """Im δ̄'s reduction stage by stage, each read cold through the public API: ``(call, prepare, timed, digest)``.

    ``rank`` is the first reader (the echelon stage); a failed ``member`` of
    the unit vector at the first pivot above 1, a divisibility failure, and
    ``canonical_form`` each run on a fresh lattice whose rank was read.
    """
    h = im_delta.canonical_form
    col = next(min(row) for row in h.sparse_rows if row[min(row)] > 1)
    probe = tuple(int(j == col) for j in range(im_delta.ambient_rank))

    def fresh():
        return exactlin.Lattice(im_delta.ambient_rank, im_delta.basis)

    def echelon_read():
        lat = fresh()
        lat.rank  # noqa: B018 - the echelon stage, untimed
        return lat

    return [
        ("im_delta_echelon", fresh, lambda lat: lat.rank, sha),
        ("im_delta_witness", echelon_read, lambda lat: exactlin.member(probe, lat).witness, lambda w: sha(w.functional, w.modulus, w.pairing)),
        ("im_delta_canonical", echelon_read, lambda lat: lat.canonical_form, sha),
    ]


def lattice() -> dict:
    records, verdicts = [], {}
    for name in ("c8", f"c8@{SEED}", "c13", f"c13@{SEED}"):
        calls = {}  # the first call per lattice; ``perp`` caches

        def record(call, caller, lat):
            calls.setdefault((call, id(lat)), (call, caller, lat))

        def verify(cfg=CONFIGS[name]()):
            data = lcs.build_lcs(cfg)
            data.r3, data.p3, data.r3perp, data.tau_matrix, data.im_delta  # noqa: B018 - computed in order
            return data, kernel_identities(data)

        targets = [(module, call) for call in ("quotient_presentation", "perp") for module in (exactlin, lcs)]
        data, verdicts[name] = capture(verify, targets, record)
        inputs = [
            (call, caller, lat, lambda lat=lat: exactlin.Lattice(lat.ambient_rank, lat.basis), *LATTICE_CALLS[call])
            for call, caller, lat in calls.values()
        ]
        inputs += [(call, "im_delta", data.im_delta, *how) for call, *how in im_delta_stages(data.im_delta)]
        for call, caller, lat, prepare, timed, digest in inputs:
            seconds, digest, _, _ = best_of(f"{name} {call}", prepare, timed, digest)
            records.append({
                "config": name, "call": call, "caller": caller, "rows": lat.basis.rows, "cols": lat.ambient_rank,
                "rank": lat.rank, "seconds": seconds, "digest": digest,
            })
    return {
        "verdicts": {name: list(v) for name, v in verdicts.items()},
        "total_s": total_s(records, lambda rec: f"{rec['config']} {rec['call']}"),
        "inputs": records,
    }


# -- kappa: warm κ queries part by part ------------------------------------------------


KINDS = (("in_UB", False), ("random", False), ("in_UB", True), ("random", True))
PARTS = ("tau_tilde", "member", "kappa")
KAPPA_CONFIGS = ("c8", "c13", "glued4", "glued6")
# whether τ̃ takes the pair and returns a sparse value, as κ runs it from BENCH_32.json on
PAIR_TAU = "b" in inspect.signature(lcs.tau_tilde).parameters
# whether κ tests membership in Im δ̄'s core, as it does from BENCH_41.json on
CORE = hasattr(lcs.LcsData, "im_delta_core")


def tau_shape(data) -> tuple[int, int]:
    """τ̃'s nonzero rows and the Hom(R2,P3) columns they use, counted on ``tau_matrix``."""
    rows = [row for row in data.tau_matrix.sparse_rows if row]
    return len(rows), len(set().union(*rows))


def kappa_query(cfg, ub_rows, name: str, k: int):
    """The conjugator pair of query ``k`` on ``cfg``, with its kind; ``ub_rows`` are the sparse U and B basis rows.

    A sparse U+B difference combines three U and B basis rows, a sparse random one two entries at three flags.
    """
    kind, sparse = KINDS[k % len(KINDS)]
    rng = random.Random(f"kappa-replay:{KAPPA_SEED}:{name}:{k}")
    n = cfg.index.n
    dim = len(cfg.index.pairs) * n
    base = [rng.randint(-3, 3) for _ in range(dim)]
    diff = [0] * dim
    if kind == "in_UB":
        for row in rng.sample(ub_rows, 3) if sparse else ub_rows:
            c = rng.choice((-2, -1, 1, 2))
            for j, x in row.items():
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


def kappa() -> dict:
    records, shapes = [], {}
    for name in KAPPA_CONFIGS:
        cfg = CONFIGS[name]()
        data, zero = lcs.build_lcs(cfg), words.AbelianGMap(cfg)
        lcs.kappa(data, zero, zero)  # τ̃'s support, Im δ̄ and its reduction
        rows, cols = tau_shape(data)
        shapes[name] = {
            "im_delta_basis": list(data.im_delta.basis.shape), "im_delta_echelon": list(data.im_delta.echelon()[0].shape),
            "a_rank": data.a_rank, "tau_support_rows": rows, "tau_image_cols": cols,
        }
        ub_rows = [*lcs.u_lattice(cfg).basis.sparse_rows, *lcs.b_lattice(cfg).basis.sparse_rows]
        for k in range(QUERIES):
            g, gprime, kind, sparse = kappa_query(cfg, ub_rows, name, k)
            tau = (lambda: lcs.tau_tilde(data, g, gprime)) if PAIR_TAU else (lambda: lcs.tau_tilde(data, g - gprime))
            vector = tau().sparse if PAIR_TAU else tau().flat
            thunks = {
                "tau_tilde": lambda _: tau(),
                "member": (lambda _: data.im_delta_core.member(vector)) if CORE else (lambda _: exactlin.member(vector, data.im_delta)),
                "kappa": lambda _: lcs.kappa(data, g, gprime),
            }
            runs = {part: best_of(f"{name} query {k} {part}", tuple, thunks[part]) for part in PARTS}
            report = runs["kappa"][3]
            records.append({
                "config": name, "query": k, "kind": kind, "sparse": sparse, "zero": report.zero,
                "modulus": None if report.witness is None else report.witness.modulus,
                **{f"{part}_s": runs[part][0] for part in PARTS},
                "digest": sha_text(json.dumps(report.to_json_dict(), sort_keys=True)),
            })
    median_s = {
        f"{name} {part}": round(statistics.median(rec[f"{part}_s"] for rec in records if rec["config"] == name), 7)
        for name in KAPPA_CONFIGS
        for part in PARTS
    }
    return {"shapes": shapes, "median_s": median_s, "inputs": records}


# -- realization: every call of the Q(ω) realization check ------------------------------


def realization_calls():
    """(record fields, function, arguments) of every timed call, in order."""
    c8, c13 = config.maclane_c8(), config.glue_c13()
    for sign in ("+", "-"):
        yield {"call": "phi_c8", "sign": sign}, geom.phi_c8, (sign,)
    for sign in ("+", "-"):
        yield {"call": "check_realization", "config": "c8", "sign": sign}, geom.check_realization, (c8, geom.phi_c8(sign))
    for sign in ("+", "-"):
        for seed in REALIZATION_SEEDS:
            psi = geom.psi_generic(seed)
            yield {"call": "glue_realization", "sign": sign, "seed": seed}, geom.glue_realization, (sign, psi)
            lines = geom.glue_realization(sign, psi)
            yield {"call": "check_realization", "config": "c13", "sign": sign, "seed": seed}, geom.check_realization, (c13, lines)


def realization_json(result) -> str:
    if isinstance(result, geom.RealizationReport):
        return json.dumps(result.to_json_dict(), sort_keys=True)
    return json.dumps([line.to_json() for line in result])


def realization() -> dict:
    records = []
    for fields, function, args in realization_calls():
        seconds, digest, _, result = best_of(
            str(fields), lambda: args, lambda args: function(*args), lambda r: sha_text(realization_json(r))
        )
        ok = {"ok": result.ok} if isinstance(result, geom.RealizationReport) else {}
        records.append({**fields, **ok, "seconds": seconds, "digest": digest})
    key = lambda rec: rec["call"] if "config" not in rec else f"{rec['call']} {rec['config']}"  # noqa: E731
    return {"total_s": total_s(records, key), "inputs": records}


# -- bracket: the cold degree-3 build, layer by layer ------------------------------------


BRACKET_LAYERS = {  # layer: digest of its value
    "bracket": sha,
    "r3": lambda r3: sha(r3.canonical_form),
    "p3": lambda p3: sha(p3.projection),
    "_bracket_p3": sha,
    "r3perp": lambda r3perp: sha(r3perp.canonical_form),
    "im_delta": lambda im_delta: sha(im_delta.basis),
}
BRACKET_CONFIGS = ("c8", "c13", f"c13@{SEED}", "glued6")


def p3_reduction_shape(cfg) -> list[int]:
    """Rows and columns of the first forward pass of a cold ``p3`` with R3 built: the reduction P3 is presented from.

    That is R3's residual once its unit rows are peeled, or R3 itself on
    a src that reduces it whole.
    """
    data, shapes = lcs.build_lcs(cfg), []
    data.r3  # noqa: B018 - built before the capture
    capture(lambda: data.p3, [(exactlin, "_hnf_forward")], lambda name, caller, a, ncols, u: shapes.append([len(a), ncols]))
    return shapes[0]


def bracket() -> dict:
    records = []
    for name in BRACKET_CONFIGS:
        cfg, seconds, digests = CONFIGS[name](), {}, {}
        for k, layer in enumerate(BRACKET_LAYERS):

            def prepare(earlier=tuple(BRACKET_LAYERS)[:k]):
                words.lie_basis.cache_clear()
                data = lcs.build_lcs(cfg)
                for built in earlier:
                    getattr(data, built)
                return data

            seconds[layer], digests[layer], data, _ = best_of(
                f"{name} {layer}", prepare, lambda data: getattr(data, layer), BRACKET_LAYERS[layer]
            )
        records.append({
            "config": name, "bracket_shape": list(data.bracket.shape), "r3_shape": list(data.r3.basis.shape),
            "p3_rank": data.p3.free_rank, "p3_reduction_shape": p3_reduction_shape(cfg),
            **{f"{layer.lstrip('_')}_s": seconds[layer] for layer in BRACKET_LAYERS},
            "total_s": round(sum(seconds.values()), 7),
            **{f"{layer.lstrip('_')}_digest": digests[layer] for layer in BRACKET_LAYERS},
        })
    return {"total_s": total_s(records, lambda rec: rec["config"], "total_s"), "inputs": records}


# -- u: the cold per-point U record -------------------------------------------------------


def point_digest(pt: lcs.PointU) -> str:
    """f_p, A_p/U_p's torsion, U_p's canonical form over p's A coordinates and rank τ̃_p∘s_p, whatever basis presents A_p/U_p."""
    q, width = pt.quotient, pt.tau.rows
    u = exactlin.Lattice(width, exactlin.IntMatrix._of(pt.generators(), width))
    torsion = tuple(d for d in q.elementary_divisors if d != 1)
    return sha(q.free_rank, torsion, u.canonical_form, exactlin.hnf(pt.s_tau).rows)


U_CONFIGS = ("c8", "c13", f"c13@{SEED}", "fixture9", "glued3", "glued4", "glued6", "glued12", "hesse")


def u() -> dict:
    records = []
    for name in U_CONFIGS:
        cfg = CONFIGS[name]()

        def prepare_tau():
            data = lcs.build_lcs(cfg)
            data._bracket_p3  # noqa: B018 - P3 and the map τ̃'s rows read are built before timing
            gc.collect()
            return data

        tau_s, tau_digest, data, tau = best_of(f"{name} tau_matrix", prepare_tau, lambda data: data.tau_matrix, sha)
        bp = data._bracket_p3

        def prepare(for_identities=False):
            data = lcs.build_lcs(cfg)
            data.tau_matrix  # noqa: B018 - built before timing
            if for_identities:
                data.im_delta.canonical_form, data.u_points  # noqa: B018 - Im δ̄ and its reduction are not timed
            gc.collect()  # earlier builds' garbage is not collected inside the timed call
            return data

        seconds, digests, data, _ = best_of(
            name, prepare, lambda data: data.u_points, lambda points: [point_digest(pt) for pt in points]
        )
        identities_s, identities, _, _ = best_of(f"{name} identities", lambda: prepare(True), kernel_identities)

        def prepare_pi_b():
            data = prepare()
            data.u_projection, data.b  # noqa: B018 - π and B are built before timing
            gc.collect()
            return data

        pi_b_s, pi_b_digest, data, _ = best_of(f"{name} pi_b", prepare_pi_b, lambda data: data.pi_b.canonical_form, sha)
        live = sum(1 for pt in data.u_points if pt.quotient.free_rank and any(pt.tau.sparse_rows))
        records.append({
            "config": name, "points": len(data.u_points), "live_points": live, "a_rank": data.a_rank,
            "kept_coordinates": sum(len(pt.kept) for pt in data.u_points),
            "tau_support_rows": sum(1 for row in tau.sparse_rows if row), "bracket_p3_rows": [sum(1 for row in bp.sparse_rows if row), bp.rows],
            "tau_matrix_s": tau_s, "tau_digest": tau_digest, "u_points_s": seconds,
            "identities_s": identities_s, "identities": list(identities),
            "points_digest": sha_text(json.dumps(digests)),
            "pi_b_s": pi_b_s, "pi_b_digest": pi_b_digest,
            "pi_b_shape": [list((data.b.basis @ data.u_projection).shape), list(data.pi_b.basis.shape)],
        })
    by_config = lambda rec: rec["config"]  # noqa: E731
    return {
        "total_s": total_s(records, by_config, "u_points_s"), "tau_matrix_s": total_s(records, by_config, "tau_matrix_s"),
        "pi_b_s": total_s(records, by_config, "pi_b_s"), "inputs": records,
    }


# -- words: relators, their Magnus expansions and the relator route ----------------------


def seeded_g_map(cfg, name: str, k: int) -> words.GMap:
    """g-map ``k`` on ``cfg``: each finite flag, with odds 1/2, gets a word of 0 to 3 letters w_j^(+-1)."""
    return helpers.seeded_g_map(random.Random(f"words-replay:{WORDS_SEED}:{name}:{k}"), cfg)


def series_key(s) -> list:
    """The unit and each degree's coefficients, sorted by word."""
    return [s.unit, *(sorted(s.component(d).items()) for d in (1, 2, 3))]


def words_source() -> dict:
    records = []
    for name in ("c8", "c13", f"c13@{SEED}", "glued3", "glued4"):
        cfg = CONFIGS[name]()
        n, base = cfg.index.n, words.relators_from_g(cfg, words.GMap(cfg))
        base_series = {flag: words.magnus(r) for flag, r in base.items()}
        words.lie_basis(n, 3)
        for k in range(G_MAPS):
            g = seeded_g_map(cfg, name, k)
            relators_s, relator_digest, _, rels = best_of(
                f"{name} g-map {k} relators", tuple, lambda _: words.relators_from_g(cfg, g),
                lambda rels: sha([(flag, r.letters) for flag, r in rels.items()]),
            )
            magnus_s, magnus_digest, _, _ = best_of(
                f"{name} g-map {k} magnus", tuple, lambda _: [words.magnus(r) for r in rels.values()],
                lambda series: sha([series_key(s) for s in series]),
            )
            route_s, route_digest, _, _ = best_of(
                f"{name} g-map {k} route", tuple,
                lambda _: [words.lie_coords(words.magnus(r) - base_series[flag], 3, n) for flag, r in rels.items()],
                sha,
            )
            records.append({
                "config": name, "g_map": k, "relators": len(rels), "letters": sum(map(len, rels.values())),
                "relators_s": relators_s, "magnus_s": magnus_s, "route_s": route_s,
                "total_s": round(relators_s + magnus_s + route_s, 7),
                "relator_digest": relator_digest, "magnus_digest": magnus_digest, "route_digest": route_digest,
            })
    return {"total_s": total_s(records, lambda rec: rec["config"], "total_s"), "inputs": records}


# -- taustar: the τ̃* transport check on c8 ------------------------------------------------


def sparse_items(row) -> list[tuple[int, int]]:
    """The sorted nonzero (key, entry) pairs of a sparse dict or a dense sequence."""
    return sorted((k, x) for k, x in (row.items() if isinstance(row, dict) else enumerate(row)) if x)


def pullback_functional(data, args) -> dict[int, int]:
    """Φ of the arguments a ``tau_star`` call got after ``data``: Φ itself, or class ⊗ φ (``helpers.class_tensor``) for a src that passed both."""
    return args[0] if len(args) == 1 else helpers.class_tensor(data, *args)


def taustar() -> dict:
    cfg = config.maclane_c8()

    def fresh():
        maclane.maclane_dual_basis.cache_clear()
        return lcs.build_lcs(cfg)

    warm, pullbacks = fresh(), []
    capture(lambda: maclane.tau_star_identities(warm), [(maclane, "tau_star")], lambda _, caller, data, *args: pullbacks.append(args))
    calls = [  # (call, its record fields, timed function of the data, digest of its value)
        ("transport_group", {}, maclane.transport_group, lambda group: sha([sigma.line_perm for sigma in group])),
        *(
            (
                "pullback", {"pullback": k, "arguments": sha(sparse_items(pullback_functional(warm, args)))},
                lambda data, args=args: maclane.tau_star(data, *args), lambda value: sha(sparse_items(value)),
            )
            for k, args in enumerate(pullbacks)
        ),
        ("tau_star_identities", {}, maclane.tau_star_identities, lambda rep: sha_text(json.dumps(rep.to_json_dict(), sort_keys=True))),
    ]
    records = []
    for state, prepare in (("cold", fresh), ("warm", lambda: warm)):
        for call, fields, timed, digest_of in calls:
            seconds, digest, _, _ = best_of(f"{call} {fields} {state}", prepare, timed, digest_of)
            records.append({"call": call, **fields, "state": state, "seconds": seconds, "digest": digest})
    return {"total_s": total_s(records, lambda rec: f"{rec['call']} {rec['state']}"), "inputs": records}


# -- core: Im δ̄'s core against the flat reduction -----------------------------------------


CORE_CONFIGS = ("c8", "c13", "glued3", "glued4", "glued6")


def core_pair(name: str) -> tuple[words.GMap, words.GMap]:
    """The bundled plus and minus maps on c8; on a k-fold gluing, plus in every copy against plus then minus in the others."""
    plus, minus = maclane.builtin_g_map("plus"), maclane.builtin_g_map("minus")
    if name == "c8":
        return plus, minus
    k = (len(CONFIGS[name]().lines) - 3) // 5  # glue_copies(k) has 3 + 5k lines; C13 is k = 2
    return lcs.glued_g_map(*[plus] * k), lcs.glued_g_map(plus, *[minus] * (k - 1))


def core() -> dict:
    """Im δ̄ plus the preimage identity plus κ of a zero and a nonzero pair, cold, by the flat route and by the core."""
    records = []
    for name in CORE_CONFIGS:
        cfg, (g, gprime) = CONFIGS[name](), core_pair(name)

        def prepare():
            data = lcs.build_lcs(cfg)
            data.tau_matrix, data.u_points, data.pi_b, data.im_delta.basis  # noqa: B018 - built before timing, Im δ̄ unreduced
            gc.collect()
            return data

        def flat(data):
            return (
                helpers.flat_preimage_equals_u_plus_b(data),
                helpers.flat_kappa_member(data, g, g).ok,
                helpers.flat_kappa_member(data, g, gprime).witness.modulus,
            )

        def by_core(data):
            return lcs.tau_preimage_equals_u_plus_b(data), lcs.kappa(data, g, g).zero, lcs.kappa(data, g, gprime).witness.modulus

        flat_s, (*flat_verdicts, flat_modulus), data, _ = best_of(f"{name} flat", prepare, flat)
        core_s, (*core_verdicts, core_modulus), data, _ = best_of(f"{name} core", prepare, by_core)
        if flat_verdicts != core_verdicts:
            raise SystemExit(f"{name}: the flat route gives {flat_verdicts}, the core {core_verdicts}")
        basis = data.im_delta_core.lattice.basis
        records.append({
            "config": name, "im_delta_shape": list(data.im_delta.basis.shape),
            "core_shape": [basis.rows, len(set().union(*basis.sparse_rows))], "core_rank": data.im_delta_core.lattice.rank,
            "peeled": len(data.im_delta_core.peeled), "verdicts": flat_verdicts,
            "flat_modulus": flat_modulus, "core_modulus": core_modulus, "flat_s": flat_s, "core_s": core_s,
        })
    by_config = lambda rec: rec["config"]  # noqa: E731
    return {"flat_s": total_s(records, by_config, "flat_s"), "core_s": total_s(records, by_config, "core_s"), "inputs": records}


# -- c13report: the whole c13-report, in process -----------------------------------------


C13_REPORT_SEEDS = (0, SEED)


def run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def c13report() -> dict:
    """``c13-report --seed S``, each run after the caches perfbench clears are cleared and ``maclane-report`` has run, both untimed."""
    records = []
    for seed in C13_REPORT_SEEDS:

        def prepare():
            for module in (config, words, exactlin, lcs, geom, cli):
                for value in vars(module).values():
                    if callable(getattr(value, "cache_clear", None)):
                        value.cache_clear()
            run_cli(["maclane-report"])
            gc.collect()

        def report(_):
            return run_cli(["c13-report", "--seed", str(seed)])

        seconds, (code, digest), _, (_, out) = best_of(f"c13-report --seed {seed}", prepare, report, lambda r: (r[0], sha_text(r[1])))
        checks = {c["name"]: c["details"] for c in json.loads(out)["checks"]}
        records.append({
            "seed": seed, "exit": code, "stdout_sha256": digest, "glued_classes": checks["glued_classes"],
            "glued_certificate": checks.get("glued_certificate"), "seconds": seconds,
        })
    return {"total_s": total_s(records, lambda rec: f"seed {rec['seed']}"), "inputs": records}


SOURCES = {
    "kernel": kernel, "lattice": lattice, "kappa": kappa, "realization": realization, "bracket": bracket, "u": u,
    "words": words_source, "taustar": taustar, "core": core, "c13report": c13report,
}
OLD_SCRIPTS = {f"{source}_replay.py": source for source in ("kernel", "lattice", "kappa", "realization", "bracket", "u")}


# -- run records ----------------------------------------------------------------------


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


def write_run(args: argparse.Namespace, fields: dict) -> dict:
    """Write the run metadata and ``fields`` under ``args.label`` into ``args.out``, keeping other labels; return the run."""
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc["command"] = f"python3 tools/replay.py {args.source} --label LABEL --out FILE"
    run = doc.setdefault("runs", {})[args.label] = {
        "source": args.source,
        "commit": args.commit or commit(),
        "src_sha256": src_sha256(),
        "python": platform.python_version(),
        "machine": f"{cpu_model()}, {os.cpu_count()} CPUs",
        "repeat": REPEAT,
        **fields,
    }
    args.out.write_text(dump(doc))
    return run


def dump(doc: dict) -> str:
    """``doc`` as indented JSON, with each input record on one line."""
    runs = []
    for label, run in doc["runs"].items():
        head = "".join(f"   {json.dumps(k)}: {json.dumps(v)},\n" for k, v in run.items() if k != "inputs")
        inputs = ",\n".join(f"    {json.dumps(rec)}" for rec in run["inputs"])
        runs.append(f'  {json.dumps(label)}: {{\n{head}   "inputs": [\n{inputs}\n   ]\n  }}')
    runs_text = ",\n".join(runs)
    return f'{{\n "command": {json.dumps(doc["command"])},\n "runs": {{\n{runs_text}\n }}\n}}\n'


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("source", choices=SOURCES, help="what to replay")
    ap.add_argument("--label", required=True, help="key of this run in the output file")
    ap.add_argument("--out", required=True, type=Path, help="JSON file to write (other labels are kept)")
    ap.add_argument("--commit", help="commit to record instead of git describe, for a run in a git archive copy")
    args = ap.parse_args(argv)
    run = write_run(args, SOURCES[args.source]())
    summary = {k: v for k, v in run.items() if k.endswith("_s") or k == "verdicts"}
    print(f"{args.label}: {args.source}, {len(run['inputs'])} records, {summary}")


if __name__ == "__main__":
    main()
