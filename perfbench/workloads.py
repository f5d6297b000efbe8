"""The benchmark's three workloads.

Each workload is driven by one caller in one single-threaded process, in a
closed loop: the next sample starts only when the previous verdict is back
and checked.  A workload provides

* ``setup(mods, seed, workdir)``: input generation (and, for kappa-stream,
  the warm build); returns the state the samples use;
* ``prepare(state, i)``: the inputs of sample ``i`` (not timed);
* ``sample(state, inp)``: the timed work, returning what it computed;
* ``check(state, inp, out)``: the correctness gate, a list of problems;
* ``counts(state, out)``: exact counts (ranks, shapes, entry bit lengths)
  that must repeat from run to run.
"""

from __future__ import annotations

import contextlib
import io
import json

import inputs

C13_RANKS = {"rank_P2": 15, "rank_P3": 40, "rank_R3": 532, "rank_R3perp": 40}
C13_VERDICT = "fundamental groups differ mod gamma_4"


def witness_problems(data, value, witness) -> list[str]:
    """A κ witness must vanish on every Im δ̄ basis row but not on the value."""
    f, mod = witness.functional, witness.modulus
    for k, row in enumerate(data.im_delta.basis.entries):
        x = sum(a * b for a, b in zip(f, row) if a)
        if (x % mod if mod else x) != 0:
            return [f"witness does not vanish on Im delta row {k}"]
    x = sum(a * b for a, b in zip(f, value.flat) if a)
    if (x % mod if mod else x) == 0:
        return ["witness vanishes on the tau value"]
    return []


def kappa_problems(mods, data, report, expect_zero) -> list[str]:
    """Check a KappaReport's certificate or witness, and its verdict if known."""
    problems = []
    if expect_zero is not None and report.zero != expect_zero:
        problems.append(f"kappa zero={report.zero}, expected {expect_zero}")
    if report.zero:
        if mods.lcs.delta_bar(data, report.certificate) != report.tau_value:
            problems.append("certificate: delta_bar(cert) != tau value")
    else:
        problems += witness_problems(data, report.tau_value, report.witness)
    return problems


def bit_counts(data) -> dict:
    return {
        f"P3_{name}_max_bits": max(abs(x).bit_length() for row in getattr(data.p3, name).entries for x in row)
        for name in ("projection", "section")
    }


def c13_counts(data) -> dict:
    return {
        "rank_P2": data.p2.free_rank,
        "rank_P3": data.p3.free_rank,
        "rank_R3": data.r3.rank,
        "shape_R3": list(data.r3.basis.shape),
        "shape_tau": list(data.tau_matrix.shape),
        "shape_im_delta": list(data.im_delta.basis.shape),
        **bit_counts(data),
    }


class CliSuite:
    name = "cli-suite"
    why = (
        "What a user types: one cold cycle of in-process arrlcs commands on the 8- and 13-line data. "
        "Many modules take a share (words, geom, config, JSON output); quotient_presentation is about "
        "15% of it, so a big-HNF optimisation should predict little change here."
    )
    cold = True
    period = 1

    def setup(self, mods, seed, workdir):
        relab = inputs.relabel(mods, mods.config.maclane_c8(), seed)
        cfg, g_plus, g_minus = inputs.write_kappa_files(mods, relab, workdir)
        argvs = [
            ["maclane-report"],
            ["maclane-report", "--swap-g"],
            ["c13-report", "--seed", str(seed)],
            ["kappa", "--builtin", "maclane8", "--g", "builtin:plus", "--gprime", "builtin:minus"],
            ["kappa", "--config", cfg, "--g", g_plus, "--gprime", g_minus],
        ]
        return {"mods": mods, "relab": relab, "argvs": argvs, "reference": None}

    def prepare(self, state, i):
        return i

    def sample(self, state, inp):
        outs = []
        for argv in state["argvs"]:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                try:
                    code = state["mods"].cli.main(argv)
                except SystemExit as exc:  # argparse rejects the arguments
                    code = exc.code
            outs.append((code, buf.getvalue()))
        return outs

    def check(self, state, inp, out):
        if state["reference"] is not None:
            return [f"stdout of {argv} differs from the first cycle" for argv, o, r in zip(state["argvs"], out, state["reference"]) if o != r]
        problems = [f"{argv} exited {code}" for argv, (code, _) in zip(state["argvs"], out) if code != 0]
        if problems:
            return problems
        mac, swap, c13, kap, kap_files = (json.loads(text) for _, text in out)
        problems += self._verify_outputs(state, mac, swap, c13, kap, kap_files)
        if not problems:
            state["reference"] = out
        return problems

    def _verify_outputs(self, state, mac, swap, c13, kap, kap_files):
        mods = state["mods"]
        problems = []
        for label, doc, zero in (("maclane-report", mac, False), ("maclane-report --swap-g", swap, True)):
            kap_check = next(c for c in doc["checks"] if c["name"] == "kappa")["details"]
            if not (doc["ok"] and doc["verdict"] == "pass" and kap_check["zero"] is zero):
                problems.append(f"{label}: verdict {doc['verdict']}, kappa zero {kap_check['zero']}")
        classes = next(c for c in c13["checks"] if c["name"] == "glued_classes")["details"]
        if c13["verdict"] != C13_VERDICT or classes != {"class_plus_plus": 0, "class_plus_minus": 1}:
            problems.append(f"c13-report: verdict {c13['verdict']!r}, classes {classes}")
        c8 = mods.lcs.build_lcs(mods.config.maclane_c8())
        relabeled = mods.lcs.build_lcs(state["relab"].config)
        swap_kappa = next(c for c in swap["checks"] if c["name"] == "kappa")["details"]
        for label, data, doc, zero in (
            ("maclane-report --swap-g", c8, swap_kappa, True),
            ("kappa --builtin", c8, kap, False),
            ("kappa --config", relabeled, kap_files, False),
        ):
            problems += [f"{label}: {p}" for p in self._json_kappa_problems(mods, data, doc, zero)]
        if kap.get("t_value") != 1:
            problems.append(f"kappa --builtin: t_value {kap.get('t_value')}")
        return problems

    @staticmethod
    def _json_kappa_problems(mods, data, doc, zero):
        if doc["zero"] is not zero:
            return [f"zero={doc['zero']}, expected {zero}"]
        IntMatrix = mods.exactlin.IntMatrix
        value = mods.lcs.HomR2P3(data.gens, data.p3.free_rank, tuple(doc["tau_value"]))
        if zero:
            cert = IntMatrix(doc["certificate"], data.p2.free_rank)
            return [] if mods.lcs.delta_bar(data, cert) == value else ["certificate: delta_bar(cert) != tau value"]
        w = doc["witness"]
        return witness_problems(data, value, mods.exactlin.Witness(tuple(w["functional"]), w["modulus"], w["pairing"]))

    def counts(self, state, out):
        mods = state["mods"]
        c8 = mods.lcs.build_lcs(mods.config.maclane_c8())
        return {
            "rank_P2": c8.p2.free_rank,
            "rank_P3": c8.p3.free_rank,
            "rank_R3": c8.r3.rank,
            "shape_R3": list(c8.r3.basis.shape),
            "stdout_bytes": [len(text) for _, text in out],
            **bit_counts(c8),
        }


class C13Direct:
    name = "c13-direct"
    why = (
        "C13 computed on C13 itself, cold: exact HNF/SNF on matrices 500-2000 columns wide is nearly all "
        "of it, so quotient, tau and kernel-check work shows here."
    )
    cold = True
    period = 1

    def setup(self, mods, seed, workdir):
        relab = inputs.relabel(mods, mods.config.glue_c13(), seed)
        g_pp, g_pm = inputs.glued_pairs(mods, relab)
        return {"mods": mods, "config": relab.config, "g_pp": g_pp, "g_pm": g_pm}

    def prepare(self, state, i):
        return i

    def sample(self, state, inp):
        lcs, cfg = state["mods"].lcs, state["config"]
        data = lcs.build_lcs(cfg)
        data.r3, data.p3, data.r3perp, data.tau_matrix, data.im_delta  # noqa: B018 - computed in order
        return {
            "data": data,
            "kernel_is_U": lcs.tau_kernel_equals_u(data),
            "preimage_is_U_plus_B": lcs.tau_preimage_equals_u_plus_b(data),
            "kappa_pp": lcs.kappa(data, state["g_pp"], state["g_pp"]),
            "kappa_pm": lcs.kappa(data, state["g_pp"], state["g_pm"]),
        }

    def check(self, state, inp, out):
        data = out["data"]
        got = {"rank_P2": data.p2.free_rank, "rank_P3": data.p3.free_rank, "rank_R3": data.r3.rank, "rank_R3perp": data.r3perp.rank}
        problems = [] if got == C13_RANKS else [f"ranks {got}, expected {C13_RANKS}"]
        if not (data.p2.is_torsion_free and data.p3.is_torsion_free):
            problems.append("graded quotient has torsion")
        problems += [name for name in ("kernel_is_U", "preimage_is_U_plus_B") if not out[name]]
        mods = state["mods"]
        problems += [f"kappa(plus,plus): {p}" for p in kappa_problems(mods, data, out["kappa_pp"], True)]
        problems += [f"kappa(plus,minus): {p}" for p in kappa_problems(mods, data, out["kappa_pm"], False)]
        return problems

    def counts(self, state, out):
        return {**c13_counts(out["data"]), "rank_R3perp": out["data"].r3perp.rank}


# the fixed order of query kinds in every period of kappa-stream: half of the
# pairs differ by an element of U+B, one in four differences is sparse
KAPPA_PATTERN = (
    ("in_UB", True), ("in_UB", False), ("in_UB", False), ("in_UB", False),
    ("random", True), ("random", False), ("random", False), ("random", False),
)
WARMUP_LIMIT = 64


class KappaStream:
    name = "kappa-stream"
    why = (
        "Warm kappa queries on one prebuilt C13: the same lcs and exactlin code as c13-direct, as queries "
        "(tau_tilde plus member) rather than cold builds, so setup/query trade-offs show."
    )
    cold = False
    period = len(KAPPA_PATTERN)

    def setup(self, mods, seed, workdir):
        lcs = mods.lcs
        relab = inputs.relabel(mods, mods.config.glue_c13(), seed)
        cfg = relab.config
        ub_rows = list(lcs.u_lattice(cfg).basis.entries) + list(lcs.b_lattice(cfg).basis.entries)
        data = lcs.build_lcs(cfg)
        data.tau_matrix, data.im_delta  # noqa: B018 - the warm build
        state = {"mods": mods, "config": cfg, "ub_rows": ub_rows, "data": data, "seed": seed, "warmup_queries": 0}
        # warm-up: query until a witness has needed the orthogonal complement
        # of Im δ̄, which member() builds lazily on its first rational failure
        for k in range(WARMUP_LIMIT):
            pair = inputs.kappa_pair(mods, cfg, ub_rows, seed, -1 - k, "random", False)
            report = lcs.kappa(data, pair.g, pair.gprime)
            state["warmup_queries"] = k + 1
            if report.witness is not None and report.witness.modulus == 0:
                break
        return state

    def prepare(self, state, i):
        kind, sparse = KAPPA_PATTERN[i % len(KAPPA_PATTERN)]
        return inputs.kappa_pair(state["mods"], state["config"], state["ub_rows"], state["seed"], i, kind, sparse)

    def sample(self, state, inp):
        return state["mods"].lcs.kappa(state["data"], inp.g, inp.gprime)

    def check(self, state, inp, out):
        expect = True if inp.kind == "in_UB" else None
        return kappa_problems(state["mods"], state["data"], out, expect)

    def counts(self, state, out):
        return {**c13_counts(state["data"]), "warmup_queries": state["warmup_queries"]}


WORKLOADS = {w.name: w for w in (CliSuite(), C13Direct(), KappaStream())}
