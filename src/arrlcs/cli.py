"""Batch verification front end.

Subcommands
-----------
validate        check a configuration JSON file against the incidence axioms
maclane-report  run the full verification suite on the 8-line MacLane data
c13-report      build the glued 13-line configuration, realize it twice,
                and compare the two gluings up to the third lower-central
                quotient
kappa           compute the obstruction class for user-supplied data
dump-data       print one of the embedded datasets

All reports are JSON on stdout, deterministic byte for byte given the
same inputs and seed.
Exit codes: 0 every check passed, 1 at least one check failed, 2 the
input was unusable (parse error, torsion, domain mismatch).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

from . import __version__
from .config import (
    Configuration,
    automorphisms,
    glue_c13,
    is_s3_times_z2,
    load_configuration_file,
    load_json_file,
    maclane_c8,
    partition_check,
    validate,
    _builtin_json,
)
from .exactlin import IntMatrix, Lattice
from .geom import (
    DegenerateRealization,
    check_realization,
    conjugate_realization,
    generic_glued_realization,
    phi_c8,
)
from .lcs import (
    TorsionError,
    build_lcs,
    class_of_glued,
    kappa,
    tau_kernel_equals_u,
    tau_preimage_equals_u_plus_b,
    _maclane_data,
)
from .maclane import (
    builtin_g_difference,
    builtin_g_map,
    generator_lists_consistent,
    maclane_dual_basis,
    t_functional,
    tau_star_identities,
    _t_vector,
)
from .words import GMap

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INPUT = 2

_BUILTIN_CONFIGS = {"maclane8": maclane_c8, "glued13": glue_c13}
_DUMPABLE = (
    *_BUILTIN_CONFIGS,
    "dual_basis_c8",
    "conjugators_plus",
    "conjugators_minus",
    "relators_plus",
    "relators_minus",
)


def _input_config(args, path: str | None) -> Configuration | None:
    """The ``--builtin`` configuration or the JSON file at ``path``; None, with the error emitted, if unusable."""
    try:
        return _BUILTIN_CONFIGS[args.builtin]() if args.builtin else load_configuration_file(path)
    except (OSError, ValueError) as exc:
        _emit(args, {"ok": False, "error": str(exc)})
        return None


def _digest(config: Configuration) -> str:
    return hashlib.sha256(config.canonical_json().encode()).hexdigest()


def _check(name: str, ok: bool, details: dict) -> dict:
    return {"name": name, "status": "pass" if ok else "fail", "details": details}


def _assemble(report_name: str, config: Configuration, checks: list[dict], verdict: str | None = None) -> dict:
    ok = all(c["status"] == "pass" for c in checks)
    return {
        "tool": "arrlcs",
        "version": __version__,
        "report": report_name,
        "configuration_digest": _digest(config),
        "checks": checks,
        "ok": ok,
        "verdict": verdict if verdict is not None else ("pass" if ok else "fail"),
    }


def _emit(args, payload: dict) -> None:
    """Print ``payload`` as JSON unless ``--quiet``.

    If the reader has closed stdout, stdout is pointed at ``os.devnull``, so
    the command still exits with its own code and no traceback.
    """
    if getattr(args, "quiet", False):
        return
    try:
        print(json.dumps(payload, indent=2, sort_keys=True))
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


# -- validate -----------------------------------------------------------------


def cmd_validate(args) -> int:
    config = _input_config(args, args.path)
    if config is None:
        return EXIT_INPUT
    report = validate(config)
    payload = report.to_json_dict()
    payload["lines"] = len(config.lines)
    payload["points"] = len(config.points)
    payload["configuration_digest"] = _digest(config)
    _emit(args, payload)
    return EXIT_PASS if report.ok else EXIT_FAIL


# -- maclane-report -----------------------------------------------------------


def _ranks_check(data) -> dict:
    computed = {
        "dim_L2": data.npairs,
        "dim_L3": data.dim3,
        "rank_R2": data.r2.rank,
        "rank_P2": data.p2.free_rank,
        "rank_R3": data.r3.rank,
        "rank_P3": data.p3.free_rank,
        "rank_R3perp": data.r3perp.rank,
        "P2_torsion_free": data.p2.is_torsion_free,
        "P3_torsion_free": data.p3.is_torsion_free,
        "r3perp_routes_agree": True,  # building data.r3perp above raises if its two routes disagree
    }
    expected = {
        "dim_L2": 21,
        "dim_L3": 112,
        "rank_R2": 13,
        "rank_P2": 8,
        "rank_R3": 91,
        "rank_P3": 21,
        "rank_R3perp": 21,
        "P2_torsion_free": True,
        "P3_torsion_free": True,
        "r3perp_routes_agree": True,
    }
    return _check("ranks", computed == expected, {"computed": computed, "expected": expected})


def _dual_basis_check(data) -> dict:
    duals = maclane_dual_basis()
    st_rows = [e.coords for e in duals if e.tag in ("S", "T")]
    ijk_rows = [e.coords for e in duals if e.tag in ("I", "J", "K1", "K2")]
    st_span = Lattice(data.hw_rank, IntMatrix._of(st_rows, data.hw_rank))
    ijk_span = Lattice(data.a_rank, IntMatrix._of(ijk_rows, data.a_rank))
    st_ok = st_span == data.r3perp
    ijk_ok = ijk_span == Lattice(data.a_rank, data.u_projection.transpose())  # π's columns: a basis of U⊥
    return _check(
        "dual_basis_spans",
        st_ok and ijk_ok,
        {
            "S_T_count": len(st_rows),
            "S_T_spans_R3perp": st_ok,
            "I_J_K_count": len(ijk_rows),
            "I_J_K_spans_U_perp": ijk_ok,
        },
    )


def _tau_star_check(data) -> dict:
    rep = tau_star_identities(data)
    return _check("tau_star_identities", rep.all_ok, rep.to_json_dict())


def _kernel_check(data) -> dict:
    ker_ok = tau_kernel_equals_u(data)
    pre_ok = tau_preimage_equals_u_plus_b(data)
    # rank U = dim A - rank U⊥, and U + B is U's rank plus that of π(B) in A/U
    rank_u = data.a_rank - data.u_projection.cols
    return _check(
        "kernel_structure",
        ker_ok and pre_ok,
        {
            "rank_U": rank_u,
            "rank_B": data.b.rank,
            "rank_U_plus_B": rank_u + data.pi_b.rank,
            "tau_kernel_equals_U": ker_ok,
            "tau_preimage_of_im_delta_equals_U_plus_B": pre_ok,
        },
    )


def _t_check(data) -> dict:
    diff = builtin_g_difference()
    expected_diff = {
        (4, "p45"): {3: -1, 6: -1, 7: 1},
        (2, "p23"): {5: -1},
        (6, "p246"): {7: -1},
    }
    diff_vals = {k: {j + 1: x for j, x in enumerate(v) if x} for k, v in diff.values.items()}
    diff_ok = diff_vals == expected_diff
    t_diff = t_functional(diff)
    t, modulus = _t_vector()
    t_on_u = [sum(t.get(pt.rows.start + k, 0) * x for k, x in row.items()) % modulus for pt in data.u_points for row in pt.u.sparse_rows]
    t_on_b = [sum(t.get(k, 0) * x for k, x in row.items()) % modulus for row in data.b.basis.sparse_rows]
    ok = diff_ok and t_diff == 1 and not any(t_on_u) and not any(t_on_b)
    return _check(
        "mod3_functional",
        ok,
        {
            "difference_matches_listed_values": diff_ok,
            "t_of_difference": t_diff,
            "t_vanishes_on_U": not any(t_on_u),
            "t_vanishes_on_B": not any(t_on_b),
        },
    )


def _transcription_check() -> dict:
    plus_ok = generator_lists_consistent("plus")
    minus_ok = generator_lists_consistent("minus")
    return _check(
        "conjugated_generator_lists",
        plus_ok and minus_ok,
        {"plus": plus_ok, "minus": minus_ok},
    )


def _kappa_check(data, swap_g: bool) -> dict:
    g_plus = builtin_g_map("plus")
    g_other = g_plus if swap_g else builtin_g_map("minus")
    rep = kappa(data, g_plus, g_other)
    expected_zero = swap_g
    ok = rep.zero == expected_zero
    details = rep.to_json_dict()
    details["expected_zero"] = expected_zero
    return _check("kappa", ok, details)


def _realization_check() -> dict:
    plus = phi_c8("+")
    minus = phi_c8("-")
    rep_plus = check_realization(maclane_c8(), plus)
    rep_minus = check_realization(maclane_c8(), minus)
    conj_ok = conjugate_realization(plus) == minus
    ok = rep_plus.ok and rep_minus.ok and conj_ok
    return _check(
        "realizations",
        ok,
        {
            "plus_realizes_c8": rep_plus.ok,
            "minus_realizes_c8": rep_minus.ok,
            "clusters": len(rep_plus.locations),
            "conjugation_swaps_signs": conj_ok,
        },
    )


def cmd_maclane_report(args) -> int:
    data = _maclane_data()
    checks = [_ranks_check(data)]
    if not args.no_hardcoded:
        checks.append(_dual_basis_check(data))
        checks.append(_tau_star_check(data))
    checks.append(_kernel_check(data))
    if not args.no_hardcoded:
        checks.append(_t_check(data))
        checks.append(_transcription_check())
    checks.append(_kappa_check(data, args.swap_g))
    checks.append(_realization_check())
    payload = _assemble("maclane", data.config, checks)
    _emit(args, payload)
    return EXIT_PASS if payload["ok"] else EXIT_FAIL


# -- c13-report -----------------------------------------------------------------


CAVEAT = (
    "The class computation obstructs isomorphisms acting as the identity "
    "on the canonical degree-1 generators; ruling out arbitrary abstract "
    "isomorphisms additionally needs a rigidity argument for this "
    "configuration, which is outside the scope of this computation."
)


def cmd_c13_report(args) -> int:
    c13 = glue_c13()
    checks = []

    val = validate(c13)
    checks.append(
        _check(
            "configuration",
            val.ok and len(c13.lines) == 13 and len(c13.points) == 48,
            {"valid": val.ok, "lines": len(c13.lines), "points": len(c13.points)},
        )
    )

    autos = automorphisms(c13)
    part_ok = partition_check(c13, autos)
    struct_ok = is_s3_times_z2(autos)
    checks.append(
        _check(
            "automorphisms",
            len(autos) == 12 and struct_ok and part_ok,
            {
                "count": len(autos),
                "s3_times_z2": struct_ok,
                "partition_preserved": part_ok,
            },
        )
    )

    realization_details = {}
    realization_ok = True
    try:
        for sign in ("+", "-"):
            glued = generic_glued_realization(sign, args.seed)
            realization_details[sign] = {
                "seed_used": glued.seed,
                "rejected_seeds": list(glued.rejected_seeds),
                "clusters": len(glued.report.locations),
                "ok": glued.report.ok,
            }
            realization_ok = realization_ok and glued.report.ok
    except DegenerateRealization as exc:
        realization_ok = False
        realization_details["error"] = str(exc)
    checks.append(_check("glued_realizations", realization_ok, realization_details))

    g_plus = builtin_g_map("plus")
    g_minus = builtin_g_map("minus")
    class_pp = class_of_glued(c13, g_plus, g_plus)
    class_pm = class_of_glued(c13, g_plus, g_minus)
    checks.append(
        _check(
            "glued_classes",
            class_pp == 0 and class_pm == 1,
            {"class_plus_plus": class_pp, "class_plus_minus": class_pm},
        )
    )

    distinct = class_pp != class_pm
    verdict = (
        "fundamental groups differ mod gamma_4"
        if distinct and all(c["status"] == "pass" for c in checks)
        else "no difference certified"
    )
    payload = _assemble("c13", c13, checks, verdict=verdict)
    payload["caveat"] = CAVEAT
    _emit(args, payload)
    return EXIT_PASS if payload["ok"] else EXIT_FAIL


# -- kappa ----------------------------------------------------------------------


def _load_g(config: Configuration, source: str) -> GMap:
    """A g-map from ``builtin:plus``/``builtin:minus`` (maclane8 only) or a JSON file path."""
    if source.startswith("builtin:"):
        if config != maclane_c8():
            raise ValueError(
                f"{source!r} names the bundled MacLane conjugator data, which holds only for maclane8; "
                "for this configuration pass a g-map JSON file"
            )
        return builtin_g_map(source.split(":", 1)[1])
    return GMap.from_json_dict(config, load_json_file(source))


def cmd_kappa(args) -> int:
    config = _input_config(args, args.config)
    if config is None:
        return EXIT_INPUT
    try:
        g = _load_g(config, args.g)
        gprime = _load_g(config, args.gprime)
        report = kappa(build_lcs(config), g, gprime)
    except TorsionError as exc:
        _emit(
            args,
            {
                "ok": False,
                "error": f"refusing this configuration: {exc}",
                "explanation": "the obstruction class needs torsion-free graded quotients",
            },
        )
        return EXIT_INPUT
    except (OSError, ValueError) as exc:
        _emit(args, {"ok": False, "error": str(exc)})
        return EXIT_INPUT
    payload = report.to_json_dict()
    payload["configuration_digest"] = _digest(config)
    payload["ok"] = True
    _emit(args, payload)
    return EXIT_PASS


# -- dump-data --------------------------------------------------------------------


def cmd_dump_data(args) -> int:
    if args.name is None:
        _emit(args, {"datasets": list(_DUMPABLE)})
        return EXIT_PASS
    if args.name in _BUILTIN_CONFIGS:
        payload = _BUILTIN_CONFIGS[args.name]().to_json_dict()
    elif args.name in _DUMPABLE:
        payload = _builtin_json(f"{args.name}.json")
    else:
        _emit(args, {"ok": False, "error": f"unknown dataset {args.name!r}"})
        return EXIT_INPUT
    _emit(args, payload)
    return EXIT_PASS


# -- entry point -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arrlcs",
        description="Exact lower-central-series invariants of line-arrangement groups.",
    )
    parser.add_argument("--version", action="version", version=f"arrlcs {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--quiet", action="store_true", help="suppress output, use the exit code only")

    p_val = sub.add_parser("validate", help="check a configuration against the incidence axioms")
    src = p_val.add_mutually_exclusive_group(required=True)
    src.add_argument("path", nargs="?", help="configuration JSON file")
    src.add_argument("--builtin", choices=_BUILTIN_CONFIGS, help="use an embedded configuration")
    common(p_val)
    p_val.set_defaults(func=cmd_validate)

    p_mac = sub.add_parser("maclane-report", help="full verification suite for the 8-line MacLane data")
    p_mac.add_argument("--swap-g", action="store_true", help="compare the plus data with itself (class must be zero)")
    p_mac.add_argument(
        "--no-hardcoded",
        action="store_true",
        help="skip checks that consume transcribed dual-basis data; everything kept is recomputed from the configuration",
    )
    common(p_mac)
    p_mac.set_defaults(func=cmd_maclane_report)

    p_c13 = sub.add_parser("c13-report", help="glued 13-line configuration: symmetry, realizations, classes")
    p_c13.add_argument("--seed", type=int, default=0, help="seed for the gluing transformation search")
    common(p_c13)
    p_c13.set_defaults(func=cmd_c13_report)

    p_kap = sub.add_parser("kappa", help="obstruction class for user-supplied conjugator data")
    csrc = p_kap.add_mutually_exclusive_group(required=True)
    csrc.add_argument("--config", help="configuration JSON file")
    csrc.add_argument("--builtin", choices=_BUILTIN_CONFIGS, help="use an embedded configuration")
    builtin_g = "JSON file or builtin:plus / builtin:minus (maclane8 only)"
    p_kap.add_argument("--g", required=True, help=f"first g-map: {builtin_g}")
    p_kap.add_argument("--gprime", required=True, help=f"second g-map: {builtin_g}")
    common(p_kap)
    p_kap.set_defaults(func=cmd_kappa)

    p_dump = sub.add_parser("dump-data", help="print an embedded dataset (no name: list datasets)")
    p_dump.add_argument("name", nargs="?", help=f"one of {', '.join(_DUMPABLE)}")
    p_dump.set_defaults(func=cmd_dump_data)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
