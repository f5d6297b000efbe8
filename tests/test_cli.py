"""Command-line interface: subcommands, exit codes, and deterministic output."""

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from arrlcs import certify, cli, exactlin, lcs, maclane
from arrlcs.config import glue_c13, maclane_c8
from arrlcs.lcs import TorsionError
from arrlcs.maclane import builtin_g_map
from arrlcs.words import MAX_WORD_LETTERS, lie_basis
from helpers import relabel


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def write_json(tmp_path, name, payload):
    f = tmp_path / name
    f.write_text(json.dumps(payload))
    return str(f)


TRIANGLE = {
    "lines": ["l0", "l1", "l2"],
    "infinity": "l0",
    "points": [
        {"name": "a", "lines": ["l0", "l1"]},
        {"name": "b", "lines": ["l0", "l2"]},
        {"name": "c", "lines": ["l1", "l2"]},
    ],
}


# -- validate -------------------------------------------------------------------


def test_validate_builtin_configs(capsys):
    code, payload = run_json(capsys, "validate", "--builtin", "maclane8")
    assert code == 0
    assert payload["ok"] is True
    assert payload["lines"] == 8 and payload["points"] == 12
    assert len(payload["configuration_digest"]) == 64
    code, payload = run_json(capsys, "validate", "--builtin", "glued13")
    assert code == 0
    assert payload["lines"] == 13 and payload["points"] == 48


@pytest.mark.parametrize(
    "bad",
    [
        {**TRIANGLE, "points": 5},
        {**TRIANGLE, "points": [{"name": "a", "lines": 7}]},
        {**TRIANGLE, "points": [{"name": ["p"], "lines": ["l0", "l1"]}]},
        {**TRIANGLE, "lines": ["l0", "l1", "l2", "l0"]},
        {**TRIANGLE, "points": TRIANGLE["points"][:2] + [{"name": "c", "lines": ["l1", "l2", "l1"]}]},
    ],
    ids=["points-not-a-list", "lines-not-a-list", "name-not-a-string", "repeated-infinity-line", "line-twice-at-a-point"],
)
def test_validate_rejects_malformed_shapes(capsys, tmp_path, bad):
    code, payload = run_json(capsys, "validate", write_json(tmp_path, "bad.json", bad))
    assert code == 2
    assert payload["ok"] is False


def test_validate_axiom_violation(capsys, tmp_path):
    bad = dict(TRIANGLE)
    bad["points"] = TRIANGLE["points"] + [{"name": "d", "lines": ["l2"]}]
    path = write_json(tmp_path, "bad.json", bad)
    code, payload = run_json(capsys, "validate", path)
    assert code == 1
    assert payload["ok"] is False
    assert any("fewer than two lines" in v for v in payload["violations"])


def test_validate_disjoint_lines(capsys, tmp_path):
    bad = dict(TRIANGLE)
    bad["points"] = TRIANGLE["points"][:2]  # l1 and l2 no longer meet
    path = write_json(tmp_path, "bad.json", bad)
    code, payload = run_json(capsys, "validate", path)
    assert code == 1
    assert any("share no point" in v for v in payload["violations"])


@pytest.mark.parametrize(
    "argv",
    [["validate"], ["kappa", "--g", "builtin:plus", "--gprime", "builtin:plus", "--config"]],
    ids=["validate", "kappa"],
)
def test_point_listing_a_non_string_line_exits_2(capsys, tmp_path, argv):
    bad = {"lines": ["a", "b", "c"], "infinity": "a", "points": [{"name": "p", "lines": [["a"], "b"]}]}
    code, payload = run_json(capsys, *argv, write_json(tmp_path, "bad.json", bad))
    assert code == 2
    assert payload == {"ok": False, "error": "point 'p': 'lines' must hold line names (strings)"}


def test_validate_malformed_json(capsys, tmp_path):
    f = tmp_path / "broken.json"
    f.write_text("{")
    code, payload = run_json(capsys, "validate", str(f))
    assert code == 2
    assert payload["ok"] is False and "error" in payload


def test_validate_missing_file(capsys):
    code, payload = run_json(capsys, "validate", "/nonexistent/config.json")
    assert code == 2
    assert payload["ok"] is False


def test_validate_requires_a_source():
    with pytest.raises(SystemExit) as exc:
        cli.main(["validate"])
    assert exc.value.code == 2


# -- maclane-report ---------------------------------------------------------------


def test_maclane_report_all_checks_pass(capsys):
    code, payload = run_json(capsys, "maclane-report")
    assert code == 0
    assert payload["ok"] is True
    assert payload["verdict"] == "pass"
    assert "timing" not in payload
    assert payload["report"] == "maclane"
    names = [c["name"] for c in payload["checks"]]
    assert names == [
        "ranks",
        "dual_basis_spans",
        "tau_star_identities",
        "kernel_structure",
        "mod3_functional",
        "conjugated_generator_lists",
        "kappa",
        "realizations",
    ]
    assert all(c["status"] == "pass" for c in payload["checks"])
    kappa_check = payload["checks"][names.index("kappa")]
    assert kappa_check["details"]["zero"] is False
    assert kappa_check["details"]["t_value"] == 1
    assert kappa_check["details"]["witness"]["modulus"] > 0


def test_maclane_report_swap_g(capsys):
    code, payload = run_json(capsys, "maclane-report", "--swap-g")
    assert code == 0
    kappa_check = next(c for c in payload["checks"] if c["name"] == "kappa")
    d = kappa_check["details"]
    assert d["expected_zero"] is True and d["zero"] is True
    assert d["t_value"] == 0 and d["witness"] is None
    assert len(d["certificate"]) == 7  # one row of P2 coordinates per line


def test_maclane_report_no_hardcoded(capsys):
    code, payload = run_json(capsys, "maclane-report", "--no-hardcoded")
    assert code == 0
    assert [c["name"] for c in payload["checks"]] == [
        "ranks",
        "kernel_structure",
        "kappa",
        "realizations",
    ]
    ranks = payload["checks"][0]["details"]["computed"]
    assert ranks["rank_R3perp"] == 21 and ranks["r3perp_routes_agree"] is True


def test_maclane_report_builds_b_once_and_no_global_u(capsys, monkeypatch):
    # U is read per point (``LcsData.u_points``, ``LcsData.u_projection``): no global
    # U lattice, no U⊥ of it and no lattice sum U + B; B and π(B) are built once
    # (``LcsData.b``, ``LcsData.pi_b``)
    calls, real_b, real_perp = [], lcs.b_lattice, exactlin.perp
    for module in (cli, lcs):
        monkeypatch.setattr(module, "b_lattice", lambda config: calls.append("b_lattice") or real_b(config), raising=False)
    shapes, transforms, real_forward = [], [], exactlin._hnf_forward

    def forward(a, ncols, u):
        shapes.append((len(a), ncols))
        if u is not None:
            transforms.append((len(a), ncols))
        return real_forward(a, ncols, u)

    monkeypatch.setattr(exactlin, "_hnf_forward", forward)
    pullbacks, real_tau_star = [], maclane.tau_star
    monkeypatch.setattr(maclane, "tau_star", lambda *args: pullbacks.append(1) or real_tau_star(*args))
    reads, real_json = [], maclane._builtin_json
    monkeypatch.setattr(maclane, "_builtin_json", lambda name: reads.append(name) or real_json(name))
    maclane.maclane_dual_basis.cache_clear()  # cold: the dual basis is decoded once in here
    maclane._t_vector.cache_clear()

    def refuse(*args):
        raise AssertionError("maclane-report builds a global U lattice or U + B")

    def perp_off_a(lat):
        if lat.ambient_rank == 147:  # A: 21 flags × 7 lines
            raise AssertionError("maclane-report takes a perp in A")
        return real_perp(lat)

    for module in (cli, lcs, exactlin):
        for name, stub in (("u_lattice", refuse), ("lattice_sum", refuse), ("perp", perp_off_a)):
            monkeypatch.setattr(module, name, stub, raising=False)
    monkeypatch.setattr(cli, "_maclane_data", lambda: lcs.build_lcs(maclane_c8()))  # cold: nothing cached
    code, _ = run(capsys, "maclane-report")
    assert code == 0
    assert calls == ["b_lattice"]
    # π(B), the span of B·π (49 × 18), is reduced once, for the preimage identity and rank U + B
    # alike; the 21 × 18 is the preimage's projection, the left kernel of [τ̃∘s; core of Im δ̄]
    # (18 + 21 rows) cut to its first 18 columns.  The P2 and P3 sections are read off unit
    # pivots, so neither projection is reduced
    assert len(shapes) == 25 and shapes.count((49, 18)) == 1 and shapes.count((21, 18)) == 1 and shapes.count((18 + 21, 273)) == 1
    # three passes carry a transform: two left kernels (R3perp's d* route, 56 × 35, and the
    # preimage's 39 × 273) and the second pass over the 42 × 147 lattice that τ̃*'s identities test
    # membership in, once one succeeds with a nonzero value; κ's failed membership builds none
    assert transforms == [(56, 35), (42, 147), (18 + 21, 273)] and shapes.count((42, 147)) == 2
    # Im δ̄ (56 × 273) is never reduced whole: the identity and κ read its 21-row core
    assert (56, 273) not in shapes and shapes.count((21, 273)) == 1
    # R2 (13 × 21) and R3 (91 × 112) are never reduced whole: P2 and P3 reduce what is left of
    # them once their unit rows are peeled, and their ranks are read off those presentations
    assert shapes[:3] == [(10, 18), (8, 21), (77, 98)]
    assert (13, 21) not in shapes and (91, 112) not in shapes
    # 6 σ × 7 base identities, the identity σ's slice being the base identities themselves
    assert len(pullbacks) == 42
    # once for ``maclane_dual_basis``, once for the mod-3 functional's terms
    assert reads.count("dual_basis_c8.json") == 2


# -- c13-report ---------------------------------------------------------------------


def test_c13_report(capsys):
    code, payload = run_json(capsys, "c13-report")
    assert code == 0
    assert payload["ok"] is True
    assert payload["verdict"] == "fundamental groups differ mod gamma_4"
    assert "identity on the canonical degree-1 generators" in payload["caveat"]
    by_name = {c["name"]: c for c in payload["checks"]}
    assert by_name["configuration"]["details"] == {"valid": True, "lines": 13, "points": 48}
    auto = by_name["automorphisms"]["details"]
    assert auto == {"count": 12, "s3_times_z2": True, "partition_preserved": True}
    classes = by_name["glued_classes"]["details"]
    assert classes == {"class_plus_plus": 0, "class_plus_minus": 1}
    certificate = by_name["glued_certificate"]
    assert certificate["status"] == "pass"
    assert certificate["details"] == {"copy": 1, "modulus": 6, "pairing": 2, "failures_a": 0, "failures_b": 0}
    for sign in ("+", "-"):
        real = by_name["glued_realizations"]["details"][sign]
        assert real["ok"] is True and real["clusters"] == 48


def test_c13_report_verdicts_are_computed_on_c13(capsys, monkeypatch):
    # every check of the certificate that decides the classes reads C13's own data, never c8's
    seen = []
    for name in ("certify_glued", "failures_a", "failures_b", "tau_pairing"):
        real = getattr(certify, name)
        monkeypatch.setattr(certify, name, lambda data, *rest, _real=real, _name=name: seen.append((_name, data.config)) or _real(data, *rest))
    monkeypatch.setattr(cli, "certify_glued", certify.certify_glued)
    code, payload = run_json(capsys, "c13-report")
    assert code == 0 and payload["verdict"] == "fundamental groups differ mod gamma_4"
    # plus·plus against itself needs no certificate (ḡ − ḡ′ = 0); plus·plus against plus·minus runs all three checks
    assert [name for name, _ in seen] == ["certify_glued", "certify_glued", "tau_pairing", "failures_a", "failures_b"]
    assert {config for _, config in seen} == {glue_c13()}
    assert not hasattr(lcs, "class_of_glued") and not hasattr(cli, "class_of_glued")


def test_c13_report_alternate_seed(capsys):
    code, payload = run_json(capsys, "c13-report", "--seed", "7")
    assert code == 0
    real = next(c for c in payload["checks"] if c["name"] == "glued_realizations")
    assert real["details"]["+"]["seed_used"] >= 7


# -- kappa ----------------------------------------------------------------------------


def test_kappa_builtin_pair(capsys):
    code, payload = run_json(
        capsys, "kappa", "--builtin", "maclane8", "--g", "builtin:plus", "--gprime", "builtin:minus"
    )
    assert code == 0
    assert payload["ok"] is True
    assert payload["zero"] is False
    assert payload["certificate"] is None
    assert payload["witness"]["pairing"] % payload["witness"]["modulus"] != 0
    assert payload["t_value"] == 1


def test_kappa_builtin_same(capsys):
    code, payload = run_json(
        capsys, "kappa", "--builtin", "maclane8", "--g", "builtin:plus", "--gprime", "builtin:plus"
    )
    assert code == 0
    assert payload["zero"] is True
    assert payload["witness"] is None
    assert payload["certificate"] is not None


def shifted_plus_file(tmp_path, shifts):
    d = builtin_g_map("plus").to_json_dict()
    for key, extra in shifts.items():
        d[key] = (d.get(key, "") + " " + extra).strip()
    return write_json(tmp_path, "g.json", d)


def test_kappa_ignores_point_constant_shift(capsys, tmp_path):
    # adding the same generator at every flag of one point stays in ker tau
    path = shifted_plus_file(
        tmp_path, {"(1,p135)": "w2", "(3,p135)": "w2", "(5,p135)": "w2"}
    )
    code, payload = run_json(
        capsys, "kappa", "--builtin", "maclane8", "--g", path, "--gprime", "builtin:plus"
    )
    assert code == 0
    assert payload["zero"] is True


def test_kappa_ignores_line_constant_shift(capsys, tmp_path):
    # adding the same generator at every finite flag of one line lands in Im delta
    path = shifted_plus_file(
        tmp_path, {"(2,p23)": "w4", "(2,p246)": "w4", "(2,p257)": "w4"}
    )
    code, payload = run_json(
        capsys, "kappa", "--builtin", "maclane8", "--g", path, "--gprime", "builtin:plus"
    )
    assert code == 0
    assert payload["zero"] is True


def test_kappa_shift_plus_both_families_still_separates(capsys, tmp_path):
    path = shifted_plus_file(
        tmp_path,
        {
            "(1,p135)": "w2",
            "(3,p135)": "w2",
            "(5,p135)": "w2",
            "(2,p23)": "w4",
            "(2,p246)": "w4",
            "(2,p257)": "w4",
        },
    )
    code, payload = run_json(
        capsys, "kappa", "--builtin", "maclane8", "--g", path, "--gprime", "builtin:minus"
    )
    assert code == 0
    assert payload["zero"] is False


def test_kappa_rejects_bad_flag(capsys, tmp_path):
    path = write_json(tmp_path, "g.json", {"(0,p135)": "w1"})
    code, payload = run_json(
        capsys, "kappa", "--builtin", "maclane8", "--g", path, "--gprime", "builtin:plus"
    )
    assert code == 2
    assert payload["ok"] is False


@pytest.mark.parametrize("doc", [["x"], {"(1,p135)": 5}], ids=["not-an-object", "word-not-a-string"])
def test_kappa_rejects_malformed_g_file(capsys, tmp_path, doc):
    path = write_json(tmp_path, "g.json", doc)
    code, payload = run_json(
        capsys, "kappa", "--builtin", "maclane8", "--g", path, "--gprime", "builtin:plus"
    )
    assert code == 2
    assert payload["ok"] is False


def test_kappa_reports_a_truncated_g_file_as_validate_does(capsys, tmp_path):
    # one truncated text, read once as a g-map and once as a configuration
    text = json.dumps(builtin_g_map("plus").to_json_dict())[:-7]
    (tmp_path / "g.json").write_text(text)
    code, payload = run_json(
        capsys, "kappa", "--builtin", "maclane8", "--g", str(tmp_path / "g.json"), "--gprime", "builtin:plus"
    )
    assert code == 2
    assert payload["ok"] is False and payload["error"].startswith("invalid JSON: ")
    assert run_json(capsys, "validate", str(tmp_path / "g.json")) == (2, payload)


def test_deeply_nested_json_is_refused_as_invalid_input(capsys, tmp_path):
    # the decoder recurses once per level; 5 000 levels pass the recursion limit
    path = tmp_path / "deep.json"
    path.write_text("[" * 5000 + "]" * 5000)
    for argv in (["validate", str(path)], ["kappa", "--builtin", "maclane8", "--g", str(path), "--gprime", "builtin:plus"]):
        code = cli.main(argv)
        out, err = capsys.readouterr()
        assert (code, err) == (2, ""), argv
        payload = json.loads(out)
        assert payload["ok"] is False and payload["error"].startswith("invalid JSON: ") and "nesting" in payload["error"]


def test_kappa_refuses_a_word_longer_than_the_bound(capsys, tmp_path):
    # the letters are counted from the exponents before any list is built
    g = write_json(tmp_path, "long.json", {"(3,p367)": f"w6^{MAX_WORD_LETTERS} w6^-1"})
    code, payload = run_json(capsys, "kappa", "--builtin", "maclane8", "--g", g, "--gprime", "builtin:plus")
    assert code == 2
    assert payload["ok"] is False and f"more than the {MAX_WORD_LETTERS}" in payload["error"]


def test_validate_rejects_a_repeated_key(capsys, tmp_path):
    # the second "lines" would win silently; the point list names l3, which only it holds
    text = json.dumps(TRIANGLE)[:-1] + ', "lines": ["l0", "l1", "l2", "l3"]}'
    (tmp_path / "twice.json").write_text(text)
    code, payload = run_json(capsys, "validate", str(tmp_path / "twice.json"))
    assert code == 2
    assert payload == {"ok": False, "error": "JSON object repeats the key 'lines'"}


@pytest.mark.parametrize(
    "text, named",
    [
        ('{"(4,p45)": "w3", "(4,p45)": "w1"}', "repeats the key '(4,p45)'"),
        ('{"(4,p45)": "w3", "(4, p45)": "w1"}', "flag key '(4, p45)' names the flag (4,p45) a second time"),
    ],
    ids=["same-key", "same-flag"],
)
def test_kappa_rejects_a_flag_given_twice(capsys, tmp_path, text, named):
    (tmp_path / "g.json").write_text(text)
    code, payload = run_json(
        capsys, "kappa", "--builtin", "maclane8", "--g", str(tmp_path / "g.json"), "--gprime", "builtin:plus"
    )
    assert code == 2
    assert payload["ok"] is False and named in payload["error"]


def test_kappa_rejects_mismatched_builtin_g(capsys, tmp_path, monkeypatch):
    def no_build(config):
        raise AssertionError("kappa builds LcsData before it has both g-maps")

    monkeypatch.setattr(cli, "build_lcs", no_build)
    relabelled = write_json(tmp_path, "c8.json", relabel(maclane_c8(), 41).to_json_dict())
    for where in (["--builtin", "glued13"], ["--config", relabelled]):
        code, payload = run_json(capsys, "kappa", *where, "--g", "builtin:plus", "--gprime", "builtin:minus")
        assert code == 2
        assert payload["ok"] is False
        assert "bundled MacLane conjugator data" in payload["error"]
        assert "g-map JSON file" in payload["error"]


def test_kappa_reports_torsion_as_input_error(capsys, monkeypatch):
    def raise_torsion(config):
        raise TorsionError("degree-2 quotient has torsion")

    monkeypatch.setattr(cli, "build_lcs", raise_torsion)
    code, payload = run_json(
        capsys, "kappa", "--builtin", "maclane8", "--g", "builtin:plus", "--gprime", "builtin:plus"
    )
    assert code == 2
    assert "torsion-free" in payload["explanation"]


def test_kappa_reports_degree_three_torsion_with_explanation(capsys, monkeypatch):
    # a divisor 2 on the L3 quotient only: build_lcs succeeds, and the
    # torsion surfaces lazily, when kappa() first needs P3
    real = lcs.quotient_presentation
    dim_l3 = len(lie_basis(7, 3))

    def l3_torsion(lat):
        pres = real(lat)
        if lat.ambient_rank != dim_l3:
            return pres
        return dataclasses.replace(pres, elementary_divisors=pres.elementary_divisors[:-1] + (2,))

    monkeypatch.setattr(lcs, "quotient_presentation", l3_torsion)
    code, payload = run_json(
        capsys, "kappa", "--builtin", "maclane8", "--g", "builtin:plus", "--gprime", "builtin:minus"
    )
    assert code == 2
    assert payload["ok"] is False
    assert "degree-3 quotient has torsion" in payload["error"]
    assert "torsion-free" in payload["explanation"]


# -- dump-data --------------------------------------------------------------------------


def test_dump_data_lists_datasets(capsys):
    code, payload = run_json(capsys, "dump-data")
    assert code == 0
    assert payload["datasets"] == [
        "maclane8",
        "glued13",
        "dual_basis_c8",
        "conjugators_plus",
        "conjugators_minus",
        "relators_plus",
        "relators_minus",
    ]


def test_dump_data_each_dataset_parses(capsys):
    for name in (
        "maclane8",
        "glued13",
        "dual_basis_c8",
        "conjugators_plus",
        "conjugators_minus",
        "relators_plus",
        "relators_minus",
    ):
        code, payload = run_json(capsys, "dump-data", name)
        assert code == 0
        assert payload
    code, payload = run_json(capsys, "dump-data", "maclane8")
    assert payload["infinity"] == "l0"
    assert len(payload["points"]) == 12


def test_dump_data_unknown_name(capsys):
    code, payload = run_json(capsys, "dump-data", "nonsense")
    assert code == 2
    assert payload["ok"] is False


# -- output discipline --------------------------------------------------------------------


def test_quiet_suppresses_output(capsys):
    code, out = run(capsys, "maclane-report", "--quiet")
    assert code == 0
    assert out == ""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="sets the pipe size with F_SETPIPE_SZ")
@pytest.mark.parametrize(
    "argv",
    [["kappa", "--builtin", "maclane8", "--g", "builtin:plus", "--gprime", "builtin:minus"], ["dump-data", "dual_basis_c8"]],
    ids=["kappa", "dump-data"],
)
def test_reader_closing_stdout_leaves_no_traceback(argv):
    import fcntl

    cmd = [sys.executable, "-m", "arrlcs.cli", *argv]
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    full = subprocess.run(cmd, capture_output=True, env=env, timeout=120)
    read_end, write_end = os.pipe()
    # a one-page pipe holds less than the output, so the command is still writing when the reader leaves
    fcntl.fcntl(write_end, fcntl.F_SETPIPE_SZ, 4096)
    assert len(full.stdout) > 4096 + 16
    with subprocess.Popen(cmd, stdout=write_end, stderr=subprocess.PIPE, env=env) as proc:
        os.close(write_end)
        head = os.read(read_end, 16)
        os.close(read_end)
        _, err = proc.communicate(timeout=120)
    assert full.stdout.startswith(head) and head
    assert err == b""
    assert proc.returncode == full.returncode == 0


# sha256 of stdout; a version bump changes every report, and re-pins these on purpose
PINNED_STDOUT = {
    ("maclane-report",): "2b59f721e970039292a18a754eb8bc10f105a1bd7dbb59fa57b9fc5d2743a2f2",
    ("maclane-report", "--swap-g"): "8467dcb4c236aae0591a1ea41c4bf45f9e6c0dd83c3c5a3cefb7896130e87e53",
    ("maclane-report", "--no-hardcoded"): "577add21cdaeb6fb45f3ab9b11a7a6311871bd7d4ddd434d15e8e8b4d7d1a5ab",
    ("c13-report", "--seed", "0"): "c84fa278c18c1a4eaa1646a9d93b13089c2be223d8716895673b63321457ab5c",
    ("kappa", "--builtin", "maclane8", "--g", "builtin:plus", "--gprime", "builtin:minus"): (
        "ed7be1ee7a3cf1428847bbbc458a1bc287efda93bfd86d5a8b8965c20c65e42f"
    ),
    ("kappa", "--builtin", "maclane8", "--g", "builtin:plus", "--gprime", "builtin:plus"): (
        "3c9fb689edadf0c1e27809be57385def3843824962f7fd1ee93fdadd498a1c55"
    ),
}


def test_reports_are_byte_deterministic(capsys):
    _, first = run(capsys, "maclane-report")
    _, second = run(capsys, "maclane-report")
    assert first == second
    _, first = run(capsys, "c13-report")
    _, second = run(capsys, "c13-report")
    assert first == second
    _, first = run(capsys, "kappa", "--builtin", "maclane8", "--g", "builtin:plus", "--gprime", "builtin:minus")
    _, second = run(capsys, "kappa", "--builtin", "maclane8", "--g", "builtin:plus", "--gprime", "builtin:minus")
    assert first == second
    for argv, digest in PINNED_STDOUT.items():
        code, out = run(capsys, *argv)
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == (0, digest), argv
