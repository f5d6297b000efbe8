"""tools/replay.py: its sources, its table of old script names and its JSON writer; only the small ``taustar`` source is run."""

import functools
import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@functools.cache
def load_replay():
    spec = importlib.util.spec_from_file_location("replay", ROOT / "tools" / "replay.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_sources_are_the_nine_layers():
    replay = load_replay()
    assert list(replay.SOURCES) == ["kernel", "lattice", "kappa", "realization", "bracket", "u", "words", "taustar", "core"]
    assert list(replay.OLD_SCRIPTS.values()) == ["kernel", "lattice", "kappa", "realization", "bracket", "u"]


def test_every_bench_record_names_a_source():
    replay = load_replay()
    benches = sorted(ROOT.glob("BENCH_*.json"))
    assert benches
    for path in benches:
        _, script, *rest = json.loads(path.read_text())["command"].split()
        name = script.removeprefix("tools/")
        if name == "replay.py":
            source = rest[0]
        else:
            source = replay.OLD_SCRIPTS[name]
            assert f"``{name}``" in replay.__doc__ and path.stem in replay.__doc__, path.name
        assert source in replay.SOURCES, path.name


def test_dump_round_trips():
    doc = {
        "command": "python3 tools/replay.py u --label LABEL --out FILE",
        "runs": {
            "parent": {"repeat": 5, "total_s": {"c8": 0.002}, "inputs": [{"config": "c8", "identities": [True, True]}]},
            "change": {"repeat": 5, "total_s": {}, "inputs": [{"digest": "ab\"c", "shape": [1, 2]}, {"x": None}]},
        },
    }
    assert json.loads(load_replay().dump(doc)) == doc


def test_best_of_rejects_repeats_that_disagree():
    replay = load_replay()
    calls = iter(range(replay.REPEAT))
    assert replay.best_of("same", tuple, lambda _: 7)[1:] == (7, (), 7)
    with pytest.raises(SystemExit, match="different results"):
        replay.best_of("counter", tuple, lambda _: next(calls))


def test_taustar_times_the_transport_check_cold_and_warm(monkeypatch):
    replay = load_replay()
    monkeypatch.setattr(replay, "REPEAT", 1)
    records = replay.taustar()["inputs"]
    by_state = {state: [rec for rec in records if rec["state"] == state] for state in ("cold", "warm")}
    for runs in by_state.values():
        assert [rec["call"] for rec in runs] == ["transport_group", *["pullback"] * 42, "tau_star_identities"]
    # cold and warm compute the same values from the same arguments
    strip = lambda rec: {k: v for k, v in rec.items() if k not in ("state", "seconds")}  # noqa: E731
    assert list(map(strip, by_state["cold"])) == list(map(strip, by_state["warm"]))
    assert len({rec["arguments"] for rec in by_state["cold"] if rec["call"] == "pullback"}) == 42


def test_taustar_digests_a_class_and_a_dense_functional_as_their_tensor():
    replay = load_replay()
    data = replay.lcs.build_lcs(replay.config.maclane_c8())
    gen_coeffs, functional = [0] * len(data.gens), [0] * data.hw_rank
    gen_coeffs[2], functional[5], functional[40] = -1, 3, -2
    phi = replay.pullback_functional(data, (gen_coeffs, functional))
    assert phi == {2 * data.hw_rank + 5: -3, 2 * data.hw_rank + 40: 2}
    assert replay.pullback_functional(data, (phi,)) is phi
    assert replay.sparse_items((0, 4, 0, -1)) == replay.sparse_items({3: -1, 1: 4, 2: 0}) == [(1, 4), (3, -1)]


def test_a_run_records_the_commit_it_is_given(tmp_path, monkeypatch):
    replay = load_replay()
    out = tmp_path / "bench.json"
    monkeypatch.setattr(replay, "SOURCES", {**replay.SOURCES, "taustar": lambda: {"inputs": [{"call": "none"}]}})
    replay.main(["taustar", "--label", "parent", "--out", str(out), "--commit", "2fb6335"])
    replay.main(["taustar", "--label", "change", "--out", str(out)])
    runs = json.loads(out.read_text())["runs"]
    assert runs["parent"]["commit"] == "2fb6335" and runs["change"]["commit"] == replay.commit()


def test_kappa_times_the_parts_kappa_runs(monkeypatch):
    replay = load_replay()
    assert replay.PARTS == ("tau_tilde", "member", "kappa") and replay.KAPPA_CONFIGS == ("c8", "c13", "glued4", "glued6")
    monkeypatch.setattr(replay, "REPEAT", 1)
    monkeypatch.setattr(replay, "QUERIES", 4)
    monkeypatch.setattr(replay, "KAPPA_CONFIGS", ("c8",))
    run = replay.kappa()
    shape = {"im_delta_basis": [56, 273], "im_delta_echelon": [49, 273], "a_rank": 147, "tau_support_rows": 108, "tau_image_cols": 60}
    assert run["shapes"] == {"c8": shape}
    # the counts are of τ̃'s own nonzero rows and the columns they use
    data = replay.lcs.build_lcs(replay.config.maclane_c8())
    rows = [row for row in data.tau_matrix.sparse_rows if row]
    assert replay.tau_shape(data) == (len(rows), len(set().union(*rows))) == (108, 60)
    assert [rec["kind"] for rec in run["inputs"]] == ["in_UB", "random", "in_UB", "random"]
    assert [rec["zero"] for rec in run["inputs"]] == [True, False, True, False] and set(run["median_s"]) == {"c8 tau_tilde", "c8 member", "c8 kappa"}


def test_u_times_the_cold_tau_matrix_and_records_its_support(monkeypatch):
    replay = load_replay()
    assert replay.U_CONFIGS[-2:] == ("glued12", "hesse")
    monkeypatch.setattr(replay, "REPEAT", 1)
    monkeypatch.setattr(replay, "U_CONFIGS", ("c8",))
    run = replay.u()
    (rec,) = run["inputs"]
    assert (rec["a_rank"], rec["tau_support_rows"], rec["bracket_p3_rows"]) == (147, 108, [126, 147])
    assert rec["identities"] == [True, True] and set(run["tau_matrix_s"]) == set(run["total_s"]) == {"c8"}


def test_u_times_pi_b_and_records_the_live_points_and_its_shapes(monkeypatch):
    replay = load_replay()
    monkeypatch.setattr(replay, "REPEAT", 1)
    monkeypatch.setattr(replay, "U_CONFIGS", ("c8",))
    run = replay.u()
    (rec,) = run["inputs"]
    # every c8 point is live; π(B) is built from B·π's 21 distinct rows up to sign
    assert (rec["points"], rec["live_points"], rec["pi_b_shape"]) == (8, 8, [[49, 18], [21, 18]])
    assert set(run["pi_b_s"]) == {"c8"} and rec["pi_b_s"] > 0


def test_bracket_times_the_p3_map_r3perp_and_im_delta_cold(monkeypatch):
    replay = load_replay()
    assert list(replay.BRACKET_LAYERS) == ["bracket", "r3", "p3", "_bracket_p3", "r3perp", "im_delta"]
    assert replay.BRACKET_CONFIGS == ("c8", "c13", f"c13@{replay.SEED}", "glued6")
    monkeypatch.setattr(replay, "REPEAT", 1)
    monkeypatch.setattr(replay, "BRACKET_CONFIGS", ("c8",))
    run = replay.bracket()
    (rec,) = run["inputs"]
    data = replay.lcs.build_lcs(replay.config.maclane_c8())
    assert (rec["config"], rec["p3_rank"]) == ("c8", 21) and set(run["total_s"]) == {"c8"}
    # P3 is presented from R3's residual: 77 × 98 of its 91 × 112 once unit rows are peeled
    assert (rec["r3_shape"], rec["p3_reduction_shape"]) == ([91, 112], [77, 98])
    assert all(rec[f"{layer}_s"] > 0 for layer in ("bracket", "r3", "p3", "bracket_p3", "r3perp", "im_delta"))
    assert rec["bracket_p3_digest"] == replay.sha(data._bracket_p3)
    assert rec["r3perp_digest"] == replay.sha(data.r3perp.canonical_form) and rec["im_delta_digest"] == replay.sha(data.im_delta.basis)


def test_core_times_the_flat_route_against_the_core_on_c8(monkeypatch):
    replay = load_replay()
    assert replay.CORE_CONFIGS == ("c8", "c13", "glued3", "glued4", "glued6") and replay.CORE
    monkeypatch.setattr(replay, "REPEAT", 1)
    monkeypatch.setattr(replay, "CORE_CONFIGS", ("c8",))
    run = replay.core()
    (rec,) = run["inputs"]
    # Im δ̄ is 56 × 273; 35 rows peel and the other 21 lie on τ̃'s 60 image columns, of rank 14
    assert (rec["im_delta_shape"], rec["core_shape"], rec["core_rank"], rec["peeled"]) == ([56, 273], [21, 60], 14, 35)
    # the identity holds and κ(plus, plus) = 0 by both routes; κ(plus, minus)'s witness modulus is 12 flat, 6 on the core
    assert (rec["verdicts"], rec["flat_modulus"], rec["core_modulus"]) == ([True, True], 12, 6)
    assert set(run["flat_s"]) == set(run["core_s"]) == {"c8"} and rec["flat_s"] > 0 and rec["core_s"] > 0
    plus, minus = replay.core_pair("glued3")
    assert plus.config == minus.config == replay.config.glue_copies(3) and plus.config != replay.core_pair("c13")[0].config
