"""The input boundary: a malformed configuration or g-map file exits 0, 1 or 2 with one JSON document on stdout.

The bundled MacLane configuration and ``conjugators_plus`` g-map, read
through ``dump-data``, are mutated at a drawn place in their JSON tree: a
field is dropped, duplicated (a repeated key, or a repeated list entry)
or retyped, a value is nested in arrays, or a word's exponent is
inflated.  Empty files and files that are not UTF-8 are drawn too.  Each
result runs through ``validate`` and ``kappa`` in-process, and
``dump-data`` runs on a drawn dataset name.
"""

import contextlib
import io
import json
import re
import tempfile
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from arrlcs import cli

# Each example runs two or three commands in-process, and a mutated g-map
# that still parses sends ``kappa`` through a cold c8 LcsData (about 25 ms),
# so 60 examples keep this test near two seconds of tier-1.
BOUNDARY_EXAMPLES = 60

# nesting deep enough to pass the JSON decoder's recursion limit
DEEP = 5000


def run(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert err.getvalue() == "", argv
    return code, out.getvalue()


def bundled(name: str):
    code, out = run(["dump-data", name])
    assert code == 0
    return json.loads(out)


class Pairs(tuple):
    """A JSON object as its (key, value) pairs, so a key can repeat."""


def encode(value) -> str:
    if isinstance(value, dict):
        value = Pairs(value.items())
    if isinstance(value, Pairs):
        return "{" + ", ".join(f"{json.dumps(k)}: {encode(v)}" for k, v in value) + "}"
    if isinstance(value, list):
        return "[" + ", ".join(map(encode, value)) + "]"
    return json.dumps(value)


SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False), st.text(max_size=6), st.just([]), st.just({}))
EXPONENTS = st.one_of(st.integers(-20, 20), st.integers(-(10**30), 10**30))


def mutate(draw, value):
    """``value`` with one drawn mutation, at itself or inside one drawn child."""
    children = list(value.items()) if isinstance(value, dict) else list(enumerate(value)) if isinstance(value, list) else []
    if children and draw(st.booleans()):
        key, child = draw(st.sampled_from(children))
        new = mutate(draw, child)
        return {**value, key: new} if isinstance(value, dict) else value[:key] + [new] + value[key + 1 :]
    op = draw(st.sampled_from(["drop", "duplicate", "retype", "nest", "inflate"] if children else ["retype", "nest", "inflate"]))
    if op == "drop":
        key, _ = draw(st.sampled_from(children))
        return {k: v for k, v in value.items() if k != key} if isinstance(value, dict) else value[:key] + value[key + 1 :]
    if op == "duplicate":
        _, child = pair = draw(st.sampled_from(children))
        return Pairs([*value.items(), pair]) if isinstance(value, dict) else [*value, child]
    if op == "nest":
        for _ in range(draw(st.integers(1, 40))):
            value = [value]
        return value
    if op == "inflate" and isinstance(value, str) and re.search(r"w\d+", value):
        return re.sub(r"(w\d+)(\^-?\d+)?", lambda m: f"{m.group(1)}^{draw(EXPONENTS)}", value, count=1)
    return draw(SCALARS)


@st.composite
def malformed(draw):
    """(``"config"`` or ``"gmap"``, the bytes of one drawn file)."""
    kind = draw(st.sampled_from(["config", "gmap"]))
    text = encode(mutate(draw, bundled("maclane8" if kind == "config" else "conjugators_plus")))
    how = draw(st.sampled_from(["utf-8", "utf-8", "utf-8", "utf-16", "latin-1 byte", "empty"]))
    if how == "empty":
        return kind, b""
    if how == "latin-1 byte":  # one byte that starts no UTF-8 sequence
        cut = draw(st.integers(0, len(text)))
        return kind, text[:cut].encode() + b"\xff" + text[cut:].encode()
    return kind, text.encode(how)


def named_failures(payload: dict) -> list:
    """The failures a report names: ``validate``'s violations, or the checks with status ``fail``."""
    if "violations" in payload:
        return payload["violations"]
    return [check["name"] for check in payload.get("checks", ()) if check["status"] == "fail"]


@settings(max_examples=BOUNDARY_EXAMPLES)
@given(case=malformed(), dataset=st.one_of(st.sampled_from(cli._DUMPABLE), st.from_regex(r"[a-z0-9_.]{1,12}", fullmatch=True)))
@example(case=("config", b"[" * DEEP + b"]" * DEEP), dataset="maclane8")
@example(case=("gmap", b"[" * DEEP + b"]" * DEEP), dataset="maclane8")
# 10^8 letters, refused from the exponent before any letter is built
@example(case=("gmap", b'{"(3,p367)": "w6^100000000"}'), dataset="conjugators_plus")
def test_every_malformed_input_exits_0_1_or_2_with_one_json_document(case, dataset):
    kind, raw = case
    with tempfile.TemporaryDirectory() as tmp:
        path, empty = Path(tmp) / "input.json", Path(tmp) / "empty_g.json"
        path.write_bytes(raw)
        empty.write_text("{}")
        if kind == "config":
            argvs = [["validate", str(path)], ["kappa", "--config", str(path), "--g", str(empty), "--gprime", str(empty)]]
        else:
            argvs = [["kappa", "--builtin", "maclane8", "--g", str(path), "--gprime", "builtin:plus"]]
        for argv in [*argvs, ["dump-data", dataset]]:
            code, out = run(argv)
            payload = json.loads(out)  # exactly one document: trailing data raises
            assert code in (0, 1, 2), argv
            assert code != 1 or named_failures(payload), (argv, payload)
