"""Each library module stays under 8 192 tokens.

CPython's parser doubles its token array at every power of two; the
doubling at 8 192 is the one at which perfbench's cli-suite
``peak_rss_mb`` was measured to jump when lcs.py crossed it.
"""

import tokenize
from pathlib import Path

import arrlcs

SRC = Path(arrlcs.__file__).parent
# the parser's token array doubles here (as at every power of two); cli-suite peak_rss_mb was measured to jump when lcs.py crossed it
PARSER_TOKENS = 8192


def count_tokens(path: Path) -> int:
    """Tokens of a source file as ``tokenize`` yields them, without COMMENT and NL tokens (a docstring is one token)."""
    with path.open("rb") as fh:
        return sum(1 for tok in tokenize.tokenize(fh.readline) if tok.type not in (tokenize.COMMENT, tokenize.NL))


def test_no_module_reaches_the_parser_doubling_size():
    sizes = {path.name: count_tokens(path) for path in sorted(SRC.glob("*.py"))}
    over = {name: n for name, n in sizes.items() if n >= PARSER_TOKENS}
    assert not over, (
        f"modules at or over {PARSER_TOKENS} tokens: {over}. Compiling such a module from source doubles the "
        "parser's token array: when lcs.py crossed this size, perfbench's cli-suite peak_rss_mb rose "
        "31.88 -> 32.57 MB (the MENDED line on it in CHANGES.md). Shrink the module or move code out of it."
    )


def test_the_count_matches_the_tokenizer_on_a_known_source(tmp_path):
    # def f ( ) : NEWLINE INDENT "doc" NEWLINE return 1 NEWLINE DEDENT ENDMARKER plus ENCODING; the comment and blank line add none
    path = tmp_path / "m.py"
    path.write_text('def f():\n    "doc"\n\n    return 1  # one\n', encoding="utf-8")
    assert count_tokens(path) == 15
