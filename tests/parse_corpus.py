"""A record of the series/poly grammar: one outcome per input, field and mode.

Each input is read by `parse_series` and by `parse_poly` (variables Y1, Y2)
over Q and over F5, at working precision 12.  An entry keeps what came
back: the error class and its message, position included, or the parsed
value (a series with its precision; a polynomial's text and each
coefficient with its precision).  The inputs cover every message the
parser raises, both signs, fractions, exponents at and past the working
precision, the O(x^k) marker, whitespace, and every prefix of a few
well-formed inputs.

Record it again (only for a change meant to alter what the grammar
accepts or how it reads) with

    PYTHONPATH=src python tests/parse_corpus.py
"""

import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
GOLDEN = REPO / "tests" / "parse_golden.json"
N_WORK = 12

_WRITTEN = [
    # well formed
    "0", "1", "-1", "+1", "5", "25", "-25", "00012", "0/7", "6/4", "10/5", "7/5", "5/7",
    "1/25", "-3/4", "3/4*x^2", "1/3 + 2/3", "x", "-x", "+x", "x^0", "x^1", "x^2", "x^007",
    "x^11", "x^12", "x^13", "x^100", "x + x", "x - x", "x^2*x^3", "x*x*x", "2*x*x^2",
    "x + 2*x^2 + 3*x^3", "1 - x + x^2 - x^3", "-x^12 + x^11", "  x  ^ 2  ", "\tx\n+\n1",
    "123456789012345678901234567890", "-98765432109876543210/3", "1" * 300 + "*x",
    "x^3 + " + "7" * 500 + "*x^5", "1/" + "3" * 200,
    "1 + O(x^3)", "O(x^5)", "O(x)", "O(x^1)", "x + O(x)", "x^3 + O(x^2)", "x + O(x^12)",
    "x + O(x^20)", "+O(x^3)", "1 + O( x ^ 4 )", "x - x^5 + O(x^5)", "O(x^" + "9" * 50 + ")",
    "Y1", "Y2", "-Y2", "Y1^2 - Y2^3", "Y1*Y2", "x*Y1", "Y1*x", "2*Y1^2*Y2*x^3", "Y1 + Y1",
    "Y1 - Y1", "Y1^0", "3*Y1^0", "Y1^12", "Y1*Y1", "Y1 + 2/3*x*Y2", "x^12*Y1", "Y2^2*Y2^3",
    "Y1^" + "4" * 30, "x^" + "8" * 40 + "*Y1",
    # malformed
    "", "   ", "2x", "x2", "2 3", "x y", "x^", "x^-1", "x^y", "x^(2)", "x^2^3", "1/", "1/0",
    "0/0", "1/5", "-2/10", "1/x", "1/-2", "1/2/3", "3/4/x", "*x", "x*", "x**2", "x*2",
    "x*(", "x+", "x++1", "x +- 1", "-", "+", "--x", "-O(x^2)", "x - O(x^2)", "O(x^2) + x",
    "O(x^2) + O(x^3)", "O(x^2) - x", "O(x^2) x", "O", "O(", "O()", "O(y)", "O(Y1)", "O(x^)",
    "O(x^0)", "O(x^00)", "O(x^-1)", "O(x", "O(x^2", "O x", "O(x^2))", "O(2)", "O(x*x)",
    "O(x^1/2)", "2*O(x)", "x*O(x)", "(x)", ")", "x)", "#", "x $ 1", "é", "1.5", "x_1",
    "Y3", "y1", "T1", "Y1Y2", "Y1 Y2", "Y1^", "Y1*", "Y1*2", "Y1^x", "O(x) + Y1",
]

_PREFIXED = ["-2/3*x^2*Y1 + O(x^5)", "x^3*Y2 - 4/9", "+O(x^11)", "Y1^2*Y2^3 - x^4*Y1"]


def inputs() -> list:
    texts = list(_WRITTEN)
    for text in _PREFIXED:
        texts += [text[:k] for k in range(1, len(text) + 1)]
    for coeff in ("", "2*", "-1/2*", "3/5*", "-5/3*"):
        for factor in ("x", "x^4", "Y1", "x*Y2^2"):
            for tail in ("", " + 1", " - x^2", " + O(x^4)"):
                texts.append(f"{coeff}{factor}{tail}")
    for num in range(0, 12):
        for den in (1, 2, 5, 10):
            texts.append(f"{num}/{den}*x^{num}")
    return list(dict.fromkeys(texts))


def _configs():
    from arclift import QQ, PrimeField, SeriesRing, VarSpace, parse_poly, parse_series

    space = VarSpace.ys(2)
    for name, field in (("Q", QQ), ("F5", PrimeField(5))):
        ring = SeriesRing(field, N_WORK)
        yield name, "series", lambda text, ring=ring: str(parse_series(text, ring))
        yield name, "poly", lambda text, ring=ring: _poly_record(parse_poly(text, ring, space))


def _poly_record(poly) -> str:
    coeffs = "; ".join(f"{list(e)}: {c}" for e, c in sorted(poly.terms.items()))
    return f"{poly.render()} | {coeffs}"


def outcomes() -> list:
    """One entry per (input, field, mode), in a fixed order."""
    from arclift import ArcliftError

    entries = []
    for text in inputs():
        for field, mode, read in _configs():
            try:
                result = {"value": read(text)}
            except ArcliftError as exc:
                result = {"error": type(exc).__name__, "message": str(exc)}
            entries.append({"text": text, "field": field, "mode": mode, **result})
    return entries


def record() -> None:
    entries = outcomes()
    lines = ",\n".join(json.dumps(entry) for entry in entries)
    GOLDEN.write_text(f"[\n{lines}\n]\n", encoding="utf-8")
    print(f"recorded {len(entries)} parses of {len(inputs())} inputs in {GOLDEN.relative_to(REPO)}")


if __name__ == "__main__":
    sys.path.insert(0, str(REPO / "src"))
    record()
