"""Model serialization: exact JSON and fixed-form LP text.

The LP writer emits decimal coefficients.  A rational has an exact finite
decimal expansion iff its lowest-terms denominator is of the form
2^a * 5^b; anything else is rounded and flagged with a warning comment,
and the exact values always travel in a JSON sidecar.  Every row keeps
its sense, so parse_lp(lp_string(bp)[0]) == bp whenever lp_string gives no
warning.  lp_string refuses (ValueError) a name parse_lp could not read
back: a variable name that is no identifier or is a section word (max,
min, st, bin, end, ...), or a row label with ':', '\\', a line break or
surrounding whitespace.

Files are read one way: a name ending in .json is JSON, anything else is
text (load_instance; load_model reads models).  PairWeights is the
instance of both front ends, and reads its own files (PairWeights.load):
its JSON, and the n x n matrix its text format gives (from_matrix).
"""

from __future__ import annotations

import json
import re
from collections.abc import Callable, Mapping
from fractions import Fraction

from .bpcore import BinaryProgram, Constraint
from .errors import ParseError
from .ratlinalg import as_integer, as_rational

_ROUND_DIGITS = 12


def rational_to_json(q: Fraction):
    q = as_rational(q)
    return int(q) if q.denominator == 1 else [q.numerator, q.denominator]


def decimal_form(q: Fraction) -> tuple[str, bool]:
    """Decimal string for q and whether it is exact."""
    q = as_rational(q)
    den = q.denominator
    twos = 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    fives = 0
    while den % 5 == 0:
        den //= 5
        fives += 1
    exact = den == 1
    if exact:
        k = max(twos, fives)
        scaled = abs(q.numerator) * 10**k // q.denominator
    else:
        k = _ROUND_DIGITS
        scaled = round(abs(q) * 10**k)
    digits = str(scaled).rjust(k + 1, "0")
    body = digits[:-k] + "." + digits[-k:] if k else digits
    if not exact:
        body = body.rstrip("0")
        if body.endswith("."):
            body += "0"
    sign = "-" if q < 0 else ""
    return sign + body, exact


def _expr(coeffs, names, warnings, where) -> str:
    terms = []
    for c, name in zip(coeffs, names):
        if not c:
            continue
        dec, exact = decimal_form(abs(c))
        if not exact:
            warnings.append(f"coefficient {abs(c)} for {name} in {where} is inexact in decimal")
        lead = "-" if c < 0 else ("+" if terms else "")
        mag = f"{dec} {name}" if dec != "1" else name
        terms.append(f"{lead} {mag}".strip())
    if not terms:
        terms.append(f"0 {names[0]}")
    return " ".join(terms)


def lp_string(bp: BinaryProgram) -> tuple[str, list[str]]:
    """Fixed-form LP text for the model; returns (text, warnings)."""
    warnings: list[str] = []
    names = bp.variable_names
    for name in names:
        if not re.fullmatch(_NAME, name) or name.lower() in _HEADERS:
            raise ValueError(f"variable name {name!r} cannot be read back from LP text")
    body = ["Maximize", f" obj: {_expr(bp.c, names, warnings, 'objective')}", "Subject To"]
    for con in bp.constraints:
        name = con.label
        if ":" in name or "\\" in name or name.splitlines() != [name.strip()]:  # one line, unpadded
            raise ValueError(f"row label {name!r} cannot be read back from LP text")
        dec, exact = decimal_form(con.rhs)
        if not exact:
            warnings.append(f"right-hand side {con.rhs} of {name} is inexact in decimal")
        body.append(f" {name}: {_expr(con.coeffs, names, warnings, name)} {con.sense} {dec}")
    body += ["Binary", *(f" {name}" for name in names), "End"]
    head = ["\\ binary program, maximization form"]
    head += [f"\\ warning: {w}; exact rationals in the JSON sidecar" for w in warnings]
    return "\n".join(head + body) + "\n", warnings


def model_to_dict(bp: BinaryProgram) -> dict:
    return {
        "n": bp.n,
        "objective": [rational_to_json(v) for v in bp.c],
        "constraints": [
            {
                "name": con.label,
                "coeffs": [rational_to_json(v) for v in con.coeffs],
                "sense": con.sense,
                "rhs": rational_to_json(con.rhs),
            }
            for con in bp.constraints
        ],
        "variable_names": list(bp.variable_names),
    }


def json_list(value, field: str) -> list:
    """value, which must be a JSON list (or a Python tuple): a string or an
    object would be read entry by entry as a vector, so it is ValueError."""
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{field} must be a list, not {type(value).__name__}")
    return value


def model_from_dict(d: dict) -> BinaryProgram:
    """The model of a JSON object; BinaryProgram and Constraint read each
    number, so a malformed one is ParseError with their message."""
    try:
        c = json_list(d["objective"], "objective")
        cons = [
            Constraint(json_list(row["coeffs"], "coeffs"), row["sense"], row["rhs"], row.get("name", ""))
            for row in json_list(d.get("constraints", []), "constraints")
        ]
        names = d.get("variable_names")
        bp = BinaryProgram(c, cons, None if names is None else json_list(names, "variable_names"))
        if "n" in d and as_integer(d["n"]) != bp.n:
            raise ParseError(f"model JSON says n={d['n']} but has {bp.n} objective entries")
    except ParseError:
        raise
    except (KeyError, TypeError, ValueError) as e:
        raise ParseError(f"bad model JSON: {e}") from e
    return bp


class PairWeights:
    """A weight on each pair of 1..n, the instance of a front end whose
    columns are pairs: weights holds one entry per pair, in the model's
    column order, and a pair not given weighs 0.

    A subclass sets pairs (n -> the pairs in column order), key (a given
    pair -> its entry), least (the least n), field (the JSON list of its
    entries), family (names it in messages), the words of its messages,
    and from_text, which reads its text format.  A pair out of range or
    given twice, as a mapping or as (pair, weight) items, is ValueError.
    """

    pairs: Callable[[int], list[tuple[int, int]]]
    key: Callable[[tuple[int, int]], tuple[int, int]]
    least: int
    field: str  # "weights": the JSON list of entries
    family: str  # "ordering": names the family in messages
    too_few: str  # "two items": need at least that many
    pair_word: str  # "pair": names a pair in messages
    weight_word: str  # "weight": names a weight in messages
    from_text: Callable[[str], PairWeights]

    def __init__(self, n: int, weights=()):
        if n < self.least:
            raise ValueError(f"need at least {self.too_few}")
        self.n = n
        self.weights = dict.fromkeys(self.pairs(n), 0)
        given = set()
        for (i, j), w in weights.items() if isinstance(weights, Mapping) else weights or ():
            key = self.key((i, j))
            if key not in self.weights:
                raise ValueError(f"{self.pair_word} ({i}, {j}) out of range")
            if key in given:
                raise ValueError(f"duplicate {self.weight_word} for {key}")
            given.add(key)
            self.weights[key] = as_rational(w)

    @classmethod
    def zero(cls, n: int):
        return cls(n)

    @classmethod
    def from_json(cls, d: dict):
        """The instance of {"n": n, field: [[i, j, w] or [i, j, num, den], ...]};
        any malformed value is ParseError naming the family."""
        try:
            n = as_integer(d["n"])
            entries = []
            for entry in d.get(cls.field, []):
                if len(entry) == 4:
                    i, j, *w = entry
                elif len(entry) == 3:
                    i, j, w = entry
                else:
                    raise ValueError(f"{cls.field[:-1]} entry {entry!r} should be [i, j, num, den]")
                entries.append(((as_integer(i), as_integer(j)), w))
            return cls(n, entries)
        except (KeyError, TypeError, ValueError) as e:
            raise ParseError(f"bad {cls.family} instance JSON: {e}") from e

    @classmethod
    def from_matrix(cls, n: int, tokens: list[str]):
        """The instance of an n x n matrix given row by row as n*n number
        tokens.  Every entry must be a number, the diagonal's too, and the
        diagonal is then dropped; two entries keyed to one pair (both
        triangles of a tour's matrix) must agree."""
        if len(tokens) != n * n:
            raise ParseError(f"expected {n * n} weight entries, found {len(tokens)}")
        weights = {}
        for k, tok in enumerate(tokens):
            try:
                w = as_rational(tok)
            except ValueError as e:
                raise ParseError(f"bad weight entry {tok!r}") from e
            i, j = divmod(k, n)
            if i == j:
                continue
            key = cls.key((i + 1, j + 1))
            if weights.setdefault(key, w) != w:
                raise ParseError(f"matrix is not symmetric at {key}")
        return cls(n, weights)

    @classmethod
    def load(cls, path: str):
        """Read an instance file: JSON (.json) or the family's text format."""
        return load_instance(path, cls.from_json, cls.from_text)

    def vector(self) -> tuple[int | Fraction, ...]:
        return tuple(self.weights.values())

    def __repr__(self):
        return f"{type(self).__name__}(n={self.n})"


def read_json(path: str):
    """The JSON value in the file at path; malformed JSON is ParseError."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as e:
            raise ParseError(f"{path}: {e}") from e


def load_instance(path: str, from_json, from_text):
    """Read an instance file: .json goes to from_json(dict), anything else to from_text(str)."""
    if path.endswith(".json"):
        return from_json(read_json(path))
    with open(path) as fh:
        return from_text(fh.read())


def write_lp(bp: BinaryProgram, path: str) -> list[str]:
    """Write LP text to path and the exact sidecar to path + '.json'."""
    text, warnings = lp_string(bp)
    with open(path, "w") as fh:
        fh.write(text)
    with open(path + ".json", "w") as fh:
        json.dump(model_to_dict(bp), fh, indent=1, sort_keys=True)
        fh.write("\n")
    return warnings


_NAME = r"[A-Za-z_][A-Za-z0-9_]*"  # a variable name, if it is no one-word header
# each header line parse_lp reads, lower-cased, and the section it opens
_HEADERS = {
    **dict.fromkeys(("maximize", "max", "minimize", "min"), "obj"),
    **dict.fromkeys(("subject to", "st", "s.t.", "such that"), "rows"),
    **dict.fromkeys(("binary", "binaries", "bin"), "bin"),
    "end": "done",
}
_TERM = re.compile(rf"([+-])?\s*(\d+(?:\.\d+)?|\.\d+)?\s*({_NAME})")
_NUM = re.compile(r"[+-]?(\d+(?:\.\d+)?|\.\d+)$")


def _parse_expr(expr: str, line_no: int):
    """Parse 'a x + b y - z' into {name: coefficient}, each an int or a
    Fraction; every term after the first carries its sign."""
    out: dict[str, int | Fraction] = {}
    pos = 0
    expr = expr.strip()
    while pos < len(expr):
        m = _TERM.match(expr, pos)
        if not m or m.start() != pos:
            raise ParseError(f"line {line_no}: cannot read term at {expr[pos:]!r}")
        sign, num, name = m.groups()
        if pos and not sign:
            raise ParseError(f"line {line_no}: missing sign before {m.group(0)!r}")
        coeff = as_rational(num) if num else 1
        if sign == "-":
            coeff = -coeff
        out[name] = out.get(name, 0) + coeff
        pos = m.end()
        while pos < len(expr) and expr[pos] == " ":
            pos += 1
    if not out:
        raise ParseError(f"line {line_no}: empty expression")
    return out


def parse_lp(text: str) -> BinaryProgram:
    """Read the LP subset written by lp_string.

    One row per line, senses <=, =, >=; a Minimize header negates the
    objective into canonical maximization form.
    """
    section = None
    minimize = False
    obj: dict[str, int | Fraction] | None = None
    rows: list[tuple[str, dict[str, int | Fraction], str, int | Fraction]] = []
    binaries: dict[str, None] = {}  # the Binary names, in order
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("\\")[0].strip()
        if not line:
            continue
        low = line.lower()
        if low in _HEADERS:
            section = _HEADERS[low]
            if section == "obj":
                minimize = low.startswith("min")
            continue
        if section == "obj":
            body = line.split(":", 1)[1] if ":" in line else line
            if obj is not None:
                raise ParseError(f"line {line_no}: objective must be a single line")
            obj = _parse_expr(body, line_no)
        elif section == "rows":
            name = ""
            body = line
            if ":" in line:
                name, body = line.split(":", 1)
                name = name.strip()
            m = re.search(r"(<=|>=|=)", body)
            if not m:
                raise ParseError(f"line {line_no}: constraint without relation")
            lhs, sense, rhs_text = body[: m.start()], m.group(1), body[m.end() :].strip()
            if not _NUM.match(rhs_text):
                raise ParseError(f"line {line_no}: bad right-hand side {rhs_text!r}")
            rows.append((name, _parse_expr(lhs, line_no), sense, as_rational(rhs_text)))
        elif section == "bin":
            for tok in line.split():
                if tok in binaries:
                    raise ParseError(f"line {line_no}: {tok} declared Binary twice")
                binaries[tok] = None
        elif section is None:
            raise ParseError(f"line {line_no}: content before any section header")
    if obj is None:
        raise ParseError("no objective section")
    if not binaries:
        raise ParseError("no Binary section; only pure binary models are supported")
    for src in [obj] + [r[1] for r in rows]:
        for name in src:
            if name not in binaries:
                raise ParseError(f"variable {name} is not declared Binary")
    sign = -1 if minimize else 1
    c = [sign * obj.get(name, 0) for name in binaries]
    cons = []
    for name, terms, sense, rhs in rows:
        coeffs = tuple(terms.get(v, 0) for v in binaries)
        cons.append(Constraint(coeffs, sense, rhs, name))
    return BinaryProgram(c, cons, binaries)


def load_model(path: str) -> BinaryProgram:
    """Read a model file: JSON (.json) or LP text (anything else)."""
    return load_instance(path, model_from_dict, parse_lp)
