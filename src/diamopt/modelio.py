"""Model serialization: exact JSON and fixed-form LP text.

The LP writer emits decimal coefficients.  A rational has an exact finite
decimal expansion iff its lowest-terms denominator is of the form
2^a * 5^b; anything else is rounded and flagged with a warning comment,
and the exact values always travel in a JSON sidecar.  >= rows are
negated to <= rows on export only; = and <= rows keep their sense, and the
in-memory model keeps every row native.
"""

from __future__ import annotations

import json
import re
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
    lines = []
    body = []
    body.append("Maximize")
    body.append(f" obj: {_expr(bp.c, names, warnings, 'objective')}")
    body.append("Subject To")
    for con in bp.constraints:
        # a >= row is written negated as <=; an = row keeps its sense, which
        # solve_bnb's cardinality bound reads
        name, coeffs, rhs, sense = con.label, con.coeffs, con.rhs, con.sense
        if sense == ">=":
            coeffs, rhs, sense = tuple(-a for a in coeffs), -rhs, "<="
        dec, exact = decimal_form(rhs)
        if not exact:
            warnings.append(f"right-hand side {rhs} of {name} is inexact in decimal")
        body.append(f" {name}: {_expr(coeffs, names, warnings, name)} {sense} {dec}")
    body.append("Binary")
    for name in names:
        body.append(f" {name}")
    body.append("End")
    lines.append("\\ binary program, maximization form")
    for w in warnings:
        lines.append(f"\\ warning: {w}; exact rationals in the JSON sidecar")
    lines.extend(body)
    return "\n".join(lines) + "\n", warnings


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
    try:
        c = [as_rational(v) for v in json_list(d["objective"], "objective")]
        cons = []
        for row in json_list(d.get("constraints", []), "constraints"):
            cons.append(
                Constraint(
                    tuple(as_rational(v) for v in json_list(row["coeffs"], "coeffs")),
                    row["sense"],
                    as_rational(row["rhs"]),
                    row.get("name", ""),
                )
            )
        names = d.get("variable_names")
        bp = BinaryProgram(c, cons, None if names is None else json_list(names, "variable_names"))
        if "n" in d and as_integer(d["n"]) != bp.n:
            raise ParseError(f"model JSON says n={d['n']} but has {bp.n} objective entries")
    except ParseError:
        raise
    except (KeyError, TypeError, ValueError) as e:
        raise ParseError(f"bad model JSON: {e}") from e
    return bp


def instance_from_json(d: dict, make, field: str, family: str, symmetric: bool = False):
    """make(n, {(i, j): w}) from {"n": n, field: [[i, j, w] or [i, j, num, den], ...]}.

    With symmetric, (i, j) and (j, i) name the same entry.  Any malformed
    value raises ParseError naming the family.
    """
    try:
        n = as_integer(d["n"])
        entries = {}
        for entry in d.get(field, []):
            if len(entry) == 4:
                i, j, num, den = entry
                w = as_rational((num, den))
            elif len(entry) == 3:
                i, j, w = entry
                w = as_rational(w)
            else:
                raise ValueError(f"{field[:-1]} entry {entry!r} should be [i, j, num, den]")
            key = (as_integer(i), as_integer(j))
            if symmetric:
                key = (min(key), max(key))
            if key in entries:
                raise ValueError(f"duplicate {field[:-1]} for {key}")
            entries[key] = w
        return make(n, entries)
    except (KeyError, TypeError, ValueError) as e:
        raise ParseError(f"bad {family} instance JSON: {e}") from e


def load_instance(path: str, from_json, from_text):
    """Read an instance file: .json goes to from_json(dict), anything else to from_text(str)."""
    with open(path) as fh:
        text = fh.read()
    if not path.endswith(".json"):
        return from_text(text)
    try:
        d = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"{path}: {e}") from e
    return from_json(d)


def write_lp(bp: BinaryProgram, path: str) -> list[str]:
    """Write LP text to path and the exact sidecar to path + '.json'."""
    text, warnings = lp_string(bp)
    with open(path, "w") as fh:
        fh.write(text)
    with open(path + ".json", "w") as fh:
        json.dump(model_to_dict(bp), fh, indent=1, sort_keys=True)
        fh.write("\n")
    return warnings


def load_model_json(path: str) -> BinaryProgram:
    with open(path) as fh:
        try:
            d = json.load(fh)
        except json.JSONDecodeError as e:
            raise ParseError(f"{path}: {e}") from e
    return model_from_dict(d)


_TERM = re.compile(
    r"([+-])?\s*(\d+(?:\.\d+)?|\.\d+)?\s*([A-Za-z_][A-Za-z0-9_]*)"
)
_NUM = re.compile(r"[+-]?(\d+(?:\.\d+)?|\.\d+)$")


def _parse_expr(expr: str, line_no: int):
    """Parse 'a x + b y - z' into {name: coefficient}, each an int or a
    Fraction."""
    out: dict[str, int | Fraction] = {}
    pos = 0
    expr = expr.strip()
    while pos < len(expr):
        m = _TERM.match(expr, pos)
        if not m or m.start() != pos:
            raise ParseError(f"line {line_no}: cannot read term at {expr[pos:]!r}")
        sign, num, name = m.groups()
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
    binaries: list[str] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("\\")[0].strip()
        if not line:
            continue
        low = line.lower()
        if low in ("maximize", "max", "minimize", "min"):
            section = "obj"
            minimize = low.startswith("min")
            continue
        if low in ("subject to", "st", "s.t.", "such that"):
            section = "rows"
            continue
        if low in ("binary", "binaries", "bin"):
            section = "bin"
            continue
        if low == "end":
            section = "done"
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
                binaries.append(tok)
        elif section is None:
            raise ParseError(f"line {line_no}: content before any section header")
    if obj is None:
        raise ParseError("no objective section")
    if not binaries:
        raise ParseError("no Binary section; only pure binary models are supported")
    order = binaries
    known = set(order)
    for src in [obj] + [r[1] for r in rows]:
        for name in src:
            if name not in known:
                raise ParseError(f"variable {name} is not declared Binary")
    sign = -1 if minimize else 1
    c = [sign * obj.get(name, 0) for name in order]
    cons = []
    for name, terms, sense, rhs in rows:
        coeffs = tuple(terms.get(v, 0) for v in order)
        cons.append(Constraint(coeffs, sense, rhs, name))
    return BinaryProgram(c, cons, order)


def load_model_lp(path: str) -> BinaryProgram:
    with open(path) as fh:
        return parse_lp(fh.read())
