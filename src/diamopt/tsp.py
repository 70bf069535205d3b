"""Symmetric round-trip front end.

Cities 1..n, one binary variable per unordered edge {i, j} in lexicographic
order.  Minimization is folded into the canonical maximization form by
negating the costs, so reports translate back with a sign flip.  Degree
equalities plus one subtour row for every vertex set A with 2 <= |A| <= n-1
make the feasible set exactly the tour incidence vectors; the row count is
exponential, which is why build refuses n beyond a small cap.  Each row
family is written once, in degree_system and subtour_facets: build solves
those rows, and the polyhedral suites certify rows from the same two lists.

Every tour has exactly n ones, so conjugate diameter solves certify
2*(n - sum(z)), twice the number of edges the two tours do not share.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterator, Sequence

from .bpcore import BinaryProgram, Constraint
from .diameter import maximisers, verify_listed_diameter
from .errors import CapExceededError, ParseError
from .modelio import instance_from_json, load_instance
from .polytope import nonnegativity_facets
from .ratlinalg import as_rational

BUILD_CAP = 10


def edges(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]


def edge_index(i: int, j: int, n: int) -> int:
    if i > j:
        i, j = j, i
    if not (1 <= i < j <= n):
        raise ValueError(f"bad edge ({i}, {j}) for n={n}")
    return (i - 1) * n - i * (i + 1) // 2 + j - 1


class TspInstance:
    """Costs over the C(n,2) edges; missing edges default to 0."""

    __slots__ = ("n", "costs")

    def __init__(self, n: int, costs=None):
        if n < 3:
            raise ValueError("need at least three cities")
        self.n = n
        table = {e: 0 for e in edges(n)}
        if costs:
            for (i, j), w in dict(costs).items():
                key = (min(i, j), max(i, j))
                if key not in table:
                    raise ValueError(f"edge ({i}, {j}) out of range")
                table[key] = as_rational(w)
        self.costs = table

    @classmethod
    def zero(cls, n: int) -> "TspInstance":
        return cls(n)

    def cost_vector(self) -> tuple[int | Fraction, ...]:
        return tuple(self.costs[e] for e in edges(n=self.n))

    def __repr__(self):
        return f"TspInstance(n={self.n})"


def build(inst: TspInstance) -> BinaryProgram:
    """max sum of negated costs s.t. the degree-2 equalities (deg_v) and
    one subtour row (sub_...) per vertex set A with 2 <= |A| <= n-1, in
    that order.

    Singletons are implied by binariness; complements are kept, mirroring
    the defining index set.  Exponentially many rows, hence BUILD_CAP.
    """
    n = inst.n
    if n > BUILD_CAP:
        raise CapExceededError(f"dense subtour build refused for n={n} (cap {BUILD_CAP})")
    rows, rhs = degree_system(n)
    cons = [Constraint(a, "=", b, f"deg_{v}") for v, (a, b) in enumerate(zip(rows, rhs), start=1)]
    c = tuple(-w for w in inst.cost_vector())
    return BinaryProgram(c, cons + subtour_facets(n, range(2, n)), [f"x_{i}_{j}" for i, j in edges(n)])


def canonical_tour(seq: Sequence[int]) -> tuple[int, ...]:
    """Rotate to start at 1 and orient so the second city beats the last."""
    t = [int(v) for v in seq]
    n = len(t)
    if n < 3 or sorted(t) != list(range(1, n + 1)):
        raise ValueError(f"{seq!r} is not a tour of 1..{len(t)}")
    k = t.index(1)
    t = t[k:] + t[:k]
    if t[1] > t[-1]:
        t = [t[0]] + t[:0:-1]
    return tuple(t)


def tour_edges(t: Sequence[int]) -> frozenset[tuple[int, int]]:
    t = canonical_tour(t)
    n = len(t)
    out = set()
    for k in range(n):
        i, j = t[k], t[(k + 1) % n]
        out.add((min(i, j), max(i, j)))
    return frozenset(out)


def tour_to_incidence(t: Sequence[int]) -> tuple[int, ...]:
    es = tour_edges(t)
    n = len(tuple(t))
    return tuple(1 if e in es else 0 for e in edges(n))


def incidence_to_tour(x: Sequence[int], n: int) -> tuple[int, ...]:
    """Invert tour_to_incidence; rejects anything but a single n-cycle."""
    x = tuple(int(v) for v in x)
    if len(x) != n * (n - 1) // 2:
        raise ValueError(f"{len(x)} coordinates do not form an edge vector")
    adj = {v: [] for v in range(1, n + 1)}
    for k, (i, j) in enumerate(edges(n)):
        if x[k]:
            adj[i].append(j)
            adj[j].append(i)
    if any(len(nb) != 2 for nb in adj.values()):
        raise ValueError("vector is not 2-regular")
    walk = [1]
    prev = None
    while True:
        cur = walk[-1]
        nxt = next(u for u in adj[cur] if u != prev)
        if nxt == 1:
            break
        walk.append(nxt)
        prev = cur
    if len(walk) != n:
        raise ValueError("vector splits into more than one cycle")
    return canonical_tour(walk)


def _tours(n: int) -> Iterator[tuple[int, ...]]:
    """The (n-1)!/2 canonical tours, lexicographically, one at a time."""
    return ((1,) + rest for rest in itertools.permutations(range(2, n + 1)) if rest[0] < rest[-1])


def all_tours(n: int) -> list[tuple[int, ...]]:
    """All (n-1)!/2 canonical tours, lexicographically."""
    return list(_tours(n))


def base_points(n: int) -> Iterator[tuple[int, ...]]:
    """The feasible set of build, every tour's incidence vector in the
    order of all_tours, made one tour at a time: no (n-1)!/2 list."""
    return map(tour_to_incidence, _tours(n))


def tour_cost(inst: TspInstance, t: Sequence[int]) -> Fraction:
    return sum((inst.costs[e] for e in tour_edges(t)), Fraction(0))


def discordant_edges(t1: Sequence[int], t2: Sequence[int]) -> frozenset[tuple[int, int]]:
    """Edges driven by t1 but not by t2 (half the symmetric difference)."""
    return tour_edges(t1) - tour_edges(t2)


def optimal_tours(inst: TspInstance) -> list[tuple[int, ...]]:
    """All minimum-cost tours, by full enumeration."""
    return maximisers(all_tours(inst.n), lambda t: -tour_cost(inst, t))


def verify_diameter_discordant(inst: TspInstance) -> bool:
    """Conjugate diameter solve vs. brute force over optimal tours: the
    distance must be twice the largest number of discordant edges between
    two optima.  Exact for n up to 8 (enumeration of (n-1)!/2 tours)."""
    n = inst.n
    if n > 8:
        raise ValueError("verification enumerates (n-1)!/2 tours; n <= 8 only")
    opts = optimal_tours(inst)
    return verify_listed_diameter(build(inst), opts, tour_to_incidence, lambda t1, t2: len(discordant_edges(t1, t2)))


def find_disjoint_tour(t: Sequence[int]) -> tuple[int, ...] | None:
    """An edge-disjoint tour on the same cities, when one exists.

    None for n in {3, 4}: the n tour edges plus n more do not fit in
    C(n, 2).  For n >= 5 the tour visits t's positions 0, 2, 4, ... and
    then the odd ones: 1, 3, ..., n-2 for odd n, and 1, n-1, n-3, ..., 3
    for even n.  Each step, the closing one included, joins two positions
    at cyclic distance 2 or 3 on t (3 only for even n, between n-2 and 1
    and between 3 and 0), never at distance 1, so no edge is one of t's.
    """
    t = canonical_tour(t)
    n = len(t)
    if n < 5:
        return None
    odd = range(1, n, 2) if n % 2 else (1, *range(n - 1, 2, -2))
    return canonical_tour([t[i] for i in (*range(0, n, 2), *odd)])


def subtour_facets(n: int, sizes: Sequence[int] | None = None) -> list[Constraint]:
    """Subtour rows as inequalities; defaults to 2 <= |A| <= n-2."""
    if sizes is None:
        sizes = range(2, n - 1)
    out = []
    for size in sizes:
        for subset in itertools.combinations(range(1, n + 1), size):
            a = [0] * (n * (n - 1) // 2)
            for i, j in itertools.combinations(subset, 2):
                a[edge_index(i, j, n)] = 1
            name = "sub_" + "_".join(str(v) for v in subset)
            out.append(Constraint(tuple(a), "<=", size - 1, name))
    return out


def base_facets(n: int) -> list[Constraint]:
    return nonnegativity_facets([f"x_{i}_{j}" for i, j in edges(n)]) + subtour_facets(n)


def degree_system(n: int):
    """The degree equalities as (rows, rhs) over the C(n,2) coordinates."""
    rows = []
    rhs = []
    for v in range(1, n + 1):
        a = [0] * (n * (n - 1) // 2)
        for u in range(1, n + 1):
            if u != v:
                a[edge_index(u, v, n)] = 1
        rows.append(tuple(a))
        rhs.append(2)
    return rows, rhs


def tsp_from_tsplib(text: str) -> TspInstance:
    """EXPLICIT full-matrix TSPLIB text; other weight types are rejected."""
    header: dict[str, str] = {}
    numbers: list[str] = []
    in_weights = False
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line == "EOF":
            continue
        if in_weights:
            up = line.upper().replace(" ", "")
            if ":" in line and not line[0].isdigit() and not up[0] == "-":
                in_weights = False  # another section header
            else:
                numbers.extend(line.split())
                continue
        if line.upper().startswith("EDGE_WEIGHT_SECTION"):
            in_weights = True
            continue
        if ":" in line:
            key, _, val = line.partition(":")
            header[key.strip().upper()] = val.strip()
        elif line.upper() in ("NODE_COORD_SECTION", "DISPLAY_DATA_SECTION"):
            raise ParseError("coordinate sections are not supported; EXPLICIT weights only")
    ewt = header.get("EDGE_WEIGHT_TYPE", "").upper()
    if ewt != "EXPLICIT":
        raise ParseError(f"EDGE_WEIGHT_TYPE {ewt or '(missing)'} unsupported; need EXPLICIT")
    fmt = header.get("EDGE_WEIGHT_FORMAT", "FULL_MATRIX").upper()
    if fmt != "FULL_MATRIX":
        raise ParseError(f"EDGE_WEIGHT_FORMAT {fmt} unsupported; need FULL_MATRIX")
    try:
        n = int(header["DIMENSION"])
    except (KeyError, ValueError) as e:
        raise ParseError("missing or bad DIMENSION") from e
    if len(numbers) != n * n:
        raise ParseError(f"expected {n * n} weight entries, found {len(numbers)}")
    costs = {}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            tok = numbers[(i - 1) * n + (j - 1)]
            try:
                w = as_rational(tok)
            except ValueError as e:
                raise ParseError(f"bad weight entry {tok!r}") from e
            if i == j:
                continue
            key = (min(i, j), max(i, j))
            if key in costs:
                if costs[key] != w:
                    raise ParseError(f"matrix is not symmetric at {key}")
            else:
                costs[key] = w
    return TspInstance(n, costs)


def load_tsp(path: str) -> TspInstance:
    """JSON (.json) or explicit full-matrix TSPLIB (anything else)."""
    return load_instance(
        path, lambda d: instance_from_json(d, TspInstance, "costs", "tour", symmetric=True), tsp_from_tsplib
    )
