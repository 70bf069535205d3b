"""Linear ordering front end.

Items 1..n, one binary variable per ordered pair (i, j), i != j, in
row-major order.  A ranking sigma (sigma[i-1] is the rank of item i) maps
to the incidence vector x_ij = 1 iff i is ranked before j.  Feasible points
of the model below are exactly these incidence vectors: the pick-one
equalities force a tournament and the 3-dicycle rows cut every directed
triangle, which kills all non-transitive tournaments.  Each row family is
written once, in pick_one_system and dicycle_facets: build solves those
rows, and the polyhedral suites certify rows from the same two lists.

Every incidence vector has exactly C(n,2) ones, so conjugate diameter
solves certify the exact value 2*(C(n,2) - sum(z)), and that distance is
twice the Kendall tau of the two rankings.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterator, Sequence

from .bpcore import BinaryProgram, Constraint
from .diameter import maximisers, paired, split, verify_listed_diameter
from .errors import ParseError
from .modelio import PairWeights
from .polytope import nonnegativity_facets


def ordered_pairs(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]


def pair_index(i: int, j: int, n: int) -> int:
    if not (1 <= i <= n and 1 <= j <= n) or i == j:
        raise ValueError(f"bad pair ({i}, {j}) for n={n}")
    return (i - 1) * (n - 1) + (j - 1) - (1 if j > i else 0)


class LopInstance(PairWeights):
    """Weights over all n(n-1) ordered pairs; missing pairs default to 0."""

    pairs = staticmethod(ordered_pairs)
    key = tuple
    least, field, family = 2, "weights", "ordering"
    too_few, pair_word, weight_word = "two items", "pair", "weight"

    @classmethod
    def from_text(cls, text: str) -> LopInstance:
        """Dense-matrix text: first number n, then the n*n entries; '#'
        starts a comment."""
        tokens = [tok for line in text.splitlines() for tok in line.split("#")[0].split()]
        if not tokens:
            raise ParseError("empty matrix text")
        try:
            n = int(tokens[0])
        except ValueError as e:
            raise ParseError(f"first token must be the size, got {tokens[0]!r}") from e
        return cls.from_matrix(n, tokens[1:])


def build(inst: LopInstance) -> BinaryProgram:
    """max sum w_ij x_ij s.t. the pick-one equalities (pick_i_j) and the
    3-dicycle rows (cyc_i_j_k), in that order."""
    n = inst.n
    rows, rhs = pick_one_system(n)
    names = (f"pick_{i}_{j}" for i, j in itertools.combinations(range(1, n + 1), 2))
    cons = [Constraint(a, "=", b, name) for a, b, name in zip(rows, rhs, names)]
    return BinaryProgram(inst.vector(), cons + dicycle_facets(n), [f"x_{i}_{j}" for i, j in ordered_pairs(n)])


def _check_perm(sigma: Sequence[int]) -> tuple[int, ...]:
    s = tuple(int(v) for v in sigma)
    if sorted(s) != list(range(1, len(s) + 1)):
        raise ValueError(f"{sigma!r} is not a permutation of 1..{len(s)}")
    return s


def perm_to_incidence(sigma: Sequence[int]) -> tuple[int, ...]:
    """x_ij = 1 iff sigma ranks item i before item j."""
    s = _check_perm(sigma)
    n = len(s)
    return tuple(1 if s[i - 1] < s[j - 1] else 0 for i, j in ordered_pairs(n))


def incidence_to_perm(x: Sequence[int], n: int) -> tuple[int, ...]:
    """Invert perm_to_incidence for n items; rejects vectors that are not orderings."""
    x = tuple(int(v) for v in x)
    if len(x) != n * (n - 1):
        raise ValueError(f"{len(x)} coordinates do not form an ordered-pair vector")
    sigma = []
    for i in range(1, n + 1):
        before = sum(x[pair_index(j, i, n)] for j in range(1, n + 1) if j != i)
        sigma.append(1 + before)
    s = tuple(sigma)
    if sorted(s) != list(range(1, n + 1)) or perm_to_incidence(s) != x:
        raise ValueError("vector is not the incidence vector of an ordering")
    return s


def all_permutations(n: int) -> list[tuple[int, ...]]:
    return list(itertools.permutations(range(1, n + 1)))


def base_points(n: int) -> Iterator[tuple[int, ...]]:
    """The feasible set of build, every ranking's incidence vector in the
    order of all_permutations, made one ranking at a time: no n! list."""
    return map(perm_to_incidence, itertools.permutations(range(1, n + 1)))


def kendall_tau(s1: Sequence[int], s2: Sequence[int]) -> int:
    """Number of unordered item pairs the two rankings order oppositely."""
    a, b = _check_perm(s1), _check_perm(s2)
    if len(a) != len(b):
        raise ValueError("rankings of different sizes")
    n = len(a)
    count = 0
    for i in range(n):
        for j in range(i + 1, n):
            if (a[i] < a[j]) != (b[i] < b[j]):
                count += 1
    return count


def objective_value(inst: LopInstance, sigma: Sequence[int]) -> Fraction:
    s = _check_perm(sigma)
    total = Fraction(0)
    for (i, j), w in inst.weights.items():
        if s[i - 1] < s[j - 1]:
            total += w
    return total


def optimal_permutations(inst: LopInstance) -> list[tuple[int, ...]]:
    """All maximizing rankings, by full n! enumeration."""
    return maximisers(all_permutations(inst.n), lambda p: objective_value(inst, p))


def verify_diameter_kendall(inst: LopInstance) -> bool:
    """Conjugate diameter solve vs. brute force over optimal rankings: the
    distance must be twice the largest Kendall tau between two optima.
    Exact for n up to 6 (enumeration of n! rankings)."""
    n = inst.n
    if n > 6:
        raise ValueError("verification enumerates n! rankings; n <= 6 only")
    opts = optimal_permutations(inst)
    return verify_listed_diameter(build(inst), opts, perm_to_incidence, kendall_tau)


def dicycle_facets(n: int) -> list[Constraint]:
    """The 3-dicycle rows x_ij + x_jk + x_ki <= 2, i < j, i < k, j != k:
    two per unordered triple, one for each orientation."""
    out = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            for k in range(i + 1, n + 1):
                if j == k:
                    continue
                a = [0] * (n * (n - 1))
                a[pair_index(i, j, n)] = a[pair_index(j, k, n)] = a[pair_index(k, i, n)] = 1
                out.append(Constraint(tuple(a), "<=", 2, f"cyc_{i}_{j}_{k}"))
    return out


def base_facets(n: int) -> list[Constraint]:
    """x_ij >= 0 for every ordered pair (each is x_ji <= 1 in disguise),
    then the 3-dicycle rows."""
    return nonnegativity_facets([f"x_{i}_{j}" for i, j in ordered_pairs(n)]) + dicycle_facets(n)


def pick_one_system(n: int):
    """The pick-one equalities as (rows, rhs) over the n(n-1) coordinates."""
    rows = []
    rhs = []
    for i, j in itertools.combinations(range(1, n + 1), 2):
        a = [0] * (n * (n - 1))
        a[pair_index(i, j, n)] = a[pair_index(j, i, n)] = 1
        rows.append(tuple(a))
        rhs.append(1)
    return rows, rhs


def lift_inequality(ineq: Constraint, n_items: int) -> Constraint:
    """Zero-pad a 3-block inequality from n items to n+1 items.

    Coefficients on pairs among 1..n are copied in each of the x, y, z
    blocks; pairs involving the new item get 0; the right-hand side is
    unchanged.
    """
    n = n_items
    old_pairs = ordered_pairs(n)
    if len(ineq.coeffs) != 3 * len(old_pairs):
        raise ValueError(f"expected {3 * len(old_pairs)} coordinates for n_items={n}")
    moved = [pair_index(i, j, n + 1) for i, j in old_pairs]
    blocks = [[0] * ((n + 1) * n) for _ in range(3)]
    for block, old in zip(blocks, split(ineq.coeffs)):
        for k, v in zip(moved, old):
            block[k] = v
    return Constraint(paired((n + 1) * n, *blocks), ineq.sense, ineq.rhs, ineq.label)
