"""Linear subspaces of F^m and of Mat_{n,m}(F).

Subspaces are stored as reduced row-echelon bases with respect to a
fixed global coordinate order (row-major flattening for matrix spaces),
so equality is basis identity and every report is deterministic.
Enumeration streams (all elements, projective representatives) produce
each object exactly once in an order independent of any worker
partitioning; exceeding the configured budget raises
:class:`BudgetExceeded`, which callers convert into an explicit "budget"
verdict distinct from failure.
"""

from __future__ import annotations

from itertools import product
from typing import Iterator

import numpy as np

from .gf import FieldSpec, code_dtype
from .matrix import Mat, identity, rref_rows, transpose, zero

Vec = tuple[int, ...]

DEFAULT_BUDGET = 1 << 24


def digits(index: int, q: int, count: int) -> list[int]:
    """The first `count` base-q digits of index, least significant first."""
    out = []
    for _ in range(count):
        out.append(index % q)
        index //= q
    return out


class BudgetExceeded(Exception):
    """An enumeration would produce more objects than the budget allows."""

    def __init__(self, needed: int, budget: int):
        super().__init__(f"enumeration of {needed} objects exceeds budget {budget}")
        self.needed = needed
        self.budget = budget


class VecSubspace:
    """A subspace of F^ambient held as a canonical RREF basis."""

    __slots__ = ("field", "ambient", "basis", "pivots")

    def __init__(self, field: FieldSpec, ambient: int, vectors) -> None:
        rows = [list(v) for v in vectors]
        for r in rows:
            if len(r) != ambient:
                raise ValueError("ambient dimension mismatch")
        basis, pivots = rref_rows(field, rows) if rows else ([], [])
        self.field = field
        self.ambient = ambient
        self.basis = tuple(tuple(r) for r in basis)
        self.pivots = tuple(pivots)

    @classmethod
    def _trusted(cls, field: FieldSpec, ambient: int, basis, pivots) -> "VecSubspace":
        s = cls.__new__(cls)
        s.field = field
        s.ambient = ambient
        s.basis = tuple(tuple(r) for r in basis)
        s.pivots = tuple(pivots)
        return s

    @property
    def dim(self) -> int:
        return len(self.basis)

    def _check_compatible(self, other: "VecSubspace") -> None:
        if self.field != other.field or self.ambient != other.ambient:
            raise ValueError("subspaces live in different ambient spaces")

    def reduce(self, v) -> list[int]:
        mul = self.field.mul
        w = list(v)
        for row, p in zip(self.basis, self.pivots):
            c = w[p]
            if c:
                for j in range(p, self.ambient):
                    w[j] ^= mul(c, row[j])
        return w

    def member(self, v) -> bool:
        return not any(self.reduce(v))

    def sum_with(self, other: "VecSubspace") -> "VecSubspace":
        self._check_compatible(other)
        return VecSubspace(self.field, self.ambient, list(self.basis) + list(other.basis))

    def intersect(self, other: "VecSubspace") -> "VecSubspace":
        """Zassenhaus: row-reduce [A|A; B|0]; rows with zero left half carry
        the intersection in their right half."""
        self._check_compatible(other)
        m = self.ambient
        stacked = [list(r) + list(r) for r in self.basis]
        stacked += [list(r) + [0] * m for r in other.basis]
        if not stacked:
            return VecSubspace(self.field, m, [])
        reduced, _ = rref_rows(self.field, stacked)
        inter = [row[m:] for row in reduced if not any(row[:m])]
        return VecSubspace(self.field, m, inter)

    def annihilator_rows(self) -> list[list[int]]:
        """A basis of the annihilator, not row-reduced: for each non-pivot
        column f, the vector with 1 at f, 0 at the other non-pivot columns
        and row[f] at the pivot of each basis row."""
        m = self.ambient
        free = [j for j in range(m) if j not in self.pivots]
        vecs = []
        for f in free:
            v = [0] * m
            v[f] = 1
            for row, p in zip(self.basis, self.pivots):
                v[p] = row[f]  # char 2: -x = x
            vecs.append(v)
        return vecs

    def annihilator(self) -> "VecSubspace":
        """Nullspace of the basis matrix: all phi with phi(x)=0 on the space."""
        return VecSubspace(self.field, self.ambient, self.annihilator_rows())

    def contains_space(self, other: "VecSubspace") -> bool:
        return all(self.member(v) for v in other.basis)

    def combine(self, coords) -> Vec:
        """The combination sum_j coords[j] * basis[j] of the canonical basis."""
        mul = self.field.mul
        out = [0] * self.ambient
        for c, row in zip(coords, self.basis):
            if c:
                for j, x in enumerate(row):
                    if x:
                        out[j] ^= mul(c, x)
        return tuple(out)

    def element_at(self, index: int) -> Vec:
        """The index-th element in the canonical enumeration order: the j-th
        base-q digit of the index is the coefficient of basis row j."""
        return self.combine(digits(index, self.field.q, self.dim))

    def enumerate_elements(self, budget: int = DEFAULT_BUDGET) -> Iterator[Vec]:
        total = self.field.q ** self.dim
        if total > budget:
            raise BudgetExceeded(total, budget)
        # index order: the first coordinate counts fastest
        for coords in product(range(self.field.q), repeat=self.dim):
            yield self.combine(coords[::-1])

    def to_json(self) -> dict:
        return {"ambient": self.ambient, "basis": [list(r) for r in self.basis]}

    def __eq__(self, other) -> bool:
        return (isinstance(other, VecSubspace) and self.field == other.field
                and self.ambient == other.ambient and self.basis == other.basis)

    def __hash__(self) -> int:
        return hash((self.field, self.ambient, self.basis))

    def __repr__(self) -> str:
        return f"VecSubspace(dim {self.dim} of F^{self.ambient})"


def span(field: FieldSpec, ambient: int, vectors) -> VecSubspace:
    return VecSubspace(field, ambient, vectors)


def full_space(field: FieldSpec, ambient: int) -> VecSubspace:
    return VecSubspace._trusted(field, ambient, identity(ambient).row_lists(), range(ambient))


def line(field: FieldSpec, v) -> VecSubspace:
    return VecSubspace(field, len(v), [v])


# ----------------------------------------------------------------------
# matrix subspaces
# ----------------------------------------------------------------------
class MatSubspace:
    """A subspace of Mat_{n,m}(F) as a VecSubspace of F^{n*m} (row-major)."""

    __slots__ = ("shape", "space")

    def __init__(self, shape: tuple[int, int], space: VecSubspace):
        n, m = shape
        if space.ambient != n * m:
            raise ValueError("flattened ambient does not match shape")
        self.shape = (n, m)
        self.space = space

    @classmethod
    def from_matrices(cls, field: FieldSpec, shape: tuple[int, int], mats) -> "MatSubspace":
        n, m = shape
        vecs = []
        for a in mats:
            if (a.rows, a.cols) != (n, m):
                raise ValueError("matrix shape mismatch")
            vecs.append(a.entries)
        return cls(shape, VecSubspace(field, n * m, vecs))

    @property
    def field(self) -> FieldSpec:
        return self.space.field

    @property
    def dim(self) -> int:
        return self.space.dim

    def basis_matrices(self) -> list[Mat]:
        n, m = self.shape
        return [Mat(n, m, row) for row in self.space.basis]

    def member(self, a: Mat) -> bool:
        return self.space.member(a.entries)

    def contains_space(self, other: "MatSubspace") -> bool:
        return self.shape == other.shape and self.space.contains_space(other.space)

    def sum_with(self, other: "MatSubspace") -> "MatSubspace":
        return MatSubspace(self.shape, self.space.sum_with(other.space))

    def intersect(self, other: "MatSubspace") -> "MatSubspace":
        return MatSubspace(self.shape, self.space.intersect(other.space))

    def element_at(self, index: int) -> Mat:
        n, m = self.shape
        return Mat(n, m, self.space.element_at(index))

    def enumerate_elements(self, budget: int = DEFAULT_BUDGET) -> Iterator[Mat]:
        n, m = self.shape
        for v in self.space.enumerate_elements(budget):
            yield Mat(n, m, v)

    def transform(self, f) -> "MatSubspace":
        """Image space under a linear map f: Mat -> Mat (applied to the basis).
        The target shape is that of any image, so a zero space takes it
        from the image of the zero matrix."""
        n, m = self.shape
        imgs = [f(b) for b in self.basis_matrices()]
        target = imgs[0] if imgs else f(zero(n, m))
        return MatSubspace.from_matrices(self.field, (target.rows, target.cols), imgs)

    def to_json(self) -> dict:
        return {"shape": list(self.shape),
                "basis": [b.to_json() for b in self.basis_matrices()]}

    def __eq__(self, other) -> bool:
        return (isinstance(other, MatSubspace)
                and self.shape == other.shape and self.space == other.space)

    def __hash__(self) -> int:
        return hash((self.shape, self.space))

    def __repr__(self) -> str:
        n, m = self.shape
        return f"MatSubspace(dim {self.dim} of Mat_{n}x{m})"


def trace_orthogonal(s: MatSubspace) -> MatSubspace:
    """The trace-dual space: all v in Hom(V,U) with tr(vu)=0 for every u in S.

    For S <= Mat_{n,m} the result lives in Mat_{m,n}; tr(vu) pairs vec(v)
    against vec(u^T), so the dual is the annihilator of the transposed
    flattenings.  dim S + dim S^perp = n*m and the double dual returns S.
    """
    n, m = s.shape
    transposed = [transpose(b).entries for b in s.basis_matrices()]
    return MatSubspace((m, n), VecSubspace(s.field, n * m, transposed).annihilator())


# ----------------------------------------------------------------------
# enumeration
# ----------------------------------------------------------------------
def enumerate_projective(field: FieldSpec, ambient: int) -> Iterator[Vec]:
    """One representative per line of F^ambient, first nonzero coordinate
    normalized to 1; ordered by pivot position then by base-q counter
    (last coordinate fastest)."""
    for p in range(ambient):
        head = (0,) * p + (1,)
        for rest in product(range(field.q), repeat=ambient - p - 1):
            yield head + rest


PROJECTIVE_BLOCK = 1 << 14


def projective_blocks(field: FieldSpec, ambient: int,
                      budget: int = DEFAULT_BUDGET) -> Iterator[np.ndarray]:
    """The points of :func:`enumerate_projective`, in the same order, as
    code arrays [N, ambient] of at most PROJECTIVE_BLOCK points a block.
    Raises BudgetExceeded at the call, before any block, when there are
    more than `budget` points.

    Read as a base-q word (first coordinate most significant), the points
    of pivot p are the words of [q^r, 2 q^r), r = ambient - 1 - p, in
    ascending order."""
    q, k = field.q, field.degree
    total = (q ** ambient - 1) // (q - 1)
    if total > budget:
        raise BudgetExceeded(total, budget)

    def blocks():
        heads = np.array([q ** (ambient - 1 - p) for p in range(ambient)], dtype=np.int64)
        starts = np.cumsum(heads) - heads          # index of each pivot's first point
        shifts = np.arange(ambient - 1, -1, -1, dtype=np.uint64) * np.uint64(k)
        for lo in range(0, total, PROJECTIVE_BLOCK):
            idx = np.arange(lo, min(lo + PROJECTIVE_BLOCK, total), dtype=np.int64)
            p = np.searchsorted(starts, idx, side="right") - 1
            words = (idx - starts[p] + heads[p]).astype(np.uint64)
            yield (words[:, None] >> shifts & np.uint64(q - 1)).astype(code_dtype(k))
    return blocks()


def projective_points_of(space: VecSubspace) -> Iterator[Vec]:
    """One representative per line of the given subspace."""
    for c in enumerate_projective(space.field, space.dim):
        yield space.combine(c)


def index_chunks(total: int, workers: int) -> list[tuple[int, int]]:
    """Split [0, total) into contiguous ranges; the verdict merge over these
    ranges is defined so results do not depend on the worker count."""
    if total <= 0:
        return []
    workers = max(1, workers)
    step = (total + workers - 1) // workers
    return [(lo, min(lo + step, total)) for lo in range(0, total, step)]


def random_subspace(field: FieldSpec, rng, ambient: int, dim: int) -> VecSubspace:
    """Uniform-ish random subspace of the given dimension (rejection on rank)."""
    if dim > ambient:
        raise ValueError("dimension exceeds ambient")
    while True:
        vecs = [[rng.randrange(field.q) for _ in range(ambient)] for _ in range(dim)]
        s = VecSubspace(field, ambient, vecs)
        if s.dim == dim:
            return s
