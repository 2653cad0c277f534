"""Builders for every named matrix space used by the checkers.

All constructions are parameterized by an explicit field and return
canonical :class:`~char2spec.subspace.MatSubspace` objects, so equality
tests between differently-built spaces are exact.  The catalogue,
`CATALOGUE`, is data with no field: `build` expressions, each with the
closed-form dimension stated for it and the predicate it claims, if any.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import accumulate
from math import comb

from .gf import FieldSpec, excerpt, read_decimal
from .matrix import Mat, identity, inverse, mat_add, mat_mul, place, rank, unit
from .subspace import MatSubspace, VecSubspace


def _space(fs: FieldSpec, n: int, mats) -> MatSubspace:
    return MatSubspace.from_matrices(fs, (n, n), list(mats))


def zero_space(fs: FieldSpec, n: int) -> MatSubspace:
    return MatSubspace((n, n), VecSubspace(fs, n * n, []))


def full(fs: FieldSpec, n: int) -> MatSubspace:
    return _space(fs, n, (unit(n, n, i, j) for i in range(n) for j in range(n)))


def nt(fs: FieldSpec, n: int) -> MatSubspace:
    """Strictly upper-triangular matrices, dimension n(n-1)/2."""
    return _space(fs, n, (unit(n, n, i, j) for i in range(n) for j in range(i + 1, n)))


def ut(fs: FieldSpec, n: int) -> MatSubspace:
    """Upper-triangular matrices, dimension n(n+1)/2."""
    return _space(fs, n, (unit(n, n, i, j) for i in range(n) for j in range(i, n)))


def sl(fs: FieldSpec, n: int) -> MatSubspace:
    """Trace-zero matrices, dimension n^2 - 1."""
    gens = [unit(n, n, i, j) for i in range(n) for j in range(n) if i != j]
    # char 2: E_ii - E_{i+1,i+1} = E_ii + E_{i+1,i+1}
    gens += [mat_add(unit(n, n, i, i), unit(n, n, i + 1, i + 1)) for i in range(n - 1)]
    return _space(fs, n, gens)


def alts(fs: FieldSpec, n: int) -> MatSubspace:
    """Alternating matrices (symmetric with zero diagonal in characteristic 2),
    dimension n(n-1)/2."""
    return _space(fs, n, (mat_add(unit(n, n, i, j), unit(n, n, j, i))
                          for i in range(n) for j in range(i + 1, n)))


def syms(fs: FieldSpec, n: int) -> MatSubspace:
    """Symmetric matrices, dimension n(n+1)/2: the diagonal units and the
    alternating matrices."""
    return _space(fs, n, [unit(n, n, i, i) for i in range(n)] + alts(fs, n).basis_matrices())


def joint(fs: FieldSpec, *parts: MatSubspace) -> MatSubspace:
    """Block upper-triangular combination: diagonal blocks from the given
    spaces, every strictly-upper off-diagonal block completely free.
    Associative up to canonical equality; dim = sum of dims + sum of
    products of block sizes."""
    sizes = []
    for p in parts:
        a, b = p.shape
        if a != b:
            raise ValueError("joint needs square diagonal blocks")
        sizes.append(a)
    n = sum(sizes)
    offs = [sum(sizes[:i]) for i in range(len(sizes))]
    gens = [place(n, n, off, off, b)
            for part, off in zip(parts, offs) for b in part.basis_matrices()]
    for bi in range(len(sizes)):
        for bj in range(bi + 1, len(sizes)):
            for i in range(sizes[bi]):
                for j in range(sizes[bj]):
                    gens.append(unit(n, n, offs[bi] + i, offs[bj] + j))
    return _space(fs, n, gens)


def hurdle_template(fs: FieldSpec, n: int) -> MatSubspace:
    """The joint of the zero space of size n-2 with sl_2: every element kills
    the first n-2 basis vectors' span from the left block; dim 3 + 2(n-2)."""
    if n < 2:
        raise ValueError("hurdle template needs n >= 2")
    return joint(fs, zero_space(fs, n - 2), sl(fs, 2))


def k2m(fs: FieldSpec, m: int) -> Mat:
    """Gram matrix of the standard symplectic form; in characteristic 2 both
    off-diagonal blocks are the identity.  Invertible and alternating."""
    n = 2 * m
    k = mat_add(place(n, n, 0, m, identity(m)), place(n, n, m, 0, identity(m)))
    assert rank(fs, k) == n
    return k


def b2m(fs: FieldSpec, m: int) -> MatSubspace:
    """Endomorphisms symmetric for the standard symplectic form on F^{2m}:
    blocks [[A, S2], [S1, A^T]] with A square and S1, S2 symmetric
    (characteristic 2 turns -A^T into A^T); dim m^2 + m(m+1)."""
    n = 2 * m
    gens = [mat_add(unit(n, n, i, j), unit(n, n, m + j, m + i))
            for i in range(m) for j in range(m)]
    for ro, co in ((m, 0), (0, m)):
        # a diagonal position takes one unit: a unit plus itself is zero
        gens += [unit(n, n, ro + i, co + i) for i in range(m)]
        gens += [mat_add(unit(n, n, ro + i, co + j), unit(n, n, ro + j, co + i))
                 for i in range(m) for j in range(i + 1, m)]
    return _space(fs, n, gens)


def line_plus(fs: FieldSpec, t: MatSubspace) -> MatSubspace:
    """Adjoin the scalar line F*I_n; requires I_n outside t so the dimension
    grows by exactly one."""
    n, m = t.shape
    if n != m:
        raise ValueError("line_plus needs square matrices")
    if t.member(identity(n)):
        raise ValueError("identity already lies in the space")
    return t.sum_with(_space(fs, n, [identity(n)]))


def mats_p(fs: FieldSpec, n: int, p: Mat) -> MatSubspace:
    """The space of all S*P with S symmetric; requires invertible P."""
    if rank(fs, p) != n:
        raise ValueError("mats_p requires invertible P")
    return syms(fs, n).transform(lambda s: mat_mul(fs, s, p))


def mul_space_left(fs: FieldSpec, p: Mat, s: MatSubspace) -> MatSubspace:
    return s.transform(lambda a: mat_mul(fs, p, a))


def conjugate_space(fs: FieldSpec, s: MatSubspace, p: Mat) -> MatSubspace:
    pinv = inverse(fs, p)
    return s.transform(lambda a: mat_mul(fs, mat_mul(fs, p, a), pinv))


def case_iv_n6(fs: FieldSpec) -> MatSubspace:
    """The subspace of the threefold joint of sl_2 whose first and third
    diagonal blocks are equal; dimension 18."""
    gens: list[Mat] = []
    for b in sl(fs, 2).basis_matrices():
        gens.append(mat_add(place(6, 6, 0, 0, b), place(6, 6, 4, 4, b)))
        gens.append(place(6, 6, 2, 2, b))
    gens += [unit(6, 6, ro + i, co + j) for i in range(2) for j in range(2)
             for ro, co in ((0, 2), (0, 4), (2, 4))]
    return _space(fs, 6, gens)


def sl2_joint_nt(fs: FieldSpec, n: int) -> MatSubspace:
    return joint(fs, sl(fs, 2), nt(fs, n - 2))


def optimal_2bar(fs: FieldSpec, n: int, k: int) -> MatSubspace:
    """F I_n + (NT_k v sl_2 v NT_{n-k-2})."""
    return line_plus(fs, joint(fs, nt(fs, k), sl(fs, 2), nt(fs, n - k - 2)))


# ----------------------------------------------------------------------
# catalogue
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CatalogueEntry:
    """A `build` expression, its stated dimension and the spectrum predicate
    it claims over every field of characteristic 2 (None: no claim)."""
    expr: str
    dim: int
    pred: str | None = None


CATALOGUE = (
    *(CatalogueEntry(f"nt{n}", comb(n, 2), "0bar*-spec") for n in range(1, 7)),
    *(CatalogueEntry(f"joint(sl2,nt{n - 2})", comb(n, 2) + 2, "1bar*-spec")
      for n in range(2, 7)),
    CatalogueEntry("sl2", 3),
    CatalogueEntry("sl3", 8),
    CatalogueEntry("joint(sl2,sl2)", comb(4, 2) + 4, "2bar-spec"),
    CatalogueEntry("b2m1", 1 + 2),
    CatalogueEntry("b2m2", comb(5, 2), "2bar-spec"),
    # optimal_2bar(n, k), with no nt0 block
    *(CatalogueEntry(f"line_plus(joint(nt{k},sl2,nt{n - k - 2}))".replace("nt0,", "")
                     .replace(",nt0", ""), comb(n, 2) + 3, "2bar-spec")
      for n in (3, 5, 6) for k in range(0, n - 1)),
    CatalogueEntry("case_iv_n6", comb(6, 2) + 3, "2bar-spec"),
    *(CatalogueEntry(f"hurdle{n}", 3 + 2 * (n - 2)) for n in (2, 3, 4, 5)),
    *(entry for n in (2, 3, 4) for entry in (CatalogueEntry(f"ut{n}", comb(n + 1, 2)),
                                               CatalogueEntry(f"syms{n}", comb(n + 1, 2)),
                                               CatalogueEntry(f"alts{n}", comb(n, 2)))),
)


def build(fs: FieldSpec, expr: str) -> MatSubspace:
    """Construct a catalogue space from a compact expression::

        expr  := atom | "case_iv_n6" | "joint(" expr ("," expr)* ")" | "line_plus(" expr ")"
        atom  := name digits      (ASCII digits: the size n)
        name  := nt | sl | syms | alts | ut | full | hurdle | zero | b2m | mats_p

    b2m<m> builds matrices of size 2m; mats_p<n> (symmetric matrices
    times the standard symplectic Gram) needs an even n.  Spaces are
    ignored.  The whole matrix size, which bounds every atom and every
    joint, must not pass MAX_SIZE, and the combinators must not nest more
    than MAX_DEPTH deep; both are checked before anything is built.
    """
    return build_with_expected(fs, expr)[0]


MAX_SIZE = 64   # full64 and mats_p64 already take seconds to build
MAX_DEPTH = 400     # parsing and building recurse once or twice per level


def build_with_expected(fs: FieldSpec, expr: str) -> tuple[MatSubspace, int]:
    """Construction plus the closed-form dimension its realization must have,
    computed structurally from the expression."""
    text = expr.strip().replace(" ", "")
    # every "(" opens a combinator, so the deepest parenthesis is the nesting
    depth = max(accumulate((c == "(") - (c == ")") for c in text), default=0)
    if depth > MAX_DEPTH:
        raise ValueError(f"construction {excerpt(expr)} nests {depth} levels deep, "
                         f"past the bound of {MAX_DEPTH}")
    size, expected, make, rest = _parse_expr(fs, text)
    if rest:
        raise ValueError(f"trailing input in construction expression: {excerpt(rest)}")
    if size == 0:
        raise ValueError(f"construction {excerpt(expr)} builds 0 x 0 matrices")
    if size > MAX_SIZE:
        side = excerpt(str(size), str)
        raise ValueError(f"construction {excerpt(expr)} builds {side} x {side} matrices, "
                         f"past the bound of {MAX_SIZE}")
    return make(), expected


def _mats_p_standard(fs: FieldSpec, n: int) -> MatSubspace:
    if n % 2:
        raise ValueError("mats_p<n> uses the standard symplectic Gram; n must be even")
    return mats_p(fs, n, k2m(fs, n // 2))


# atom name -> (builder at size n, dimension at size n)
_ATOMS = {
    "nt": (nt, lambda n: comb(n, 2)),
    "sl": (sl, lambda n: n * n - 1),
    "syms": (syms, lambda n: comb(n + 1, 2)),
    "alts": (alts, lambda n: comb(n, 2)),
    "ut": (ut, lambda n: comb(n + 1, 2)),
    "full": (full, lambda n: n * n),
    "hurdle": (hurdle_template, lambda n: 3 + 2 * (n - 2)),
    "zero": (zero_space, lambda n: 0),
    "b2m": (b2m, lambda m: m * m + m * (m + 1)),
    "mats_p": (_mats_p_standard, lambda n: comb(n + 1, 2)),
}
_ATOM = re.compile(f"({'|'.join(_ATOMS)})([0-9]+)")


def _parse_expr(fs: FieldSpec, text: str):
    """(matrix size, expected dimension, builder, unparsed rest) of the
    expression at the start of text; nothing is built until the builder
    is called."""
    if text.startswith("case_iv_n6"):
        return 6, 18, lambda: case_iv_n6(fs), text[len("case_iv_n6"):]
    for name in ("joint", "line_plus"):
        if text.startswith(name + "("):
            rest, parts = text[len(name):], []
            while not parts or rest.startswith(","):    # skip the "(" or the ","
                *part, rest = _parse_expr(fs, rest[1:])
                parts.append(part)
            if not rest.startswith(")"):
                raise ValueError(f"malformed construction expression near {excerpt(rest)}")
            (sizes, expects, makes), rest = zip(*parts), rest[1:]
            if name == "joint":
                cross = (sum(sizes) ** 2 - sum(s * s for s in sizes)) // 2
                return (sum(sizes), sum(expects) + cross,
                        lambda: joint(fs, *(make() for make in makes)), rest)
            if len(parts) != 1:
                raise ValueError("line_plus takes exactly one argument")
            return sizes[0], expects[0] + 1, lambda: line_plus(fs, makes[0]()), rest
    match = _ATOM.match(text)
    if match is None:
        raise ValueError(f"unknown construction expression {excerpt(text)}")
    (fn, dim_fn), n = _ATOMS[match[1]], read_decimal(
        match[2], f"construction atom {match[1]!r} has a size of {len(match[2])} digits, "
                  f"too many to read")
    size = 2 * n if fn is b2m else n    # b2m<m> builds 2m x 2m matrices
    return size, dim_fn(n), lambda: fn(fs, n), text[match.end():]
