"""Builders for every named matrix space used by the checkers.

All constructions are parameterized by an explicit field and return
canonical :class:`~char2spec.subspace.MatSubspace` objects, so equality
tests between differently-built spaces are exact.  The catalogue at the
bottom is data-driven: each entry carries the closed-form dimension its
realization must have, and the test suite iterates it generically.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .gf import FieldSpec
from .matrix import Mat, identity, inverse, mat_mul, rank, unit
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
    for i in range(n - 1):
        e = [0] * (n * n)
        e[i * n + i] = 1
        e[(i + 1) * n + (i + 1)] = 1  # char 2: E_ii - E_{i+1,i+1}
        gens.append(Mat(n, n, e))
    return _space(fs, n, gens)


def alts(fs: FieldSpec, n: int) -> MatSubspace:
    """Alternating matrices (symmetric with zero diagonal in characteristic 2),
    dimension n(n-1)/2."""
    gens = [Mat(n, n, tuple((1 if (r, c) in ((i, j), (j, i)) else 0)
                            for r in range(n) for c in range(n)))
            for i in range(n) for j in range(i + 1, n)]
    return _space(fs, n, gens)


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
    gens: list[Mat] = []
    for part, off in zip(parts, offs):
        for b in part.basis_matrices():
            e = [0] * (n * n)
            for i in range(b.rows):
                for j in range(b.cols):
                    e[(off + i) * n + (off + j)] = b[i, j]
            gens.append(Mat(n, n, e))
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
    e = [0] * (n * n)
    for i in range(m):
        e[i * n + (m + i)] = 1
        e[(m + i) * n + i] = 1
    k = Mat(n, n, e)
    assert rank(fs, k) == n
    return k


def b2m(fs: FieldSpec, m: int) -> MatSubspace:
    """Endomorphisms symmetric for the standard symplectic form on F^{2m}:
    blocks [[A, S2], [S1, A^T]] with A square and S1, S2 symmetric
    (characteristic 2 turns -A^T into A^T); dim m^2 + m(m+1)."""
    n = 2 * m
    gens: list[Mat] = []
    for i in range(m):
        for j in range(m):
            e = [0] * (n * n)
            e[i * n + j] = 1
            e[(m + j) * n + (m + i)] = 1
            gens.append(Mat(n, n, e))
    for which in (0, 1):
        ro, co = (m, 0) if which == 0 else (0, m)
        for i in range(m):
            for j in range(i, m):
                e = [0] * (n * n)
                e[(ro + i) * n + (co + j)] = 1
                e[(ro + j) * n + (co + i)] = 1
                gens.append(Mat(n, n, e))
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
    n = 6
    gens: list[Mat] = []
    for b in sl(fs, 2).basis_matrices():
        e = [0] * (n * n)
        for i in range(2):
            for j in range(2):
                e[i * n + j] = b[i, j]
                e[(4 + i) * n + (4 + j)] = b[i, j]
        gens.append(Mat(n, n, e))
        e2 = [0] * (n * n)
        for i in range(2):
            for j in range(2):
                e2[(2 + i) * n + (2 + j)] = b[i, j]
        gens.append(Mat(n, n, e2))
    for i in range(2):
        for j in range(2):
            gens.append(unit(n, n, i, 2 + j))
            gens.append(unit(n, n, i, 4 + j))
            gens.append(unit(n, n, 2 + i, 4 + j))
    return _space(fs, n, gens)


# ----------------------------------------------------------------------
# catalogue
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CatalogueEntry:
    name: str
    expected_dim: int
    space: MatSubspace


def sl2_joint_nt(fs: FieldSpec, n: int) -> MatSubspace:
    return joint(fs, sl(fs, 2), nt(fs, n - 2))


def optimal_1star(fs: FieldSpec, n: int, k: int) -> MatSubspace:
    """NT_k v sl_2 v NT_{n-k-2}."""
    return joint(fs, nt(fs, k), sl(fs, 2), nt(fs, n - k - 2))


def optimal_2bar(fs: FieldSpec, n: int, k: int) -> MatSubspace:
    """F I_n + (NT_k v sl_2 v NT_{n-k-2})."""
    return line_plus(fs, optimal_1star(fs, n, k))


def standard_catalogue(fs: FieldSpec) -> list[CatalogueEntry]:
    entries: list[CatalogueEntry] = []
    for n in range(1, 7):
        entries.append(CatalogueEntry(f"nt{n}", comb(n, 2), nt(fs, n)))
    for n in range(2, 7):
        entries.append(CatalogueEntry(f"joint(sl2,nt{n - 2})", comb(n, 2) + 2,
                                      sl2_joint_nt(fs, n)))
    entries.append(CatalogueEntry("sl2", 3, sl(fs, 2)))
    entries.append(CatalogueEntry("sl3", 8, sl(fs, 3)))
    entries.append(CatalogueEntry("joint(sl2,sl2)", comb(4, 2) + 4,
                                  joint(fs, sl(fs, 2), sl(fs, 2))))
    entries.append(CatalogueEntry("b2m1", 1 + 2, b2m(fs, 1)))
    entries.append(CatalogueEntry("b2m2", comb(5, 2), b2m(fs, 2)))
    for n in (3, 5, 6):
        for k in range(0, n - 1):
            entries.append(CatalogueEntry(f"line+nt{k}_sl2_nt{n - k - 2}",
                                          comb(n, 2) + 3, optimal_2bar(fs, n, k)))
    entries.append(CatalogueEntry("case_iv_n6", comb(6, 2) + 3, case_iv_n6(fs)))
    for n in (2, 3, 4, 5):
        entries.append(CatalogueEntry(f"hurdle{n}", 3 + 2 * (n - 2),
                                      hurdle_template(fs, n)))
    for n in (2, 3, 4):
        entries.append(CatalogueEntry(f"ut{n}", comb(n + 1, 2), ut(fs, n)))
        entries.append(CatalogueEntry(f"syms{n}", comb(n + 1, 2), syms(fs, n)))
        entries.append(CatalogueEntry(f"alts{n}", comb(n, 2), alts(fs, n)))
    return entries


def build(fs: FieldSpec, expr: str) -> MatSubspace:
    """Construct a catalogue space from a compact expression.

    Atoms carry their size as a suffix: nt3, sl2, syms4, alts3, ut4,
    full2, hurdle4, b2m2 (suffix m, matrices of size 2m), mats_p4
    (symmetric matrices times the standard symplectic Gram; even size),
    case_iv_n6.  Combinators: joint(a,b,...) and line_plus(a).
    """
    return build_with_expected(fs, expr)[0]


def build_with_expected(fs: FieldSpec, expr: str) -> tuple[MatSubspace, int]:
    """Construction plus the closed-form dimension its realization must have,
    computed structurally from the expression."""
    text = expr.strip().replace(" ", "")
    space, expected, rest = _parse_expr(fs, text)
    if rest:
        raise ValueError(f"trailing input in construction expression: {rest!r}")
    if space.shape == (0, 0):
        raise ValueError(f"construction {expr!r} builds 0 x 0 matrices")
    return space, expected


_ATOMS = {
    "nt": (nt, lambda n: comb(n, 2)),
    "sl": (sl, lambda n: n * n - 1),
    "syms": (syms, lambda n: comb(n + 1, 2)),
    "alts": (alts, lambda n: comb(n, 2)),
    "ut": (ut, lambda n: comb(n + 1, 2)),
    "full": (full, lambda n: n * n),
    "hurdle": (hurdle_template, lambda n: 3 + 2 * (n - 2)),
    "zero": (zero_space, lambda n: 0),
}


def _parse_expr(fs: FieldSpec, text: str):
    if text.startswith("case_iv_n6"):
        return case_iv_n6(fs), 18, text[len("case_iv_n6"):]
    for name in ("joint", "line_plus"):
        if text.startswith(name + "("):
            rest = text[len(name) + 1:]
            args = []
            expects = []
            while True:
                space, expected, rest = _parse_expr(fs, rest)
                args.append(space)
                expects.append(expected)
                if rest.startswith(","):
                    rest = rest[1:]
                    continue
                if rest.startswith(")"):
                    rest = rest[1:]
                    break
                raise ValueError(f"malformed construction expression near {rest!r}")
            if name == "joint":
                sizes = [a.shape[0] for a in args]
                cross = sum(sizes[i] * sizes[j]
                            for i in range(len(sizes)) for j in range(i + 1, len(sizes)))
                return joint(fs, *args), sum(expects) + cross, rest
            if len(args) != 1:
                raise ValueError("line_plus takes exactly one argument")
            return line_plus(fs, args[0]), expects[0] + 1, rest
    for name in ("mats_p", "b2m"):
        if text.startswith(name):
            digits = _take_digits(text[len(name):])
            size = int(digits)
            rest = text[len(name) + len(digits):]
            if name == "b2m":
                return b2m(fs, size), size * size + size * (size + 1), rest
            if size % 2:
                raise ValueError("mats_p<n> uses the standard symplectic Gram; n must be even")
            return mats_p(fs, size, k2m(fs, size // 2)), comb(size + 1, 2), rest
    for name, (fn, dim_fn) in _ATOMS.items():
        if text.startswith(name):
            digits = _take_digits(text[len(name):])
            if digits:
                n = int(digits)
                return fn(fs, n), dim_fn(n), text[len(name) + len(digits):]
    raise ValueError(f"unknown construction expression {text!r}")


def _take_digits(text: str) -> str:
    out = []
    for ch in text:
        if ch.isdigit():
            out.append(ch)
        else:
            break
    return "".join(out)
