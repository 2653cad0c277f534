"""Exact univariate polynomials over GF(2^k).

A polynomial is a tuple of field-element codes, index = degree, with no
trailing zeros; the zero polynomial is the empty tuple.  The field is
passed explicitly wherever reduction is needed, like in :mod:`.gf`.

Root counting follows the two classical routes used throughout the
package: distinct roots inside F_q are deg gcd(f, t^q - t), and distinct
roots in the algebraic closure are deg radical(f), where the radical
(squarefree part) uses the characteristic-2 recursion with coefficient
square roots for the derivative-zero case.
"""

from __future__ import annotations

from .gf import FieldSpec

Poly = tuple[int, ...]

ZERO: Poly = ()
ONE: Poly = (1,)
T: Poly = (0, 1)


def poly(coeffs) -> Poly:
    """Normalize a coefficient iterable (index = degree) to a Poly."""
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def deg(f: Poly) -> int:
    """Degree; -1 for the zero polynomial."""
    return len(f) - 1


def poly_add(f: Poly, g: Poly) -> Poly:
    if len(f) < len(g):
        f, g = g, f
    out = list(f)
    for i, c in enumerate(g):
        out[i] ^= c
    return poly(out)


def poly_scale(fs: FieldSpec, c: int, f: Poly) -> Poly:
    if c == 0:
        return ZERO
    if c == 1:
        return f
    mul = fs.mul
    return tuple(mul(c, a) for a in f)


def poly_mul(fs: FieldSpec, f: Poly, g: Poly) -> Poly:
    if not f or not g:
        return ZERO
    mul = fs.mul
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a == 0:
            continue
        for j, b in enumerate(g):
            out[i + j] ^= mul(a, b)
    return tuple(out)


def monic(fs: FieldSpec, f: Poly) -> Poly:
    if not f or f[-1] == 1:
        return f
    return poly_scale(fs, fs.inv(f[-1]), f)


def poly_divmod(fs: FieldSpec, f: Poly, g: Poly) -> tuple[Poly, Poly]:
    """Quotient and remainder; g may be any nonzero polynomial."""
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    if len(f) < len(g):
        return ZERO, f
    mul = fs.mul
    lead_inv = fs.inv(g[-1])
    rem = list(f)
    dg = len(g) - 1
    quot = [0] * (len(f) - dg)
    for top in range(len(f) - 1, dg - 1, -1):
        c = rem[top]
        if c == 0:
            continue
        factor = mul(c, lead_inv)
        quot[top - dg] = factor
        for j in range(dg + 1):
            rem[top - dg + j] ^= mul(factor, g[j])
    return poly(quot), poly(rem)


def poly_mod(fs: FieldSpec, f: Poly, g: Poly) -> Poly:
    return poly_divmod(fs, f, g)[1]


def poly_div_exact(fs: FieldSpec, f: Poly, g: Poly) -> Poly:
    q, r = poly_divmod(fs, f, g)
    if r:
        raise ValueError("division is not exact")
    return q


def poly_gcd(fs: FieldSpec, f: Poly, g: Poly) -> Poly:
    """Monic greatest common divisor; gcd(f, 0) = monic(f)."""
    while g:
        f, g = g, poly_mod(fs, f, g)
    return monic(fs, f)


def poly_lcm(fs: FieldSpec, f: Poly, g: Poly) -> Poly:
    if not f or not g:
        return ZERO
    return monic(fs, poly_div_exact(fs, poly_mul(fs, f, g), poly_gcd(fs, f, g)))


def derivative(f: Poly) -> Poly:
    """Formal derivative; in characteristic 2 only odd-degree terms survive."""
    return poly(f[i] if i % 2 == 1 else 0 for i in range(1, len(f)))


def frobenius_mod(fs: FieldSpec, f: Poly) -> Poly:
    """t^q mod f, by squaring t (degree) times."""
    u = poly_mod(fs, T, f)
    for _ in range(fs.degree):
        u = poly_mod(fs, poly_mul(fs, u, u), f)
    return u


def count_roots_in_field(fs: FieldSpec, f: Poly) -> int:
    """Number of distinct roots of f in F_q: deg gcd(f, t^q - t)."""
    if not f:
        raise ValueError("zero polynomial has no root count")
    if len(f) == 1:
        return 0
    g = poly_gcd(fs, f, poly_add(frobenius_mod(fs, f), T))
    return deg(g)


def radical(fs: FieldSpec, f: Poly) -> Poly:
    """Product of the distinct monic irreducible factors of f (char 2)."""
    if not f:
        raise ValueError("zero polynomial has no radical")
    if len(f) == 1:
        return ONE
    d = derivative(f)
    if not d:
        # f = s(t)^2 with s obtained by square-rooting even-degree coefficients.
        s = tuple(fs.sqrt(f[2 * i]) for i in range((len(f) + 1) // 2))
        return radical(fs, s)
    g = poly_gcd(fs, f, d)
    w = monic(fs, poly_div_exact(fs, f, g))
    rg = radical(fs, g)
    return poly_lcm(fs, w, rg)


def count_roots_in_closure(fs: FieldSpec, f: Poly) -> int:
    """Number of distinct roots of f in the algebraic closure."""
    if not f:
        raise ValueError("zero polynomial has no root count")
    return deg(radical(fs, f))


def has_root_zero(f: Poly) -> bool:
    return bool(f) and f[0] == 0


def poly_str(f: Poly) -> str:
    """Report form, e.g. 't^3 + 2*t + 1', highest degree first, decimal codes."""
    if not f:
        return "0"
    parts = []
    for i in range(len(f) - 1, -1, -1):
        c = f[i]
        if c == 0:
            continue
        if i == 0:
            parts.append(str(c))
        else:
            var = "t" if i == 1 else f"t^{i}"
            parts.append(var if c == 1 else f"{c}*{var}")
    return " + ".join(parts)
