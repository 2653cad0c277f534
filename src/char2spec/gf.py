"""Exact arithmetic in GF(2^k) for 1 <= k <= 16.

Field elements are plain Python ints in [0, q): the bit-encoding of a
polynomial of degree < k over GF(2).  There are no per-element wrapper
objects; the interpreting :class:`FieldSpec` is passed explicitly to
every operation that needs reduction.  Addition is XOR and never needs
the spec.  Zero and one are always represented by 0 and 1.

:class:`FieldSpec` is the one place that tabulates a field, for every k:
discrete log and exp tables to the least generator of F*, and from them
the inverse and square-root tables (numpy arrays for the batch kernels
of :mod:`._bulk`, Python lists for the scalar operations).  For k <= 8
it also keeps the q x q product table; scalar products read it there and
read the log/exp lists above.  Carry-less shift-and-reduce only builds
the tables.  Code arrays are uint8 for k <= 8 and uint16 above
(:func:`code_dtype`).
"""

from __future__ import annotations

import re
from functools import lru_cache

import numpy as np

_MAX_DEGREE = 16


def _gf2_degree(p: int) -> int:
    return p.bit_length() - 1


def _gf2_mod(a: int, m: int) -> int:
    """Remainder of the GF(2)[x] division of a by m (both bit codes)."""
    dm = _gf2_degree(m)
    while a.bit_length() - 1 >= dm > -1 and a:
        a ^= m << (a.bit_length() - 1 - dm)
    return a


def is_irreducible_gf2(p: int) -> bool:
    """Trial division of the bit-encoded GF(2)[x] polynomial p by every
    polynomial of degree 1..deg(p)//2."""
    d = _gf2_degree(p)
    if d < 1:
        return False
    if d == 1:
        return True
    if p & 1 == 0:  # divisible by x
        return False
    for g in range(2, 1 << (d // 2 + 1)):
        if _gf2_degree(g) >= 1 and _gf2_mod(p, g) == 0:
            return False
    return True


@lru_cache(maxsize=None)
def least_irreducible_gf2(k: int) -> int:
    """Lexicographically least (as a bit code) monic irreducible of degree k."""
    for p in range(1 << k, 1 << (k + 1)):
        if is_irreducible_gf2(p):
            return p
    raise AssertionError("irreducible polynomials exist in every degree")


def _prime_factors(m: int) -> list[int]:
    out, p = [], 2
    while p * p <= m:
        if m % p == 0:
            out.append(p)
            while m % p == 0:
                m //= p
        p += 1
    return out + [m] if m > 1 else out


def _power(mul, a: int, n: int) -> int:
    """a^n by square and multiply on the product mul."""
    r = 1
    while n:
        if n & 1:
            r = mul(r, a)
        a = mul(a, a)
        n >>= 1
    return r


def code_dtype(degree: int) -> np.dtype:
    """The dtype of code arrays over GF(2^degree): uint8 for degree <= 8,
    else uint16."""
    return np.dtype(np.uint8 if degree <= 8 else np.uint16)


class FieldSpec:
    """GF(2^k) with an explicit modulus polynomial.

    Immutable after construction, which builds every table of the field
    (:meth:`_build_tables`).  Safe to share freely between workers.
    """

    __slots__ = (
        "degree", "modulus", "q", "log_table", "exp_table", "inv_table", "sqrt_table",
        "_mul", "_log", "_exp", "_inv", "_sqrt", "_np_mul",
    )

    def __init__(self, degree: int, modulus: int | None = None):
        if not 1 <= degree <= _MAX_DEGREE:
            raise ValueError(f"extension degree must be in [1, {_MAX_DEGREE}], "
                             f"got {excerpt(str(degree), str)}")
        if modulus is None:
            modulus = least_irreducible_gf2(degree)
        if modulus < 0 or _gf2_degree(modulus) != degree:   # _gf2_mod never ends on a negative code
            raise ValueError(f"modulus {excerpt(f'{modulus:#b}', str)} "
                             f"does not have degree {degree}")
        if not is_irreducible_gf2(modulus):
            raise ValueError(f"modulus {modulus:#b} is reducible over GF(2)")
        self.degree = degree
        self.modulus = modulus
        self.q = 1 << degree
        self._build_tables()

    def _mul_raw(self, a: int, b: int) -> int:
        """Carry-less multiply then reduce modulo the modulus polynomial."""
        p = 0
        while b:
            if b & 1:
                p ^= a
            b >>= 1
            a <<= 1
            if a & self.q:
                a ^= self.modulus
        return p

    def _build_tables(self) -> None:
        """Log and exp code tables to a generator g of F*, and the inverse,
        square-root and (k <= 8) product tables read from them.

        g is the least code whose order is q - 1 by the order test (g^((q-1)/p)
        != 1 for every prime p | q - 1); x itself need not be primitive (the
        default modulus x^9 + x + 1 of GF(2^9) is not).  exp[i] = g^(i mod
        (q-1)) for i < 2(q-1) and 0 from there to 4(q-1); log[0] = 2(q-1), so
        exp[log a + log b] is a * b for all codes, 0 included.  exp is built by
        doubling: exp[m:2m] = g^m * exp[:m], a GF(2)-linear map of the codes
        (an XOR of the images g^m * x^b of their set bits b).  With log a = l,
        1/a = g^(q-1-l) and sqrt a = g^(l/2), l/2 taken mod the odd q - 1."""
        q, order = self.q, self.q - 1
        dtype = code_dtype(self.degree)
        gen = next(g for g in range(1, q) if all(
            _power(self._mul_raw, g, order // p) != 1 for p in _prime_factors(order)))
        exp = np.zeros(4 * order + 1, dtype=dtype)
        exp[0] = 1
        m, c = 1, gen
        while m < order:
            head = exp[:min(m, order - m)]
            out = np.zeros_like(head)
            for b in range(self.degree):
                out ^= (head >> b & 1) * dtype.type(self._mul_raw(c, 1 << b))
            exp[m:m + head.size] = out
            m, c = 2 * m, self._mul_raw(c, c)
        exp[order:2 * order] = exp[:order]
        log = np.empty(q, dtype=np.int32)
        log[exp[:order]] = np.arange(order, dtype=np.int32)
        log[0] = 2 * order
        nonzero = log[1:]
        inv = np.zeros(q, dtype=dtype)
        inv[1:] = exp[order - nonzero]
        sqrt = np.zeros(q, dtype=dtype)
        sqrt[1:] = exp[(nonzero + order * (nonzero & 1)) >> 1]
        self.log_table, self.exp_table = log, exp
        self.inv_table, self.sqrt_table = inv, sqrt
        self._inv, self._sqrt = inv.tolist(), sqrt.tolist()
        self._mul = self._np_mul = None
        if self.degree <= 8:
            self._np_mul = exp[log[:, None] + log]
            self._mul = self._np_mul.tolist()
        else:
            self._log, self._exp = log.tolist(), exp.tolist()

    # ------------------------------------------------------------------
    # element operations
    # ------------------------------------------------------------------
    def mul(self, a: int, b: int) -> int:
        if self._mul is not None:
            return self._mul[a][b]
        return self._exp[self._log[a] + self._log[b]]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inversion of zero in GF(2^k)")
        return self._inv[a]

    def pow(self, a: int, n: int) -> int:
        return _power(self.mul, a, n)

    def sqrt(self, a: int) -> int:
        """The unique b with b*b == a (the inverse of the Frobenius x -> x^2)."""
        return self._sqrt[a]

    def elements(self) -> range:
        return range(self.q)

    def mul_table_np(self) -> np.ndarray:
        """q x q uint8 multiplication table (k <= 8 only), for batch kernels."""
        if self._np_mul is None:
            raise ValueError("numpy multiplication table only kept for k <= 8")
        return self._np_mul

    # ------------------------------------------------------------------
    def __eq__(self, other) -> bool:
        return (isinstance(other, FieldSpec)
                and self.degree == other.degree and self.modulus == other.modulus)

    def __hash__(self) -> int:
        return hash((self.degree, self.modulus))

    def __repr__(self) -> str:
        return f"FieldSpec(gf2^{self.degree}, modulus={self.modulus})"

    @property
    def name(self) -> str:
        return f"gf{self.q}" if self.q in (2, 4, 8, 16) else f"gf2^{self.degree}"


@lru_cache(maxsize=None)
def _cached_spec(degree: int, modulus: int | None) -> FieldSpec:
    return FieldSpec(degree, modulus)


# the characters of outside text that an error message quotes
_EXCERPT = 40


def excerpt(text: str, show=repr) -> str:
    """show(text) for an error message, the one way to quote outside text:
    past _EXCERPT characters the text is cut there and its length follows,
    so an error line stays short whatever the input."""
    if len(text) <= _EXCERPT:
        return show(text)
    return f"{show(text[:_EXCERPT])}... ({len(text)} characters)"


def read_decimal(text: str, error: str) -> int:
    """`text` as ASCII decimal digits with an optional leading minus sign,
    the one rule for every number in outside text (int() alone would also
    take '1_6', '+4', ' 4' and non-ASCII digits); ValueError(error) else,
    also for more digits than int() reads (sys.get_int_max_str_digits)."""
    if re.fullmatch("-?[0-9]+", text):
        try:
            return int(text)
        except ValueError:
            pass
    raise ValueError(error)


def field_spec(name: str) -> FieldSpec:
    """Parse a field name: 'gf2'/'gf4'/'gf8'/'gf16' or 'gf2^k', with an
    optional explicit modulus as a decimal bit code after ':'.

    Examples: 'gf4', 'gf2^4', 'gf2^4:19'.
    """
    text = name.strip().lower()
    error = "field {} has a {} {} that is not a decimal integer".format
    modulus = None
    if ":" in text:
        text, mod_text = text.split(":", 1)
        modulus = read_decimal(mod_text, error(excerpt(name), "modulus", excerpt(mod_text)))
    aliases = {"gf2": 1, "gf4": 2, "gf8": 3, "gf16": 4}
    if text in aliases:
        return _cached_spec(aliases[text], modulus)
    if text.startswith("gf2^"):
        return _cached_spec(read_decimal(text[4:], error(excerpt(name), "degree",
                                                         excerpt(text[4:]))), modulus)
    raise ValueError(f"unknown field name {excerpt(name)}")


GF2 = _cached_spec(1, None)
GF4 = _cached_spec(2, None)
GF8 = _cached_spec(3, None)
GF16 = _cached_spec(4, None)
