"""Exact arithmetic in GF(2^k) for 1 <= k <= 16.

Field elements are plain Python ints in [0, q): the bit-encoding of a
polynomial of degree < k over GF(2).  There are no per-element wrapper
objects; the interpreting :class:`FieldSpec` is passed explicitly to
every operation that needs reduction.  Addition is XOR and never needs
the spec.  Zero and one are always represented by 0 and 1.

Multiplication uses per-field log/antilog tables for k <= 8 and
carry-less shift-and-reduce above.  Square roots exist for every
element (the Frobenius x -> x^2 is bijective on a finite field of
characteristic 2); they are computed as x^(q/2).
"""

from __future__ import annotations

from functools import lru_cache

# Default modulus per extension degree (bit-encoded, degree-k monic
# irreducible over GF(2)).  These are the lexicographically least
# irreducibles for their degree; higher degrees are computed on demand.
_DEFAULT_MODULUS = {
    1: 0b10,      # x
    2: 0b111,     # x^2 + x + 1
    3: 0b1011,    # x^3 + x + 1
    4: 0b10011,   # x^4 + x + 1
}

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


class FieldSpec:
    """GF(2^k) with an explicit modulus polynomial.

    Immutable after construction; log/antilog (and, for k <= 8, full
    multiplication/inverse/sqrt lookup) tables are built once.  Safe to
    share freely between workers.
    """

    __slots__ = (
        "degree", "modulus", "q", "_log", "_exp",
        "_mul", "_inv", "_sqrt", "_np_mul",
    )

    def __init__(self, degree: int, modulus: int | None = None):
        if not 1 <= degree <= _MAX_DEGREE:
            raise ValueError(f"extension degree must be in [1, {_MAX_DEGREE}], got {degree}")
        if modulus is None:
            modulus = _DEFAULT_MODULUS.get(degree) or least_irreducible_gf2(degree)
        if _gf2_degree(modulus) != degree:
            raise ValueError(f"modulus {modulus:#b} does not have degree {degree}")
        if not is_irreducible_gf2(modulus):
            raise ValueError(f"modulus {modulus:#b} is reducible over GF(2)")
        self.degree = degree
        self.modulus = modulus
        self.q = 1 << degree
        self._np_mul = None
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
        q = self.q
        if self.degree > 8:
            self._log = self._exp = self._mul = self._inv = self._sqrt = None
            return
        # Find a multiplicative generator by brute force; the group of
        # nonzero elements is cyclic of order q - 1.
        gen = 1
        for cand in range(2, q):
            seen, v = 0, 1
            for _ in range(q - 1):
                v = self._mul_raw(v, cand)
                seen += 1
                if v == 1:
                    break
            if seen == q - 1:
                gen = cand
                break
        exp = [0] * (2 * q)
        log = [0] * q
        v = 1
        for i in range(q - 1):
            exp[i] = v
            log[v] = i
            v = self._mul_raw(v, gen)
        for i in range(q - 1, 2 * q):
            exp[i] = exp[i - (q - 1)]
        self._exp = exp
        self._log = log
        self._mul = [[0 if (a == 0 or b == 0) else exp[log[a] + log[b]]
                      for b in range(q)] for a in range(q)]
        self._inv = [0] + [exp[(q - 1) - log[a]] for a in range(1, q)]
        self._sqrt = [self.pow(a, q >> 1) for a in range(q)]

    # ------------------------------------------------------------------
    # element operations
    # ------------------------------------------------------------------
    def mul(self, a: int, b: int) -> int:
        if self._mul is not None:
            return self._mul[a][b]
        return self._mul_raw(a, b)

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inversion of zero in GF(2^k)")
        if self._inv is not None:
            return self._inv[a]
        return self.pow(a, self.q - 2)

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, n: int) -> int:
        r = 1
        while n:
            if n & 1:
                r = self.mul(r, a)
            a = self.mul(a, a)
            n >>= 1
        return r

    def sqrt(self, a: int) -> int:
        """The unique b with b*b == a (Frobenius inverse, x -> x^(q/2))."""
        if self._sqrt is not None:
            return self._sqrt[a]
        return self.pow(a, self.q >> 1)

    def frobenius(self, a: int) -> int:
        return self.mul(a, a)

    def elements(self) -> range:
        return range(self.q)

    def mul_table_np(self):
        """q x q uint8 multiplication table (k <= 8 only), for batch kernels."""
        if self.degree > 8:
            raise ValueError("numpy multiplication table only kept for k <= 8")
        if self._np_mul is None:
            import numpy as np
            self._np_mul = np.array(self._mul, dtype=np.uint8)
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


def field_spec(name: str) -> FieldSpec:
    """Parse a field name: 'gf2'/'gf4'/'gf8'/'gf16' or 'gf2^k', with an
    optional explicit modulus as a decimal bit code after ':'.

    Examples: 'gf4', 'gf2^4', 'gf2^4:19'.
    """
    text = name.strip().lower()
    modulus = None
    if ":" in text:
        text, mod_text = text.split(":", 1)
        modulus = int(mod_text)
    aliases = {"gf2": 1, "gf4": 2, "gf8": 3, "gf16": 4}
    if text in aliases:
        return _cached_spec(aliases[text], modulus)
    if text.startswith("gf2^"):
        return _cached_spec(int(text[4:]), modulus)
    raise ValueError(f"unknown field name {name!r}")


GF2 = _cached_spec(1, None)
GF4 = _cached_spec(2, None)
GF8 = _cached_spec(3, None)
GF16 = _cached_spec(4, None)
