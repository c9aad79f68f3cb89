"""Exact scalars: rationals, Gaussian rationals, and prime fields.

Scalars are plain arithmetic objects (``Fraction``, :class:`GaussianRational`,
:class:`GFElement`) so generic algorithms can use ``+ - * /`` uniformly.
A :class:`Field` object describes which of the three kinds a structure is
working over and provides construction, parsing, and canonical printing.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import FieldMismatch, ParseError


def _is_prime(p):
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


class GaussianRational:
    """Element a + b*i with exact rational a, b."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        if isinstance(other, GaussianRational):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return self.re == other and self.im == 0
        return NotImplemented

    def __hash__(self):
        return hash((self.re, self.im))

    def _coerce(self, other):
        if isinstance(other, GaussianRational):
            return other
        if isinstance(other, (int, Fraction)):
            return GaussianRational(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(o.re - self.re, o.im - self.im)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(
            self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = o.re * o.re + o.im * o.im
        if n == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return GaussianRational(
            (self.re * o.re + self.im * o.im) / n,
            (self.im * o.re - self.re * o.im) / n,
        )

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, n):
        if n < 0:
            return GaussianRational(1) / self ** (-n)
        out = GaussianRational(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"


class GFElement:
    """Residue modulo a prime p, stored in [0, p)."""

    __slots__ = ("value", "p")

    def __init__(self, value, p):
        self.p = p
        self.value = value % p

    def _coerce(self, other):
        if isinstance(other, GFElement):
            if other.p != self.p:
                raise FieldMismatch(f"GF({self.p}) vs GF({other.p})")
            return other
        if isinstance(other, int):
            return GFElement(other, self.p)
        return None

    def __bool__(self):
        return self.value != 0

    def __eq__(self, other):
        if isinstance(other, GFElement):
            return self.p == other.p and self.value == other.value
        if isinstance(other, int):
            return self.value == other % self.p
        return NotImplemented

    def __hash__(self):
        return hash((self.value, self.p))

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GFElement(self.value + o.value, self.p)

    __radd__ = __add__

    def __neg__(self):
        return GFElement(-self.value, self.p)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GFElement(self.value - o.value, self.p)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GFElement(self.value * o.value, self.p)

    __rmul__ = __mul__

    def inverse(self):
        if self.value == 0:
            raise ZeroDivisionError(f"inverse of 0 in GF({self.p})")
        return GFElement(pow(self.value, self.p - 2, self.p), self.p)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        return GFElement(pow(self.value, n, self.p), self.p)

    def __repr__(self):
        return f"GFElement({self.value}, {self.p})"


class Field:
    """Descriptor for one of the three supported exact fields."""

    tag = None
    characteristic = 0

    def zero(self):
        return self.from_int(0)

    def one(self):
        return self.from_int(1)

    def from_int(self, n):
        raise NotImplementedError

    def contains(self, x):
        raise NotImplementedError

    def sqrt_minus_one(self):
        """A square root of -1 in the field, or None."""
        return None

    def __eq__(self, other):
        return isinstance(other, Field) and self.tag == other.tag

    def __hash__(self):
        return hash(self.tag)

    def __repr__(self):
        return self.tag


class RationalField(Field):
    tag = "RAT"

    def from_int(self, n):
        return Fraction(n)

    def contains(self, x):
        return isinstance(x, (int, Fraction)) and not isinstance(x, bool)


class GaussianRationalField(Field):
    tag = "GAUSS"

    def from_int(self, n):
        return GaussianRational(n)

    def contains(self, x):
        return isinstance(x, GaussianRational)

    def sqrt_minus_one(self):
        return GaussianRational(0, 1)


class PrimeField(Field):
    def __init__(self, p):
        if not _is_prime(p):
            raise ParseError(f"{p} is not prime")
        self.p = p
        self.characteristic = p

    @property
    def tag(self):
        return f"GF({self.p})"

    def from_int(self, n):
        return GFElement(n, self.p)

    def contains(self, x):
        return isinstance(x, GFElement) and x.p == self.p

    def sqrt_minus_one(self):
        if self.p == 2:
            return GFElement(1, 2)
        if self.p % 4 != 1:
            return None
        for a in range(2, self.p):
            r = pow(a, (self.p - 1) // 4, self.p)
            if r * r % self.p == self.p - 1:
                return GFElement(r, self.p)
        return None


QQ = RationalField()
QQI = GaussianRationalField()


def field_by_name(name):
    """Resolve a CLI/JSON field name: rat | gauss | gf:<p>."""
    name = name.strip().lower()
    if name == "rat":
        return QQ
    if name == "gauss":
        return QQI
    if name.startswith("gf:"):
        return PrimeField(int(name[3:]))
    raise ParseError(f"unknown field {name!r}")


def field_name(field):
    if field == QQ:
        return "rat"
    if field == QQI:
        return "gauss"
    if isinstance(field, PrimeField):
        return f"gf:{field.p}"
    raise ParseError(f"unprintable field {field!r}")


def check_same_field(a, b):
    if a != b:
        raise FieldMismatch(f"{a} vs {b}")
    return a


def scalar_is_negative(x):
    """Whether the canonical printer absorbs a leading minus for x."""
    if isinstance(x, (int, Fraction)):
        return x < 0
    if isinstance(x, GaussianRational):
        if x.re != 0:
            return x.re < 0
        return x.im < 0
    return False


def format_scalar(x):
    """Canonical text for a scalar: integers, p/q, or a+bi / (a+bi)."""
    if isinstance(x, (int, Fraction)):
        return str(x)
    if isinstance(x, GFElement):
        return str(x.value)
    if isinstance(x, GaussianRational):
        if x.im == 0:
            return str(x.re)
        if x.re == 0:
            if x.im == 1:
                return "i"
            if x.im == -1:
                return "-i"
            return f"{x.im}i"
        sign = "+" if x.im > 0 else "-"
        im = abs(x.im)
        imtxt = "i" if im == 1 else f"{im}i"
        return f"{x.re}{sign}{imtxt}"
    raise ParseError(f"unprintable scalar {x!r}")
