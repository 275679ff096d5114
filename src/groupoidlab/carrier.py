"""Finite coefficient rings for the two-parameter star product.

A carrier supplies the ring arithmetic that every shape (scalar, matrix,
polynomial) builds on: reduction to canonical form, addition, multiplication
(which is also how an operation parameter acts on a value), enumeration in a
fixed order, and parsing / formatting of the canonical textual forms. There is
one class per arithmetic; a notation that only respells values subclasses or
wraps the arithmetic it writes.

The arithmetic comes twice. ``add`` and ``mul`` act on single values; they
are the per-cell oracle and serve the demos. ``add_indices`` and
``mul_indices`` act on numpy arrays of value indices (positions in
``enumerate_values()`` order) and return the index of each result; every
compiled product is built from them. They compute in int32 while every
intermediate fits, which the carrier size decides, and in int64 past that.
A modulus whose largest intermediate would not fit int64 is refused when the
carrier is built: n up to 3,037,000,500 for ``Modular`` (and so ``zni`` and
``o(...)``), where (n-1)^2 < 2^63, and up to 1,753,413,057 for
``MixedNeutrosophic``, where 3(n-1)^2 < 2^63. Every carrier size is then
below 2^63 too.

Supported carriers:

* ``Modular(n)``           -- the ring Z_n; values are ints in [0, n), and a
                              value is its own index.
* ``PureNeutrosophic(n)``  -- Z_n written as multiples of I:
                              {0, I, 2I, ..., (n-1)I}. With I*I = I,
                              (aI)(bI) = (ab)I, so the arithmetic is Z_n's and
                              a value is the integer coefficient of I.
* ``MixedNeutrosophic(n)`` -- the ring Z_n[I]/(I^2 - I), {a + bI : a, b in
                              Z_n}; values are (a, b) pairs with index a*n + b,
                              and (a+bI)(c+dI) = ac + (ad+bc+bd)I.
* ``IntervalOf(inner)``    -- one-endpoint intervals [0, v]: notation over an
                              inner carrier, whose arithmetic it uses
                              unchanged; values are inner values. Nesting
                              depth is exactly one.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Any, Iterator

import numpy as np

Value = Any  # int | tuple[int, int], depending on carrier


class CarrierError(ValueError):
    """Invalid carrier construction, value, or textual form."""


def _index_dtype(largest: int) -> type:
    """int32 when every intermediate up to ``largest`` fits it, else int64."""
    return np.int32 if largest < 2**31 else np.int64


# the largest moduli whose index intermediates, (n-1)^2 for Z_n and 3(n-1)^2
# for Z_n[I], fit int64
_MODULAR_LIMIT = math.isqrt(2**63 - 1) + 1
_MIXED_LIMIT = math.isqrt((2**63 - 1) // 3) + 1


def _check_modulus(n: int, limit: int) -> None:
    if n < 2:
        raise CarrierError(f"modulus must be >= 2, got {n}")
    if n > limit:
        raise CarrierError(
            f"modulus must be at most {limit}, got {n}: the index arithmetic "
            f"computes in int64 and would wrap"
        )


def is_prime(m: int) -> bool:
    """Trial-division primality; desk-scale inputs only."""
    if m < 2:
        return False
    if m < 4:
        return True
    if m % 2 == 0:
        return False
    f = 3
    while f * f <= m:
        if m % f == 0:
            return False
        f += 2
    return True


@dataclass(frozen=True)
class CoprimalityClass:
    """gcd information for a parameter pair."""

    is_unit: bool
    gcd: int


class Carrier:
    """Base interface; concrete carriers implement the scalar arithmetic."""

    # -- arithmetic -----------------------------------------------------

    def reduce(self, v: Value) -> Value:
        raise NotImplementedError

    def add(self, a: Value, b: Value) -> Value:
        raise NotImplementedError

    def mul(self, a: Value, b: Value) -> Value:
        raise NotImplementedError

    def zero(self) -> Value:
        raise NotImplementedError

    def is_zero(self, v: Value) -> bool:
        return v == self.zero()

    # -- enumeration ----------------------------------------------------

    def size(self) -> int:
        """Number of values."""
        raise NotImplementedError

    def enumerate_values(self) -> list[Value]:
        """All values in canonical order, zero first; stable across calls."""
        raise NotImplementedError

    # -- arithmetic on arrays of value indices -----------------------------

    def index_of(self, v: Value) -> int:
        """Position of a value in ``enumerate_values()`` order."""
        raise NotImplementedError

    def value_at(self, i: int) -> Value:
        """The value at position i of ``enumerate_values()``; inverse of ``index_of``."""
        raise NotImplementedError

    def add_indices(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Indices of v + w for broadcastable arrays of value indices; a new
        array, int32 while the carrier's arithmetic fits it."""
        raise NotImplementedError

    def mul_indices(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Indices of v·w, as ``add_indices``; on every carrier here an
        operation parameter acts on a value by this multiplication."""
        raise NotImplementedError

    # -- parameters -----------------------------------------------------

    def embed_param(self, coeff: int, indeterminate: bool) -> Value:
        """Turn a CLI-style parameter (plain or I-suffixed integer) into the
        internal parameter representation, a carrier value."""
        raise NotImplementedError

    def param_content(self, param: Value) -> int:
        """gcd of the integer coefficients of a parameter (0 for zero)."""
        raise NotImplementedError

    def param_is_zero(self, param: Value) -> bool:
        return self.is_zero(self.reduce(param))

    def param_is_single_prime(self, param: Value) -> bool:
        """True when the parameter has exactly one nonzero coefficient and
        that coefficient is prime."""
        raise NotImplementedError

    def coprimality_class(self, t: Value, u: Value) -> CoprimalityClass:
        g = math.gcd(self.param_content(t), self.param_content(u))
        return CoprimalityClass(is_unit=(g == 1), gcd=g)

    def residue(self, param: Value) -> int | None:
        """The parameter as an integer residue mod n when it acts exactly like
        one, else None (used by the arithmetic closed forms)."""
        return None

    # -- neutrosophic structure ------------------------------------------

    @property
    def has_indeterminate(self) -> bool:
        return False

    def is_pure_indeterminate(self, v: Value) -> bool:
        """Nonzero and supported entirely on the I component."""
        return False

    def has_i_part(self, v: Value) -> bool:
        """The value has a nonzero I component."""
        return self.is_pure_indeterminate(v)

    # -- text -------------------------------------------------------------

    def format_value(self, v: Value) -> str:
        raise NotImplementedError

    def parse_value(self, s: str) -> Value:
        raise NotImplementedError

    def token(self) -> str:
        """Grammar token for the CLI (e.g. ``zn:7``, ``o(zni:4)``, ``q``)."""
        raise NotImplementedError

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.token()


@dataclass(frozen=True)
class Modular(Carrier):
    """Integers modulo n."""

    n: int

    def __post_init__(self) -> None:
        _check_modulus(self.n, _MODULAR_LIMIT)

    def reduce(self, v: int) -> int:
        return int(v) % self.n

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.n

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.n

    def zero(self) -> int:
        return 0

    def size(self) -> int:
        return self.n

    def enumerate_values(self) -> list[int]:
        return list(range(self.n))

    def index_of(self, v: int) -> int:
        return self.reduce(v)

    def value_at(self, i: int) -> int:
        return i

    def add_indices(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        out = np.add(a, b, dtype=_index_dtype((self.n - 1) ** 2))
        out %= self.n
        return out

    def mul_indices(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        out = np.multiply(a, b, dtype=_index_dtype((self.n - 1) ** 2))
        out %= self.n
        return out

    def embed_param(self, coeff: int, indeterminate: bool) -> int:
        if indeterminate:
            raise CarrierError("carrier has no indeterminate component; drop the I suffix")
        return coeff % self.n

    def param_content(self, param: int) -> int:
        return param % self.n

    def param_is_single_prime(self, param: int) -> bool:
        return is_prime(param % self.n)

    def residue(self, param: int) -> int:
        return int(param)

    def format_value(self, v: int) -> str:
        return str(v)

    def parse_value(self, s: str) -> int:
        s = s.strip()
        if not re.fullmatch(r"-?\d+", s):
            raise CarrierError(f"not a residue: {s!r}")
        return self.reduce(int(s))

    def token(self) -> str:
        return f"zn:{self.n}"


class PureNeutrosophic(Modular):
    """Z_n written as multiples of I: {0, I, 2I, ..., (n-1)I}.

    A value is the integer coefficient of I. Since I*I = I, both (aI)(bI) and
    t(bI) collapse to Z_n arithmetic on the coefficients, so only the notation
    differs from :class:`Modular`.
    """

    def embed_param(self, coeff: int, indeterminate: bool) -> int:
        return coeff % self.n

    @property
    def has_indeterminate(self) -> bool:
        return True

    def is_pure_indeterminate(self, v: int) -> bool:
        return v % self.n != 0

    def format_value(self, v: int) -> str:
        if v == 0:
            return "0"
        if v == 1:
            return "I"
        return f"{v}I"

    def parse_value(self, s: str) -> int:
        s = s.strip()
        if s == "0":
            return 0
        m = re.fullmatch(r"(\d*)I", s)
        if not m:
            raise CarrierError(f"not of the form kI: {s!r}")
        return self.reduce(int(m.group(1) or "1"))

    def token(self) -> str:
        return f"zni:{self.n}"


@dataclass(frozen=True)
class MixedNeutrosophic(Carrier):
    """{a + bI : a, b in Z_n}; a value is the pair (a, b)."""

    n: int

    def __post_init__(self) -> None:
        _check_modulus(self.n, _MIXED_LIMIT)

    def reduce(self, v: tuple[int, int]) -> tuple[int, int]:
        a, b = v
        return (int(a) % self.n, int(b) % self.n)

    def add(self, x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
        return ((x[0] + y[0]) % self.n, (x[1] + y[1]) % self.n)

    def mul(self, x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
        # (a+bI)(c+dI) = ac + (ad+bc+bd)I, from distributivity and I*I = I
        a, b = x
        c, d = y
        return ((a * c) % self.n, (a * d + b * c + b * d) % self.n)

    def zero(self) -> tuple[int, int]:
        return (0, 0)

    def size(self) -> int:
        return self.n * self.n

    def enumerate_values(self) -> list[tuple[int, int]]:
        return [(a, b) for a in range(self.n) for b in range(self.n)]

    def index_of(self, v: tuple[int, int]) -> int:
        a, b = self.reduce(v)
        return a * self.n + b

    def value_at(self, i: int) -> tuple[int, int]:
        return divmod(i, self.n)

    def _join(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """The index of (a mod n) + (b mod n)I, reusing a's storage."""
        a %= self.n
        b %= self.n
        a *= self.n
        a += b
        return a

    def add_indices(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        dtype = _index_dtype(3 * (self.n - 1) ** 2)
        (a, b), (c, d) = np.divmod(x, self.n), np.divmod(y, self.n)
        return self._join(np.add(a, c, dtype=dtype), np.add(b, d, dtype=dtype))

    def mul_indices(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        # ac + (ad + b(c+d))I, each intermediate below 3(n-1)^2
        dtype = _index_dtype(3 * (self.n - 1) ** 2)
        (a, b), (c, d) = np.divmod(x, self.n), np.divmod(y, self.n)
        ipart = np.multiply(b, c + d, dtype=dtype)
        ipart += np.multiply(a, d, dtype=dtype)
        return self._join(np.multiply(a, c, dtype=dtype), ipart)

    def embed_param(self, coeff: int, indeterminate: bool) -> tuple[int, int]:
        c = coeff % self.n
        return (0, c) if indeterminate else (c, 0)

    def param_content(self, param: tuple[int, int]) -> int:
        a, b = self.reduce(param)
        return math.gcd(a, b)

    def param_is_single_prime(self, param: tuple[int, int]) -> bool:
        a, b = self.reduce(param)
        if a and b:
            return False
        return is_prime(a or b)

    def residue(self, param: tuple[int, int]) -> int | None:
        a, b = self.reduce(param)
        return a if b == 0 else None

    @property
    def has_indeterminate(self) -> bool:
        return True

    def is_pure_indeterminate(self, v: tuple[int, int]) -> bool:
        a, b = self.reduce(v)
        return a == 0 and b != 0

    def has_i_part(self, v: tuple[int, int]) -> bool:
        return self.reduce(v)[1] != 0

    def format_value(self, v: tuple[int, int]) -> str:
        a, b = v
        if b == 0:
            return str(a)
        itext = "I" if b == 1 else f"{b}I"
        if a == 0:
            return itext
        return f"{a}+{itext}"

    def parse_value(self, s: str) -> tuple[int, int]:
        s = s.strip().replace(" ", "")
        m = re.fullmatch(r"(?:(\d+)\+)?(\d*)I", s)
        if m:
            return self.reduce((int(m.group(1) or "0"), int(m.group(2) or "1")))
        if re.fullmatch(r"\d+", s):
            return self.reduce((int(s), 0))
        raise CarrierError(f"not of the form a+bI: {s!r}")

    def token(self) -> str:
        return f"nzn:{self.n}"


@dataclass(frozen=True)
class IntervalOf:
    """One-endpoint intervals [0, v] over a finite inner carrier.

    A value is the inner endpoint value and every operation is the inner
    carrier's: only construction and text are defined here, and every other
    carrier method is forwarded to ``inner``.
    """

    inner: Carrier

    def __post_init__(self) -> None:
        if isinstance(self.inner, IntervalOf):
            raise CarrierError("interval carriers do not nest")

    def __getattr__(self, name: str) -> Any:
        # copy and pickle probe attributes before ``inner`` is set
        if name == "inner":
            raise AttributeError(name)
        return getattr(self.inner, name)

    def format_value(self, v: Value) -> str:
        return f"[0,{self.inner.format_value(v)}]"

    def parse_value(self, s: str) -> Value:
        s = s.strip()
        if not (s.startswith("[0,") and s.endswith("]")):
            raise CarrierError(f"not of the form [0,x]: {s!r}")
        return self.inner.parse_value(s[3:-1])

    def token(self) -> str:
        return f"o({self.inner.token()})"

    __str__ = Carrier.__str__


_CARRIER_RE = re.compile(r"^(zn|zni|nzn):(\d+)$")


def parse_carrier(token: str) -> Carrier:
    """Parse a carrier grammar token: zn:N, zni:N, nzn:N, o(...)."""
    token = token.strip()
    if token.startswith("o(") and token.endswith(")"):
        return IntervalOf(parse_carrier(token[2:-1]))
    m = _CARRIER_RE.match(token)
    if not m:
        raise CarrierError(f"unknown carrier token: {token!r}")
    kind, num = m.group(1), int(m.group(2))
    if kind == "zn":
        return Modular(num)
    if kind == "zni":
        return PureNeutrosophic(num)
    return MixedNeutrosophic(num)


def parse_param_component(carrier: Carrier, text: str) -> Value:
    """Parse one CLI parameter component: an integer with optional I suffix."""
    text = text.strip()
    m = re.fullmatch(r"(\d*)(I?)", text)
    if not m or (not m.group(1) and not m.group(2)):
        raise CarrierError(f"parameter must be an integer with optional I suffix: {text!r}")
    coeff = int(m.group(1)) if m.group(1) else 1  # bare "I" means 1I
    return carrier.embed_param(coeff, indeterminate=bool(m.group(2)))
