"""Exact arithmetic in small finite fields GF(p^m).

An element of GF(p^m) is an integer index in [0, q): the residue
c0 + c1*a + ... + c_{m-1}*a^(m-1), with a the class of x modulo the
modulus polynomial, is encoded as the base-p integer
c0 + c1*p + ... + c_{m-1}*p^(m-1).  Index 0 is the additive identity,
index 1 the multiplicative identity, and the prime subfield occupies
indices 0..p-1 in every field.

Multiplication, inversion and powering run on discrete-log tables, so
the field order is capped at 2**16.  `GF.multiples` is the one table of
scalar multiples c * x over every element x, for one c or an array.  The
modulus is pinned per (p, m): the smallest-encoded monic polynomial in
which x has order p^m - 1, and `GF(q)` takes no other.  That makes
element indices, log tables and every file format built on them stable
across runs and machines, and makes q alone name the field.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import ParameterError

MAX_ORDER = 1 << 16
_ADD_TABLE_CAP = 2048  # odd-characteristic add tables stay below this order
_DIV_TABLE_CAP = 1024  # fields up to this order divide by a flat q*q table


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division (n <= ~2**32 expected)."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def prime_power(q: int):
    """Return (p, m) with q = p^m, or None if q is not a prime power."""
    if q < 2:
        return None
    f = factorize(q)
    if len(f) != 1:
        return None
    [(p, m)] = f.items()
    return p, m


# ---------------------------------------------------------------------------
# polynomial arithmetic over F_p (dense little-endian coefficient lists)

def _ptrim(a):
    while len(a) > 1 and a[-1] == 0:
        a.pop()
    return a


def _pmul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _ptrim(out)


def _pmod(a, mod, p):
    a = list(a)
    dm = len(mod) - 1
    inv_lead = pow(mod[-1], p - 2, p)
    while len(a) - 1 >= dm and any(a):
        shift = len(a) - 1 - dm
        f = (a[-1] * inv_lead) % p
        if f:
            for i, c in enumerate(mod):
                a[shift + i] = (a[shift + i] - f * c) % p
        _ptrim(a)
    return _ptrim(a)


def _pmulmod(a, b, mod, p):
    return _pmod(_pmul(a, b, p), mod, p)


def _ppowmod(base, e, mod, p):
    out = [1]
    b = _pmod(base, mod, p)
    while e:
        if e & 1:
            out = _pmulmod(out, b, mod, p)
        b = _pmulmod(b, b, mod, p)
        e >>= 1
    return out


def _x_is_primitive(coeffs, p, m):
    """Order of x modulo the degree-m polynomial f equals p^m - 1.  Then f
    is irreducible: a proper factor of f is a nonzero non-unit of
    F_p[x]/(f), which leaves fewer than p^m - 1 units (Lidl and
    Niederreiter, Finite Fields, ch. 3)."""
    q = p ** m
    if _ppowmod([0, 1], q - 1, coeffs, p) != [1]:
        return False
    for r in factorize(q - 1):
        if _ppowmod([0, 1], (q - 1) // r, coeffs, p) == [1]:
            return False
    return True


def _digits(n, p, width):
    out = []
    for _ in range(width):
        out.append(n % p)
        n //= p
    return out


def _smallest_primitive_root(p):
    if p == 2:
        return 1
    order_factors = factorize(p - 1)
    for g in range(2, p):
        if all(pow(g, (p - 1) // r, p) != 1 for r in order_factors):
            return g
    raise AssertionError(f"no primitive root mod {p}")


@functools.lru_cache(maxsize=None)
def pinned_modulus(p: int, m: int) -> tuple[int, ...]:
    """Canonical monic primitive polynomial of degree m over F_p.

    Degree 1: x - g with g the smallest primitive root mod p.  Otherwise
    the candidate with the smallest encoding sum(c_i * p^i) over the
    non-leading coefficients in which x has order p^m - 1, which makes it
    irreducible (`_x_is_primitive`).
    """
    if m == 1:
        g = _smallest_primitive_root(p)
        return ((-g) % p, 1)
    for enc in range(1, p ** m):
        coeffs = _digits(enc, p, m) + [1]
        if coeffs[0] != 0 and _x_is_primitive(coeffs, p, m):
            return tuple(coeffs)
    raise AssertionError(f"no primitive polynomial found for p={p}, m={m}")


# ---------------------------------------------------------------------------


class GF:
    """GF(q), q = p^m <= 2**16, with pinned modulus and log/antilog tables."""

    def __init__(self, q: int):
        pm = prime_power(q)
        if pm is None:
            raise ParameterError(f"{q} is not a prime power")
        if q > MAX_ORDER:
            raise ParameterError(f"field order {q} exceeds cap {MAX_ORDER}")
        self.q = q
        self.p, self.m = pm
        self.modulus = pinned_modulus(self.p, self.m)

        self._ord = q - 1
        self._build_tables()
        self.np_dtype = np.uint8 if q <= 256 else np.uint16

        self._exp_np = np.array(self._exp, dtype=np.int32)
        self._log_np = np.array(self._log, dtype=np.int32)  # log[0] == -1 sentinel
        # mul_np tables: log 0 -> 2(q-1) lands every product with a zero
        # factor in the zero tail, past the two copies of the exp table
        self._log_ext = self._log_np.copy()
        self._log_ext[0] = 2 * self._ord
        self._exp_ext = np.concatenate([self._exp_np, self._exp_np,
                                        np.zeros(2 * self._ord + 2, dtype=np.int32)])
        if self.p == 2:
            self._add_np = None
        elif q <= _ADD_TABLE_CAP:
            elems = np.arange(q)
            self._add_np = self._digitwise_np(elems[:, None], elems).astype(np.int32)
        else:
            self._add_np = None
        self._div_flat = None  # built on the first div_np call
        self._div_index_dtype = next(d for d in (np.uint8, np.uint16, np.uint32)
                                     if q * q <= np.iinfo(d).max + 1)

    # -- construction helpers ------------------------------------------------

    def _mul_by_x(self, e: int) -> int:
        """Multiply an element index by the class of x, reducing mod modulus."""
        p, m = self.p, self.m
        if p == 2:
            e <<= 1
            if e >= self.q:
                e ^= self._mod_int
            return e
        d = _digits(e, p, m)
        top = d[m - 1]
        d = [0] + d[: m - 1]
        if top:
            for i in range(m):
                d[i] = (d[i] - top * self.modulus[i]) % p
        return sum(c * p ** i for i, c in enumerate(d))

    def _build_tables(self):
        p, m, q = self.p, self.m, self.q
        if p == 2:
            self._mod_int = sum(c << i for i, c in enumerate(self.modulus))
        if m == 1:
            g = (-self.modulus[0]) % p
            exp = [1]
            for _ in range(q - 2):
                exp.append((exp[-1] * g) % p)
        else:
            exp = [1]
            for _ in range(q - 2):
                exp.append(self._mul_by_x(exp[-1]))
        self._exp = exp
        self.generator = exp[1] if q > 2 else 1
        log = [-1] * q
        for i, v in enumerate(exp):
            log[v] = i
        self._log = log

    # -- scalar operations ---------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        p = self.p
        out = 0
        mul = 1
        while a or b:
            out += ((a % p + b % p) % p) * mul
            a //= p
            b //= p
            mul *= p
        return out

    def neg(self, a: int) -> int:
        if self.p == 2:
            return a
        p = self.p
        out = 0
        mul = 1
        while a:
            out += ((p - a % p) % p) * mul
            a //= p
            mul *= p
        return out

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._exp[(self._log[a] + self._log[b]) % self._ord]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return self._exp[(-self._log[a]) % self._ord]

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            if e == 0:
                return 1
            if e < 0:
                raise ZeroDivisionError("0 to a negative power")
            return 0
        return self._exp[(self._log[a] * e) % self._ord]

    def dlog(self, a: int) -> int:
        """Discrete log base the pinned generator; a must be nonzero."""
        if a == 0:
            raise ParameterError("discrete log of 0")
        return self._log[a]

    def exp(self, i: int) -> int:
        """Generator raised to the i-th power."""
        return self._exp[i % self._ord] if self.q > 2 else 1

    # -- vector operations (element-index arrays) -----------------------------

    def add_np(self, x, y):
        if self.p == 2:
            return np.bitwise_xor(x, y)
        if self._add_np is not None:
            # one flat gather at x q + y: on large arrays it takes under half
            # the time of indexing the q x q table by the pair (x, y)
            return self._add_np.ravel().take(np.multiply(x, self.q, dtype=np.intp) + y)
        return self._digitwise_np(x, y)

    def _digitwise_np(self, x, y):
        p = self.p
        out = np.zeros(np.broadcast(x, y).shape, dtype=np.int64)
        xs = np.asarray(x, dtype=np.int64)
        ys = np.asarray(y, dtype=np.int64)
        mul = 1
        for _ in range(self.m):
            out += ((xs % p + ys % p) % p) * mul
            xs, ys = xs // p, ys // p
            mul *= p
        return out

    def mul_np(self, x, y):
        """x * y elementwise as int32, by one gather from the extended exp table."""
        return self._exp_ext[self._log_ext[x] + self._log_ext[y]]

    def multiples(self, a):
        """The int32 table whose entry [..., x] is a * x, for every element x
        and one element a or an array of them."""
        return self.mul_np(np.asarray(a)[..., None], np.arange(self.q))

    def mul_scalar_np(self, c: int, x):
        """c * x as int32, gathered from the row of multiples of c."""
        return np.asarray(self.multiples(c)[np.asarray(x)])

    def div_np(self, x, y):
        """x / y elementwise, in the element dtype; y must be nonzero.

        Fields up to order 1024 gather from a flat q*q quotient table, with
        the flat index kept in the smallest unsigned dtype that holds q*q;
        larger fields divide through the log tables.
        """
        if self.q > _DIV_TABLE_CAP:
            return self.mul_np(x, self.inv_np(y)).astype(self.np_dtype)
        if self._div_flat is None:
            # row y holds x / y = inv(y) x; row 0, never read, holds zeros
            inverses = np.concatenate([[0], self.inv_np(np.arange(1, self.q))])
            self._div_flat = self.multiples(inverses).astype(self.np_dtype).ravel()
        idx = np.asarray(y).astype(self._div_index_dtype) * self.q
        return np.take(self._div_flat, idx + x)

    def inv_np(self, x):
        if np.any(np.asarray(x) == 0):
            raise ZeroDivisionError("inverse of 0")
        return self._exp_np[(-self._log_np[x]) % self._ord]

    def __repr__(self):
        return f"GF({self.q})"


@functools.lru_cache(maxsize=None)
def field_make(q: int) -> GF:
    """The canonical GF(q) for a prime power q <= 2**16."""
    return GF(q)


# ---------------------------------------------------------------------------


class QuadExt:
    """GF(q^2) together with an explicit copy of GF(q) inside it.

    The quadratic extension is built directly of degree 2m over the prime
    field; the subfield copy is the fixed field of x -> x^q.  The embedding
    maps the base field's modulus root to its smallest-index root in the
    extension, which determines an index-remapping table once and for all.
    """

    def __init__(self, base: GF):
        if base.q ** 2 > MAX_ORDER:
            raise ParameterError(f"extension order {base.q ** 2} exceeds cap {MAX_ORDER}")
        self.base = base
        self.top = field_make(base.q ** 2)
        q, q2 = base.q, base.q ** 2
        top = self.top

        # x^q Frobenius table (fixes exactly the embedded subfield)
        frob = np.zeros(q2, dtype=np.int32)
        frob[top._exp_np] = top._exp_np[np.arange(q2 - 1) * q % (q2 - 1)]
        self.frob_np = frob

        # the q + 1 solutions of u^(q+1) = 1, as the powers of g^(q-1)
        self.norm_one_np = top._exp_np[(q - 1) * np.arange(q + 1)]

        # the base modulus at every element by one Horner pass; elements
        # ascend, so the first zero is the smallest root
        elems = np.arange(q2)
        value = np.zeros(q2, dtype=np.int32)
        for c in reversed(base.modulus):
            value = top.add_np(top.mul_np(value, elems), c)
        roots = np.flatnonzero(value == 0)
        if not len(roots):
            raise AssertionError("base modulus has no root in the extension")
        # a = sum d_i p^i maps to sum d_i root^i, by Horner over the digits
        embed = np.zeros(q, dtype=np.int32)
        for i in reversed(range(base.m)):
            embed = top.add_np(top.mul_np(embed, roots[0]), np.arange(q) // base.p ** i % base.p)
        embed = embed.astype(np.int32)
        self.embed_np = embed
        if len(set(embed.tolist())) != q:
            raise AssertionError("embedding is not injective")

        project = np.full(q2, -1, dtype=np.int32)
        project[embed] = np.arange(q)
        self.project_np = project

        # relative trace x + x^q, as a base-field index table
        tr = project[top.add_np(elems, frob)]
        if (tr < 0).any():
            raise AssertionError("trace value escaped the embedded subfield")
        self.trace_np = tr

        if base.p == 2:
            # the inverse permutation of squaring
            sqrt = np.zeros(q2, dtype=np.int32)
            sqrt[top.mul_np(elems, elems)] = elems
            self.sqrt_np = sqrt
        else:
            self.sqrt_np = None

    def trace_to_base(self, x: int) -> int:
        """Tr(x) = x + x^q, returned as a base-field element index."""
        return int(self.trace_np[x])

    def embed(self, a: int) -> int:
        return int(self.embed_np[a])

    def project(self, x: int) -> int:
        b = int(self.project_np[x])
        if b < 0:
            raise ParameterError("element is not in the embedded subfield")
        return b

    def norm_one_group(self) -> list[int]:
        """The q+1 solutions of u^(q+1) = 1, listed as powers of g^(q-1)."""
        return self.norm_one_np.tolist()

    def sqrt(self, x: int) -> int:
        if self.sqrt_np is None:
            raise ParameterError("square-root table only built in characteristic 2")
        return int(self.sqrt_np[x])

    def __repr__(self):
        return f"QuadExt(GF({self.base.q}) in GF({self.top.q}))"


@functools.lru_cache(maxsize=None)
def quadratic_extension(q: int) -> QuadExt:
    return QuadExt(field_make(q))
