"""Exact arithmetic in F_l[pi] for a finite l-group pi.

Groups are explicit multiplication tables over element indices 0..order-1.
Group-algebra elements are coefficient vectors in the table's element
order; that order is the global coordinate convention for every module
and matrix in the package.
"""

from __future__ import annotations

import re

import numpy as np

from . import flinalg
from .errors import (
    DimensionMismatchError,
    GroupMismatchError,
    NotAGroupError,
    NotAnLGroupError,
    NotAUnitError,
    ParseError,
)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _is_power_of(n: int, p: int) -> bool:
    while n % p == 0:
        n //= p
    return n == 1


class GroupTable:
    """A finite l-group given by its full multiplication table.

    mult[a, b] is the index of the product.  `generators` is a
    deterministic generating set S (greedy in index order, so
    |S| <= log_l |pi|; empty for the trivial group).  Associativity is
    checked by Light's test on S, in O(|pi|^2 |S|).
    """

    def __init__(self, mult, identity: int, prime_l: int, descriptor: str | None = None):
        mult = np.asarray(mult, dtype=np.int64)
        if mult.ndim != 2 or mult.shape[0] != mult.shape[1]:
            raise NotAGroupError("multiplication table must be square")
        order = mult.shape[0]
        if order == 0:
            raise NotAGroupError("empty multiplication table")
        if mult.min() < 0 or mult.max() >= order:
            raise NotAGroupError("table entries out of range")
        if not (0 <= identity < order):
            raise NotAGroupError("identity index out of range")
        rng = np.arange(order)
        if not (np.array_equal(mult[identity], rng) and np.array_equal(mult[:, identity], rng)):
            raise NotAGroupError("identity element is not neutral")
        # two-sided inverses
        inv = np.full(order, -1, dtype=np.int64)
        for a in range(order):
            right = np.nonzero(mult[a] == identity)[0]
            if right.size != 1 or mult[right[0], a] != identity:
                raise NotAGroupError(f"element {a} has no two-sided inverse")
            inv[a] = right[0]
        generators = _greedy_generators(mult, identity)
        # Light's test: the a with (xa)y == x(ay) for all x, y are closed
        # under products, so checking a in S covers everything S generates
        for s in generators:
            if not np.array_equal(mult[mult[:, s], :], mult[:, mult[s, :]]):
                raise NotAGroupError("multiplication table is not associative")
        if not _is_prime(prime_l):
            raise NotAnLGroupError(f"{prime_l} is not prime")
        if not _is_power_of(order, prime_l):
            raise NotAnLGroupError(f"order {order} is not a power of {prime_l}")

        self.order = order
        self.identity = int(identity)
        self.prime_l = int(prime_l)
        self.mult = mult
        self.inv = inv
        self.generators = generators
        # ldiv[s, k] = index of g_s^{-1} g_k; drives matrix expansion
        self.ldiv = mult[inv, :]
        self.descriptor = descriptor or table_descriptor(mult, identity)
        for arr in (self.mult, self.inv, self.ldiv):
            arr.flags.writeable = False

    def __eq__(self, other):
        return (
            isinstance(other, GroupTable)
            and self.prime_l == other.prime_l
            and self.identity == other.identity
            and np.array_equal(self.mult, other.mult)
        )

    def __hash__(self):
        return hash((self.prime_l, self.identity, self.mult.tobytes()))

    def __repr__(self):
        return f"GroupTable({self.descriptor!r}, l={self.prime_l})"


def _greedy_generators(mult: np.ndarray, identity: int) -> tuple[int, ...]:
    """Adjoin each element not yet reached, in index order, and close the
    reached set under the product after every adjunction."""
    reached = np.zeros(mult.shape[0], dtype=bool)
    reached[identity] = True
    gens = []
    for g in range(mult.shape[0]):
        if reached[g]:
            continue
        gens.append(g)
        reached[g] = True
        while True:
            idx = np.flatnonzero(reached)
            reached[mult[np.ix_(idx, idx)]] = True
            if reached.sum() == idx.size:
                break
    return tuple(gens)


def table_descriptor(mult, identity: int) -> str:
    rows = "|".join(",".join(str(int(x)) for x in row) for row in np.asarray(mult))
    return f"table:{{order:{len(mult)};identity:{int(identity)};mult:{rows}}}"


def cyclic_group(n: int, l: int) -> GroupTable:
    if n < 1:
        raise NotAGroupError("cyclic order must be positive")
    idx = np.arange(n)
    mult = (idx[:, None] + idx[None, :]) % n
    return GroupTable(mult, 0, l, descriptor=f"cyclic:{n}")


def direct_product(g: GroupTable, h: GroupTable) -> GroupTable:
    """Direct product with indices packed as a*|H| + b."""
    if g.prime_l != h.prime_l:
        raise GroupMismatchError("factors have different primes")
    oh = h.order
    a = np.arange(g.order * h.order)
    a1, a2 = a // oh, a % oh
    mult = g.mult[np.ix_(a1, a1)] * oh + h.mult[np.ix_(a2, a2)]
    desc = None
    parts = []
    for f in (g, h):
        d = f.descriptor
        if d.startswith("cyclic:"):
            parts.append(d)
        elif d.startswith("product:"):
            parts.extend(d[len("product:"):].split(","))
        else:
            parts = None
            break
    if parts is not None:
        desc = "product:" + ",".join(parts)
    return GroupTable(mult, g.identity * oh + h.identity, g.prime_l, descriptor=desc)


_TABLE_RE = re.compile(r"^table:\{order:(\d+);identity:(\d+);mult:([0-9,|]+)\}$")


def build_group(spec: str, l: int) -> GroupTable:
    """Build a validated group from a descriptor string.

    Grammar: ``cyclic:N`` | ``product:cyclic:N,cyclic:M[,...]`` |
    ``table:{order:N;identity:I;mult:r0|r1|...}`` with comma-separated rows.
    """
    spec = spec.strip()
    if spec.startswith("cyclic:"):
        try:
            n = int(spec[len("cyclic:"):])
        except ValueError:
            raise ParseError(f"bad cyclic descriptor {spec!r}")
        return cyclic_group(n, l)
    if spec.startswith("product:"):
        factors = spec[len("product:"):].split(",")
        if not factors:
            raise ParseError("empty product descriptor")
        groups = []
        for f in factors:
            f = f.strip()
            if not f.startswith("cyclic:"):
                raise ParseError(f"product factors must be cyclic, got {f!r}")
            groups.append(build_group(f, l))
        g = groups[0]
        for h in groups[1:]:
            g = direct_product(g, h)
        return g
    m = _TABLE_RE.match(spec)
    if m:
        order, identity, rows = int(m.group(1)), int(m.group(2)), m.group(3)
        try:
            mult = [[int(x) for x in row.split(",")] for row in rows.split("|")]
        except ValueError:
            raise ParseError("bad table row")
        if len(mult) != order or any(len(r) != order for r in mult):
            raise ParseError("table shape does not match declared order")
        return GroupTable(mult, identity, l)
    raise ParseError(f"unrecognized group descriptor {spec!r}")


# ----------------------------------------------------------------------
# group-algebra elements


class GroupRingElement:
    """An element of F_l[pi] as a coefficient vector over group indices."""

    __slots__ = ("coeffs", "prime")

    def __init__(self, coeffs, prime: int):
        arr = np.asarray(coeffs, dtype=np.int64) % prime
        arr.flags.writeable = False
        self.coeffs = arr
        self.prime = int(prime)

    def __eq__(self, other):
        return (
            isinstance(other, GroupRingElement)
            and self.prime == other.prime
            and np.array_equal(self.coeffs, other.coeffs)
        )

    def __hash__(self):
        return hash((self.prime, self.coeffs.tobytes()))

    def __add__(self, other):
        return GroupRingElement(self.coeffs + other.coeffs, self.prime)

    def __sub__(self, other):
        return GroupRingElement(self.coeffs - other.coeffs, self.prime)

    def __neg__(self):
        return GroupRingElement(-self.coeffs, self.prime)

    def is_zero(self) -> bool:
        return not self.coeffs.any()

    def __repr__(self):
        return f"GroupRingElement({self.coeffs.tolist()}, l={self.prime})"


def ga_zero(G: GroupTable) -> GroupRingElement:
    return GroupRingElement(np.zeros(G.order, dtype=np.int64), G.prime_l)


def ga_one(G: GroupTable) -> GroupRingElement:
    c = np.zeros(G.order, dtype=np.int64)
    c[G.identity] = 1
    return GroupRingElement(c, G.prime_l)


def norm_element(G: GroupTable) -> GroupRingElement:
    """The sum of all group elements."""
    return GroupRingElement(np.ones(G.order, dtype=np.int64), G.prime_l)


def _check_element(a: GroupRingElement, G: GroupTable):
    if a.prime != G.prime_l:
        raise GroupMismatchError("element prime differs from group prime")
    if a.coeffs.shape[0] != G.order:
        raise DimensionMismatchError(
            f"coefficient length {a.coeffs.shape[0]} != group order {G.order}"
        )


def ga_mul(a: GroupRingElement, b: GroupRingElement, G: GroupTable) -> GroupRingElement:
    """Convolution product in F_l[pi]."""
    _check_element(a, G)
    _check_element(b, G)
    out = np.zeros(G.order, dtype=np.int64)
    np.add.at(out, G.mult.ravel(), np.outer(a.coeffs, b.coeffs).ravel())
    return GroupRingElement(out, G.prime_l)


def augmentation(a: GroupRingElement) -> int:
    """Coefficient sum mod l; the ring map onto F_l."""
    return int(a.coeffs.sum() % a.prime)


def is_unit(a: GroupRingElement, G: GroupTable) -> bool:
    """Units of F_l[pi] are exactly the elements of nonzero augmentation.

    F_l[pi] is local for an l-group pi: the augmentation ideal is the
    Jacobson radical and is nilpotent.  Tests check this against an
    exhaustive inverse search.
    """
    _check_element(a, G)
    return augmentation(a) != 0


def ga_inverse(a: GroupRingElement, G: GroupTable) -> GroupRingElement:
    """Two-sided inverse of a unit, via the terminating geometric series.

    Write a = alpha (1 - n) with alpha = augmentation(a) and n in the
    radical; nilpotence of the radical makes sum(n^k) finite.
    """
    _check_element(a, G)
    l = G.prime_l
    alpha = augmentation(a)
    if alpha == 0:
        raise NotAUnitError("element has augmentation zero")
    alpha_inv = pow(alpha, l - 2, l)
    b = GroupRingElement(a.coeffs * alpha_inv, l)  # augmentation 1
    n = ga_one(G) - b
    acc = ga_one(G)
    term = n
    steps = 0
    while not term.is_zero():
        acc = acc + term
        term = ga_mul(term, n, G)
        steps += 1
        if steps > G.order * (l - 1) + 2:
            raise AssertionError("radical series failed to terminate")
    return GroupRingElement(acc.coeffs * alpha_inv, l)


# ----------------------------------------------------------------------
# matrices over the group algebra


class GroupRingMatrix:
    """A rows x cols matrix over F_l[pi].

    Entry [i, j] is the coefficient of target basis vector e_i in the
    image of source basis vector e_j (column convention for left-module
    maps).  `expand` gives the F_l matrix on coordinates (i, s) -> i*order+s.
    """

    __slots__ = ("group", "data", "_expanded")

    def __init__(self, group: GroupTable, data):
        data = np.asarray(data, dtype=np.int64) % group.prime_l
        if data.ndim != 3 or data.shape[2] != group.order:
            raise DimensionMismatchError(
                f"expected (rows, cols, {group.order}) data, got {data.shape}"
            )
        data.flags.writeable = False
        self.group = group
        self.data = data
        self._expanded = None

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    @staticmethod
    def zeros(group: GroupTable, rows: int, cols: int) -> "GroupRingMatrix":
        return GroupRingMatrix(group, np.zeros((rows, cols, group.order), dtype=np.int64))

    @staticmethod
    def identity(group: GroupTable, n: int) -> "GroupRingMatrix":
        data = np.zeros((n, n, group.order), dtype=np.int64)
        data[np.arange(n), np.arange(n), group.identity] = 1
        return GroupRingMatrix(group, data)

    @staticmethod
    def from_entries(group: GroupTable, entries) -> "GroupRingMatrix":
        """entries: nested lists of GroupRingElement or coefficient lists."""
        rows = len(entries)
        cols = len(entries[0]) if rows else 0
        data = np.zeros((rows, cols, group.order), dtype=np.int64)
        for i, row in enumerate(entries):
            if len(row) != cols:
                raise DimensionMismatchError("ragged entry rows")
            for j, e in enumerate(row):
                coeffs = e.coeffs if isinstance(e, GroupRingElement) else np.asarray(e)
                if coeffs.shape[0] != group.order:
                    raise DimensionMismatchError("entry length != group order")
                data[i, j] = coeffs
        return GroupRingMatrix(group, data)

    def entry(self, i: int, j: int) -> GroupRingElement:
        return GroupRingElement(self.data[i, j], self.group.prime_l)

    def expand(self) -> np.ndarray:
        """The (rows*order) x (cols*order) matrix over F_l of this map."""
        if self._expanded is None:
            G = self.group
            o = G.order
            arr = self.data[:, :, G.ldiv]  # (rows, cols, s, k)
            E = arr.transpose(0, 3, 1, 2).reshape(self.rows * o, self.cols * o)
            E = E % G.prime_l
            E.flags.writeable = False
            self._expanded = E
        return self._expanded

    @staticmethod
    def from_expanded(group: GroupTable, E, rows: int, cols: int,
                      validate: bool = True) -> "GroupRingMatrix":
        """Recover the group-ring matrix whose expansion is E.

        Requires E to be pi-equivariant; with validate=True this is
        checked by re-expanding.
        """
        o = group.order
        E = flinalg.asfield(E, group.prime_l)
        if E.shape != (rows * o, cols * o):
            raise DimensionMismatchError("expanded shape mismatch")
        data = np.zeros((rows, cols, o), dtype=np.int64)
        for i in range(rows):
            for j in range(cols):
                data[i, j] = E[i * o:(i + 1) * o, j * o + group.identity]
        M = GroupRingMatrix(group, data)
        if validate and not np.array_equal(M.expand(), E):
            raise DimensionMismatchError("matrix is not pi-equivariant")
        return M

    def augmentation_matrix(self) -> np.ndarray:
        return self.data.sum(axis=2) % self.group.prime_l

    def is_zero(self) -> bool:
        return not self.data.any()

    def __add__(self, other):
        self._check_same(other)
        return GroupRingMatrix(self.group, self.data + other.data)

    def __sub__(self, other):
        self._check_same(other)
        return GroupRingMatrix(self.group, self.data - other.data)

    def __neg__(self):
        return GroupRingMatrix(self.group, -self.data)

    def _check_same(self, other):
        if self.group != other.group:
            raise GroupMismatchError("matrices over different groups")
        if self.data.shape != other.data.shape:
            raise DimensionMismatchError("matrix shapes differ")

    def __eq__(self, other):
        return (
            isinstance(other, GroupRingMatrix)
            and self.group == other.group
            and np.array_equal(self.data, other.data)
        )

    def __repr__(self):
        return f"GroupRingMatrix({self.rows}x{self.cols} over {self.group.descriptor})"


def grm_compose(second: GroupRingMatrix, first: GroupRingMatrix) -> GroupRingMatrix:
    """Matrix of the composite map (second after first).

    Computed on expansions; entry products in F_l[pi] are noncommutative,
    and the expansion route keeps the bookkeeping in one tested place.
    """
    if second.group != first.group:
        raise GroupMismatchError("composing matrices over different groups")
    if second.cols != first.rows:
        raise DimensionMismatchError(
            f"cannot compose {second.rows}x{second.cols} after {first.rows}x{first.cols}"
        )
    E = (second.expand() @ first.expand()) % second.group.prime_l
    return GroupRingMatrix.from_expanded(second.group, E, second.rows, first.cols,
                                         validate=False)

