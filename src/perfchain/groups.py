"""Exact arithmetic in F_l[pi] for a finite l-group pi.

A group is built from its descriptor: `cyclic:` and `product:` groups by
index arithmetic, and a `table:` group from an explicit multiplication
table, checked by `group_from_table`.  A GroupTable keeps one |pi|^2
table, its left divisions.
A group-ring value is (rows, cols, order) data, each entry a coefficient
vector in the table's element order, and an element of F_l[pi] is 1 x 1
data; that order is the global coordinate convention for every module
and matrix in the package.
"""

from __future__ import annotations

import functools
import math
import re

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import flinalg
from .errors import (
    DimensionMismatchError,
    GroupMismatchError,
    LimitError,
    NotAGroupError,
    NotAnLGroupError,
    NotAUnitError,
    ParseError,
)


# F_l products go through `flinalg.matmul`, which multiplies in float64
# only while every dot product stays below 2^53 and in int64 otherwise.
# The int64 product needs n (l - 1)^2 < 2^63 for an inner dimension n;
# below this bound that holds for every n < 2^23.
MAX_PRIME = 1 << 20

# A free module of rank r is still expanded to dense F_l matrices of side
# r * |pi| by `ChainComplex.diff_at`, for homology dimensions, and on the
# module route, so a larger rank, and a group of larger order, which
# carries no nonzero free module under the bound, are refused before
# anything is allocated for them.
MAX_FREE_DIM = 1 << 14

# Reading a `table:` group holds at most four |pi|^2 int64 arrays at once
# (the table, ldiv and the two rearrangements of Light's test), building a
# `cyclic:` or `product:` group two (ldiv and a gather of the generator
# closure), and one, ldiv, stays; an order whose four such arrays would
# pass this many bytes is refused before any is allocated: order 8192
# needs 2 GiB, order 16384 8 GiB.
MAX_TABLE_BYTES = 1 << 32


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def check_prime(l: int) -> None:
    """Refuse an l that is not a prime below MAX_PRIME: LimitError at
    l >= MAX_PRIME, then NotAnLGroupError."""
    if l >= MAX_PRIME:
        raise LimitError(f"prime {l} is not below {MAX_PRIME}")
    if not _is_prime(l):
        raise NotAnLGroupError(f"{l} is not prime")


def _is_power_of(n: int, p: int) -> bool:
    while n % p == 0:
        n //= p
    return n == 1


class GroupTable:
    """A finite l-group kept as its left divisions: ldiv[s, t] is the index
    of g_s^-1 g_t, which drives `ga_compose` and `GroupRingMatrix.expand`.
    Nothing is lost: inv = ldiv[:, identity] and the product table is
    ldiv[inv], since ldiv[inv[a], b] is the index of g_a g_b.  `generators`
    is a deterministic generating set S (greedy in index order, so
    |S| <= log_l |pi|; empty for the trivial group).  ldiv is read-only,
    |pi|^2 int64 (4.25 MB at order 729); inv, read-only too, holds |pi|
    entries.  The constructor checks only the prime and that the order is
    a power of it: `group_from_table` checks the group axioms of a table,
    which holds four |pi|^2 arrays at its peak, and a `cyclic:` or
    `product:` group is one by construction, built holding two.
    """

    def __init__(self, ldiv: np.ndarray, identity: int, prime_l: int, descriptor: str):
        order = ldiv.shape[0]
        check_prime(prime_l)
        if not _is_power_of(order, prime_l):
            raise NotAnLGroupError(f"order {order} is not a power of {prime_l}")
        self.order = order
        self.identity = int(identity)
        self.prime_l = int(prime_l)
        self.inv = ldiv[:, self.identity].copy()
        self.ldiv = ldiv
        self.generators = _greedy_generators(ldiv, self.inv, self.identity)
        self.descriptor = descriptor
        for arr in (self.inv, self.ldiv):
            arr.flags.writeable = False

    def __eq__(self, other):
        # `build_group` hands out one table per descriptor, so most
        # comparisons are of a table with itself; equal ldiv and identity
        # mean equal inv = ldiv[:, identity] and product tables ldiv[inv]
        return self is other or (
            isinstance(other, GroupTable)
            and self.prime_l == other.prime_l
            and self.identity == other.identity
            and np.array_equal(self.ldiv, other.ldiv)
        )

    def __hash__(self):
        return hash((self.prime_l, self.identity, self.ldiv.tobytes()))

    def __repr__(self):
        return f"GroupTable({self.descriptor!r}, l={self.prime_l})"


def _greedy_generators(ldiv: np.ndarray, inv: np.ndarray, identity: int) -> tuple[int, ...]:
    """Adjoin each element not yet reached, in index order, and close the
    reached set under the product g_a g_b = ldiv[inv[a], b] after every
    adjunction; a set that reaches every element is closed."""
    reached = np.zeros(ldiv.shape[0], dtype=bool)
    reached[identity] = True
    gens = []
    for g in range(ldiv.shape[0]):
        if reached[g]:
            continue
        gens.append(g)
        reached[g] = True
        while (idx := np.flatnonzero(reached)).size < reached.size:
            reached[ldiv[np.ix_(inv[idx], idx)]] = True
            if np.count_nonzero(reached) == idx.size:
                break
    return tuple(gens)


def group_from_table(mult, identity: int, prime_l: int) -> GroupTable:
    """The group of a multiplication table over indices 0..order-1, checked:
    square with entries in range, a neutral identity, two-sided inverses,
    and associativity by Light's test on S (Clifford and Preston, The
    Algebraic Theory of Semigroups, 1961), in O(|pi|^2 |S|): the a with
    (xa)y == x(ay) for all x, y are closed under products, so checking a
    in S covers everything S generates.  The constructor then checks the
    prime and the order."""
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
    inv = np.full(order, -1, dtype=np.int64)
    for a in range(order):
        right = np.nonzero(mult[a] == identity)[0]
        if right.size != 1 or mult[right[0], a] != identity:
            raise NotAGroupError(f"element {a} has no two-sided inverse")
        inv[a] = right[0]
    ldiv = mult[inv, :]
    for s in _greedy_generators(ldiv, inv, identity):
        if not np.array_equal(mult[mult[:, s], :], mult[:, mult[s, :]]):
            raise NotAGroupError("multiplication table is not associative")
    rows = "|".join(",".join(str(int(x)) for x in row) for row in mult)
    return GroupTable(ldiv, identity, prime_l,
                      f"table:{{order:{order};identity:{int(identity)};mult:{rows}}}")


def _check_order(n: int):
    if n > MAX_FREE_DIM:
        raise LimitError(f"group order {n} exceeds {MAX_FREE_DIM}")
    table_bytes = 4 * 8 * n * n
    if table_bytes > MAX_TABLE_BYTES:
        raise LimitError(f"group order {n} needs {table_bytes} bytes of group tables, "
                         f"more than {MAX_TABLE_BYTES}")


def _abelian_group(orders: list[int], l: int) -> GroupTable:
    """C_{n_1} x ... x C_{n_k}, its elements indexed by the mixed-radix
    numbers of their exponent vectors, the last factor least significant
    (a |H| + b for a pair), identity 0.  ldiv[s, t] is t - s componentwise
    mod n_i, added into ldiv one factor at a time: row s of a factor's
    differences, times its place value, is the window of 0..n_i-1 twice
    over that starts at n_i - s, a strided view of 2 n_i entries."""
    if min(orders) < 1:
        raise NotAGroupError("cyclic order must be positive")
    order, k = math.prod(orders), len(orders)
    _check_order(order)
    ldiv = np.zeros(orders + orders, dtype=np.int64)    # axes s_1..s_k, t_1..t_k
    weight = order
    for i, n in enumerate(orders):
        weight //= n
        shape = [1] * (2 * k)
        shape[i] = shape[k + i] = n
        twice = np.tile(np.arange(n) * weight, 2)
        ldiv += sliding_window_view(twice, n)[n:0:-1].reshape(shape)
    desc = ",".join(f"cyclic:{n}" for n in orders)
    return GroupTable(ldiv.reshape(order, order), 0, l, f"product:{desc}" if k > 1 else desc)


def cyclic_group(n: int, l: int) -> GroupTable:
    return _abelian_group([n], l)


_CYCLIC_RE = re.compile(r"cyclic:\s*([0-9]+)")
_TABLE_RE = re.compile(r"^table:\{order:([0-9]+);identity:([0-9]+);mult:([0-9,|]+)\}$")


@functools.lru_cache(maxsize=8)
def build_group(spec: str, l: int) -> GroupTable:
    """Build a validated group from a descriptor string.

    Grammar: ``cyclic:N`` | ``product:cyclic:N,cyclic:M[,...]`` |
    ``table:{order:N;identity:I;mult:r0|r1|...}`` with comma-separated
    rows, every N, I and entry ``[0-9]+`` in ASCII digits.

    The last few groups built are kept and returned again for the same
    descriptor and prime, so a certificate's input and replacement share
    one table.  Sharing is safe because a GroupTable's arrays are
    read-only; a refused descriptor raises, and nothing is kept for it.
    """
    spec = spec.strip()
    if spec.startswith(("cyclic:", "product:")):
        orders = []
        product = spec.startswith("product:")
        for f in spec[len("product:"):].split(",") if product else [spec]:
            f = f.strip()
            if not f.startswith("cyclic:"):
                raise ParseError(f"product factors must be cyclic, got {f!r}")
            m = _CYCLIC_RE.fullmatch(f)
            try:    # int() refuses "" and more digits than Python's limit
                orders.append(int(m.group(1) if m else ""))
            except ValueError:
                raise ParseError(f"bad cyclic descriptor {f!r}")
        return _abelian_group(orders, l)
    m = _TABLE_RE.match(spec)
    if m:
        try:    # int() refuses more digits than Python's limit
            order, identity = int(m.group(1)), int(m.group(2))
        except ValueError:
            raise ParseError("table order or identity has too many digits")
        _check_order(order)
        try:
            mult = [[int(x) for x in row.split(",")] for row in m.group(3).split("|")]
        except ValueError:
            raise ParseError("bad table row")
        if len(mult) != order or any(len(r) != order for r in mult):
            raise ParseError("table shape does not match declared order")
        if max(map(max, mult)) >= order:    # before int64 can overflow
            raise NotAGroupError("table entries out of range")
        return group_from_table(mult, identity, l)
    raise ParseError(f"unrecognized group descriptor {spec!r}")


# ----------------------------------------------------------------------
# group-ring data


def ga_compose(second: np.ndarray, first: np.ndarray, G: GroupTable) -> np.ndarray:
    """Group-ring data of the composite map (second after first), from
    (k, i, order) and (i, j, order) data.  An entry a is the map x -> x a
    (see GroupRingMatrix), so (second o first)[k, j] = sum_i first[i, j] *
    second[k, i], where (a * b)[t] = sum_g a[g] b[g^-1 t].

    The operand with fewer entries is gathered to the size of its
    expansion, in one `np.take` through G.ldiv that lays it out as the
    product reads it.  When k <= j that is `second`, by the sum above.
    Otherwise it is `first`, through the anti-involution a*[g] = a[g^-1],
    for which (a * b)* = b* * a* (Passman, The Algebraic Structure of
    Group Rings, 1977): the product sums second*[k, i] * first*[i, j] with
    first* gathered, and its star, transposed, is the composite.  Each
    star is one |pi|-sized `np.take` through G.inv.
    An empty operand gathers nothing: the product is zeros at once."""
    k, i, o = second.shape
    j = first.shape[1]
    if not (k and i and j):
        return np.zeros((k, j, o), dtype=np.int64)
    if k <= j:
        lhs = first.transpose(1, 0, 2).reshape(j, i * o)          # [j, (i, g)]
        small = second                                            # [k, (i, g), t]
    else:
        lhs = np.take(second, G.inv, axis=2).reshape(k, i * o)    # second* [k, (i, g)]
        small = np.take(first, G.inv, axis=2).transpose(1, 0, 2)  # first* [j, (i, g), t]
    m = small.shape[0]
    # converted before the gather, so the large operand is built only once,
    # and the product is taken in the same dtype
    dtype = flinalg.product_dtype(lhs.shape, (m, i * o, o), G.prime_l)
    gathered = np.take(small.astype(dtype, copy=False), G.ldiv, axis=2).reshape(m, i * o, o)
    product = flinalg._matmul_in(lhs, gathered, dtype, G.prime_l)
    return product if k <= j else np.take(product, G.inv, axis=2).transpose(1, 0, 2)


def ga_inverse(a: np.ndarray, G: GroupTable) -> np.ndarray:
    """Two-sided inverse of square (k, k, order) group-ring data a whose
    augmentation is invertible over F_l, else NotAUnitError.  An element
    of F_l[pi] is 1 x 1 data, and a unit exactly when its augmentation is
    nonzero: F_l[pi] is local, its radical the augmentation ideal.

    Newton's iteration X <- X + r X, r = I - X a, from the lift of the
    augmentation's inverse: the first residual is a coefficientwise
    product, and each step squares it (r <- r r), so it vanishes once
    2^steps reaches the radical's nilpotency index, which is at most |pi|.
    r X and r r are one product of r by [X r], which gathers r once.
    The augmentation's inverse is eps^(l-2) (Fermat) for an element and
    solved over F_l for a k x k block.
    """
    l = G.prime_l
    k = a.shape[0]
    if k == 1:
        eps = int(a.sum()) % l
        eps_inv = np.array([[pow(eps, l - 2, l)]]) if eps else None
    else:
        eps_inv = flinalg.solve_matrix(a.sum(axis=2) % l, flinalg.identity(k), l)
    if eps_inv is None:
        raise NotAUnitError("augmentation is not invertible")
    X = np.zeros(a.shape, dtype=np.int64)
    X[..., G.identity] = eps_inv
    residual = -np.einsum("ki,ijg->kjg", eps_inv, a)
    residual[..., G.identity] += flinalg.identity(k)
    residual %= l
    for _ in range(G.order.bit_length() + 1):
        if not residual.any():
            return X
        step = ga_compose(residual, np.concatenate([X, residual], axis=1), G)
        X = (X + step[:, :k]) % l
        residual = step[:, k:]
    raise AssertionError("Newton's iteration failed to converge")


# ----------------------------------------------------------------------
# matrices over the group algebra


class GroupRingMatrix:
    """A rows x cols matrix over F_l[pi].

    Entry [i, j] is the coefficient of target basis vector e_i in the
    image of source basis vector e_j (column convention for left-module
    maps).  `expand` builds the F_l matrix on coordinates (i, s) -> i*order+s
    on every call; nothing is cached.
    """

    __slots__ = ("group", "data")
    _expanded = None  # read by the `groups.expand` hook of perfbench/tracing.py

    def __init__(self, group: GroupTable, data):
        data = np.asarray(data, dtype=np.int64) % group.prime_l
        if data.ndim != 3 or data.shape[2] != group.order:
            raise DimensionMismatchError(
                f"expected (rows, cols, {group.order}) data, got {data.shape}"
            )
        data.flags.writeable = False
        self.group = group
        self.data = data

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
        """I_n, whose 0/1 data is built reduced and read-only, so it skips
        the constructor's `% l` pass."""
        data = np.zeros((n, n, group.order), dtype=np.int64)
        data[np.arange(n), np.arange(n), group.identity] = 1
        data.flags.writeable = False
        I = object.__new__(GroupRingMatrix)
        I.group, I.data = group, data
        return I

    def expand(self) -> np.ndarray:
        """The (rows*order) x (cols*order) matrix over F_l of this map."""
        o, m, n = self.group.order, self.rows, self.cols
        # E[(i, k), (j, s)] = data[i, j, ldiv[s, k]]: one take through C-ordered idx
        idx = np.add(self.group.ldiv.T[:, None], o * np.arange(n)[:, None], order="C")
        E = np.take(self.data.reshape(m, n * o), idx, axis=1).reshape(m * o, n * o)
        E.flags.writeable = False
        return E

    def augmentation_matrix(self) -> np.ndarray:
        return self.data.sum(axis=2) % self.group.prime_l

    def is_zero(self) -> bool:
        return not self.data.any()

    def __eq__(self, other):
        return (
            isinstance(other, GroupRingMatrix)
            and self.group == other.group
            and np.array_equal(self.data, other.data)
        )

    def __repr__(self):
        return f"GroupRingMatrix({self.rows}x{self.cols} over {self.group.descriptor})"


def grm_compose(second: GroupRingMatrix, first: GroupRingMatrix) -> GroupRingMatrix:
    """Matrix of the composite map (second after first), multiplied
    entrywise in F_l[pi] by `ga_compose`."""
    if second.group != first.group:
        raise GroupMismatchError("composing matrices over different groups")
    if second.cols != first.rows:
        raise DimensionMismatchError(
            f"cannot compose {second.rows}x{second.cols} after {first.rows}x{first.cols}"
        )
    return GroupRingMatrix(second.group, ga_compose(second.data, first.data, second.group))

