"""Machine-checkable certificates for CLI verdicts.

Every certificate embeds the canonical form of its input (plus a sha256
digest of the canonical text) and enough witness data to re-validate the
verdict without re-running any search: quasi-isomorphism witnesses are
re-checked by cone acyclicity, non-freeness by an explicit kernel vector
of the minimal cover.  A Smith form's U M V = diag(d) is decided modulo
word-size primes whose product exceeds twice a bound B on every entry of
U M V and of d, so agreement modulo each prime is equality over Z; the
residues are multiplied in float64, where every sum stays an integer
below 2^53 and so is exact (`_is_claimed_diagonal`).  The determinant
that shows U and V unimodular is found on such primes too, by float64
elimination, and exactly for small matrices (`_abs_det_is`).  A free witness is
checked on group-ring data alone: d o d and the chain-map squares by
group-ring products, and the cone's acyclicity over the residue field
F_l, from the ranks of its augmented boundaries
(`ChainComplex.is_acyclic`).  A witness into a tower's limit is checked
the same way when the limit is free, and on the expanded cone otherwise.

Format `perfchain-cert-v5` writes only what the checker cannot
recompute, and writes every array over F_l as one string of fixed-width
decimal digits (`serialize.field_to_json`), which the reader checks and
decodes in one pass before any arithmetic.  Maps out of free modules into
a module (a witness into an expanded limit, an obstruction's cover) are
written by the images of the free generators, whose orbit the checker
rebuilds, equivariant by construction (`serialize.free_map_to_json`).  A
tower-perfectness certificate records no limit and no obstruction, since
the checker recomputes both from the tower: a free limit
(`towers.free_limit`) comes with identities checked here by group-ring
products, and the witness is a group-ring chain map into it; any other
limit is expanded, and a negative verdict's cover and kernel vector are
checked against the recomputed obstruction.  A limit certificate records
the limit as the answer, and it must equal the recomputed one.  Missing
keys, malformed witnesses and other formats are ParseError, before any
arithmetic.
"""

from __future__ import annotations

import functools
import json
import math
from itertools import count

import numpy as np

from . import flinalg, serialize
from .abelian import FGAbelian, SNFResult, _l_part
from .chains import ChainComplex, ChainMap, euler_characteristic, is_quasi_iso
from .errors import LimitError, ParseError, PerfchainError
from .finiteness import PerfectnessVerdict, decide_perfect
from .groups import GroupRingMatrix, check_prime, ga_compose
from .modules import PiModule, free_cover, minimal_generators, orbit_columns
from .serialize import json_field, json_field_array, json_int_matrix
from .towers import FreeLimit, Tower, decided_limit, limit_complex

FORMAT = "perfchain-cert-v5"


def dumps(cert: dict) -> str:
    return json.dumps(cert, sort_keys=True, separators=(",", ":")) + "\n"


def loads(text: str) -> dict:
    try:
        cert = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as e:     # or nested too deep to read
        raise ParseError(f"bad certificate JSON: {e}")
    except ValueError as e:     # an integer past Python's digit limit
        raise LimitError(f"certificate integer too long: {e}") from None
    if not isinstance(cert, dict):
        raise ParseError("not a perfchain certificate")
    if cert.get("format") != FORMAT:
        raise ParseError(f"certificate format {cert.get('format')!r} is not {FORMAT!r}")
    return cert


class VerificationFailure(Exception):
    """Raised by checkers with the reason a certificate is invalid."""


def _base(kind: str, input_text: str) -> dict:
    return {
        "format": FORMAT,
        "kind": kind,
        "digest": serialize.digest_text(input_text),
    }


# ----------------------------------------------------------------------
# perfectness


def perfectness_certificate(C: ChainComplex, verdict: PerfectnessVerdict) -> dict:
    """A free complex is always perfect, so its certificate carries the
    replacement and the witness into it."""
    cert = _base("perfectness", serialize.write_complex(C))
    cert["input"] = serialize.complex_to_json(C)
    cert["verdict"] = {"perfect": True, "euler_class": verdict.euler_class}
    cert["witness"] = {
        "replacement": serialize.complex_to_json(verdict.replacement),
        "map": serialize.chain_map_to_json(verdict.witness),
    }
    return cert


def _nonfree_witness(verdict: PerfectnessVerdict) -> dict:
    P = verdict.top_obstruction
    cover = free_cover(P)
    kernel = flinalg.kernel_basis(cover.matrix, P.group.prime_l)
    if kernel.shape[1] == 0:
        raise AssertionError("non-perfect verdict with free obstruction")
    return {
        "cover": serialize.free_map_to_json(cover.matrix, P.group),
        "kernel_vector": serialize.field_to_json(kernel[:, 0], P.group.prime_l),
    }


def _check_nonfree(witness: dict, P: PiModule) -> None:
    G = P.group
    l = G.prime_l
    k = minimal_generators(P)
    gens = json_field_array(json_field(witness, "cover"), "cover", l, P.dim, k)
    v = json_field_array(json_field(witness, "kernel_vector"), "kernel_vector", l,
                         k * G.order)
    cover = orbit_columns(P, gens)      # equivariant by construction
    if flinalg.rank(cover, l) != P.dim:
        raise VerificationFailure("recorded cover is not surjective")
    if not v.any():
        raise VerificationFailure("kernel vector is zero")
    if flinalg.matmul(cover, v, l).any():
        raise VerificationFailure("kernel vector is not in the kernel")


def _complex_input(cert: dict) -> ChainComplex:
    """The free complex a perfectness or quasi-iso certificate is about."""
    C = serialize.complex_from_json(json_field(cert, "input"))
    if json_field(cert, "digest") != serialize.digest_text(serialize.write_complex(C)):
        raise VerificationFailure("input digest mismatch")
    return C


def _check_witness(witness: dict, key: str, target, euler_class=None) -> None:
    """Check a witness R -> target: R = witness[key] is a minimal free
    complex, witness["map"] has an acyclic cone, and R has the claimed
    euler_class when one is given."""
    R = serialize.complex_from_json(json_field(witness, key))
    if not R.is_minimal():
        raise VerificationFailure(f"{key} complex has a unit entry")
    obj = json_field(witness, "map")
    f = (serialize.chain_map_from_json(obj, R, target) if isinstance(target, ChainComplex)
         else serialize.module_map_from_json(obj, R, target))
    if not is_quasi_iso(f):
        raise VerificationFailure("witness map is not a quasi-isomorphism")
    if euler_class is not None:
        if type(euler_class) is not int:
            raise ParseError("euler_class is not an integer")
        if euler_characteristic(R) != euler_class:
            raise VerificationFailure("euler_class does not match the replacement")


def check_perfectness(cert: dict) -> None:
    C = _complex_input(cert)
    claim = json_field(cert, "verdict")
    if not json_field(claim, "perfect"):
        raise VerificationFailure("a bounded complex of free modules is always perfect")
    _check_witness(json_field(cert, "witness"), "replacement", C,
                   json_field(claim, "euler_class"))


# ----------------------------------------------------------------------
# quasi-iso (minimalization)


def quasi_iso_certificate(C: ChainComplex, minimal: ChainComplex, witness) -> dict:
    cert = _base("quasi-iso", serialize.write_complex(C))
    cert["input"] = serialize.complex_to_json(C)
    cert["witness"] = {
        "minimal": serialize.complex_to_json(minimal),
        "map": serialize.chain_map_to_json(witness),
    }
    return cert


def check_quasi_iso(cert: dict) -> None:
    _check_witness(json_field(cert, "witness"), "minimal", _complex_input(cert))


# ----------------------------------------------------------------------
# tower limits


def limit_certificate(T: Tower, horizon: int, limit) -> dict:
    text = serialize.write_tower(T)
    cert = _base("limit", text)
    cert["input"] = {"tower": text}
    cert["horizon"] = horizon
    cert["limit"] = serialize.module_complex_to_json(limit)
    return cert


def _tower_input(cert: dict) -> Tower:
    """The tower a limit or tower-perfectness certificate is about."""
    text = json_field(json_field(cert, "input"), "tower")
    if not isinstance(text, str):
        raise ParseError("input tower is not text")
    T = serialize.read_tower(text)
    if json_field(cert, "digest") != serialize.digest_text(serialize.write_tower(T)):
        raise VerificationFailure("input digest mismatch")
    return T


def _recomputed_limit(T: Tower, horizon, compute=limit_complex):
    """The limit of T at the horizon, by `compute`."""
    if type(horizon) is not int:
        raise ParseError("horizon is not an integer")
    try:
        return compute(T, horizon)
    except PerfchainError as e:
        raise VerificationFailure(f"limit could not be recomputed: {e}")


def check_limit(cert: dict) -> None:
    T = _tower_input(cert)
    limit = _recomputed_limit(T, json_field(cert, "horizon"))
    if serialize.module_complex_to_json(limit) != json_field(cert, "limit"):
        raise VerificationFailure("recorded limit does not match the stable images")


def tower_perfectness_certificate(T: Tower, horizon: int,
                                  verdict: PerfectnessVerdict) -> dict:
    """The verdict on the limit of T at the horizon, which the checker
    recomputes, so the limit itself is not written.  The witness map is
    group-ring data into a free limit and generator columns into an
    expanded one."""
    text = serialize.write_tower(T)
    cert = _base("perfectness", text)
    cert["input"] = {"tower": text, "horizon": horizon}
    cert["verdict"] = {"perfect": verdict.perfect}
    if verdict.perfect:
        f = verdict.witness
        cert["verdict"]["euler_class"] = verdict.euler_class
        cert["witness"] = {
            "replacement": serialize.complex_to_json(verdict.replacement),
            "map": (serialize.chain_map_to_json(f) if isinstance(f, ChainMap)
                    else serialize.module_map_to_json(f)),
        }
    else:
        cert["witness"] = _nonfree_witness(verdict)
    return cert


def _check_free_limit(T: Tower, lim: FreeLimit) -> None:
    """The identities that make `lim` the limit, by group-ring products:
    A_q A_q^-1 = I, and B_{q-1} X_q = d_q B_q, so that B is an injective
    chain map onto the stable images.  `free_limit` accepted each degree
    only where both factorizations through B_q hold."""
    G = T.group
    base, L = T.levels[0], lim.complex
    for q, B in lim.bases.items():
        A = B.data[lim.rows[q]]
        if not np.array_equal(ga_compose(A, lim.inverses[q].data, G),
                              GroupRingMatrix.identity(G, B.cols).data):
            raise VerificationFailure(f"degree {q}: the pivot block's inverse is wrong")
        if q - 1 in lim.bases and not np.array_equal(
                ga_compose(lim.bases[q - 1].data, L.boundary_at(q).data, G),
                ga_compose(base.boundary_at(q).data, B.data, G)):
            raise VerificationFailure(f"degree {q}: the limit differential is wrong")


def check_tower_perfectness(cert: dict) -> None:
    if "limit" in cert:
        raise ParseError("a tower-perfectness certificate records no limit")
    T = _tower_input(cert)
    claim, witness = json_field(cert, "verdict"), json_field(cert, "witness")
    if isinstance(witness, dict) and "obstruction" in witness:
        raise ParseError("a tower-perfectness certificate records no obstruction")
    limit = _recomputed_limit(T, json_field(json_field(cert, "input"), "horizon"),
                              decided_limit)
    if isinstance(limit, FreeLimit):
        _check_free_limit(T, limit)
        limit = limit.complex
    if json_field(claim, "perfect"):
        euler_class = json_field(claim, "euler_class")
        # A free R ~ limit has |pi| chi(R) = sum of (-1)^q dim limit_q.  The
        # limit is not recorded, so this binds the claim to this tower's
        # limit before the witness is read against the limit's dims.
        chi = sum(-limit.dim_at(q) if q % 2 else limit.dim_at(q)
                  for q in range(limit.bottom, limit.top + 1))
        if type(euler_class) is int and T.group.order * euler_class != chi:
            raise VerificationFailure("euler_class is not the limit's")
        _check_witness(witness, "replacement", limit, euler_class)
    else:
        # a negative verdict must be the limit's, non-free on its obstruction
        verdict = decide_perfect(limit)
        if verdict.perfect:
            raise VerificationFailure("the recomputed limit is perfect")
        _check_nonfree(witness, verdict.top_obstruction)


# ----------------------------------------------------------------------
# Smith normal form / completion


def _snf_witness_to_json(s: SNFResult) -> dict:
    """The Smith data as the witness of an snf or completion certificate."""
    return {"diag": list(s.diag), "U": [list(r) for r in s.U], "V": [list(r) for r in s.V]}


def snf_certificate(M, result: SNFResult) -> dict:
    cert = _base("snf", serialize.write_int_matrix(M))
    cert["input"] = {"matrix": [list(map(int, r)) for r in M]}
    cert["witness"] = _snf_witness_to_json(result)
    return cert


def _snf_witness(M, cert: dict) -> dict:
    """The witness of an snf or completion certificate for the integer
    matrix M, after checking that U, V and diag are integer matrices of
    the sizes M needs; ParseError otherwise."""
    witness = json_field(cert, "witness")
    rows = len(M)
    cols = len(M[0]) if rows else 0
    json_int_matrix(json_field(witness, "U"), "U", rows, rows)
    json_int_matrix(json_field(witness, "V"), "V", cols, cols)
    json_int_matrix([json_field(witness, "diag")], "diag", 1, min(rows, cols))
    return witness


# The residue check's float64 sums stay below 2^53 (see `_mod`): a limb
# sum has fewer than 2^16 terms, each a 16-bit limb by a weight below 2^21,
# and a product over inner dimension n has terms below 2^(2b) with
# n 2^(2b) <= 2^53.  Each matrix's limbs are widened to float64 once, and
# primes go through the products about _PASS_ENTRIES residues at a time:
# on the 48 x 48 integer_snf certificates half that pass size took 1.2x
# the time, and twice it 1.6x the traced peak.  The determinant's stacks
# of _DET_ENTRIES residues peak under the product check's.  Dense n x n
# determinants of entries up to 9 took as long exactly as on residues
# (dividing prod d) at n = 24, 0.7x at 20 and 1.2x at 26 (in-process,
# one BLAS thread, 2-vCPU x86-64), so below _EXACT_DET_ROWS rows they are
# exact.
_RESIDUE_BITS = 21
_PASS_ENTRIES = 1 << 13
_DET_ENTRIES = 1 << 15
_EXACT_DET_ROWS = 24
_SIEVE_BLOCK = 1 << 15


@functools.cache
def _sieve_block(b: int, i: int) -> list[int]:
    """The primes of the i-th block of _SIEVE_BLOCK numbers down from 2^b,
    none below 2^(b-1), largest first."""
    hi = (1 << b) - i * _SIEVE_BLOCK
    lo = max(hi - _SIEVE_BLOCK, 1 << (b - 1))
    if lo >= hi:
        raise LimitError(f"more primes between 2^{b - 1} and 2^{b} needed than there are")
    small = np.ones(math.isqrt(hi) + 1, dtype=bool)
    small[:2] = False
    for q in range(2, math.isqrt(len(small)) + 1):
        small[q * q::q] = False
    sieve = np.ones(hi - lo, dtype=bool)
    for q in np.flatnonzero(small).tolist():    # all below lo
        sieve[-lo % q::q] = False
    return (lo + np.flatnonzero(sieve)[::-1]).tolist()


def _window_primes(b: int, k: int) -> list[int]:
    """The k largest primes below 2^b, each above 2^(b-1), sieved a block
    at a time on first use."""
    found = []
    for i in count():
        if len(found) >= k:
            return found[:k]
        found += _sieve_block(b, i)


def _residue_primes(n: int, bound: int) -> list[int]:
    """Primes whose product exceeds 2 bound, each below 2^b with b the
    largest at most _RESIDUE_BITS with n 2^(2b) <= 2^53, so that products
    of residues over inner dimension n are exact in float64 (the rule of
    `flinalg.product_dtype`).  Each prime exceeds 2^(b-1), so k of them
    multiply past 2^((b-1) k) >= 2^bits(2 bound + 1).

    One window serves the products of `_is_claimed_diagonal` and the
    elimination of `_det_mod` alike.  There an entry awaiting reduction is
    a residue less fewer than n products of residues, each below p^2 <
    2^(2b): an integer of magnitude below n 2^(2b) <= 2^53, so exact in
    float64 and within `_mod`'s range however long reduction waits."""
    b = min(_RESIDUE_BITS, (53 - n.bit_length()) // 2)
    return _window_primes(b, -(-(2 * bound + 1).bit_length() // (b - 1)))


def _mod(x: np.ndarray, p: np.ndarray) -> np.ndarray:
    """x mod p in place, for float64 x holding integers with
    -2^53 + p <= x < 2^53.

    With x = k p + r, 0 <= r < p, the quotient x / p lies at least 1/p from
    any integer other than k, and rounding moves it by at most 2^-53 |x / p|
    < 1/p, so floor(fl(x / p)) = k; k p lies in (x - p, x], so k p and
    x - k p are integers below 2^53 in magnitude, hence exact.  (np.fmod
    took 11.4 against 0.46 ms on a 33 x 48 x 48 stack, 2-vCPU x86-64.)"""
    q = x / p
    np.floor(q, out=q)
    q *= p
    x -= q
    return x


class _Limbs:
    """The entries of an integer matrix, each at most `top` in magnitude,
    as 16-bit two's-complement limbs, least significant first: an entry is
    sum_j limb_j 2^(16 j) with the top (sign) limb read signed.  `wide`
    holds them widened to float64 once, one row per limb: the top row
    signed, the others unsigned.  A row of entries below 2^63 is read as
    machine words, whose low limbs these are, and any other through
    `int.to_bytes`, about _PASS_ENTRIES limbs at a time."""

    def __init__(self, A):
        tops = [max(map(abs, row), default=0) for row in A]
        self.top = top = max(tops, default=0)
        self.count = count = (top.bit_length() + 16) // 16      # the sign bit included
        if count >= 1 << 16:
            raise LimitError("certificate entry too long to check")
        cols = len(A[0]) if A else 0
        wide = np.empty((count, len(A), cols))

        def put(rows, limbs):       # limbs[j] holds limb j of these rows
            wide[:-1, rows] = limbs[:-1].view("<u2")
            wide[-1, rows] = limbs[-1]

        words = [i for i, x in enumerate(tops) if x < 1 << 63]
        big = [i for i, x in enumerate(tops) if x >= 1 << 63]
        if words:
            w = np.array([A[i] for i in words], dtype="<i8").view("<i2")
            w = w.reshape(len(words), cols, 4).transpose(2, 0, 1)
            if count > 4:       # the sign, extended
                w = np.concatenate([w, np.broadcast_to(w[3:] >> 15,
                                                       (count - 4, *w.shape[1:]))])
            put(words, w[:count])
        step = max(1, _PASS_ENTRIES // (count * cols or 1))
        for b in range(0, len(big), step):
            rows = big[b:b + step]
            put(rows, np.frombuffer(b"".join(
                x.to_bytes(2 * count, "little", signed=True) for i in rows for x in A[i]),
                dtype="<i2").reshape(len(rows), cols, count).transpose(2, 0, 1))
        self.wide = wide.reshape(count, -1)

    def residues(self, weights: np.ndarray, p: np.ndarray) -> np.ndarray:
        """The entries modulo each prime of p, one row per prime, from
        weights[:, j] = 2^(16 j) mod p."""
        return _mod(weights[:, :self.count] @ self.wide, p)


def _residue_passes(limbs: list, n: int, bound: int, entries: int):
    """Yield (p, residues) over the primes of `_residue_primes(n, bound)`,
    max(1, entries // (n n)) primes a pass: p holds the pass's primes as a
    float64 column, and residues[i] the entries of limbs[i] modulo each of
    them, one row per prime."""
    primes = np.array(_residue_primes(n, bound), dtype=np.float64)
    weights = np.ones((len(primes), max(x.count for x in limbs)))
    for j in range(1, weights.shape[1]):    # 2^16 times a residue is below 2^37
        weights[:, j] = _mod(weights[:, j - 1] * 65536, primes)
    step = max(1, entries // (n * n))
    for s in range(0, len(primes), step):
        p, w = primes[s:s + step, None], weights[s:s + step]
        yield p, [x.residues(w, p) for x in limbs]


def _det_mod(B: np.ndarray, p: np.ndarray) -> list[int]:
    """det B[i] modulo p[i, 0] for each i, in [0, p), for a stack B of
    float64 square matrices with entries in [0, p); B is overwritten.

    Gaussian elimination in Crout's order: step k forms column k from the
    diagonal down and row k right of it, each entry less the k products of
    residues the earlier steps owe it, and only then reduces them (exact:
    see `_residue_primes`); no other block is written.  The pivot is the
    first entry of its column nonzero modulo that prime, its row swapped
    up; a column with none makes the determinant 0 modulo that prime.
    """
    g, n, _ = B.shape
    moduli = p[:, 0].astype(np.int64).tolist()
    det = [1] * g
    for k in range(n):
        B[:, k:, k:k + 1] -= B[:, k:, :k] @ B[:, :k, k:k + 1]
        column = _mod(B[:, k:, k], p)
        if not column[:, 0].all():
            r = k + np.argmax(column != 0, axis=1)
            for i in np.flatnonzero(r != k).tolist():
                B[i, [k, r[i]]] = B[i, [r[i], k]]
                det[i] = -det[i]
        pivots = B[:, k, k].astype(np.int64).tolist()
        det = [d * x % m for d, x, m in zip(det, pivots, moduli)]
        inverse = [pow(x, -1, m) if x else 0 for x, m in zip(pivots, moduli)]
        B[:, k:k + 1, k + 1:] -= B[:, k:k + 1, :k] @ B[:, :k, k + 1:]
        _mod(B[:, k, k + 1:], p)
        B[:, k + 1:, k] *= np.array(inverse, dtype=np.float64)[:, None]
        _mod(B[:, k + 1:, k], p)
    return det


def _int_det(A) -> int:
    """det A over Z for a square integer matrix A, by fraction-free
    elimination (Bareiss, Math. Comp. 22, 1968): after step k every entry
    left is a (k+1) x (k+1) minor of A, so each division by the previous
    pivot is exact.  Each step drops the pivot row and column; the pivot is
    the first nonzero entry of its column, its row swapped up."""
    rows = [list(row) for row in A]
    sign, prev = 1, 1
    while len(rows) > 1:
        i = next((i for i, row in enumerate(rows) if row[0]), None)
        if i is None:
            return 0
        if i:
            rows[0], rows[i] = rows[i], rows[0]
            sign = -sign
        top = rows[0]
        pivot, tail = top[0], top[1:]
        rows = [[(pivot * x - row[0] * y) // prev for x, y in zip(row[1:], tail)]
                for row in rows[1:]]
        prev = pivot
    return sign * rows[0][0] if rows else 1


def _abs_det_is(A, t: int, top: int | None = None) -> bool:
    """Whether |det A| = |t| for a square integer matrix A.

    Below _EXACT_DET_ROWS rows `_int_det` decides it exactly: there its
    Python integers cost less than the residue path's numpy calls, of
    which each elimination step makes about 15 whatever the size.

    From there it is decided modulo primes, given that |det A| <= top
    unless |det A| = |t|.  By default top is Hadamard's bound
    isqrt(prod_i sum_j a_ij^2), which holds for any A and t;
    `_check_snf_witness` passes a smaller one where det A divides t.  The
    primes' product P exceeds 2 (top + |t|), so where |det A| != |t|,
    det A - s t is, for either sign s, a nonzero integer within P/2 of 0,
    and some prime sees it; where they are equal, det A = s t modulo every
    prime, with the one s for all of them.  `_det_mod` takes the primes in
    stacks of at most _DET_ENTRIES entries (one n x n block when that is
    larger), each formed by one `_residue_passes` pass, so the working set
    does not grow with the number of primes.
    """
    n = len(A)
    if n < _EXACT_DET_ROWS:
        return abs(_int_det(A)) == abs(t)
    if top is None:
        top = math.isqrt(math.prod(sum(x * x for x in row) for row in A))
    plus = minus = True
    for p, (residues,) in _residue_passes([_Limbs(A)], n, top + 1 + abs(t), _DET_ENTRIES):
        moduli = p[:, 0].astype(np.int64).tolist()
        det = _det_mod(residues.reshape(-1, n, n), p)
        plus = plus and det == [t % m for m in moduli]
        minus = minus and det == [-t % m for m in moduli]
        if not (plus or minus):
            return False
    return True


def _is_claimed_diagonal(M, U, V, diag) -> bool:
    """Whether U M V = diag(d) over Z, decided modulo primes.

    Every entry of U M V is a sum of rows cols products U_ri M_ij V_jc, so
    it and every d_i lie within B = max(rows cols max|U| max|M| max|V|,
    max|d|).  The primes' product P exceeds 2B, so two such values that
    agree modulo P (by the CRT, modulo each prime) are equal.  Modulo each
    prime p, each matrix is reduced by float64 products of its limbs with
    the weights 2^(16 j) mod p, and U M V by two stacked float64 products
    over the primes; every sum is an integer below 2^53, so exact, and
    reduced by `_mod`."""
    rows = len(M)
    cols = len(M[0]) if rows else 0
    if not (rows and cols):
        return True                             # U M V is empty
    limbs = [_Limbs(A) for A in (U, M, V, [diag])]
    LU, LM, LV, Ld = limbs
    bound = max(rows * cols * LU.top * LM.top * LV.top, Ld.top)
    k = len(diag)
    for p, (u, m, v, d) in _residue_passes(limbs, max(rows, cols), bound, _PASS_ENTRIES):
        P = p[:, :, None]
        D = _mod(u.reshape(-1, rows, rows) @ m.reshape(-1, rows, cols), P)
        D = _mod(D @ v.reshape(-1, cols, cols), P)
        D[:, range(k), range(k)] -= d               # both in [0, p)
        if D.any():
            return False
    return True


def _check_snf_witness(M, witness: dict) -> None:
    """U M V is the claimed diagonal, U and V are unimodular, and the
    factors are nonnegative, each dividing the next.

    U M V = diag(d) is decided modulo word-size primes whose product
    exceeds twice a bound on every entry, by float64 products whose every
    sum is an integer below 2^53 (`_is_claimed_diagonal`), so no product
    of large integers is formed.  Once it holds, det U det M det V = t =
    prod d over Z, so for a square M and t != 0 det M divides t: |det M|
    is |t| or at most |t|/2.  Primes whose product exceeds 3 |t| then
    decide |det M| = |t| (`_abs_det_is` with top |t|/2), in place of
    primes past twice Hadamard's bound on det M and |t|, and where it
    holds det U det V = +-1, so both are units: one determinant of M, whose
    entries are small, stands in for those of U and V, whose entries can
    be far larger.  A non-square or singular M, or a product that does not
    check, falls back to |det U| = |det V| = 1, where only Hadamard's
    bound limits det U and det V.  Below _EXACT_DET_ROWS rows any of these
    determinants is exact.  Every quantity is recomputed from the
    certificate, so the checker stays independent of the solver that wrote
    it.
    """
    U, V, diag = witness["U"], witness["V"], witness["diag"]
    rows = len(M)
    cols = len(M[0]) if rows else 0
    diagonal = _is_claimed_diagonal(M, U, V, diag)
    prod = math.prod(diag)
    if not (diagonal and rows == cols and prod and _abs_det_is(M, prod, abs(prod) // 2)):
        if not (_abs_det_is(U, 1) and _abs_det_is(V, 1)):
            raise VerificationFailure("transformation matrices are not unimodular")
    if not diagonal:
        raise VerificationFailure("U M V is not the claimed diagonal")
    if any(d < 0 for d in diag):
        raise VerificationFailure("an invariant factor is negative")
    for a, b in zip(diag, diag[1:]):
        if a == 0 and b != 0:
            raise VerificationFailure("zero factor precedes a nonzero factor")
        if a and b % a:
            raise VerificationFailure("invariant factors fail divisibility")


def check_snf(cert: dict) -> None:
    M = json_int_matrix(json_field(json_field(cert, "input"), "matrix"), "input matrix")
    if json_field(cert, "digest") != serialize.digest_text(serialize.write_int_matrix(M)):
        raise VerificationFailure("input digest mismatch")
    _check_snf_witness(M, _snf_witness(M, cert))


def completion_certificate(A: FGAbelian, l: int, result) -> dict:
    cert = _base("completion", serialize.write_int_matrix(A.relations))
    cert["input"] = {"generators": A.n, "relations": [list(r) for r in A.relations],
                     "prime": l}
    cert["witness"] = _snf_witness_to_json(A.snf())
    cert["verdict"] = {"rank": result.rank, "torsion": list(result.torsion)}
    return cert


def check_completion(cert: dict) -> None:
    inp, verdict = json_field(cert, "input"), json_field(cert, "verdict")
    n, l = json_field(inp, "generators"), json_field(inp, "prime")
    rel = json_int_matrix(json_field(inp, "relations"), "relations")
    json_int_matrix([json_field(verdict, "torsion")], "torsion", 1)
    if any(type(x) is not int for x in (n, l, json_field(verdict, "rank"))) or n < 0 or l < 2:
        raise ParseError("completion needs integer generators >= 0, prime >= 2 and rank")
    check_prime(l)
    if len(rel) != n:
        raise VerificationFailure("relations do not match generator count")
    if json_field(cert, "digest") != serialize.digest_text(serialize.write_int_matrix(rel)):
        raise VerificationFailure("input digest mismatch")
    _check_snf_witness(rel, _snf_witness(rel, cert))
    diag = cert["witness"]["diag"]
    rank = n - sum(1 for d in diag if d)
    torsion = sorted((p for p in (_l_part(d, l) for d in diag) if p > 1), reverse=True)
    if rank != cert["verdict"]["rank"] or torsion != list(cert["verdict"]["torsion"]):
        raise VerificationFailure("completion does not match the Smith data")


# ----------------------------------------------------------------------


_CHECKERS = {
    "perfectness": check_perfectness,
    "quasi-iso": check_quasi_iso,
    "limit": check_limit,
    "snf": check_snf,
    "completion": check_completion,
}


def verify(cert: dict) -> None:
    """Raise VerificationFailure (or ParseError) unless the certificate
    is internally valid."""
    kind = cert.get("kind")
    if not isinstance(kind, str) or kind not in _CHECKERS:
        raise ParseError(f"unknown certificate kind {kind!r}")
    if not isinstance(json_field(cert, "input"), dict):
        raise ParseError("certificate input is not an object")
    if kind == "perfectness" and "tower" in cert["input"]:
        check_tower_perfectness(cert)
    else:
        _CHECKERS[kind](cert)
