"""Machine-checkable certificates for CLI verdicts.

Every certificate embeds the canonical form of its input (plus a sha256
digest of the canonical text) and enough witness data to re-validate the
verdict without re-running any search: quasi-isomorphism witnesses are
re-checked by cone acyclicity, non-freeness by an explicit kernel vector
of the minimal cover, Smith forms by multiplying out the transformations.
"""

from __future__ import annotations

import json

from . import flinalg, serialize
from .abelian import FGAbelian, SNFResult, mat_mul
from .chains import ChainComplex, is_quasi_iso, module_mapping_cone
from .errors import LimitError, ParseError
from .finiteness import PerfectnessVerdict, decide_perfect
from .modules import PiModuleMap, free_cover, minimal_generators, regular_module
from .towers import Tower, limit_complex

FORMAT = "perfchain-cert-v1"


def dumps(cert: dict) -> str:
    return json.dumps(cert, sort_keys=True, separators=(",", ":")) + "\n"


def loads(text: str) -> dict:
    try:
        cert = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"bad certificate JSON: {e}")
    except ValueError as e:     # an integer past Python's digit limit
        raise LimitError(f"certificate integer too long: {e}") from None
    if not isinstance(cert, dict) or cert.get("format") != FORMAT:
        raise ParseError("not a perfchain certificate")
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
    cert = _base("perfectness", serialize.write_complex(C))
    cert["input"] = serialize.complex_to_json(C)
    cert["verdict"] = {"perfect": verdict.perfect}
    if verdict.perfect:
        cert["verdict"]["euler_class"] = verdict.euler_class
        cert["witness"] = {
            "replacement": serialize.complex_to_json(verdict.replacement),
            "map": serialize.chain_map_to_json(verdict.witness),
        }
    else:
        cert["witness"] = _nonfree_witness(verdict)
    return cert


def _nonfree_witness(verdict: PerfectnessVerdict) -> dict:
    P = verdict.top_obstruction
    cover = free_cover(P)
    kernel = flinalg.kernel_basis(cover.matrix, P.group.prime_l)
    if kernel.shape[1] == 0:
        raise AssertionError("non-perfect verdict with free obstruction")
    return {
        "obstruction": serialize.module_to_json(P),
        "cover": cover.matrix.tolist(),
        "kernel_vector": kernel[:, 0].tolist(),
    }


def _check_nonfree(witness: dict, G) -> None:
    P = serialize.module_from_json(witness["obstruction"], G)
    l = G.prime_l
    k = minimal_generators(P)
    cover_mat = flinalg.asfield(witness["cover"], l)
    if cover_mat.shape != (P.dim, k * G.order):
        raise VerificationFailure("cover matrix has wrong shape for a minimal cover")
    cover = PiModuleMap(regular_module(G, k), P, cover_mat)  # validates equivariance
    if flinalg.rank(cover.matrix, l) != P.dim:
        raise VerificationFailure("recorded cover is not surjective")
    v = flinalg.asfield(witness["kernel_vector"], l)
    if not v.any():
        raise VerificationFailure("kernel vector is zero")
    if ((cover.matrix @ v) % l).any():
        raise VerificationFailure("kernel vector is not in the kernel")


def check_perfectness(cert: dict) -> None:
    C = serialize.complex_from_json(cert["input"])
    if cert["digest"] != serialize.digest_text(serialize.write_complex(C)):
        raise VerificationFailure("input digest mismatch")
    if not cert["verdict"]["perfect"]:
        raise VerificationFailure("a bounded complex of free modules is always perfect")
    _check_positive_witness(cert, C)


def _check_positive_witness(cert: dict, C) -> None:
    from .chains import euler_characteristic
    R = serialize.complex_from_json(cert["witness"]["replacement"])
    if not R.is_minimal():
        raise VerificationFailure("replacement is not minimal")
    f = serialize.chain_map_from_json(cert["witness"]["map"], R, C)
    if not is_quasi_iso(f):
        raise VerificationFailure("witness map is not a quasi-isomorphism")
    if euler_characteristic(R) != cert["verdict"]["euler_class"]:
        raise VerificationFailure("euler_class does not match the replacement")


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
    C = serialize.complex_from_json(cert["input"])
    if cert["digest"] != serialize.digest_text(serialize.write_complex(C)):
        raise VerificationFailure("input digest mismatch")
    R = serialize.complex_from_json(cert["witness"]["minimal"])
    if not R.is_minimal():
        raise VerificationFailure("claimed minimal complex has a unit entry")
    f = serialize.chain_map_from_json(cert["witness"]["map"], R, C)
    if not is_quasi_iso(f):
        raise VerificationFailure("witness map is not a quasi-isomorphism")


# ----------------------------------------------------------------------
# tower limits


def limit_certificate(T: Tower, horizon: int, limit) -> dict:
    cert = _base("limit", serialize.write_tower(T))
    cert["input"] = {"tower": serialize.write_tower(T)}
    cert["horizon"] = horizon
    cert["limit"] = serialize.module_complex_to_json(limit)
    return cert


def _recomputed_limit(T: Tower, horizon, recorded: dict):
    """The limit of T at the horizon, which must match the recorded one."""
    try:
        limit = limit_complex(T, horizon)
    except Exception as e:
        raise VerificationFailure(f"limit could not be recomputed: {e}")
    if serialize.module_complex_to_json(limit) != recorded:
        raise VerificationFailure("recorded limit does not match the stable images")
    return limit


def check_limit(cert: dict) -> None:
    T = serialize.read_tower(cert["input"]["tower"])
    if cert["digest"] != serialize.digest_text(serialize.write_tower(T)):
        raise VerificationFailure("input digest mismatch")
    _recomputed_limit(T, cert["horizon"], cert["limit"])


def tower_perfectness_certificate(T: Tower, horizon: int, limit,
                                  verdict: PerfectnessVerdict) -> dict:
    cert = _base("perfectness", serialize.write_tower(T))
    cert["input"] = {"tower": serialize.write_tower(T), "horizon": horizon}
    cert["limit"] = serialize.module_complex_to_json(limit)
    cert["verdict"] = {"perfect": verdict.perfect}
    if verdict.perfect:
        cert["verdict"]["euler_class"] = verdict.euler_class
        cert["witness"] = {
            "replacement": serialize.complex_to_json(verdict.replacement),
            "map": serialize.module_map_to_json(verdict.witness),
        }
    else:
        cert["witness"] = _nonfree_witness(verdict)
    return cert


def check_tower_perfectness(cert: dict) -> None:
    T = serialize.read_tower(cert["input"]["tower"])
    if cert["digest"] != serialize.digest_text(serialize.write_tower(T)):
        raise VerificationFailure("input digest mismatch")
    limit = _recomputed_limit(T, cert["input"]["horizon"], cert["limit"])
    if cert["verdict"]["perfect"]:
        R = serialize.complex_from_json(cert["witness"]["replacement"])
        if not R.is_minimal():
            raise VerificationFailure("replacement is not minimal")
        f = serialize.module_map_from_json(cert["witness"]["map"], R.expanded(), limit)
        if not module_mapping_cone(f).is_acyclic():
            raise VerificationFailure("witness map is not a quasi-isomorphism")
        from .chains import euler_characteristic
        if euler_characteristic(R) != cert["verdict"]["euler_class"]:
            raise VerificationFailure("euler_class does not match the replacement")
    else:
        # a negative verdict must be the limit's, with the limit's obstruction
        verdict = decide_perfect(limit)
        if verdict.perfect:
            raise VerificationFailure("the recomputed limit is perfect")
        recorded = _field(_field(cert, "witness"), "obstruction")
        if serialize.module_to_json(verdict.top_obstruction) != recorded:
            raise VerificationFailure("recorded obstruction is not the limit's")
        _check_nonfree(cert["witness"], limit.group)


# ----------------------------------------------------------------------
# Smith normal form / completion


def _int_det(M) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    A = [list(map(int, row)) for row in M]
    n = len(A)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if A[k][k] == 0:
            for i in range(k + 1, n):
                if A[i][k]:
                    A[k], A[i] = A[i], A[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                A[i][j] = (A[i][j] * A[k][k] - A[i][k] * A[k][j]) // prev
        prev = A[k][k]
    return sign * A[n - 1][n - 1]


def snf_certificate(M, result: SNFResult) -> dict:
    cert = _base("snf", serialize.write_int_matrix(M))
    cert["input"] = {"matrix": [list(map(int, r)) for r in M]}
    cert["witness"] = {
        "diag": list(result.diag),
        "U": [list(r) for r in result.U],
        "V": [list(r) for r in result.V],
    }
    return cert


def _field(obj, key: str):
    """obj[key] from certificate JSON, else ParseError."""
    if not isinstance(obj, dict) or key not in obj:
        raise ParseError(f"certificate has no {key!r}")
    return obj[key]


def _int_matrix(value, name: str, rows: int | None = None, cols: int | None = None) -> list:
    """value as a list of integer rows of one length (rows x cols when
    given), else ParseError; checked before any arithmetic touches it."""
    if not isinstance(value, list) or not all(isinstance(row, list) for row in value):
        raise ParseError(f"{name} is not a list of rows")
    if rows is not None and len(value) != rows:
        raise ParseError(f"{name} has {len(value)} rows, expected {rows}")
    if cols is None:
        cols = len(value[0]) if value else 0
    for row in value:
        if len(row) != cols or any(type(x) is not int for x in row):
            raise ParseError(f"{name} is not an integer matrix with {cols} columns")
    return value


def _snf_witness(M, cert: dict) -> dict:
    """The witness of an snf or completion certificate for the integer
    matrix M, after checking that U, V and diag are integer matrices of
    the sizes M needs; ParseError otherwise."""
    witness = _field(cert, "witness")
    rows = len(M)
    cols = len(M[0]) if rows else 0
    _int_matrix(_field(witness, "U"), "U", rows, rows)
    _int_matrix(_field(witness, "V"), "V", cols, cols)
    _int_matrix([_field(witness, "diag")], "diag", 1, min(rows, cols))
    return witness


def _check_snf_witness(M, witness: dict) -> None:
    U, V, diag = witness["U"], witness["V"], witness["diag"]
    rows = len(M)
    cols = len(M[0]) if rows else 0
    if abs(_int_det(U)) != 1 or abs(_int_det(V)) != 1:
        raise VerificationFailure("transformation matrices are not unimodular")
    D = mat_mul(mat_mul(U, M), V) if rows and cols else [[0] * cols for _ in range(rows)]
    for i in range(rows):
        for j in range(cols):
            expected = diag[i] if i == j and i < len(diag) else 0
            if D[i][j] != expected:
                raise VerificationFailure("U M V is not the claimed diagonal")
    for a, b in zip(diag, diag[1:]):
        if a == 0 and b != 0:
            raise VerificationFailure("zero factor precedes a nonzero factor")
        if a and b % a:
            raise VerificationFailure("invariant factors fail divisibility")


def check_snf(cert: dict) -> None:
    M = _int_matrix(_field(_field(cert, "input"), "matrix"), "input matrix")
    if _field(cert, "digest") != serialize.digest_text(serialize.write_int_matrix(M)):
        raise VerificationFailure("input digest mismatch")
    _check_snf_witness(M, _snf_witness(M, cert))


def completion_certificate(A: FGAbelian, l: int, result) -> dict:
    cert = _base("completion", serialize.write_int_matrix(A.relations))
    snf = A.snf()
    cert["input"] = {"generators": A.n, "relations": [list(r) for r in A.relations],
                     "prime": l}
    cert["witness"] = {
        "diag": list(snf.diag),
        "U": [list(r) for r in snf.U],
        "V": [list(r) for r in snf.V],
    }
    cert["verdict"] = {"rank": result.rank, "torsion": list(result.torsion)}
    return cert


def check_completion(cert: dict) -> None:
    inp, verdict = _field(cert, "input"), _field(cert, "verdict")
    n, l = _field(inp, "generators"), _field(inp, "prime")
    rel = _int_matrix(_field(inp, "relations"), "relations")
    _int_matrix([_field(verdict, "torsion")], "torsion", 1)
    if any(type(x) is not int for x in (n, l, _field(verdict, "rank"))) or n < 0 or l < 2:
        raise ParseError("completion needs integer generators >= 0, prime >= 2 and rank")
    if len(rel) != n:
        raise VerificationFailure("relations do not match generator count")
    if _field(cert, "digest") != serialize.digest_text(serialize.write_int_matrix(rel)):
        raise VerificationFailure("input digest mismatch")
    _check_snf_witness(rel, _snf_witness(rel, cert))
    diag = cert["witness"]["diag"]
    rank = n - sum(1 for d in diag if d)
    torsion = []
    for d in diag:
        p = 1
        d = abs(d)
        while d and d % l == 0:
            d //= l
            p *= l
        if p > 1:
            torsion.append(p)
    torsion.sort(reverse=True)
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
    if kind == "perfectness" and "tower" in cert.get("input", {}):
        check_tower_perfectness(cert)
        return
    checker = _CHECKERS.get(kind)
    if checker is None:
        raise ParseError(f"unknown certificate kind {kind!r}")
    checker(cert)
