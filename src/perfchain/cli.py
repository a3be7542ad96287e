"""Command-line surface.

Exit codes: 0 on success (or a positive predicate verdict), 1 when a
predicate subcommand reaches a mathematically negative verdict, 2 on any
input or usage error.  Output is deterministic: two runs on the same
input produce byte-identical reports.

Group descriptors: ``cyclic:N``, ``product:cyclic:N,cyclic:M[,...]``, or
``table:{order:N;identity:I;mult:r0|r1|...}`` (rows comma-separated).
Abelian group descriptors for ``complete``: ``Z``, ``Z^2``, ``Z/6``,
joined with ``+``.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import contextlib
import re
import sys

from . import abelian, certificates, serialize
from .cellular import chains_of_cover, lens_complex
from .chains import minimalize
from .errors import LimitError, ParseError, PerfchainError, UsageError
from .finiteness import decide_perfect, wall_class
from .modules import minimal_generators
from .towers import limit_complex

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_ERROR = 2


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write_output(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _cert_text(args, cert: dict) -> str | None:
    """The certificate as text, when --json or --cert asks for it."""
    if getattr(args, "json", False) or getattr(args, "cert", None):
        return certificates.dumps(cert)
    return None


def _write_cert(args, text: str | None) -> None:
    if getattr(args, "json", False):
        sys.stdout.write(text)
    cert_path = getattr(args, "cert", None)
    if cert_path:
        with open(cert_path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _emit_cert(args, cert: dict) -> None:
    _write_cert(args, _cert_text(args, cert))


@contextlib.contextmanager
def _printable():
    """Format integer answers inside this block, before printing any of
    them: str() of an integer past Python's digit limit raises ValueError,
    which becomes an E_LIMIT error with nothing printed."""
    try:
        yield
    except ValueError as e:
        raise LimitError(f"answer too long to print: {e}") from None


def _verdict_line(verdict) -> str:
    if verdict.perfect:
        return (f"perfect; euler_class={verdict.euler_class}; "
                f"replacement ranks {verdict.replacement.ranks}")
    return (f"not perfect; obstruction dim={verdict.top_obstruction.dim}; "
            f"minimal generators={minimal_generators(verdict.top_obstruction)}")


def _perfect_one(path: str):
    C = serialize.read_complex(_read(path))
    verdict = decide_perfect(C)
    return C, verdict, _verdict_line(verdict)


def cmd_perfect(args) -> int:
    paths = args.files
    if args.cert and len(paths) > 1:
        raise UsageError("--cert FILE takes one input; each input has its own certificate")
    if args.jobs > 1 and len(paths) > 1:
        with concurrent.futures.ProcessPoolExecutor(
                max_workers=min(args.jobs, len(paths))) as pool:
            results = list(pool.map(_perfect_one, paths))
    else:
        results = [_perfect_one(p) for p in paths]
    status = EXIT_OK
    for path, (C, verdict, line) in zip(paths, results):
        prefix = f"{path}: " if len(paths) > 1 else ""
        print(prefix + line)
        if not verdict.perfect:
            status = EXIT_NEGATIVE
        _emit_cert(args, certificates.perfectness_certificate(C, verdict))
    return status


def cmd_homology(args) -> int:
    C = serialize.read_complex(_read(args.file))
    degrees = [args.degree] if args.degree is not None else list(
        range(C.bottom, C.top + 1)) or [0]
    for q in degrees:
        print(f"H_{q}: dim={C.homology_dim(q)}")
    return EXIT_OK


def cmd_minimalize(args) -> int:
    C = serialize.read_complex(_read(args.file))
    minimal, witness = minimalize(C)
    print(f"minimal ranks {minimal.ranks}; bottom {minimal.bottom}")
    if args.output:
        _write_output(args.output, serialize.write_complex(minimal))
    _emit_cert(args, certificates.quasi_iso_certificate(C, minimal, witness))
    return EXIT_OK


def cmd_wall(args) -> int:
    C = serialize.read_complex(_read(args.file))
    k0, reduced = wall_class(C)
    print(f"k0_class={k0}; reduced_class={reduced}")
    return EXIT_OK


def cmd_tower_limit(args) -> int:
    T = serialize.read_tower(_read(args.file))
    limit = limit_complex(T, args.horizon)
    dims = [m.dim for m in limit.modules]
    print(f"limit dims {dims}; bottom {limit.bottom}")
    for q in range(limit.bottom, limit.bottom + len(limit.modules)):
        print(f"H_{q}: dim={limit.homology_dim(q)}")
    _emit_cert(args, certificates.limit_certificate(T, args.horizon, limit))
    return EXIT_OK


def cmd_tower_perfect(args) -> int:
    T = serialize.read_tower(_read(args.file))
    limit = limit_complex(T, args.horizon)
    verdict = decide_perfect(limit)
    print(_verdict_line(verdict))
    _emit_cert(args, certificates.tower_perfectness_certificate(
        T, args.horizon, limit, verdict))
    return EXIT_OK if verdict.perfect else EXIT_NEGATIVE


_ABELIAN_TERM = re.compile(r"^(Z(\^(\d+))?|Z/(\d+))$")


def parse_abelian_descriptor(text: str) -> abelian.FGAbelian:
    """`Z`, `Z^2`, `Z/6`, combined with `+`."""
    free = 0
    torsion = []
    for term in text.replace(" ", "").split("+"):
        m = _ABELIAN_TERM.match(term)
        if not m:
            raise ParseError(f"bad abelian group term {term!r}")
        if m.group(4):
            torsion.append(int(m.group(4)))
        else:
            free += int(m.group(3)) if m.group(3) else 1
    return abelian.FGAbelian.from_invariants(free, torsion)


def cmd_complete(args) -> int:
    if args.presentation:
        M = serialize.read_int_matrix(_read(args.presentation))
        A = abelian.FGAbelian(len(M), M) if M else abelian.FGAbelian(0)
    elif args.group:
        A = parse_abelian_descriptor(args.group)
    else:
        raise ParseError("complete needs --group or --presentation")
    result = abelian.l_complete(A, args.l)
    with _printable():
        line = str(result)
        text = _cert_text(args, certificates.completion_certificate(A, args.l, result))
    print(line)
    _write_cert(args, text)
    return EXIT_OK


def cmd_snf(args) -> int:
    M = serialize.read_int_matrix(_read(args.file))
    result = abelian.smith_normal_form(M)
    with _printable():
        line = "invariant factors: " + " ".join(str(d) for d in result.diag)
        text = _cert_text(args, certificates.snf_certificate(M, result))
    print(line)
    _write_cert(args, text)
    return EXIT_OK


def cmd_lens(args) -> int:
    X = lens_complex(args.l, args.k, args.n)
    C = chains_of_cover(X)
    _write_output(args.output, serialize.write_complex(C))
    return EXIT_OK


def cmd_verify(args) -> int:
    cert = certificates.loads(_read(args.file))
    try:
        certificates.verify(cert)
    except certificates.VerificationFailure as e:
        print(f"certificate INVALID: {e}")
        return EXIT_NEGATIVE
    print(f"certificate valid (kind={cert['kind']})")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="perfchain",
        description="Perfectness of chain complexes over F_l[pi], tower limits, "
                    "Smith normal form and l-completion.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_cert_flags(p):
        p.add_argument("--json", action="store_true",
                       help="print the machine-readable certificate to stdout")
        p.add_argument("--cert", metavar="FILE", help="write the certificate to FILE")

    p = sub.add_parser("homology", help="homology dimensions of a complex")
    p.add_argument("file")
    p.add_argument("--degree", type=int, default=None)
    p.set_defaults(func=cmd_homology)

    p = sub.add_parser("minimalize", help="cancel unit boundary entries")
    p.add_argument("file")
    p.add_argument("-o", "--output", metavar="FILE",
                   help="write the minimal complex to FILE")
    add_cert_flags(p)
    p.set_defaults(func=cmd_minimalize)

    p = sub.add_parser("perfect", help="decide perfectness (exit 1 when negative)")
    p.add_argument("files", nargs="+")
    p.add_argument("--jobs", type=int, default=1,
                   help="evaluate batch inputs concurrently; output stays ordered")
    add_cert_flags(p)
    p.set_defaults(func=cmd_perfect)

    p = sub.add_parser("wall", help="K_0 class and reduced class of a perfect complex")
    p.add_argument("file")
    p.set_defaults(func=cmd_wall)

    p = sub.add_parser("tower-limit", help="stable-image limit of a tower")
    p.add_argument("file")
    p.add_argument("--horizon", type=int, required=True)
    add_cert_flags(p)
    p.set_defaults(func=cmd_tower_limit)

    p = sub.add_parser("tower-perfect", help="perfectness of a tower limit")
    p.add_argument("file")
    p.add_argument("--horizon", type=int, required=True)
    add_cert_flags(p)
    p.set_defaults(func=cmd_tower_perfect)

    p = sub.add_parser("complete", help="l-completion of a f.g. abelian group")
    p.add_argument("--group", help="descriptor such as Z^2+Z/12")
    p.add_argument("--presentation", metavar="FILE",
                   help="integer presentation matrix (relations as columns)")
    p.add_argument("--l", type=int, required=True)
    add_cert_flags(p)
    p.set_defaults(func=cmd_complete)

    p = sub.add_parser("snf", help="Smith normal form of an integer matrix")
    p.add_argument("file")
    add_cert_flags(p)
    p.set_defaults(func=cmd_snf)

    p = sub.add_parser("lens", help="write a lens fixture complex")
    p.add_argument("l", type=int)
    p.add_argument("k", type=int)
    p.add_argument("n", type=int)
    p.add_argument("-o", "--output", metavar="FILE", default=None)
    p.set_defaults(func=cmd_lens)

    p = sub.add_parser("verify", help="re-check an emitted certificate")
    p.add_argument("file")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PerfchainError as e:
        print(f"error[{e.code}]: {e}", file=sys.stderr)
        return EXIT_ERROR
    except FileNotFoundError as e:
        print(f"error[E_IO]: {e}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
