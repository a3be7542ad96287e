"""CLI subcommands: outputs, exit codes, certificates, determinism."""

import concurrent.futures
import contextlib
import copy
import dataclasses
import hashlib
import io
import json
import os
import random
import resource
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import perfchain
from perfchain import cli
from perfchain.cli import main
from perfchain import (
    ChainComplex,
    ChainMap,
    GroupRingMatrix,
    GroupTable,
    PiModule,
    Tower,
    build_group,
    chains_of_cover,
    lens_complex,
)
from perfchain import certificates, chains
from perfchain.serialize import digest_text, write_complex, write_tower
from perfchain.towers import decided_limit, free_limit

from conftest import (
    SMALL_GROUPS,
    cert_as_v1,
    cert_as_v2,
    cert_as_v3,
    cert_as_v4,
    conjugate_complex,
    heisenberg_27,
    identity_chain_map,
    norm_matrix,
    norm_pair_tower,
    pad_with_identity_cones,
    random_minimal_complex,
    random_stabilizing_tower,
)


@pytest.fixture
def lens_path(tmp_path):
    path = tmp_path / "lens.cplx"
    path.write_text(write_complex(chains_of_cover(lens_complex(2, 1, 2))))
    return str(path)


@pytest.fixture
def norm_tower_path(tmp_path):
    G = SMALL_GROUPS["C2"]
    L = ChainComplex(G, 0, [1], [])
    N = norm_matrix(G)
    T = Tower([L] * 4, [ChainMap(L, L, {0: N})] + [identity_chain_map(L)] * 2)
    path = tmp_path / "norm.twr"
    path.write_text(write_tower(T))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_perfect_subcommand(capsys, lens_path):
    code, out, err = run(capsys, "perfect", lens_path)
    assert code == 0
    assert out == "perfect; euler_class=1; replacement ranks [1, 1, 1]\n"


def test_homology_subcommand(capsys, lens_path):
    code, out, _ = run(capsys, "homology", lens_path)
    assert code == 0
    assert out == "H_0: dim=1\nH_1: dim=0\nH_2: dim=1\n"
    code, out, _ = run(capsys, "homology", lens_path, "--degree", "2")
    assert out == "H_2: dim=1\n"


def test_minimalize_subcommand(capsys, lens_path, tmp_path):
    out_path = tmp_path / "min.cplx"
    code, out, _ = run(capsys, "minimalize", lens_path, "-o", str(out_path))
    assert code == 0
    assert out.startswith("minimal ranks [1, 1, 1]")
    assert out_path.read_text() == write_complex(
        chains_of_cover(lens_complex(2, 1, 2)))


def test_minimalize_json_bytes_pinned(capsys, tmp_path):
    """The minimal complex and witness of a scrambled Heis27 complex with
    four cancellations, pinned byte for byte through the certificate, in
    the current format and rendered as v4, v3, v2 and v1 certificates."""
    rng = random.Random(0)
    G = heisenberg_27()
    core = random_minimal_complex(G, rng)
    C = conjugate_complex(pad_with_identity_cones(core, rng, 3), rng)
    path = tmp_path / "heis27.cplx"
    path.write_text(write_complex(C))
    code, out, _ = run(capsys, "minimalize", str(path), "--json")
    assert code == 0
    assert (C.ranks, core.ranks) == ([2, 4, 4, 4, 2], [1, 2, 3, 2])
    line, cert = out.split("\n", 1)
    assert line == "minimal ranks [1, 2, 3, 2]; bottom 1"
    v4 = cert_as_v4(json.loads(cert))
    v3 = cert_as_v3(json.loads(v4))
    v2 = cert_as_v2(json.loads(v3), G)
    v1 = line + "\n" + cert_as_v1(json.loads(v2), G)
    assert hashlib.sha256(v1.encode()).hexdigest() == (
        "59247a7697fbe8d7166fcaaf04b61e8856fc94711666e690544ef04e1a7d1467")
    assert hashlib.sha256((line + "\n" + v2).encode()).hexdigest() == (
        "d616eba9dd2abe72e7f032e0f3ab8b7f647fc82f77fb982ca4d5957289eb51b3")
    assert hashlib.sha256((line + "\n" + v3).encode()).hexdigest() == (
        "e5b6e2c828c05881019f8efc611178e9a0e93575d78082aec9903f7859044740")
    assert hashlib.sha256((line + "\n" + v4).encode()).hexdigest() == (
        "29798913ff37052b0f046c7bf3bb79a2400a727f7c2c8c73c849bf56f7d373e4")
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "63a747eba0729e590108638c9db2d0219ea49784a7aaa429ee74aa016b3a0e97")


def test_homology_of_a_free_complex_pinned_and_module_free(capsys, tmp_path, monkeypatch):
    """`homology` on a scrambled Heis27 complex prints the bytes pinned
    from the expanded module complex, and builds no PiModule."""
    rng = random.Random(5)
    G = heisenberg_27()
    C = conjugate_complex(pad_with_identity_cones(random_minimal_complex(G, rng), rng, 3),
                          rng)
    path = tmp_path / "heis27.cplx"
    path.write_text(write_complex(C))

    def refuse(*args, **kwargs):
        raise AssertionError("a PiModule was built")

    monkeypatch.setattr(PiModule, "__init__", refuse)
    code, out, _ = run(capsys, "homology", str(path))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "511359be52d605bbb6f5fab7fbdef62b8f83bf53a92c95892205c06918f37c7e")


def test_free_verify_builds_no_expansion(capsys, tmp_path, lens_path, monkeypatch):
    """`perfect --cert`, `minimalize --cert` and `verify` of free complexes
    run on group-ring data alone: with GroupRingMatrix.expand refused they
    print the same bytes, and forged certificates still fail."""
    rng = random.Random(7)
    G = heisenberg_27()
    x = np.zeros(G.order, dtype=np.int64)
    x[G.generators[0]], x[G.identity] = 1, 2                       # g - 1
    core = ChainComplex(G, 1, [1, 2], [GroupRingMatrix(G, [[x, 2 * x]])])
    heis27 = tmp_path / "heis27.cplx"
    heis27.write_text(write_complex(conjugate_complex(pad_with_identity_cones(core, rng, 3), rng)))
    heis27_path = str(heis27)
    jobs = [[(command, src, "--cert", f"{src}.{command}.cert"),
             ("verify", f"{src}.{command}.cert")]
            for src in (heis27_path, lens_path) for command in ("perfect", "minimalize")]
    expected = [[run(capsys, *argv) for argv in job] for job in jobs]

    def refuse(self):
        raise AssertionError("a group-ring matrix was expanded")

    monkeypatch.setattr(GroupRingMatrix, "expand", refuse)
    assert [[run(capsys, *argv) for argv in job] for job in jobs] == expected
    assert all(code == 0 for job in expected for code, _, _ in job)

    forged = []
    for src in (heis27_path, lens_path):
        with open(f"{src}.perfect.cert") as fh:
            cert = json.load(fh)
        cert["witness"]["map"] = {}
        forged.append((cert, "not a quasi-isomorphism"))
    # the Heis27 replacement has one boundary, so d o d stays zero
    with open(f"{heis27_path}.perfect.cert") as fh:
        cert = json.load(fh)
    boundaries = cert["witness"]["replacement"]["boundaries"]
    c = int(boundaries[0][0])           # coefficient 0 of entry [0, 0], one digit at l = 3
    boundaries[0] = str((c + 1) % 3) + boundaries[0][1:]     # augmentation 1: a unit
    forged.append((cert, "unit entry"))
    for cert, reason in forged:
        path = tmp_path / "forged.cert"
        path.write_text(json.dumps(cert))
        code, out, _ = run(capsys, "verify", str(path))
        assert code == 1 and reason in out, reason


def test_negative_zero_degree_key_is_a_parse_error(capsys, lens_path, tmp_path):
    """A witness map keyed by both "0" and "-0" names degree 0 twice, and
    one of the two would be dropped unread (here the forged "0", with the
    genuine component under "-0"): "-0" is not a degree key."""
    cert_path = tmp_path / "lens.cert"
    assert run(capsys, "perfect", lens_path, "--cert", str(cert_path))[0] == 0
    cert = json.loads(cert_path.read_text())
    genuine = cert["witness"]["map"]["0"]
    cert["witness"]["map"]["0"] = "11"
    cert["witness"]["map"]["-0"] = genuine
    cert_path.write_text(json.dumps(cert))
    code, out, err = run(capsys, "verify", str(cert_path))
    assert (code, out) == (2, "")
    assert err.startswith("error[E_PARSE]") and "'-0'" in err


def test_witness_breaking_a_square_is_rejected_before_any_cone(capsys, lens_path,
                                                               tmp_path, monkeypatch):
    """A witness map that fails one chain-map square is refused by the
    ChainMap check (exit 2, E_DIM_MISMATCH), so the cone is never built."""
    cert_path = tmp_path / "lens.cert"
    assert run(capsys, "perfect", lens_path, "--cert", str(cert_path))[0] == 0
    cert = json.loads(cert_path.read_text())
    cert["witness"]["map"]["1"] = "00"     # d f_1 = 0, f_0 d = 1 + t
    cert_path.write_text(json.dumps(cert))

    def refuse(f):
        raise AssertionError("a cone was built")

    monkeypatch.setattr(chains, "mapping_cone", refuse)
    code, out, err = run(capsys, "verify", str(cert_path))
    assert (code, out) == (2, "")
    assert "E_DIM_MISMATCH" in err and "commute" in err


def test_tower_certificate_bytes_pinned(capsys, tmp_path):
    """Tower certificates over C4^3, pinned byte for byte: the free limit's
    witness as group-ring data, and the norm tower's cover by its generator
    columns with no obstruction; and through the v4 format (arrays as
    nested lists), the v3 format (module-route witness by generator
    columns, the obstruction by its generator matrices), the v2 format
    (limit recorded, maps by every column) and the per-element actions of
    the v1 format."""
    G = build_group("product:cyclic:4,cyclic:4,cyclic:4", 2)
    stable, core = random_stabilizing_tower(G, random.Random(1), n_levels=3)
    L = ChainComplex(G, 0, [1], [])
    N = norm_matrix(G)
    norm = Tower([L] * 3, [ChainMap(L, L, {0: N}), identity_chain_map(L)])
    expected = {
        "stable": (0, "495785b6c6d2960b537248613e1ea81e8fd1178bd288d0b7b0f61782eab6b296",
                   "3aa4f828ea2cea0ecc68c0eabe86f6bdcc8c384a79dadf97f567ff147d1c3c3f",
                   "2142021419baf93883161923419da41b0e013680178a573834467811a6edf7c6",
                   "bc0409637f015ff4f87a5701c8ab576922e84dae471446bb583cca920d750254",
                   "5b0197385c947f21d0e0f665f0a043077692ef9555bcf158b9ac3bf75fca6a58"),
        "norm": (1, "3074a237b92d45b4488581d477e81e2248134e7c17cfb44a08a42bb56c8ef897",
                 "871cbe46400ac6442fabc33507bd116d5b4429bf2c2b92cac2ebbc73a51690d5",
                 "c5b9d80d67bf729884ea38a711fde05e50682090e34c2e3d145c30dd1ca28b7f",
                 "405aed8227cbbddd01541e57aae5174c9cc7120c02ae9e765cc33951f4bc7123",
                 "1ac8fd8fa94791c84a3aaca6431cf8f1167533f5e6a361b2e8731e46ac5af4d4"),
    }
    assert (stable.levels[0].ranks, core.ranks) == ([2, 3], [1])
    for name, T in (("stable", stable), ("norm", norm)):
        path = tmp_path / f"{name}.twr"
        path.write_text(write_tower(T))
        cert_path = tmp_path / f"{name}.json"
        code, _, _ = run(capsys, "tower-perfect", str(path), "--horizon", "2",
                         "--cert", str(cert_path))
        text = cert_path.read_text()
        v4 = cert_as_v4(json.loads(text))
        v3 = cert_as_v3(json.loads(v4))
        v2 = cert_as_v2(json.loads(v3), G)
        v1 = cert_as_v1(json.loads(v2), G)
        digests = [hashlib.sha256(t.encode()).hexdigest() for t in (v1, v2, v3, v4, text)]
        assert (code, *digests) == expected[name], name


def test_tower_limit_certificate_bytes_pinned_at_an_odd_prime(capsys, tmp_path):
    """Over the Heisenberg group of order 27, l = 3, a tower whose bonds
    fold junk into a core of ranks [2, 1] has a limit with a nonzero
    differential with entries 2; its `tower-limit` output and certificate,
    which records the limit, are pinned byte for byte, the certificate also
    as rendered in the v4 format (arrays as nested lists) and in the v3
    format, which differs from v4 only in the format name."""
    G = heisenberg_27()
    T, core = random_stabilizing_tower(G, random.Random(12), n_levels=3)
    assert (T.levels[0].ranks, core.ranks) == ([4, 3], [2, 1])
    path, cert_path = tmp_path / "heis.twr", tmp_path / "heis.json"
    path.write_text(write_tower(T))
    code, out, _ = run(capsys, "tower-limit", str(path), "--horizon", "2",
                       "--cert", str(cert_path))
    text = cert_path.read_text()
    v4 = cert_as_v4(json.loads(text))
    v3 = cert_as_v3(json.loads(v4))
    assert v4 == v3.replace('"perfchain-cert-v3"', '"perfchain-cert-v4"')
    digests = [hashlib.sha256(t.encode()).hexdigest() for t in (out, v3, v4, text)]
    assert (code, *digests) == (
        0, "17ef636630a23c829c8d6a445d7c373ae14ef587f9594b470429439d5ab8f63b",
        "9e1892ee3764d63491fada08a96eda214d8f5b83372b9fbb0ac9bb43bc58dc57",
        "5eea4f29dacef840f1c7da39a6d3251ba03d5b3dc58eaff6263174eb25915fe4",
        "fb8ccc2de939c20a6f4b734b7bcc467f57da8c6f6cdb2823aae838deaf605239")


def test_wall_subcommand(capsys, lens_path):
    code, out, _ = run(capsys, "wall", lens_path)
    assert code == 0 and out == "k0_class=1; reduced_class=0\n"


def test_snf_subcommand(capsys, tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("2 4\n6 8\n")
    code, out, _ = run(capsys, "snf", str(path))
    assert code == 0 and out == "invariant factors: 2 4\n"


def test_complete_subcommand(capsys):
    code, out, _ = run(capsys, "complete", "--group", "Z/6", "--l", "3")
    assert code == 0 and out == "Z/3\n"
    code, out, _ = run(capsys, "complete", "--group", "Z^2+Z/12", "--l", "2")
    assert code == 0 and out == "Z_2^2 + Z/4\n"


def test_complete_from_presentation(capsys, tmp_path):
    path = tmp_path / "p.txt"
    path.write_text("2 0\n0 6\n")  # Z/2 + Z/6
    code, out, _ = run(capsys, "complete", "--presentation", str(path), "--l", "2")
    assert code == 0 and out == "Z/2 + Z/2\n"


def test_lens_subcommand(capsys, tmp_path):
    out_path = tmp_path / "lens.cplx"
    code, _, _ = run(capsys, "lens", "3", "1", "2", "-o", str(out_path))
    assert code == 0
    assert out_path.read_text() == write_complex(chains_of_cover(lens_complex(3, 1, 2)))


def test_tower_subcommands(capsys, norm_tower_path):
    code, out, _ = run(capsys, "tower-limit", norm_tower_path, "--horizon", "2")
    assert code == 0
    assert out.splitlines()[0] == "limit dims [1]; bottom 0"
    code, out, _ = run(capsys, "tower-perfect", norm_tower_path, "--horizon", "2")
    assert code == 1  # mathematically negative verdict
    assert out.startswith("not perfect; obstruction dim=1")


def test_tower_with_a_zero_rank_degree(capsys, tmp_path):
    """Levels over C2 of ranks [1, 0, 1] with identity bonds: the stable
    image at degree 1 has the 0 x 0 canonical basis, and the limit, the
    decision and its certificate read through it."""
    G = SMALL_GROUPS["C2"]
    C = ChainComplex(G, 0, [1, 0, 1],
                     [GroupRingMatrix.zeros(G, 1, 0), GroupRingMatrix.zeros(G, 0, 1)])
    T = Tower([C] * 3, [identity_chain_map(C)] * 2)
    path, cert_path = tmp_path / "gap.twr", tmp_path / "gap.json"
    path.write_text(write_tower(T))
    code, out, _ = run(capsys, "tower-limit", str(path), "--horizon", "2")
    assert code == 0 and out.splitlines()[0] == "limit dims [2, 0, 2]; bottom 0"
    code, out, _ = run(capsys, "tower-perfect", str(path), "--horizon", "2",
                       "--cert", str(cert_path))
    assert (code, out) == (0, "perfect; euler_class=2; replacement ranks [1, 0, 1]\n")
    code, out, _ = run(capsys, "verify", str(cert_path))
    assert (code, out) == (0, "certificate valid (kind=perfectness)\n")


def test_exit_code_2_on_bad_input(capsys, tmp_path):
    path = tmp_path / "bad.cplx"
    path.write_text("group cyclic:6\nprime 2\nbottom 0\nranks 1\n")
    code, _, err = run(capsys, "perfect", str(path))
    assert code == 2
    assert "error[E_NOT_L_GROUP]" in err
    code, _, err = run(capsys, "homology", str(tmp_path / "missing.cplx"))
    assert code == 2


def test_certificates_verify(capsys, lens_path, norm_tower_path, tmp_path):
    cert_path = tmp_path / "c.json"
    snf_path = tmp_path / "m.txt"
    snf_path.write_text("2 4\n6 8\n")
    for argv in (
        ["perfect", lens_path, "--cert", str(cert_path)],
        ["minimalize", lens_path, "--cert", str(cert_path)],
        ["tower-limit", norm_tower_path, "--horizon", "2", "--cert", str(cert_path)],
        ["tower-perfect", norm_tower_path, "--horizon", "2", "--cert", str(cert_path)],
        ["snf", str(snf_path), "--cert", str(cert_path)],
        ["complete", "--group", "Z/6", "--l", "3", "--cert", str(cert_path)],
    ):
        code = main(argv)
        assert code in (0, 1)
        capsys.readouterr()
        code, out, _ = run(capsys, "verify", str(cert_path))
        assert code == 0, out
        assert out.startswith("certificate valid")


def test_tampered_certificate_rejected(capsys, lens_path, tmp_path):
    cert_path = tmp_path / "c.json"
    main(["perfect", lens_path, "--cert", str(cert_path)])
    capsys.readouterr()
    cert = json.loads(cert_path.read_text())
    cert["verdict"]["euler_class"] = 7
    cert_path.write_text(json.dumps(cert))
    code, out, _ = run(capsys, "verify", str(cert_path))
    assert code == 1
    assert "INVALID" in out


def test_deterministic_output(capsys, lens_path):
    a = run(capsys, "perfect", lens_path, "--json")
    b = run(capsys, "perfect", lens_path, "--json")
    assert a == b


def test_batch_perfect_ordering(capsys, tmp_path):
    paths = []
    for i, (l, k, n) in enumerate([(2, 1, 2), (3, 1, 1), (2, 2, 4)]):
        p = tmp_path / f"c{i}.cplx"
        p.write_text(write_complex(chains_of_cover(lens_complex(l, k, n))))
        paths.append(str(p))
    code, out, _ = run(capsys, "perfect", *paths)
    lines = out.splitlines()
    assert len(lines) == 3
    assert lines[0].startswith(paths[0]) and lines[2].startswith(paths[2])
    code2, out2, _ = run(capsys, "perfect", *paths, "--jobs", "2")
    assert out2 == out and code2 == code


def test_jobs_are_capped_at_the_number_of_inputs(capsys, lens_path, monkeypatch):
    """`--jobs N` asks for at most one worker per input.  The pool here
    records its size and maps serially, so no process is started."""
    asked = []

    class SerialPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    expected = run(capsys, "perfect", lens_path, lens_path)
    assert run(capsys, "perfect", lens_path, lens_path, "--jobs", "100000") == expected
    assert asked == [2]


def test_tower_certificate_bound_to_its_tower(capsys, norm_tower_path, tmp_path):
    """The perfect limit and witness of another tower, put under the norm
    tower's input and digest, must not verify."""
    G = SMALL_GROUPS["C2"]
    L = ChainComplex(G, 0, [1], [])
    const_path = tmp_path / "const.twr"
    const_path.write_text(write_tower(Tower([L] * 3, [identity_chain_map(L)] * 2)))
    certs = {}
    for name, path in (("const", str(const_path)), ("norm", norm_tower_path)):
        certs[name] = tmp_path / f"{name}.json"
        main(["tower-perfect", path, "--horizon", "2", "--cert", str(certs[name])])
    capsys.readouterr()
    forged = json.loads(certs["const"].read_text())
    norm = json.loads(certs["norm"].read_text())
    assert forged["verdict"]["perfect"] and not norm["verdict"]["perfect"]
    forged["input"], forged["digest"] = norm["input"], norm["digest"]
    certs["const"].write_text(json.dumps(forged))
    code, out, _ = run(capsys, "verify", str(certs["const"]))
    assert code == 1
    assert out.startswith("certificate INVALID")


def test_negative_verdict_on_free_complex_rejected(capsys, norm_tower_path, tmp_path):
    """A bounded complex of free modules is perfect, whatever non-free
    obstruction a certificate attaches to it."""
    free_path = tmp_path / "free.cplx"
    free_path.write_text("group cyclic:2\nprime 2\nbottom 0\nranks 1\n")
    cert_path = tmp_path / "free.json"
    norm_cert = tmp_path / "norm.json"
    main(["perfect", str(free_path), "--cert", str(cert_path)])
    main(["tower-perfect", norm_tower_path, "--horizon", "2", "--cert", str(norm_cert)])
    capsys.readouterr()
    cert = json.loads(cert_path.read_text())
    cert["verdict"] = {"perfect": False}
    cert["witness"] = json.loads(norm_cert.read_text())["witness"]
    cert_path.write_text(json.dumps(cert))
    code, out, _ = run(capsys, "verify", str(cert_path))
    assert code == 1
    assert out.startswith("certificate INVALID")


def test_forged_negative_tower_verdict_rejected(capsys, norm_tower_path, tmp_path):
    """The certificate of a constant (perfect) C2 tower, turned negative
    with the norm tower's non-free obstruction pasted in, must not verify:
    the verdict and the obstruction belong to the recomputed limit."""
    G = SMALL_GROUPS["C2"]
    L = ChainComplex(G, 0, [1], [])
    const_path = tmp_path / "const.twr"
    const_path.write_text(write_tower(Tower([L] * 3, [identity_chain_map(L)] * 2)))
    cert_path, norm_cert = tmp_path / "const.json", tmp_path / "norm.json"
    main(["tower-perfect", str(const_path), "--horizon", "2", "--cert", str(cert_path)])
    main(["tower-perfect", norm_tower_path, "--horizon", "2", "--cert", str(norm_cert)])
    capsys.readouterr()
    cert = json.loads(cert_path.read_text())
    cert["verdict"] = {"perfect": False}
    cert["witness"] = json.loads(norm_cert.read_text())["witness"]
    cert_path.write_text(json.dumps(cert))
    code, out, _ = run(capsys, "verify", str(cert_path))
    assert code == 1
    assert out.startswith("certificate INVALID")
    code, out, _ = run(capsys, "verify", str(norm_cert))
    assert code == 0


def test_snf_certificate_of_dense_60x60_matrix(capsys, tmp_path):
    """U and V stay small enough to print: the certificate of a dense
    60 x 60 matrix is written and verifies."""
    rng = random.Random(60)
    path = tmp_path / "m60.txt"
    path.write_text("".join(" ".join(str(rng.randint(-9, 9)) for _ in range(60)) + "\n"
                            for _ in range(60)))
    cert_path = tmp_path / "m60.json"
    code, out, err = run(capsys, "snf", str(path), "--cert", str(cert_path))
    assert code == 0 and out.startswith("invariant factors: 1 1 "), err
    code, out, _ = run(capsys, "verify", str(cert_path))
    assert code == 0 and out.startswith("certificate valid")


def test_snf_certificate_bytes_pinned(capsys, tmp_path):
    """The certificate of a seeded dense 40 x 40 matrix, pinned byte for
    byte: U, V and the diagonal depend on every step of the echelon
    passes, not only on the invariant factors.  Rendered as a v4, v3 or v2
    certificate it keeps the bytes of that format."""
    rng = random.Random(40)
    path = tmp_path / "m40.txt"
    path.write_text("".join(" ".join(str(rng.randint(-9, 9)) for _ in range(40)) + "\n"
                            for _ in range(40)))
    cert_path = tmp_path / "m40.json"
    assert main(["snf", str(path), "--cert", str(cert_path)]) == 0
    v4 = cert_as_v4(json.loads(cert_path.read_text()))
    v3 = cert_as_v3(json.loads(v4))
    v2 = cert_as_v2(json.loads(v3), None)
    assert hashlib.sha256(v2.encode()).hexdigest() == (
        "847931b37fc4fc105da19066b31331319b5eba931bab537932fafa7f8e20f398")
    assert hashlib.sha256(v3.encode()).hexdigest() == (
        "ba3d0f27f5a4f772cf2466f91dc5fea4ae633958dac7656583abbd8a75f0d63c")
    assert hashlib.sha256(v4.encode()).hexdigest() == (
        "eab66264fb328eaed3514576ef98104b0f4ea64d48b48ac997f4e1a0a702b216")
    assert hashlib.sha256(cert_path.read_bytes()).hexdigest() == (
        "645396ccf2575ec3a109297b4660564ad29590f3510a27b41340ead368a7e2fa")


_NOT_UNIMODULAR = "transformation matrices are not unimodular"


def _double_u_and_diag(w):
    w["U"] = [[2 * x for x in row] for row in w["U"]]
    w["diag"] = [2 * d for d in w["diag"]]
    return _NOT_UNIMODULAR


def _double_last_column_of_v(w):
    for row in w["V"]:
        row[-1] *= 2
    return _NOT_UNIMODULAR


def _double_last_row_of_u(w):
    w["U"][-1] = [2 * x for x in w["U"][-1]]
    return _NOT_UNIMODULAR


def _negate_last_factor_and_row_of_u(w):
    w["U"][-1] = [-x for x in w["U"][-1]]
    w["diag"][-1] = -w["diag"][-1]
    return "an invariant factor is negative"


@pytest.mark.parametrize("command, matrix, forge", [
    # U M V is still the claimed diagonal, but det U = 4 and det M = -8
    # is not +-32, the product of the doubled factors
    (["snf"], "2 4\n6 8\n", _double_u_and_diag),
    # singular square M: V doubled on the column of the zero factor
    (["snf"], "2 4\n1 2\n", _double_last_column_of_v),
    # non-square presentation: U doubled on the row of the zero block
    (["complete", "--l", "3", "--presentation"], "2 0\n0 3\n0 0\n", _double_last_row_of_u),
    # U M V = diag(1, -6) with det U = -1 and |det M| = 6 = |1 * -6|, and
    # 1 divides -6: only the sign is wrong
    (["snf"], "2 0\n0 3\n", _negate_last_factor_and_row_of_u),
    (["complete", "--l", "3", "--presentation"], "2 0\n0 3\n",
     _negate_last_factor_and_row_of_u),
])
def test_forged_smith_transform_is_not_unimodular(capsys, tmp_path, command, matrix, forge):
    """A transform of determinant 2 or 4 that keeps U M V the claimed
    diagonal is refused, whether the check can go through det M or must
    fall back to det U and det V; so is a unimodular transform that makes
    U M V a diagonal with a negative factor.  Each forge returns the
    reason the checker must give."""
    path = tmp_path / "m.txt"
    path.write_text(matrix)
    cert_path = tmp_path / "c.json"
    assert main([*command, str(path), "--cert", str(cert_path)]) == 0
    cert = json.loads(cert_path.read_text())
    reason = forge(cert["witness"])
    cert_path.write_text(json.dumps(cert))
    capsys.readouterr()
    code, out, _ = run(capsys, "verify", str(cert_path))
    assert (code, out) == (1, f"certificate INVALID: {reason}\n")


def test_smith_certificates_verify_without_the_solver(capsys, tmp_path, monkeypatch):
    """The snf and completion checkers recompute every quantity from the
    certificate and never call the solver that wrote it: both verify with
    `abelian.smith_normal_form` and the lifted first pass's solve
    (`abelian._lifted_transform`, which writes the dense 24 x 24 input's
    certificates) made to raise."""
    rng = random.Random(24)
    dense = "".join(" ".join(str(rng.randint(-9, 9)) for _ in range(24)) + "\n"
                    for _ in range(24))
    certs = []
    for name, matrix in (("small", "2 4 4\n-6 6 12\n10 -4 -16\n"), ("dense", dense)):
        path = tmp_path / f"{name}.txt"
        path.write_text(matrix)
        for kind, command in (("snf", ["snf"]),
                              ("completion", ["complete", "--l", "2", "--presentation"])):
            certs.append((kind, tmp_path / f"{name}-{kind}.json"))
            assert main([*command, str(path), "--cert", str(certs[-1][1])]) == 0

    def solver(*args):
        raise AssertionError("the checker called the Smith-form solver")

    monkeypatch.setattr(perfchain.abelian, "smith_normal_form", solver)
    monkeypatch.setattr(perfchain.abelian, "_lifted_transform", solver)
    capsys.readouterr()
    for kind, cert_path in certs:
        code, out, _ = run(capsys, "verify", str(cert_path))
        assert (code, out) == (0, f"certificate valid (kind={kind})\n")


def test_answer_too_long_to_print_is_a_limit_error(capsys, tmp_path):
    """diag(a, b) with coprime 3000-digit a, b has the 6000-digit factor ab;
    nothing is printed, not even the part of the answer that fits."""
    path = tmp_path / "big.txt"
    path.write_text(f"{10**2999 + 7} 0\n0 {10**2999 + 9}\n")
    for argv in (["snf", str(path)],
                 ["complete", "--presentation", str(path), "--l", "2", "--json"]):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error[E_LIMIT]")


@pytest.mark.parametrize("command", [["snf"], ["complete", "--l", "2", "--presentation"]])
@pytest.mark.parametrize("key, value", [("U", None), ("U", [[1, 0], [0]]),
                                        ("V", [[1, "0"], [0, 1]]), ("diag", [2])])
def test_malformed_smith_witness_is_a_parse_error(capsys, tmp_path, command, key, value):
    """A witness entry that is missing, ragged, not an integer or of the
    wrong length is rejected before any arithmetic, with a coded error."""
    path = tmp_path / "m.txt"
    path.write_text("2 4\n6 8\n")
    cert_path = tmp_path / "c.json"
    assert main([*command, str(path), "--cert", str(cert_path)]) == 0
    cert = json.loads(cert_path.read_text())
    if value is None:
        del cert["witness"][key]
    else:
        cert["witness"][key] = value
    cert_path.write_text(json.dumps(cert))
    capsys.readouterr()
    code, out, err = run(capsys, "verify", str(cert_path))
    assert code == 2 and out == ""
    assert err.startswith("error[E_PARSE]")


def test_completion_certificate_with_prime_one_is_a_parse_error(capsys, tmp_path):
    """Counting factors of 1 in the Smith data never ends; the checker
    refuses a prime below 2 first."""
    path = tmp_path / "m.txt"
    path.write_text("2 4\n6 8\n")
    cert_path = tmp_path / "c.json"
    main(["complete", "--presentation", str(path), "--l", "2", "--cert", str(cert_path)])
    cert = json.loads(cert_path.read_text())
    cert["input"]["prime"] = 1
    cert_path.write_text(json.dumps(cert))
    capsys.readouterr()
    code, _, err = run(capsys, "verify", str(cert_path))
    assert code == 2 and err.startswith("error[E_PARSE]")


def test_completion_certificate_with_a_composite_prime_is_refused(capsys, tmp_path):
    """A v5 completion certificate of Z/8 with prime 4 and the verdict
    that counting factors of 4 gives (Z/4) is refused as E_NOT_L_GROUP,
    as `complete --l 4` is, and not found valid."""
    path = tmp_path / "m.txt"
    path.write_text("8\n")
    cert_path = tmp_path / "c.json"
    main(["complete", "--presentation", str(path), "--l", "2", "--cert", str(cert_path)])
    cert = json.loads(cert_path.read_text())
    assert cert["format"] == "perfchain-cert-v5"
    cert["input"]["prime"] = 4
    cert["verdict"]["torsion"] = [4]
    cert_path.write_text(json.dumps(cert))
    capsys.readouterr()
    code, out, err = run(capsys, "verify", str(cert_path))
    assert (code, out, err) == (2, "", "error[E_NOT_L_GROUP]: 4 is not prime\n")


@pytest.mark.parametrize("l, group", [("0", "Z/2"), ("1", "Z/2"), ("4", "Z/8"), ("-2", "Z/8")])
def test_complete_with_an_l_that_is_not_prime_is_a_coded_error(l, group):
    """`complete` refuses an l that is not prime before any arithmetic, as
    `lens 4 1 2` does: E_NOT_L_GROUP with exit 2, not a hang (l = 1), a
    ZeroDivisionError traceback (l = 0) or a wrong module (l = 4, -2).
    Each runs in a fresh process with a timeout, so a hang fails."""
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(perfchain.__file__))}
    done = subprocess.run(
        [sys.executable, "-m", "perfchain.cli", "complete", "--l", l, "--group", group],
        env=env, capture_output=True, text=True, check=False, timeout=60)
    assert (done.returncode, done.stdout) == (2, ""), done.stderr
    assert done.stderr == f"error[E_NOT_L_GROUP]: {l} is not prime\n"


def test_completion_certificate_bound_to_its_input(capsys, tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("2 4\n6 8\n")
    cert_path = tmp_path / "c.json"
    main(["complete", "--presentation", str(path), "--l", "2", "--cert", str(cert_path)])
    cert = json.loads(cert_path.read_text())
    cert["digest"] = "0" * 64
    cert_path.write_text(json.dumps(cert))
    capsys.readouterr()
    code, out, _ = run(capsys, "verify", str(cert_path))
    assert code == 1 and "INVALID" in out


@pytest.mark.parametrize("command, keys, value", [
    # string forgeries keep the ids these cases had as nested-list forgeries
    ("tower-perfect", ("limit",), {}),
    ("tower-limit", ("limit",), None),
    ("tower-limit", ("input", "tower"), None),
    ("tower-perfect", ("witness", "cover"), None),
    pytest.param("tower-perfect", ("witness", "kernel_vector"), "1x",
                 id="tower-perfect-keys4-value4"),
    pytest.param("tower-perfect", ("witness", "kernel_vector"), "100",
                 id="tower-perfect-keys5-value5"),
    pytest.param("tower-perfect", ("witness", "cover"), "9", id="tower-perfect-keys6-value6"),
    ("tower-perfect", ("input", "horizon"), "2"),
    ("tower-perfect", ("witness", "kernel_vector"), "-1"),
    ("tower-perfect", ("witness", "obstruction"), {"dim": 1, "gens": [{"perm": "0"}]}),
    pytest.param("tower-perfect", ("witness", "cover"), "10", id="tower-perfect-keys10-value10"),
    ("tower-perfect", ("witness", "kernel_vector"), ["10"]),
    ("perfect", ("witness", "map"), None),
    ("minimalize", ("witness", "minimal"), None),
    ("minimalize", ("witness", "map"), None),
    ("perfect", ("input",), 5),
    ("perfect", ("input", "ranks"), [1, "a"]),
    ("perfect", ("witness", "map"), {"x": "10"}),
    ("perfect", ("verdict",), []),
    ("perfect", ("verdict", "euler_class"), "1"),
    ("perfect", ("input", "group"), 7),
    pytest.param("perfect", ("input", "boundaries", 0), "21",
                 id=f"perfect-keys21-{10**30}"),
    ("perfect", ("witness", "replacement", "ranks"), [10**9, 10**9]),
    ("perfect", ("witness", "replacement", "ranks"), [10**9] * 3),
    pytest.param("minimalize", ("witness", "map", "0"), "100", id="minimalize-keys24-value24"),
    pytest.param("tower-perfect", ("witness", "cover"), "11", id="tower-perfect-keys25-value25"),
    ("perfect", ("witness", "map", "0"), [[[1, 0]]]),
    ("perfect", ("input", "boundaries", 0), [[[1, 1]]]),
    ("tower-perfect", ("witness", "kernel_vector"), [1, 0]),
])
def test_malformed_tower_certificate_is_a_parse_error(capsys, norm_tower_path, lens_path,
                                                      tmp_path, command, keys, value):
    """A certificate (of a tower, or of the C2 lens complex) with a key
    missing (value None), a malformed entry or a key it must not carry
    (a tower-perfectness certificate's limit or obstruction) is rejected
    with a coded error, not a traceback.  The norm tower's cover is 1 x 1, one
    generator column written "1"; "11" is its full v2 width.  The v4 nested
    lists of a valid witness map component, kernel vector or boundary are
    malformed too."""
    cert_path = tmp_path / "c.json"
    if command.startswith("tower"):
        main([command, norm_tower_path, "--horizon", "2", "--cert", str(cert_path)])
    else:
        main([command, lens_path, "--cert", str(cert_path)])
    cert = json.loads(cert_path.read_text())
    obj = cert
    for key in keys[:-1]:
        obj = obj[key]
    if value is None:
        del obj[keys[-1]]
    else:
        obj[keys[-1]] = value
    cert_path.write_text(json.dumps(cert))
    capsys.readouterr()
    code, out, err = run(capsys, "verify", str(cert_path))
    assert code == 2 and out == ""
    assert err.startswith("error[E_PARSE]")


def test_v1_certificate_is_a_parse_error(capsys, norm_tower_path, tmp_path):
    """There is one certificate format; a v1, v2, v3 or v4 certificate
    names its format in a coded error."""
    cert_path = tmp_path / "c.json"
    main(["tower-perfect", norm_tower_path, "--horizon", "2", "--cert", str(cert_path)])
    v5 = json.loads(cert_path.read_text())
    assert v5["format"] == "perfchain-cert-v5"
    v4 = cert_as_v4(v5)
    v3 = cert_as_v3(json.loads(v4))
    v2 = cert_as_v2(json.loads(v3), SMALL_GROUPS["C2"])
    for old, text in (("v4", v4), ("v3", v3), ("v2", v2),
                      ("v1", cert_as_v1(json.loads(v2), SMALL_GROUPS["C2"]))):
        cert_path.write_text(text)
        capsys.readouterr()
        code, out, err = run(capsys, "verify", str(cert_path))
        assert code == 2 and out == ""
        assert err.startswith("error[E_PARSE]") and f"perfchain-cert-{old}" in err


def _lens_tower(tmp_path):
    """A constant C2 tower of the lens complex F_2[C2] <-(1+t)- F_2[C2]:
    perfect, with a witness map in degrees 0 and 1."""
    G = SMALL_GROUPS["C2"]
    L = ChainComplex(G, 0, [1, 1], [GroupRingMatrix(G, [[[1, 1]]])])
    path = tmp_path / "lens.twr"
    path.write_text(write_tower(Tower([L] * 3, [identity_chain_map(L)] * 2)))
    return str(path)


def test_v2_shaped_tower_certificate_fields_are_parse_errors(capsys, norm_tower_path,
                                                             tmp_path):
    """Each field the v2, v3 or v4 writer gave a tower-perfectness
    certificate and v5 does not, put into a v5 certificate, is E_PARSE: the
    recorded limit, a witness map into the free limit by every column (v2),
    by generator columns (v3) or as nested lists (v4), a cover by every
    column or as nested lists, the obstruction."""
    G = SMALL_GROUPS["C2"]
    for path, key in ((_lens_tower(tmp_path), "map"), (norm_tower_path, "cover")):
        cert_path = tmp_path / "c.json"
        main(["tower-perfect", path, "--horizon", "2", "--cert", str(cert_path)])
        v5 = json.loads(cert_path.read_text())
        v4 = json.loads(cert_as_v4(v5))
        v3 = json.loads(cert_as_v3(v4))
        v2 = json.loads(cert_as_v2(v3, G))
        forged = [{**v5, "limit": v2["limit"]},
                  {**v5, "witness": {**v5["witness"], key: v2["witness"][key]}},
                  {**v5, "witness": {**v5["witness"], key: v4["witness"][key]}}]
        if key == "map":
            for old in (v2, v3, v4):
                forged.append({**v5, "witness": {**v5["witness"], "map": {
                    **v5["witness"]["map"], "1": old["witness"]["map"]["1"]}}})
            forged.append({**v5, "witness": {**v5["witness"], "map": v3["witness"]["map"]}})
        else:
            forged.append({**v5, "witness": v3["witness"]})
        for cert in forged:
            assert cert != v5
            cert_path.write_text(json.dumps(cert))
            capsys.readouterr()
            code, out, err = run(capsys, "verify", str(cert_path))
            assert code == 2 and out == "", key
            assert err.startswith("error[E_PARSE]"), key


def test_altered_generator_columns_are_refused(capsys, norm_tower_path, tmp_path,
                                              monkeypatch):
    """A cover whose generator column is zeroed is not onto, and the
    certificate is INVALID; a witness map into a free limit whose degree-1
    component is zeroed breaks the square d f_1 = f_0 d and is refused as
    a non-commuting map is (E_DIM_MISMATCH), before any cone is built."""
    cert_path = tmp_path / "c.json"
    main(["tower-perfect", norm_tower_path, "--horizon", "2", "--cert", str(cert_path)])
    cert = json.loads(cert_path.read_text())
    assert cert["witness"]["cover"] == "1"
    cert["witness"]["cover"] = "0"
    cert_path.write_text(json.dumps(cert))
    capsys.readouterr()
    code, out, _ = run(capsys, "verify", str(cert_path))
    assert (code, out) == (1, "certificate INVALID: recorded cover is not surjective\n")

    main(["tower-perfect", _lens_tower(tmp_path), "--horizon", "2", "--cert", str(cert_path)])
    cert = json.loads(cert_path.read_text())
    assert cert["witness"]["map"] == {"0": "10", "1": "10"}
    cert["witness"]["map"]["1"] = "00"
    cert_path.write_text(json.dumps(cert))
    capsys.readouterr()

    def refuse(f):
        raise AssertionError("a cone was built")

    monkeypatch.setattr(chains, "mapping_cone", refuse)
    monkeypatch.setattr(chains, "module_mapping_cone", refuse)
    code, out, err = run(capsys, "verify", str(cert_path))
    assert (code, out) == (2, "")
    assert "E_DIM_MISMATCH" in err and "commute" in err


def _forge_map(cert):
    cert["witness"]["map"]["0"] = "11"


def _forge_replacement(cert):
    cert["witness"]["replacement"]["boundaries"] = ["10"]


def _forge_euler_class(cert):
    cert["verdict"]["euler_class"] += 1


def _forge_bond(cert):
    """Bond 0 made zero, with the digest of the forged tower."""
    G = SMALL_GROUPS["C2"]
    L = ChainComplex(G, 0, [1], [])
    text = write_tower(Tower([L] * 3, [ChainMap(L, L, {}), identity_chain_map(L)]))
    cert["input"]["tower"], cert["digest"] = text, digest_text(text)


@pytest.mark.parametrize("tower, forge, reason", [
    ("free", _forge_map, "witness map is not a quasi-isomorphism"),
    ("lens", _forge_replacement, "replacement complex has a unit entry"),
    ("free", _forge_euler_class, "euler_class is not the limit's"),
    ("free", _forge_bond, "euler_class is not the limit's"),
], ids=["map", "replacement", "euler_class", "bond"])
def test_forged_free_limit_certificate_is_invalid(capsys, tmp_path, tower, forge, reason):
    """A free-route certificate of a constant C2 tower (F_l[C2] in degree 0,
    or the lens complex) verifies; with its witness map turned into the
    norm, its replacement given a unit entry, its euler_class raised, or
    its tower's first bond made zero under a matching digest, it is
    INVALID for the reason named."""
    G = SMALL_GROUPS["C2"]
    if tower == "free":
        L = ChainComplex(G, 0, [1], [])
        path = tmp_path / "free.twr"
        path.write_text(write_tower(Tower([L] * 3, [identity_chain_map(L)] * 2)))
        path = str(path)
    else:
        path = _lens_tower(tmp_path)
    cert_path = tmp_path / "c.json"
    main(["tower-perfect", path, "--horizon", "2", "--cert", str(cert_path)])
    capsys.readouterr()
    assert run(capsys, "verify", str(cert_path))[:2] == (
        0, "certificate valid (kind=perfectness)\n")
    cert = json.loads(cert_path.read_text())
    forge(cert)
    cert_path.write_text(json.dumps(cert))
    assert run(capsys, "verify", str(cert_path))[:2] == (1, f"certificate INVALID: {reason}\n")


@pytest.mark.parametrize("name", ["C4", "C2xC2", "C9"])
def test_positive_module_route_tower_certificate_verifies(capsys, tmp_path, name):
    """The norm-pair tower's limit is not free, so `tower-perfect` decides
    it perfect on the module route, and its certificate, whose witness is
    written by generator columns into the expanded limit, verifies.  With
    one witness digit changed the degree-0 component is zero and breaks
    the square at degree 1, which is refused (E_DIM_MISMATCH); with every
    component zero the map commutes but is not a quasi-isomorphism, and
    the certificate is INVALID."""
    T, _ = norm_pair_tower(SMALL_GROUPS[name])
    assert free_limit(T, 3) is None
    path, cert_path = tmp_path / "pair.twr", tmp_path / "pair.json"
    path.write_text(write_tower(T))
    assert run(capsys, "tower-perfect", str(path), "--horizon", "3",
               "--cert", str(cert_path))[:2] == (
        0, "perfect; euler_class=1; replacement ranks [1, 1, 1]\n")
    assert run(capsys, "verify", str(cert_path))[:2] == (
        0, "certificate valid (kind=perfectness)\n")
    cert = json.loads(cert_path.read_text())
    columns = cert["witness"]["map"]
    assert columns["0"].startswith("1")
    cert_path.write_text(json.dumps(
        {**cert, "witness": {**cert["witness"], "map": {**columns, "0": "0" + columns["0"][1:]}}}))
    code, out, err = run(capsys, "verify", str(cert_path))
    assert (code, out) == (2, "")
    assert "E_DIM_MISMATCH" in err and "commute" in err
    cert["witness"]["map"] = {q: "0" * len(c) for q, c in columns.items()}
    cert_path.write_text(json.dumps(cert))
    assert run(capsys, "verify", str(cert_path))[:2] == (
        1, "certificate INVALID: witness map is not a quasi-isomorphism\n")


def test_limit_certificate_with_a_changed_digit_is_invalid(capsys, tmp_path):
    """A `tower-limit` certificate of the norm-pair tower verifies; with
    one digit of its recorded limit changed it is INVALID."""
    T, _ = norm_pair_tower(SMALL_GROUPS["C4"])
    path, cert_path = tmp_path / "pair.twr", tmp_path / "lim.json"
    path.write_text(write_tower(T))
    assert run(capsys, "tower-limit", str(path), "--horizon", "3", "--cert",
               str(cert_path))[:2] == (0, "limit dims [4, 5, 5]; bottom 0\n"
                                      "H_0: dim=2\nH_1: dim=1\nH_2: dim=3\n")
    assert run(capsys, "verify", str(cert_path))[:2] == (0, "certificate valid (kind=limit)\n")
    cert = json.loads(cert_path.read_text())
    diffs = cert["limit"]["diffs"]
    assert diffs[0].startswith("1")
    diffs[0] = "0" + diffs[0][1:]
    cert_path.write_text(json.dumps(cert))
    assert run(capsys, "verify", str(cert_path))[:2] == (
        1, "certificate INVALID: recorded limit does not match the stable images\n")


def test_zero_kernel_vector_is_invalid(capsys, norm_tower_path, tmp_path):
    """The norm tower's negative certificate with its kernel vector set to
    zeros is INVALID."""
    cert_path = tmp_path / "norm.json"
    assert main(["tower-perfect", norm_tower_path, "--horizon", "2",
                 "--cert", str(cert_path)]) == 1
    cert = json.loads(cert_path.read_text())
    vector = cert["witness"]["kernel_vector"]
    assert vector.strip("0")
    cert["witness"]["kernel_vector"] = "0" * len(vector)
    cert_path.write_text(json.dumps(cert))
    capsys.readouterr()
    assert run(capsys, "verify", str(cert_path))[:2] == (
        1, "certificate INVALID: kernel vector is zero\n")


def _change_first_inverse(lim):
    q = min(lim.inverses)
    data = lim.inverses[q].data.copy()
    data[0, 0, 0] = (data[0, 0, 0] + 1) % lim.complex.group.prime_l
    return dataclasses.replace(
        lim, inverses={**lim.inverses, q: GroupRingMatrix(lim.complex.group, data)})


def _change_first_differential(lim):
    L = lim.complex
    data = L.boundaries[0].data.copy()
    data[0, 0, 0] = (data[0, 0, 0] + 1) % L.group.prime_l
    return dataclasses.replace(lim, complex=ChainComplex(
        L.group, L.bottom, L.ranks, [GroupRingMatrix(L.group, data)] + L.boundaries[1:]))


@pytest.mark.parametrize("change, reason", [
    (_change_first_inverse, "degree 0: the pivot block's inverse is wrong"),
    (_change_first_differential, "degree 1: the limit differential is wrong"),
], ids=["inverse", "differential"])
def test_wrong_free_limit_is_refused(capsys, tmp_path, monkeypatch, change, reason):
    """The checker's identities on a free limit hold for the limit
    `free_limit` computes; were the recomputed limit wrong, with one entry
    of a pivot block's inverse or of a differential changed, the lens
    tower's certificate would be INVALID for the reason named."""
    cert_path = tmp_path / "lens.json"
    assert main(["tower-perfect", _lens_tower(tmp_path), "--horizon", "2",
                 "--cert", str(cert_path)]) == 0
    capsys.readouterr()
    monkeypatch.setattr(certificates, "decided_limit",
                        lambda T, horizon: change(decided_limit(T, horizon)))
    assert run(capsys, "verify", str(cert_path))[:2] == (1, f"certificate INVALID: {reason}\n")


def test_certificates_are_built_only_when_asked(capsys, tmp_path, lens_path, norm_tower_path,
                                                monkeypatch):
    """Without --cert or --json no certificate is built: with every
    certificate builder made to raise, `perfect`, `minimalize`,
    `tower-limit`, a negative `tower-perfect`, `snf` and `complete` exit as
    before and print the same stdout, and with --json the builder is
    called."""
    matrix = tmp_path / "m.txt"
    matrix.write_text("2 4\n6 8\n")
    commands = [["perfect", lens_path], ["minimalize", lens_path],
                ["tower-limit", norm_tower_path, "--horizon", "2"],
                ["tower-perfect", norm_tower_path, "--horizon", "2"],
                ["snf", str(matrix)], ["complete", "--group", "Z+Z/12", "--l", "2"]]
    before = [run(capsys, *argv) for argv in commands]

    def refuse(*args):
        raise AssertionError("a certificate was built")

    for name in ("perfectness_certificate", "quasi_iso_certificate", "limit_certificate",
                 "tower_perfectness_certificate", "snf_certificate", "completion_certificate"):
        monkeypatch.setattr(certificates, name, refuse)
    assert [run(capsys, *argv) for argv in commands] == before
    assert [code for code, _, _ in before] == [0, 0, 0, 1, 0, 0]
    for argv in commands:
        with pytest.raises(AssertionError, match="a certificate was built"):
            main(argv + ["--json"])


def test_out_of_memory_is_a_limit_error(tmp_path):
    """`tower-limit` expands its bonds; over C_2048 a rank-8 bond expands to
    a 2 GiB matrix, which a fresh process capped at 1 GiB of address space
    cannot allocate.  The MemoryError ends in E_LIMIT with exit 2, not in
    a traceback with exit 1."""
    G = build_group("cyclic:2048", 2)
    L = ChainComplex(G, 0, [8], [])
    path = tmp_path / "big.twr"
    path.write_text(write_tower(Tower([L] * 3, [identity_chain_map(L)] * 2)))
    cap = 1 << 30
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "PYTHONPATH": os.path.dirname(os.path.dirname(perfchain.__file__))}
    done = subprocess.run(
        [sys.executable, "-m", "perfchain.cli", "tower-limit", str(path), "--horizon", "2"],
        env=env, capture_output=True, text=True, check=False,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)))
    assert (done.returncode, done.stdout) == (2, ""), done.stderr
    assert done.stderr.startswith("error[E_LIMIT]: out of memory")
    assert "Traceback" not in done.stderr


@pytest.mark.parametrize("argv", [
    pytest.param(["perfect", "big.cplx"], id="complex"),
    pytest.param(["lens", "2", "14", "0", "-o", "lens.cplx"], id="lens"),
])
def test_order_past_the_table_bound_is_refused_before_its_tables(tmp_path, argv):
    """cyclic:16384 is within MAX_FREE_DIM, but its four 16384^2 int64
    tables would take 8 GiB.  It is refused by their byte count before
    any is allocated: in a fresh process capped at 1 GiB of address space
    the message names the bytes, not an out-of-memory error, and writes
    no file."""
    (tmp_path / "big.cplx").write_text("group cyclic:16384\nprime 2\nbottom 0\nranks 0\n")
    cap = 1 << 30
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "PYTHONPATH": os.path.dirname(os.path.dirname(perfchain.__file__))}
    done = subprocess.run(
        [sys.executable, "-m", "perfchain.cli", *argv], cwd=tmp_path,
        env=env, capture_output=True, text=True, check=False,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)))
    assert (done.returncode, done.stdout) == (2, ""), done.stderr
    assert done.stderr == ("error[E_LIMIT]: group order 16384 needs 8589934592 bytes of "
                           "group tables, more than 4294967296\n")
    assert not (tmp_path / "lens.cplx").exists()


@pytest.mark.parametrize("group, ranks", [
    pytest.param("cyclic:2", "1000000000", id="rank"),
    pytest.param("cyclic:1073741824", "0", id="cyclic-order"),
    pytest.param("product:cyclic:256,cyclic:256", "0", id="product-order"),
])
def test_rank_past_the_free_dimension_bound_is_a_limit_error(capsys, tmp_path, group, ranks):
    """A rank needs no boundary data when its degree stands alone, so it
    is bounded before a free module of that rank is allocated; a group
    order past the bound is refused before its table is built."""
    path = tmp_path / "big.cplx"
    path.write_text(f"group {group}\nprime 2\nbottom 0\nranks {ranks}\n")
    code, out, err = run(capsys, "perfect", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error[E_LIMIT]") and "Traceback" not in err


@pytest.mark.parametrize("command", ["perfect", "homology", "tower-perfect"])
@pytest.mark.parametrize("ranks, block, code", [
    pytest.param("1000000000 1000000000", "boundary 1\n", "E_LIMIT", id="boundary"),
    pytest.param("1000000000 1000000000", "", "E_LIMIT", id="zero-boundary"),
    pytest.param("-1 1", "boundary 1\n", "E_DIM_MISMATCH", id="negative"),
])
def test_declared_ranks_are_checked_before_any_matrix_is_allocated(capsys, tmp_path,
                                                                    command, ranks, block,
                                                                    code):
    """Ranks whose boundary (read, or zero when absent) has 2 * 10^18
    entries, and a negative rank, are refused as they are read, in a
    complex and in a tower level, before a block is read or
    `GroupRingMatrix.zeros` sizes an array by them."""
    body = f"bottom 0\nranks {ranks}\n{block}"
    if command == "tower-perfect":
        text = f"levels 2\nlevel 0\nbottom 0\nranks 1\nlevel 1\n{body}bond 0\n"
    else:
        text = body
    path = tmp_path / "big.txt"
    path.write_text("group cyclic:2\nprime 2\n" + text)
    argv = [command, str(path)] + (["--horizon", "1"] if command == "tower-perfect" else [])
    got, out, err = run(capsys, *argv)
    assert got == 2 and out == ""
    assert err.startswith(f"error[{code}]") and "Traceback" not in err


@pytest.mark.parametrize("command", ["perfect", "homology", "tower-perfect"])
@pytest.mark.parametrize("coefficient", [10**29, -10**29, 2**63])
def test_coefficient_past_int64_is_a_parse_error(capsys, tmp_path, command, coefficient):
    """A text coefficient that int64 cannot hold is E_PARSE naming its
    line, exit 2, and not an OverflowError traceback with exit 1: in a
    boundary of a complex, and in a bond of a tower."""
    entry = f"[{coefficient},1]"
    if command == "tower-perfect":
        text = ("levels 2\nlevel 0\n" + _LENS_BODY + "level 1\n" + _LENS_BODY
                + f"bond 0\ndegree 0\n{entry}\n")
        line = 20
    else:
        text, line = f"bottom 0\nranks 1 1\nboundary 1\n{entry}\n", 6
    path = tmp_path / "big.txt"
    path.write_text("group cyclic:2\nprime 2\n" + text)
    argv = [command, str(path)] + (["--horizon", "1"] if command == "tower-perfect" else [])
    got, out, err = run(capsys, *argv)
    assert (got, out) == (2, "")
    assert err == (f"error[E_PARSE]: line {line}: coefficient in {entry!r} "
                   "does not fit in 64 bits\n")


def test_recorded_obstruction_is_a_parse_error(capsys, tmp_path):
    """A tower-perfectness certificate records no obstruction, so a forged
    one, over the trivial group where a module has no generator matrix to
    bound its dim, is refused at once: an obstruction of dim 10^9 is
    E_PARSE before any matrix of that size is built."""
    L = ChainComplex(SMALL_GROUPS["C1"], 0, [1], [])
    path, cert_path = tmp_path / "const.twr", tmp_path / "const.json"
    path.write_text(write_tower(Tower([L] * 3, [identity_chain_map(L)] * 2)))
    main(["tower-perfect", str(path), "--horizon", "2", "--cert", str(cert_path)])
    capsys.readouterr()
    cert = json.loads(cert_path.read_text())
    cert["verdict"] = {"perfect": False}
    cert["witness"] = {"obstruction": {"dim": 10**9, "gens": []}}
    cert_path.write_text(json.dumps(cert))
    code, out, err = run(capsys, "verify", str(cert_path))
    assert code == 2 and out == ""
    assert err == "error[E_PARSE]: a tower-perfectness certificate records no obstruction\n"


def test_prime_past_the_int64_bound_is_a_limit_error(capsys, tmp_path):
    """At l = 4294967291, (l - 1)^2 + (l - 1)^2 wraps in int64."""
    path = tmp_path / "big.cplx"
    path.write_text("group cyclic:1\nprime 4294967291\nbottom 0\nranks 1 1\n"
                    "boundary 1\n[4294967290]\n")
    code, out, err = run(capsys, "perfect", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error[E_LIMIT]")


def test_one_certificate_file_for_several_inputs_is_refused(capsys, lens_path, tmp_path):
    """Each input has its own certificate, so one --cert FILE for two
    inputs is a usage error before any work, and no file is written."""
    cert_path = tmp_path / "c.json"
    code, out, err = run(capsys, "perfect", lens_path, lens_path, "--cert", str(cert_path))
    assert code == 2 and out == ""
    assert err.startswith("error[E_USAGE]")
    assert not cert_path.exists()


_NOT_UTF8 = b"\xff\xfe group"

_LENS_HEADERS = "group cyclic:2\nprime 2\nbottom 0\nranks 1\n"


@pytest.mark.parametrize("command, text", [
    pytest.param("perfect", "group cyclic:+2\nprime \uff12\nbottom +0\nranks 1_0 \u0661\n",
                 id="all-four"),
    pytest.param("perfect", _LENS_HEADERS.replace("cyclic:2", "cyclic:+2"), id="cyclic-plus"),
    pytest.param("perfect", _LENS_HEADERS.replace("cyclic:2", "cyclic:0_8"),
                 id="cyclic-underscore"),
    pytest.param("perfect", _LENS_HEADERS.replace("cyclic:2", "cyclic:\uff18"),
                 id="cyclic-fullwidth"),
    pytest.param("perfect", _LENS_HEADERS.replace("cyclic:2", "product:cyclic:2,cyclic:+2"),
                 id="product-factor"),
    pytest.param("perfect", _LENS_HEADERS.replace(
        "cyclic:2", "table:{order:\u0662;identity:0;mult:0,1|1,0}"), id="table-order"),
    pytest.param("perfect", _LENS_HEADERS.replace(
        "cyclic:2", "table:{order:2;identity:\u0660;mult:0,1|1,0}"), id="table-identity"),
    pytest.param("perfect", _LENS_HEADERS.replace("prime 2", "prime \uff12"), id="prime"),
    pytest.param("perfect", _LENS_HEADERS.replace("prime 2", "prime +2"), id="prime-plus"),
    pytest.param("perfect", _LENS_HEADERS.replace("bottom 0", "bottom +0"), id="bottom"),
    pytest.param("perfect", _LENS_HEADERS.replace("ranks 1", "ranks 1_0"), id="rank"),
    pytest.param("perfect", _LENS_HEADERS.replace("ranks 1", "ranks \u0661"),
                 id="rank-arabic-indic"),
    pytest.param("tower-perfect", "group cyclic:2\nprime 2\nlevels \u0662\n" + "\n".join(
        f"level {n}\nbottom 0\nranks 1" for n in range(2)) + "\nbond 0\n", id="levels"),
    pytest.param("snf", "1 2\n+2 1\n", id="snf-plus"),
    pytest.param("snf", "1 2\n2 1_0\n", id="snf-underscore"),
    pytest.param("snf", "1 2\n\u0663 1\n", id="snf-arabic-indic"),
    pytest.param("complete", "1 2\n\uff12 1\n", id="presentation-fullwidth"),
    pytest.param("complete", "1 2\n2 1_0\n", id="presentation-underscore"),
    pytest.param("complete-group", "Z/\u0661\u0662", id="group-arabic-indic"),
    pytest.param("complete-group", "Z^\uff12+Z/4", id="group-fullwidth-rank"),
])
def test_integer_spelling_outside_the_grammar_is_a_coded_error(capsys, tmp_path, command,
                                                               text):
    """An order, a table identity and an abelian group's rank or order are
    `[0-9]+`, and a header integer and an integer matrix entry `-?[0-9]+`,
    in ASCII digits, as a coefficient is: a plus sign, an underscore and
    non-ASCII digits, all of which Python's `int` reads, are E_PARSE with
    exit 2, not a group, complex or matrix read from them.  A matrix entry
    is refused at its line."""
    path = tmp_path / "spelling.txt"
    path.write_text(text, encoding="utf-8")
    argv = {"tower-perfect": [command, str(path), "--horizon", "1"],
            "complete": ["complete", "--l", "2", "--presentation", str(path)],
            "complete-group": ["complete", "--group", text, "--l", "2"]}
    code, out, err = run(capsys, *argv.get(command, [command, str(path)]))
    assert (code, out) == (2, "") and err.startswith("error[E_PARSE]"), err
    if command in ("snf", "complete"):
        assert err.startswith("error[E_PARSE]: line 2: non-integer matrix entry"), err


def test_integers_keep_their_surrounding_whitespace(capsys, tmp_path):
    """Whitespace around a header integer or an order is still read, and
    leading zeros of an order still name the same group."""
    path = tmp_path / "spaced.cplx"
    path.write_text("group product:cyclic: 2 , cyclic:02\nprime  2 \nbottom  0\nranks  1 \n")
    assert run(capsys, "homology", str(path)) == (0, "H_0: dim=4\n", "")


@pytest.mark.parametrize("argv, code", [
    pytest.param(["perfect", "{dir}"], "E_IO", id="perfect-dir"),
    pytest.param(["perfect", "{lens}", "--cert", "{dir}"], "E_IO", id="cert-dir"),
    pytest.param(["lens", "2", "1", "2", "-o", "{dir}"], "E_IO", id="lens-dir"),
    pytest.param(["perfect", "{lens}", "{dir}", "--jobs", "2"], "E_IO", id="jobs-dir"),
    pytest.param(["perfect", "{bad}"], "E_PARSE", id="perfect-bytes"),
    pytest.param(["verify", "{bad}"], "E_PARSE", id="verify-bytes"),
    pytest.param(["snf", "{bad}"], "E_PARSE", id="snf-bytes"),
    pytest.param(["tower-perfect", "{bad}", "--horizon", "1"], "E_PARSE", id="tower-bytes"),
    pytest.param(["perfect", "{lens}", "{bad}", "--jobs", "2"], "E_PARSE", id="jobs-bytes"),
])
def test_unreadable_input_is_a_coded_error(capsys, tmp_path, lens_path, argv, code):
    """A directory where a file is read or written is E_IO, and bytes that
    are not UTF-8 are E_PARSE naming the file, both exit 2 and not an
    OSError or UnicodeDecodeError traceback with exit 1: serially and
    through the `--jobs 2` worker pool."""
    (tmp_path / "dir").mkdir()
    bad = tmp_path / "bad.txt"
    bad.write_bytes(_NOT_UTF8)
    names = {"dir": str(tmp_path / "dir"), "bad": str(bad), "lens": lens_path}
    got, _, err = run(capsys, *(a.format(**names) for a in argv))
    assert got == 2
    if code == "E_IO":
        assert err.startswith("error[E_IO]: ") and "Is a directory" in err, err
    else:
        assert err == (f"error[E_PARSE]: {bad} is not UTF-8 text: 'utf-8' codec can't decode "
                       "byte 0xff in position 0: invalid start byte\n")


@pytest.mark.parametrize("name, message", [
    ("deep", "maximum recursion depth exceeded while decoding a JSON array"),
    ("truncated", "Unterminated string"),
])
def test_certificate_json_that_does_not_parse_is_a_coded_error(capsys, tmp_path, name,
                                                               message):
    """`verify` on JSON nested past the interpreter's recursion limit (a
    file of 200,000 `[`), or on a certificate cut off mid-string, is
    E_PARSE with exit 2 and nothing on stdout, not a traceback with exit 1."""
    (tmp_path / "m.txt").write_text("2 4\n6 8\n")
    assert main(["snf", str(tmp_path / "m.txt"), "--cert", str(tmp_path / "snf.json")]) == 0
    capsys.readouterr()
    cert = (tmp_path / "snf.json").read_text()
    (tmp_path / "truncated").write_text(cert[:cert.index('"digest":"') + 20])
    (tmp_path / "deep").write_text("[" * 200_000)
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(perfchain.__file__))}
    done = subprocess.run([sys.executable, "-m", "perfchain.cli", "verify", name], cwd=tmp_path,
                          env=env, capture_output=True, text=True, check=False, timeout=60)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.startswith("error[E_PARSE]: bad certificate JSON: ") and \
        message in done.stderr and done.stderr.count("\n") == 1, done.stderr


@pytest.mark.parametrize("argv", [
    pytest.param(["perfect", "{lens}", "--cert", "{dir}"], id="perfect"),
    pytest.param(["perfect", "{lens}", "--cert", "{dir}", "--json"], id="perfect-json"),
    pytest.param(["minimalize", "{lens}", "--cert", "{dir}", "--json"], id="minimalize"),
    pytest.param(["minimalize", "{lens}", "-o", "{dir}"], id="minimalize-output"),
    pytest.param(["tower-limit", "{tower}", "--horizon", "2", "--cert", "{dir}"],
                 id="tower-limit"),
    pytest.param(["tower-perfect", "{tower}", "--horizon", "2", "--cert", "{dir}"],
                 id="tower-perfect"),
    pytest.param(["snf", "{matrix}", "--cert", "{dir}"], id="snf"),
    pytest.param(["complete", "--group", "Z+Z/12", "--l", "2", "--cert", "{dir}"],
                 id="complete"),
])
def test_unwritable_output_file_is_an_error_before_any_output(capsys, tmp_path, lens_path,
                                                              norm_tower_path, argv):
    """A directory given as the certificate (or `minimalize -o`) FILE is
    E_IO with exit 2 and nothing on stdout: the file is written before the
    answer is printed, so no verdict appears without its certificate."""
    (tmp_path / "dir").mkdir()
    matrix = tmp_path / "m.txt"
    matrix.write_text("2 4\n6 8\n")
    names = {"dir": str(tmp_path / "dir"), "lens": lens_path, "tower": norm_tower_path,
             "matrix": str(matrix)}
    got, out, err = run(capsys, *(a.format(**names) for a in argv))
    assert (got, out) == (2, "")
    assert err.startswith("error[E_IO]: ") and "Is a directory" in err, err


def test_cli_start_does_not_import_the_process_pool():
    """`concurrent.futures`, which pulls in logging and threading, is
    imported only by `perfect --jobs N` with N > 1 and several inputs."""
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(perfchain.__file__))}
    done = subprocess.run(
        [sys.executable, "-c", "import sys, perfchain.cli; "
         "print('concurrent.futures' in sys.modules, 'logging' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True, timeout=60)
    assert done.stdout == "False False\n"


@pytest.mark.parametrize("argv, expected", [
    pytest.param(["lens", "2", "20000", "1"],
                 "error[E_LIMIT]: group order 2^20000 exceeds 16384\n", id="lens-digits"),
    pytest.param(["lens", "3", "100000000", "1"],
                 "error[E_LIMIT]: group order 3^100000000 exceeds 16384\n", id="lens-power"),
    pytest.param(["lens", "2", "1", "100000000", "-o", "lens.cplx"],
                 "error[E_LIMIT]: lens complex dimension (100000000 + 1) * 2^1 exceeds 16384\n",
                 id="lens-cells"),
    pytest.param(["perfect", "order"], "error[E_PARSE]: table order or identity has too many "
                 "digits\n", id="table-order"),
    pytest.param(["perfect", "identity"], "error[E_PARSE]: table order or identity has too "
                 "many digits\n", id="table-identity"),
    pytest.param(["perfect", "entry"], "error[E_NOT_A_GROUP]: table entries out of range\n",
                 id="table-entry"),
])
def test_oversized_integer_is_refused_before_use(tmp_path, argv, expected):
    """An order l^k past the free-dimension bound is refused before l^k is
    computed, a lens complex whose cells pass that bound before any cell
    is built, a table descriptor whose order or identity has more digits
    than `int` reads is E_PARSE, and a table entry past int64 is refused
    before the table becomes an array: each a coded error with exit 2 in
    a few seconds, not a traceback (the 6021-digit order does not print),
    a power that runs for minutes or a cell loop that does not end."""
    digits = "1" * 5000
    for name, order, identity, mult in (("order", digits, "0", "0"),
                                        ("identity", "1", digits, "0"),
                                        ("entry", "2", "0", "0,1|1,99999999999999999999")):
        (tmp_path / name).write_text(f"group table:{{order:{order};identity:{identity};"
                                     f"mult:{mult}}}\nprime 2\nbottom 0\nranks 1\n")
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(perfchain.__file__))}
    done = subprocess.run([sys.executable, "-m", "perfchain.cli", *argv], cwd=tmp_path,
                          env=env, capture_output=True, text=True, check=False, timeout=20)
    assert (done.returncode, done.stdout, done.stderr) == (2, "", expected)


@pytest.mark.parametrize("command", ["perfect", "minimalize"])
def test_certificates_verify_up_to_the_largest_degree(tmp_path, command):
    """A complex whose top degree is 10^18 - 1 gives a certificate that
    `verify` accepts; one degree more is refused at read, E_PARSE with
    exit 2 and no output, so no certificate is written that `verify`
    could not read back."""
    top = 10 ** 18 - 1
    for name, t in (("top", top), ("past", top + 1)):
        (tmp_path / f"{name}.cplx").write_text(
            f"group cyclic:2\nprime 2\nbottom {t - 1}\nranks 1 1\nboundary {t}\n[1,1]\n")
    code, out, err = _run_in(tmp_path, [command, "top.cplx", "--cert", "top.cert"], False)
    assert (code, err) == (0, "") and out
    assert _run_in(tmp_path, ["verify", "top.cert"], False)[:2] == (
        0, f"certificate valid (kind={json.loads((tmp_path / 'top.cert').read_text())['kind']})\n")
    code, out, err = _run_in(tmp_path, [command, "past.cplx", "--cert", "past.cert"], False)
    assert (code, out) == (2, "") and err.startswith("error[E_PARSE]: line 4: degrees")
    assert not (tmp_path / "past.cert").exists()


def _run_in(workdir, argv, separate: bool):
    """(exit code, stdout, stderr) of one command run in `workdir`, in a
    fresh interpreter when `separate`, else through `main` here; an
    argparse usage error exits 2 either way."""
    if separate:
        env = {**os.environ, "COLUMNS": "80",
               "PYTHONPATH": os.path.dirname(os.path.dirname(perfchain.__file__))}
        done = subprocess.run([sys.executable, "-m", "perfchain.cli", *argv], cwd=workdir,
                              env=env, capture_output=True, text=True, check=False)
        return done.returncode, done.stdout, done.stderr
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()   # not contextlib.chdir, which Python 3.10 lacks
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as e:
        code = e.code
    finally:
        os.chdir(cwd)
    return code, out.getvalue(), err.getvalue()


def test_one_parser_serves_every_call(tmp_path, monkeypatch):
    """A usage error, then `lens`, `perfect --cert` and `verify` in one
    process print the bytes of separate runs and write the same
    certificate, and the parser is built once."""
    monkeypatch.setenv("COLUMNS", "80")
    jobs = [["perfect"], ["lens", "2", "1", "2", "-o", "lens.cplx"],
            ["perfect", "lens.cplx", "--cert", "lens.cert"], ["verify", "lens.cert"]]
    results = {}
    for separate in (True, False):
        workdir = tmp_path / str(separate)
        workdir.mkdir()
        runs = [_run_in(workdir, argv, separate) for argv in jobs]
        results[separate] = runs, (workdir / "lens.cert").read_bytes()
    assert results[True] == results[False]
    runs = results[True][0]
    assert [code for code, _, _ in runs] == [2, 0, 0, 0]
    assert runs[0][2].startswith("usage: perfchain perfect")
    assert runs[3][1] == "certificate valid (kind=perfectness)\n"
    assert cli.build_parser() is cli.build_parser()


def test_one_group_table_per_descriptor(capsys, tmp_path, monkeypatch):
    """`perfect --cert` then `verify` of a complex over a table-given Heis27
    build its group table once; a refused descriptor is refused again."""
    rng = random.Random(3)
    G = heisenberg_27()
    path = tmp_path / "heis27.cplx"
    path.write_text(write_complex(conjugate_complex(
        pad_with_identity_cones(random_minimal_complex(G, rng), rng, 2), rng)))
    assert G.descriptor.startswith("table:")
    built = []
    init = GroupTable.__init__

    def counting(self, *args, **kwargs):
        built.append(args[0])
        init(self, *args, **kwargs)

    monkeypatch.setattr(GroupTable, "__init__", counting)
    build_group.cache_clear()
    cert = str(tmp_path / "heis27.cert")
    assert run(capsys, "perfect", str(path), "--cert", cert)[0] == 0
    code, out, _ = run(capsys, "verify", cert)
    assert (code, out) == (0, "certificate valid (kind=perfectness)\n")
    assert len(built) == 1

    bad = tmp_path / "bad.cplx"
    bad.write_text("group table:{order:2;identity:1;mult:0,1|1,0}\nprime 2\nbottom 0\nranks 1\n")
    first = run(capsys, "perfect", str(bad))
    assert first[0] == 2 and first[2].startswith("error[E_NOT_A_GROUP]")
    assert run(capsys, "perfect", str(bad)) == first


def test_repeated_block_is_a_parse_error(capsys, tmp_path, norm_tower_path):
    """A second `boundary q` block in a complex, or `degree q` block in a
    bond, is refused with the line of the repeated header, not read as a
    replacement of the first."""
    path = tmp_path / "twice.cplx"
    path.write_text("group cyclic:2\nprime 2\nbottom 0\nranks 1 1\n"
                    "boundary 1\n[1,1]\nboundary 1\n[0,0]\n")
    code, out, err = run(capsys, "homology", str(path))
    assert (code, out) == (2, "")
    assert err == "error[E_PARSE]: line 7: repeated block 'boundary 1'\n"

    lines = open(norm_tower_path).read().splitlines()
    at = lines.index("bond 0") + 1
    assert lines[at] == "degree 0"
    lines[at:at] = lines[at:at + 2]
    path = tmp_path / "twice.twr"
    path.write_text("\n".join(lines) + "\n")
    code, out, err = run(capsys, "tower-limit", str(path), "--horizon", "2")
    assert (code, out) == (2, "")
    assert err == f"error[E_PARSE]: line {at + 3}: repeated block 'degree 0'\n"


_DELETE = object()


def _json_paths(obj, prefix=()):
    """The key path of every value inside a certificate."""
    items = obj.items() if isinstance(obj, dict) else \
        enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _json_paths(value, prefix + (key,))


@pytest.fixture(scope="module")
def certificates_to_mutate(tmp_path_factory):
    """Perfectness, quasi-iso and tower-perfectness certificates, positive
    and negative, over C2, and the snf and completion certificates of a
    square and a non-square integer matrix."""
    d = tmp_path_factory.mktemp("certs")
    G = SMALL_GROUPS["C2"]
    L = ChainComplex(G, 0, [1], [])
    N = norm_matrix(G)
    inputs = {
        "lens.cplx": write_complex(chains_of_cover(lens_complex(2, 1, 2))),
        "norm.twr": write_tower(Tower([L] * 4, [ChainMap(L, L, {0: N})]
                                      + [identity_chain_map(L)] * 2)),
        "const.twr": write_tower(Tower([L] * 3, [identity_chain_map(L)] * 2)),
        "snf.txt": "2 4 4\n-6 6 12\n10 -4 -16\n",
        "pres.txt": "3 0\n0 9\n6 3\n",
    }
    for name, text in inputs.items():
        (d / name).write_text(text)
    certs = []
    for argv in (["perfect", "lens.cplx"], ["minimalize", "lens.cplx"],
                 ["tower-perfect", "norm.twr", "--horizon", "2"],
                 ["tower-perfect", "const.twr", "--horizon", "2"],
                 ["snf", "snf.txt"], ["complete", "--presentation", "pres.txt", "--l", "3"]):
        cert_path = d / "cert.json"
        with contextlib.redirect_stdout(io.StringIO()):
            main([str(d / a) if a in inputs else a for a in argv]
                 + ["--cert", str(cert_path)])
        certs.append(json.loads(cert_path.read_text()))
    return d, certs


_JUNK = st.one_of(st.just(_DELETE), st.none(), st.booleans(), st.integers(-3, 40),
                  st.sampled_from([10**30, -10**30, 2**63]), st.floats(allow_nan=False),
                  st.text(max_size=3), st.just({}),
                  st.lists(st.integers(-1, 3), max_size=3))


@pytest.mark.parametrize("index", range(6))
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_mutated_certificate_never_crashes(certificates_to_mutate, index, data):
    """Up to three random edits of a certificate, each a value replaced or
    deleted, or one character of a string (a digit of an F_l array, say)
    changed: verify ends with exit 0, 1 or 2, a coded error on exit 2, and
    never an uncaught exception."""
    workdir, certs = certificates_to_mutate
    cert = copy.deepcopy(certs[index])
    for _ in range(data.draw(st.integers(1, 3))):
        path = data.draw(st.sampled_from(list(_json_paths(cert))))
        obj = cert
        for key in path[:-1]:
            obj = obj[key]
        old = obj[path[-1]]
        if isinstance(old, str) and old and data.draw(st.booleans()):
            i = data.draw(st.integers(0, len(old) - 1))
            c = data.draw(st.sampled_from("0123456789- \u0663"))
            obj[path[-1]] = old[:i] + c + old[i + 1:]
            continue
        value = data.draw(_JUNK)
        if value is not _DELETE:
            obj[path[-1]] = value
        elif isinstance(obj, dict):
            del obj[path[-1]]
        else:
            obj.pop(path[-1])
    cert_path = workdir / "mutated.json"
    cert_path.write_text(json.dumps(cert))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["verify", str(cert_path)])
    assert code in (0, 1, 2)
    assert code != 2 or err.getvalue().startswith("error[E_")


_SQUARE_NONZERO = "bottom 0\nranks 1 1 1\nboundary 1\n[1,0]\nboundary 2\n[1,0]\n"
_LENS_BODY = "bottom 0\nranks 1 1 1\nboundary 1\n[1,1]\nboundary 2\n[1,1]\n"


@pytest.mark.parametrize("command", ["perfect", "homology"])
def test_text_complex_with_d_squared_nonzero_is_refused(capsys, tmp_path, command):
    """A text complex whose d o d is not zero ends in E_D_SQUARED, exit 2."""
    path = tmp_path / "square.cplx"
    path.write_text("group cyclic:2\nprime 2\n" + _SQUARE_NONZERO)
    code, out, err = run(capsys, command, str(path))
    assert (code, out) == (2, "")
    assert err == "error[E_D_SQUARED]: d_1 o d_2 != 0\n"


def test_tower_level_with_d_squared_nonzero_is_refused(capsys, tmp_path):
    """Level 1 of a tower whose d o d is not zero ends in E_D_SQUARED."""
    path = tmp_path / "square.twr"
    path.write_text("group cyclic:2\nprime 2\nlevels 2\nlevel 0\n" + _LENS_BODY
                    + "level 1\n" + _SQUARE_NONZERO + "bond 0\n")
    code, out, err = run(capsys, "tower-perfect", str(path), "--horizon", "1")
    assert (code, out) == (2, "")
    assert err == "error[E_D_SQUARED]: d_1 o d_2 != 0\n"


def test_tower_bond_that_does_not_commute_is_refused(capsys, tmp_path):
    """A bond that is the identity in degree 1 and zero elsewhere breaks
    the square d f_1 = f_0 d, and ends in E_DIM_MISMATCH."""
    path = tmp_path / "bond.twr"
    path.write_text("group cyclic:2\nprime 2\nlevels 2\nlevel 0\n" + _LENS_BODY
                    + "level 1\n" + _LENS_BODY + "bond 0\ndegree 1\n[1,0]\n")
    code, out, err = run(capsys, "tower-perfect", str(path), "--horizon", "1")
    assert (code, out) == (2, "")
    assert err.startswith("error[E_DIM_MISMATCH]") and "commute" in err


def test_forged_replacement_with_d_squared_nonzero_is_refused(capsys, lens_path, tmp_path):
    """A perfectness certificate whose replacement has d o d != 0 is
    refused as E_D_SQUARED when it is read, exit 2."""
    cert_path = tmp_path / "lens.cert"
    assert run(capsys, "perfect", lens_path, "--cert", str(cert_path))[0] == 0
    cert = json.loads(cert_path.read_text())
    assert cert["witness"]["replacement"]["ranks"] == [1, 1, 1]
    cert["witness"]["replacement"]["boundaries"] = ["10", "10"]
    cert_path.write_text(json.dumps(cert))
    code, out, err = run(capsys, "verify", str(cert_path))
    assert (code, out) == (2, "")
    assert err == "error[E_D_SQUARED]: d_1 o d_2 != 0\n"
