"""The bench's jobs give the same bytes from one change to the next.

`perfbench/gen.py` builds the job sets from explicit tables, independent
of perfchain, so a seed writes the same inputs on every commit.  Each job
runs here as the bench worker runs it: its solve commands and `verify`
through `perfchain.cli.main` in a fresh directory, and exactness batches
through `worker.exactness_batch`.  One sha256 per workload and seed covers
every exit code, stdout, stderr, certificate and exactness answer, and is
compared with a pinned value.  A change that should leave the program's
bytes alone must leave these hashes alone.
"""

import hashlib
import importlib
import json
from pathlib import Path

import pytest

from perfchain import abelian
from perfchain.cli import main

ROOT = Path(__file__).resolve().parent.parent

PINNED = {
    ("free_complexes", 1):
        "c54cd110935ae353761781d9320c7cf0b6ac539a39c4831fbef9e0595533d63b",
    ("free_complexes", 2):
        "5776a2a4a07ab9f44ce255a32e432b36a2bb8d312bd0dacf8bb3005918164b36",
    ("free_complexes", 3):
        "3c8c2671417a2d98d1632a405b2acf0fb67131d6233bf26ce085ce3c9c8ef900",
    ("integer_snf", 1):
        "e6f4e7697aa4320aaf43654ccfe10260c4e49b615f1102cbe50e6c4d0b35e796",
    ("integer_snf", 2):
        "0e88ef8c68a79567cf61c2b58935f96c74e7b3efdef9a8062bb5dfa7c96626da",
    ("integer_snf", 3):
        "3564ad2110c2fb3e8444029bd617a9c505aa0eb9c8d0cdf63e670b93d414b6a7",
    ("tower_order64", 1):
        "392051810f0e84c1d2a8d3a657a20edad6110b3a620fc4f312d08c1d98af90d8",
    ("tower_order64", 2):
        "39f399de225d77649823c888ef432a6db2ea9e9a789f596245b2955f36e76de2",
    ("tower_order64", 3):
        "1672cd103657e8146e1b0fde93ec66addbffe039d5b7142f8da9981d0e92ce5b",
}


def job_bytes_digest(gen, worker, workload: str, seed: int) -> str:
    """sha256 over what every job of the workload at this seed prints and
    writes, run in the current directory."""
    digest = hashlib.sha256()

    def add(*parts):
        for part in parts:
            data = part if isinstance(part, bytes) else str(part).encode()
            digest.update(len(data).to_bytes(8, "big") + data)

    jobs, _ = gen.build(workload, seed)
    for job in jobs:
        for name, text in job.files.items():
            with open(name, "w", encoding="utf-8") as fh:
                fh.write(text)
        add(job.name)
        if job.kind == "exactness":
            add(json.dumps(worker.exactness_batch(abelian, job.name + ".json")))
        for argv in job.solve:
            add(*worker.run_cli(main, argv))
        if job.verify:
            with open(job.name + ".cert", "rb") as fh:
                add(fh.read())
            add(*worker.run_cli(main, ["verify", job.name + ".cert"]))
    return digest.hexdigest()


@pytest.mark.parametrize("workload, seed", sorted(PINNED))
def test_bench_job_bytes_are_pinned(workload, seed, tmp_path, monkeypatch):
    """Seeds 1-3 of every workload print and write the pinned bytes."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    gen, worker = importlib.import_module("gen"), importlib.import_module("worker")
    monkeypatch.chdir(tmp_path)
    assert job_bytes_digest(gen, worker, workload, seed) == PINNED[workload, seed]
