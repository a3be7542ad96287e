"""The bench's tracer (`perfbench/tracing.py`) runs against src/perfchain.

Its hooks read attributes of the objects they wrap, so a change under
src/ can break the traced bench pass without breaking any other test.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from perfchain import ChainComplex, ChainMap, Tower, chains_of_cover, lens_complex
from perfchain.serialize import write_complex, write_tower

from conftest import SMALL_GROUPS, identity_chain_map, norm_matrix

ROOT = Path(__file__).resolve().parent.parent

TRACED_RUN = """
import json, sys
from tracing import Tracer
tracer = Tracer()
tracer.install()
from perfchain.cli import main
codes = [main(["tower-limit", "norm.twr", "--horizon", "2"]), main(["perfect", "lens.cplx"])]
print(json.dumps({"codes": codes, "counts": tracer.counts}))
"""


def test_traced_cli_counts_expansion_bytes(tmp_path):
    """In a fresh interpreter with the tracer installed, `tower-limit` on
    the C2 norm tower and `perfect` on a lens complex exit 0, and the
    `groups.expand` hook counts the bytes of the expansions built."""
    G = SMALL_GROUPS["C2"]
    L = ChainComplex(G, 0, [1], [])
    T = Tower([L] * 4, [ChainMap(L, L, {0: norm_matrix(G)})] + [identity_chain_map(L)] * 2)
    (tmp_path / "norm.twr").write_text(write_tower(T))
    (tmp_path / "lens.cplx").write_text(write_complex(chains_of_cover(lens_complex(2, 1, 2))))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])}
    done = subprocess.run([sys.executable, "-c", TRACED_RUN], cwd=tmp_path, env=env,
                          capture_output=True, text=True, check=False, timeout=60)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["codes"] == [0, 0]
    assert result["counts"].get("groups.expand.bytes", 0) > 0
