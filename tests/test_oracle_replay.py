"""The chain layer's reports, pinned in the tier-1 run.

``scripts/oracle_replay.py`` hashes the canonical reports of each kind
over the benchmark's inputs.  The ``verify`` kind runs every chain map,
``diff`` and the bimodule action through ``cli.run_verify``; the ``apply``
kind runs every map on the ``splitting`` inputs through the JSON codec.
Their recorded hashes pin those reports byte for byte.
"""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "scripts"))

import oracle_replay  # noqa: E402

#: kind -> (report count, sha256), as the script prints them
PINNED = {
    "verify": (6, "3f80752b457ffa0612158f130e94c47a7f83d7fd669b848ee47c"
                  "759e6a3a4b6e"),
    "apply": (3000, "0fc765473c5b014b096b78db2365c9868e622d50e68abb6c07"
                    "9dfae325a9c31d"),
}


@pytest.mark.parametrize("kind", sorted(PINNED))
def test_chain_layer_reports_keep_their_hash(kind, monkeypatch):
    # the workloads are read from perfbench/, and nothing is written there
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    assert oracle_replay.digest(oracle_replay.KINDS[kind]()) == \
        PINNED[kind]
