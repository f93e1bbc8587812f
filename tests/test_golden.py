"""Report bytes pinned by SHA-256.

The sums are exact mod p^M, so a faster route to the same numbers must give
the same report bytes.  The digests are those of the committed jobs' reports
(``jobs/*.json`` and the f = 2 hyp job of the benchmark) as produced by the
per-point character sum, before the histogram oracles replaced it.
"""

import hashlib
import json
from pathlib import Path

import pytest

from dworksum import cli

ROOT = Path(__file__).resolve().parent.parent

GOLDEN = [
    ("lfunction", "jobs/square_p3.json",
     "e83e30b02b435b33724e7796af29e9aa03c0f704620050a988fdaee6dae18acd"),
    ("hyp", "bench/jobs/hyp_twist_p5f2.json",
     "e6fec9681b567cc536464cd57d88de826d078cd7521bf56d724b0dc4450c7815"),
    ("sums", "jobs/kloosterman_p5.json",
     "c44dae6c659d7322f3d658961ae93c65f40295a3dca31efa6be567d38d30c6fc"),
    ("sums", "jobs/segment_p3.json",
     "7e7c3b48532083afede2b7a4d9e389484ea9fcc030d5340686cf01d69da64371"),
    ("sums", "jobs/square_p3.json",
     "2a5f720b82380e426e677ec1bb220f7d09a5b0abdf2e291b4261115eb1208c2c"),
    ("sums", "jobs/twist_p5.json",
     "98bf969854bbed73cf820d817f0d5271597b6543e2ec94f3b0c9743f8c858c9e"),
]


@pytest.mark.parametrize(
    "command,job,digest", GOLDEN, ids=[f"{c}-{Path(j).stem}" for c, j, _ in GOLDEN]
)
def test_report_digest(command, job, digest):
    raw = json.loads((ROOT / job).read_text())
    text = cli.render_report(cli.run(command, raw))
    assert hashlib.sha256(text.encode()).hexdigest() == digest
