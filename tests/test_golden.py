"""Report bytes pinned by SHA-256.

The sums are exact mod p^M, so a faster route to the same numbers must give
the same report bytes.  The digests are those of the committed jobs' reports
(``jobs/*.json`` and the f = 2 hyp job of the benchmark) as produced by the
per-point character sum, before the histogram oracles replaced it.

The toric reports (``polytope`` and ``gkz``) are exact too.  Their digests,
on the committed jobs and on the inline n = 3 jobs below (p = 3, zero twist,
all a_j = 1), were taken from the per-routine eliminations before they were
folded into one Gauss-Jordan and one column-Hermite kernel.
"""

import hashlib
import json
from pathlib import Path

import pytest

from dworksum import cli

ROOT = Path(__file__).resolve().parent.parent

INLINE = {
    "identity3": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
    "triangle": [[1, 0, -1], [0, 1, -1]],
    "cube_corner": [[1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, 1]],
    "mixed3": [[2, 0, 1, 1], [0, 2, 1, -1], [1, 1, 2, 0]],
}

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
    ("polytope", "jobs/kloosterman_p5.json",
     "518aa8b8e86e40ef6056b188d1623dfbd6ccb65e0b351265734e460b0e6e6fa3"),
    ("polytope", "jobs/segment_p3.json",
     "345bb24f75a087b6b2e11faf56450e507ac977cfd95773d6c57975bf69971493"),
    ("polytope", "jobs/square_p3.json",
     "6ef219d611e4303fa35cd1b8187b44804f160f4239d9fc0e626f6c8cdb7b9dac"),
    ("polytope", "jobs/twist_p5.json",
     "70a6e426072fff20e389300246c5c5aea8c6c8f9389696a7ed3a267c819026a9"),
    ("gkz", "jobs/kloosterman_p5.json",
     "c21daff7a3c614409c1a5fa38d6d39185b2f3aadf09e7d1719dfd9232306307a"),
    ("gkz", "jobs/segment_p3.json",
     "ce8763279f84c475df11510ca92c6c19808c499bb9959ce4d0bfa85d69e08997"),
    ("gkz", "jobs/square_p3.json",
     "ed73624fd16e5e274066fb13242c4801e08f48ce33836b0b5be2be9730a4799d"),
    ("gkz", "jobs/twist_p5.json",
     "d4ffdf2d09e7d1a61e3d748cc3bb60f3f95f388a5ddd2b71535c21411182ff7c"),
    ("polytope", "identity3",
     "13ee7a7116a68107ff3787458299401933fbd84406c73a2f470e44349de63dc2"),
    ("polytope", "triangle",
     "b0ca0fdffe4b104969bb9402b1546d8f6a77b784a3ffc74eb75c3dfd3b4b223d"),
    ("polytope", "cube_corner",
     "17f673d884f028da24947e176ea496199c922937cd10a42bdcf05b58f6ea9533"),
    ("polytope", "mixed3",
     "cbe0da69d6ec31a8acfad614df83db9c84eddcccfc93ada1d4c8ad8f5911faa2"),
    ("gkz", "identity3",
     "5868fea8f2da3cd3ab71d60beecb220cf60dff04043f68bb42773bb4a84fa861"),
    ("gkz", "triangle",
     "067280e335b3e29c6fe332bcd79573dbef4ea9074ebdff1476fb9b3cc05b236e"),
    ("gkz", "cube_corner",
     "9b7684f4b04af8258308e6b2d336434b6ed0589d37519237e4bdf4e91e5a5138"),
    ("gkz", "mixed3",
     "ea2c476ea89f08fd050001daae8237567774258ac5803606f88bd12835eb5b51"),
]


def load_job(job):
    if job in INLINE:
        A = INLINE[job]
        return {"p": 3, "A": A, "gamma_k": [0] * len(A), "a": [1] * len(A[0])}
    return json.loads((ROOT / job).read_text())


@pytest.mark.parametrize(
    "command,job,digest", GOLDEN, ids=[f"{c}-{Path(j).stem}" for c, j, _ in GOLDEN]
)
def test_report_digest(command, job, digest):
    text = cli.render_report(cli.run(command, load_job(job)))
    assert hashlib.sha256(text.encode()).hexdigest() == digest
