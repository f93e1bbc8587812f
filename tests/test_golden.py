"""Report bytes pinned by SHA-256.

The sums are exact mod p^M, so a faster route to the same numbers must give
the same report bytes.  The digests are those of the committed jobs' reports
(``jobs/*.json`` and the f = 2 hyp job of the benchmark) as produced by the
per-point character sum, before the histogram oracles replaced it.

The toric reports (``polytope`` and ``gkz``) are exact too.  Their digests,
on the committed jobs and on the inline n = 3 jobs below (p = 3, zero twist,
all a_j = 1), were taken from the per-routine eliminations before they were
folded into one Gauss-Jordan and one column-Hermite kernel.

The ``check`` and ``trace`` digests were taken while the series side of the
trace formula was still a separate route (a level-m sum over a second basis)
and the series oracle still a histogram over the torus, before both became
one diagonal sum of the level-m series.

The ``charpoly`` digests and the ``lfunction`` digests of the Kloosterman,
segment and twist jobs were taken while the level-m series was still a dict
of ring elements built by a per-term recursion, the operator matrix was
filled one basis pair at a time, and the Berkowitz recursion read it back as
a list of ring-element rows, before all three became coordinate arrays.

The three full-degree ``charpoly`` digests of the inline jobs square_D6
(dim 49), kl_p3f2 (dim 23) and twist_p3f2 (dim 24) were taken while a
full-degree characteristic series still ran the Berkowitz recursion, before
the clow dynamic program became the only kernel.

The ``hyp`` digests of square_p3, twist_p5 and twist_p3f2 and the ``sums``
digests of kl_p3f2 and twist_p3f2 were taken while ``hyp_table`` still made
one character-oracle call per coefficient point, before one batched (x, k, c)
histogram served the whole table and the single-row oracle alike.
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

KL_P3F2 = {"p": 3, "f": 2, "A": [[1, -1]], "gamma_k": [0],
           "a": [[1, 0], [0, 1]], "precision": {"M": 5, "m_max": 2}}

INLINE_JOBS = {
    "square_D6": {"p": 3, "f": 1, "A": [[1, 0, 1], [0, 1, 1]],
                  "gamma_k": [0, 0], "a": [1, 1, 1],
                  "precision": {"M": 6, "m_max": 2, "D": 6}},
    "kl_p3f2": KL_P3F2,
    "twist_p3f2": {**KL_P3F2, "gamma_k": [1]},
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
    ("check", "jobs/kloosterman_p5.json",
     "6a0b47f0701782ef7f027586849485eceaa57b26e960cbf9f11b36a48c3e4c15"),
    ("check", "jobs/segment_p3.json",
     "d307ed6526b576931e33883bd25bb8bb9b58384c5019dbbdcb0f4af15861ae15"),
    ("check", "jobs/square_p3.json",
     "81bceb48afda537ede1e54107f0675d7cc53d011d513b363dfdd7660fa984798"),
    ("check", "jobs/twist_p5.json",
     "607e450fbc240c14be03be3373ab686de1556f755db9fde50b6ed9a21cab855b"),
    ("trace", "jobs/kloosterman_p5.json",
     "99eed1d38627cd91e7cc2b6dc0b75707cd8c4d1966ff42f7defe7a6b70f13f0b"),
    ("trace", "jobs/segment_p3.json",
     "468ba1e117c8f41dfb78a7e805787c3c976189ec4250a0420acf2d806a77a44b"),
    ("trace", "jobs/square_p3.json",
     "a02406bdea92d4a29e73dc1f095d339d16b0b37d250c44d730827493ea7f7408"),
    ("trace", "jobs/twist_p5.json",
     "9072c753ed2a8cfc1cedf5148f09d08707abd4b1e8570e2b01ff19544f9aafb3"),
    ("charpoly", "jobs/kloosterman_p5.json",
     "589222452d94d6244a6f6b7f2b77dd46968e07ae1da4e287edda7ba7b3e64a9a"),
    ("charpoly", "jobs/segment_p3.json",
     "fb64a6e7e34931e8b9beb312f5aa7dfb0413eed06764f9bf16679d2d681e4299"),
    ("charpoly", "jobs/square_p3.json",
     "a9e167d077ce422c6b24477b2bef9970f9e206586f4b59cdb5faf851ce9b1360"),
    ("charpoly", "jobs/twist_p5.json",
     "f3cd8c7c9f540c6d02ce95f2c7a1cd82f71f566ffc3193fca5205a6d81205e99"),
    ("lfunction", "jobs/kloosterman_p5.json",
     "f9e19cc38c6b4a6ca8c7eadbcfaf070c5a96219e799fd48f6271e11e4744ffb3"),
    ("lfunction", "jobs/segment_p3.json",
     "465d2db8be0bdddd4654cb62a4018d856eb07d4aa4eeb092462632c0bd467654"),
    ("lfunction", "jobs/twist_p5.json",
     "9a58ce85ca26a26ec6ee5cf06034a476471ea514e2d54f015a46eb4414a7363a"),
    ("charpoly", "square_D6",
     "1f608fbb6b8fabf94789edfc8ed03b3b75a961e61b8e462ccc55662942696be6"),
    ("charpoly", "kl_p3f2",
     "c994c71a656fd048921d831337ae25a51d5b29a15bb172dd652dc4f443975cf9"),
    ("charpoly", "twist_p3f2",
     "06d924309505cae0e3e4cf15ea41ee1eb9a933b33d1b5fa922405f50e2c1f91a"),
    ("hyp", "jobs/square_p3.json",
     "f92b99b3636c667a3fed5bbf29df9814b966994be6cacc4c8b7390b9c67c5a37"),
    ("hyp", "jobs/twist_p5.json",
     "ae038a3e201814b93e9ab1bef0ac1e2e2976edc0efef25f1495f1c101c11d34d"),
    ("hyp", "twist_p3f2",
     "49258bcceee0eb43a0627fd1e4d6568858b3ad67a4175449d0ec1b1e52321766"),
    ("sums", "kl_p3f2",
     "103d25a6a0be1ff6e670ff2a2bfc9dfb7cdb4e0fc9b76653b6f4cdf65d60ec63"),
    ("sums", "twist_p3f2",
     "c4de9629077778aadb5df959db328521cd431049b3f936283e4ed550441fa368"),
]


def load_job(job):
    if job in INLINE_JOBS:
        return INLINE_JOBS[job]
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
