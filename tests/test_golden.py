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

The ``trace`` digests of kl_p3f2 and twist_p3f2, the first with f > 1, were
taken while Tr(G^m) and the clow dynamic program still multiplied full
regular-representation block matrices, before both ran on coordinate rows
against the row-layout encoding.

The ``lfunction`` and ``check`` digests of kl_p3f2 and the ``lfunction``
digest of twist_p3f2 reach F_{3^10} at recognition's level 5.  They were
taken, about 6 s each in a fresh process, while every level m >= 2 still
summed in the level ring R(p, f m, M) and restricted the value back to
R(p, f, M), before every level was evaluated in the base ring.

The ``nondegeneracy`` digests were taken while the check still walked the
torus one ``FqElement`` at a time, embedding the coefficients by a scan of
the whole big field, before it ran on the field tables.  Beside the
committed jobs they pin three witnesses: x + x^3 over F_3, whose vertex
x^3 has the toric derivative 3 x^3 = 0; the edge x (1 + 2 y + y^2) over
F_5, a double root at y = 4; and the edge x (y^2 + b y + b)^2 over
F_9 = F_3[b]/(b^2 + 1), whose double roots first appear over F_81, so the
report shows which root of b^2 + 1 the embedding into F_81 takes.

The ``trace`` digest of p11_kl (p = 11, level 3, i_cut 7,321) was taken
while every level m >= 2 still expanded the whole level-m series on a dense
box, before the series side read the diagonal by a cyclic fold on
(Z/(q^m - 1))^n.

The beyond-desk ``charpoly`` digests of simplex3_p5, kl2var and diamond
(dims 220, 199 and 265, above the full-degree cap, so truncated to T^8), of
kl_f2 (a = 1, 1 over F_9), and the ``trace`` digests of I3_p7_M5 and kl_f2
were taken while the operator matrix, its traces and its characteristic
series still ran on the whole basis, before they were restricted to the
block of basis points that the Hodge bound leaves alive mod p^M.

The toric digests of cells3 (n = 3, volume 91, simplex determinants up to
40) and cells4 (n = 4, volume 258, determinants up to 96) pin large
fundamental cells.  They were taken while the toric geometry still ran a
Gauss-Jordan elimination beside the column Hermite reduction and searched
the cone's facets over (n - 1)-subsets of generators, before column Hermite
became the only elimination and the cone read its facets off the hull.

The ``sums`` digest of x over F_211 (M = 4; residues mod 211^4, so every
product of the character sum runs on float64 limbs) and the ``trace`` digest
of twocol_p11 (A = [[1, -1, 2]], p = 11, M = 5, m_max = 3; its level-3 half
{-1, 2} runs the two-column torus product on 1,330 cells) were taken while
matmul_mod still summed int64 products beyond float64's exact range, before
every product ran on float64 limbs and before the fold's work had a budget.

The ``sums`` digest of x over F_257 and the ``hyp`` digest of x over F_211
(both at M = 4) were taken while the character sum still multiplied the
Teichmueller powers and the powers of theta(1) through blow-wide regular
representations, before each was held on its own subring's coordinates.

The ``trace``, ``sums`` and ``charpoly`` digests of x over F_257 and F_1021
(M = 2), and those of kl_f3_a (a not in F_3, f = 3) and threecol_p5f2 (three
columns over F_25 with a twist), were taken while each column's splitting
terms still multiplied the q - 1 powers of its Teichmueller point, built by
element products, through blow-wide regular representations, before the
powers came from one doubling walk and acted on each pi-row through an
s x s matrix of the unramified subring.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from dworksum import cli

ROOT = Path(__file__).resolve().parent.parent

IDENTITY3 = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]

INLINE = {
    "identity3": IDENTITY3,
    "triangle": [[1, 0, -1], [0, 1, -1]],
    "cube_corner": [[1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, 1]],
    "mixed3": [[2, 0, 1, 1], [0, 2, 1, -1], [1, 1, 2, 0]],
    "cells3": [[0, 2, -3, 0, -3], [-1, 2, 3, 1, 1], [1, 0, 2, -2, -2]],
    "cells4": [[-1, 3, -3, 2, 0], [3, 0, 1, -1, 1], [0, 3, 1, 0, -3],
               [0, 3, -1, -2, -1]],
}

KL_P3F2 = {"p": 3, "f": 2, "A": [[1, -1]], "gamma_k": [0],
           "a": [[1, 0], [0, 1]], "precision": {"M": 5, "m_max": 2}}

INLINE_JOBS = {
    "square_D6": {"p": 3, "f": 1, "A": [[1, 0, 1], [0, 1, 1]],
                  "gamma_k": [0, 0], "a": [1, 1, 1],
                  "precision": {"M": 6, "m_max": 2, "D": 6}},
    "kl_p3f2": KL_P3F2,
    "twist_p3f2": {**KL_P3F2, "gamma_k": [1]},
    "p11_kl": {"p": 11, "A": [[1, -1]], "gamma_k": [0], "a": [1, 1],
               "precision": {"M": 5, "m_max": 3}},
    "x_plus_x3": {"p": 3, "A": [[1, 3]], "gamma_k": [0], "a": [1, 1]},
    "edge_p5": {"p": 5, "A": [[1, 1, 1], [0, 1, 2]], "gamma_k": [0, 0],
                "a": [1, 2, 1]},
    "simplex3_p5": {"p": 5, "A": IDENTITY3, "gamma_k": [0, 0, 0],
                    "a": [1, 1, 1], "precision": {"M": 4, "m_max": 2}},
    "I3_p7_M5": {"p": 7, "A": IDENTITY3, "gamma_k": [0, 0, 0],
                 "a": [1, 1, 1], "precision": {"M": 5, "m_max": 2}},
    "kl2var": {"p": 3, "A": [[1, 0, -1], [0, 1, -1]], "gamma_k": [0, 0],
               "a": [1, 1, 1], "precision": {"M": 4, "m_max": 2}},
    "diamond": {"p": 3, "A": [[1, 0, -1, 0], [0, 1, 0, -1]],
                "gamma_k": [0, 0], "a": [1, 1, 1, 1], "precision": {"M": 4}},
    "kl_f2": {**KL_P3F2, "a": [[1, 0], [1, 0]]},
    "x_F211": {"p": 211, "A": [[1]], "gamma_k": [0], "a": [1],
               "precision": {"M": 4, "m_max": 1}},
    "x_F257": {"p": 257, "A": [[1]], "gamma_k": [0], "a": [1],
               "precision": {"M": 4, "m_max": 1}},
    "twocol_p11": {"p": 11, "A": [[1, -1, 2]], "gamma_k": [0], "a": [1, 1, 1],
                   "precision": {"M": 5, "m_max": 3}},
    "x_p257": {"p": 257, "A": [[1]], "gamma_k": [0], "a": [1],
               "precision": {"M": 2, "m_max": 1}},
    "x_p1021": {"p": 1021, "A": [[1]], "gamma_k": [0], "a": [1],
                "precision": {"M": 2, "m_max": 1}},
    "kl_f3_a": {"p": 3, "f": 3, "A": [[1, -1]], "gamma_k": [0],
                "a": [[0, 1, 0], [1, 1, 0]], "precision": {"M": 4, "m_max": 2}},
    "threecol_p5f2": {"p": 5, "f": 2, "A": [[1, -1, 2]], "gamma_k": [1],
                      "a": [[0, 1], [2, 3], [1, 1]],
                      "precision": {"M": 4, "m_max": 2}},
    "edge_p3f2": {"p": 3, "f": 2, "A": [[1, 1, 1, 1, 1], [0, 1, 2, 3, 4]],
                  "gamma_k": [0, 0],
                  "a": [[2, 0], [1, 0], [2, 2], [0, 2], [1, 0]]},
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
    ("polytope", "cells3",
     "5967ec2f502cb7b0549a27ee71d91e27cee8e3a269f1b04a09e3114cf1a0191e"),
    ("polytope", "cells4",
     "5a9c71444358395ee87ef7ffdebde812f1dc52fbdb08dceaf38d399c001c5efb"),
    ("gkz", "cells3",
     "dd84856d530a615e9c92493a39a1ab944c71e5724d1594a31a4c587123b53345"),
    ("gkz", "cells4",
     "a2c14028a4f2ad62beab71420c4dd9f38182f4a84e8a7002f2562938add0b692"),
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
    ("trace", "kl_p3f2",
     "bcf667191d072fc7637258bd5ae7daa04429b1257711de8d3257693853342565"),
    ("trace", "twist_p3f2",
     "997441339b6ea92959fa0cf630bb3558c2bde0c3eebc42ae7967ce228f5525b1"),
    ("trace", "p11_kl",
     "42968def690d104391b51c6de3105f2844b11d9b371d43d6f1786351e32f48e2"),
    ("lfunction", "kl_p3f2",
     "926e50cf96ee2614a32d0085046613d58e3cb706a5510bb7eb9977b529fbd794"),
    ("check", "kl_p3f2",
     "7caffd8c64c4a28687b8592e22e8fe3b3a83c7dbc2ac6be49f6fd509f3495b6d"),
    ("lfunction", "twist_p3f2",
     "b250b218dab8503967777d2bd0856455014a73aebd7075cac2c0d09320ce04a6"),
    ("nondegeneracy", "jobs/kloosterman_p5.json",
     "5640567b2a8b823529ccbf79bcbcf6563bbe1eadcb8831e62fa7c656049aac6f"),
    ("nondegeneracy", "jobs/segment_p3.json",
     "2326eda3f5bf32a00c80f60dfb4f6ffa3a97d62df937a0f54f78982986b3acde"),
    ("nondegeneracy", "jobs/square_p3.json",
     "b52262383cd92b2c57fdfd8af845a33130b6664485911342808a931f27d07f35"),
    ("nondegeneracy", "jobs/twist_p5.json",
     "f99dae11e63627836690279c96886e651fe35ab1641286b4b4b8f6b9719ae922"),
    ("nondegeneracy", "x_plus_x3",
     "9312c7ba4d58e9e64c1faa0c36ea7c7d62a8301aa7edf491905e8983eb1bbbae"),
    ("nondegeneracy", "edge_p5",
     "9600045c8dc492ce49eb5d2172fc0768006e1891aca3a1ae2c031aa1f39a2eca"),
    ("nondegeneracy", "edge_p3f2",
     "b32d16602eb712f414fe451418946d949faec9db5dc55d06246c924b6a10590d"),
    ("charpoly", "simplex3_p5",
     "4526db1fd583b2f9d145c3751931bebec1823a6649334627aeec755906f4cad1"),
    ("charpoly", "kl2var",
     "36052e4f7fce3a827556779b871afcbbb4ddf362016019b0c472150a15a80012"),
    ("charpoly", "diamond",
     "f60d1b50a30061d2a4a9c01b22c93de3fa4c118bb653fcc0355d08caa8252a95"),
    ("charpoly", "kl_f2",
     "847842dcb3f22347d3c42d51da0c6f313fe653b6f4ce5da8f523e89d3e641b60"),
    ("trace", "I3_p7_M5",
     "845ecc015eaa3960a741e132694542967d196423550263c274b038d55f3fb9d8"),
    ("trace", "kl_f2",
     "959533ae40fd5aa16dc4eb64a31b950d0e01c24ba362bd14a7a1de91cf68394e"),
    ("sums", "x_F211",
     "6ef9a2163d847909994ae3a0f856e31e20684eb64f82e4b1d556fcf303c268ed"),
    ("trace", "twocol_p11",
     "82e7922f085bbd143b4dab2150d034df01a9327c298675276af9989b1ba7b8b8"),
    ("sums", "x_F257",
     "ee97bc8d58b3184b905c1390385bffc69e97d1f168611ac079e4fc9bf56d76f2"),
    ("hyp", "x_F211",
     "d46005aa6cb6de1f75cf3634e7ec3cd41b3d694a69cf044dd5b0fd790a72e0d3"),
    ("trace", "x_p257",
     "f3ca3b4a1f211d3d30825c47cc5977d9476c3fba5cdde67c8ad61fb6f5ebd251"),
    ("sums", "x_p257",
     "fa088a0bea55f9bc63564d9e431c6c4a0c67378b944715e361410ad5e3e13d20"),
    ("charpoly", "x_p257",
     "ab1c31599a4abc77101f5362311ab660acff498b92d48ce860e7f6e83112893e"),
    ("trace", "x_p1021",
     "fc00c697831e75270f6941b3c9db89c2e99ccfd90eafbf4337a48ea5505451ce"),
    ("charpoly", "x_p1021",
     "5c05db5a47701f43bdefe10dcf96dbd0a7b7acd7cdb022fce9f16ba64d2383a8"),
    ("trace", "kl_f3_a",
     "41aeb7c6a5240679dccb483ad9001dbb5f8298884e9c94251490bd1b18fd6ebf"),
    ("sums", "kl_f3_a",
     "159111b43160f8f6c8fcdc4435352bfbd0daeef85683272f6f00707005e78071"),
    ("check", "kl_f3_a",
     "88772a296a82d33c1eec511f33fcff7d0bb9937a5049e14fccc976901fca8a18"),
    ("trace", "threecol_p5f2",
     "acd55bd711c725b3e6e7f16b15c7231aaf01b7017bd9dcd29fcfd30cd7910605"),
    ("sums", "threecol_p5f2",
     "c7fc7fa4fab52064fb0b5c58e8b17bb25e164faf51372619093045ff0af00364"),
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


def test_command_line_writes_the_hyp_report(tmp_path):
    # the largest report, through main's --out path in a fresh interpreter
    job = "bench/jobs/hyp_twist_p5f2.json"
    digest = next(d for c, j, d in GOLDEN if (c, j) == ("hyp", job))
    out = tmp_path / "hyp.json"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-m", "dworksum", "hyp", "--job", job, "--out", str(out)],
        capture_output=True, env=env, cwd=ROOT, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == b""
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
