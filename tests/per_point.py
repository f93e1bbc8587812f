"""Per-point references: finite-field and ring embeddings one element at a
time, and the nondegeneracy search one torus point at a time.

The package evaluates both torus walks on discrete-log tables; these are
the literal definitions the tests compare it against.  Each embedding goes
along the lexicographically smallest root of the source modulus, with the
coefficient vector read c_0 first.
"""

import itertools
from functools import lru_cache

from dworksum import finitefield as ff
from dworksum import lfunction as lf
from dworksum import padic
from dworksum import polytope as pt
from dworksum.errors import NoRoot, NotASubfield, ParamsMismatch


def enumerate_units(params: ff.FqParams) -> list:
    """All q-1 nonzero elements, lexicographic in the coefficient vector."""
    return [x for x in params.all_elements() if not x.is_zero()]


@lru_cache(maxsize=None)
def embed_root(src: ff.FqParams, dst: ff.FqParams) -> ff.FqElement:
    """The distinguished root of src.modulus in the bigger field dst: among all
    roots, the one with lexicographically smallest coefficient vector, found
    by a scan of the whole of dst."""
    if src.p != dst.p or dst.degree % src.degree != 0:
        raise NotASubfield(f"{src!r} does not embed in {dst!r}")
    if src.degree == 1:
        return dst.zero()
    g = src.modulus
    roots = []
    for x in dst.all_elements():
        acc = dst.zero()
        xp = dst.one()
        for c in g:
            if c:
                acc = acc + dst.from_int(c) * xp
            xp = xp * x
        if acc.is_zero():
            roots.append(x)
    if not roots:
        raise NoRoot(f"{g} has no root in {dst!r}")
    return min(roots, key=lambda r: r.coeffs)


def embed(x: ff.FqElement, dst: ff.FqParams) -> ff.FqElement:
    """Field embedding along the distinguished root."""
    if x.params == dst:
        return x
    root = embed_root(x.params, dst)
    acc = dst.zero()
    xp = dst.one()
    for c in x.coeffs:
        if c:
            acc = acc + dst.from_int(c) * xp
        xp = xp * root
    return acc


@lru_cache(maxsize=None)
def _embed_powers(src: padic.RingParams, dst: padic.RingParams) -> tuple:
    """Powers of the distinguished image of the source generator b in dst:
    the Hensel lift of embed_root's root of the source modulus."""
    if src.p != dst.p or src.M != dst.M or dst.s % src.s != 0:
        raise ParamsMismatch(f"cannot embed {src!r} into {dst!r}")
    root_res = embed_root(src.fq, dst.fq)
    r = padic.teichmueller_section_lift(root_res, dst)
    g = src.g
    # Newton: r <- r - g(r)/g'(r); g separable mod p so g'(r) is a unit
    for _ in range(src.M.bit_length() + 3):
        gr = dst.zero()
        dgr = dst.zero()
        rp = dst.one()
        for k, c in enumerate(g):
            if c:
                gr = gr + rp * c
            if k + 1 < len(g) and g[k + 1]:
                dgr = dgr + rp * ((k + 1) * g[k + 1])
            rp = rp * r
        if gr.is_zero():
            break
        r = r - gr * dgr.inv()
    else:
        raise NoRoot(f"Hensel lift of {root_res!r} failed; modulus selection bug")
    pows = [dst.one()]
    for _ in range(src.s - 1):
        pows.append(pows[-1] * r)
    return tuple(pows)


def ring_embed(x: padic.RamifiedElement, target: padic.RingParams):
    """Unramified embedding R(p, s, M) -> R(p, s k, M) fixing pi, commuting
    with Teichmueller lifts."""
    src = x.params
    if src == target:
        return x
    pows = _embed_powers(src, target)
    p, s = src.p, src.s
    acc = target.zero()
    pi_pow = target.one()
    pi_t = target.pi()
    for i in range(p - 1):
        row = target.zero()
        for j in range(s):
            c = x.coords[i * s + j]
            if c:
                row = row + pows[j] * c
        if not row.is_zero():
            acc = acc + pi_pow * row
        pi_pow = pi_pow * pi_t
    return acc


def nondegeneracy_check(config, a_coeffs, s_max: int = 2):
    """The bounded nondegeneracy certificate, one torus point at a time:
    every face in faces_off_origin order, every point of the torus over
    F_{q^s} in itertools.product order, levels s = 1..s_max."""
    base = a_coeffs[0].params
    faces = pt.newton_data(config).faces_off_origin()
    for s in range(1, s_max + 1):
        big = ff.FqParams(base.p, base.degree * s)
        a_emb = [embed(a, big) for a in a_coeffs]
        units = enumerate_units(big)
        for face in faces:
            live = [j for j in face if not a_emb[j].is_zero()]
            if not live:
                # the face polynomial vanishes identically
                return lf.DegenerateWitness((big.one().coeffs,) * config.n, face)
            for point in itertools.product(units, repeat=config.n):
                degenerate = True
                for i in range(config.n):
                    acc = big.zero()
                    for j in live:
                        term = a_emb[j] * big.from_int(config.A[i][j])
                        for t_idx in range(config.n):
                            e = config.A[t_idx][j]
                            if e:
                                term = term * point[t_idx] ** e
                        acc = acc + term
                    if not acc.is_zero():
                        degenerate = False
                        break
                if degenerate:
                    return lf.DegenerateWitness(
                        tuple(x.coeffs for x in point), face
                    )
    return lf.NondegenerateUpTo(s_max)
