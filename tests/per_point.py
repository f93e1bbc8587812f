"""Per-point references: finite-field arithmetic and embeddings one element
at a time, ring embeddings with a Newton inverse, and the nondegeneracy
search one torus point at a time.

Elements of F_q are coefficient tuples, as in the package, multiplied by
``finitefield.polymulmod``.  The package evaluates both torus walks on
discrete-log tables; these are the literal definitions the tests compare it
against.  Each embedding goes along the lexicographically smallest root of
the source modulus, with the coefficient vector read c_0 first.
"""

import itertools
from functools import lru_cache

from dworksum import finitefield as ff
from dworksum import lfunction as lf
from dworksum import padic
from dworksum import polytope as pt
from dworksum.errors import NoRoot, ParamsMismatch


def elements(field: ff.FqParams) -> list:
    """All q elements, lexicographic in the coefficient vector."""
    return list(itertools.product(range(field.p), repeat=field.degree))


def enumerate_units(field: ff.FqParams) -> list:
    """All q-1 nonzero elements, lexicographic in the coefficient vector."""
    return [x for x in elements(field) if any(x)]


def const(field: ff.FqParams, c: int) -> tuple:
    """The image of the integer c in F_q."""
    return (c % field.p,) + (0,) * (field.degree - 1)


def add(field: ff.FqParams, x, y) -> tuple:
    return tuple((a + b) % field.p for a, b in zip(x, y))


def mul(field: ff.FqParams, x, y) -> tuple:
    return ff.polymulmod(x, y, field.modulus, field.p)


def power(field: ff.FqParams, x, e: int) -> tuple:
    return ff.polypowmod(x, e, field.modulus, field.p)


def evaluate(field: ff.FqParams, poly, x) -> tuple:
    """poly (ascending integer coefficients) evaluated at x in F_q."""
    acc = const(field, 0)
    xp = const(field, 1)
    for c in poly:
        if c % field.p:
            acc = add(field, acc, mul(field, const(field, c), xp))
        xp = mul(field, xp, x)
    return acc


@lru_cache(maxsize=None)
def embed_root(src: ff.FqParams, dst: ff.FqParams) -> tuple:
    """The distinguished root of src.modulus in the bigger field dst: among all
    roots, the one with lexicographically smallest coefficient vector, found
    by a scan of the whole of dst."""
    if src.p != dst.p or dst.degree % src.degree != 0:
        raise ValueError(f"{src!r} does not embed in {dst!r}")
    if src.degree == 1:
        return const(dst, 0)
    roots = [x for x in elements(dst) if not any(evaluate(dst, src.modulus, x))]
    if not roots:
        raise NoRoot(f"{src.modulus} has no root in {dst!r}")
    return min(roots)


def embed(x, src: ff.FqParams, dst: ff.FqParams) -> tuple:
    """Field embedding of x in src along the distinguished root."""
    if src == dst:
        return tuple(x)
    return evaluate(dst, x, embed_root(src, dst))


def ring_inverse(x: padic.RamifiedElement) -> padic.RamifiedElement:
    """Newton inversion of a unit x (nonzero residue): start from the lift of
    the residue's inverse, y -> y (2 - x y)."""
    params = x.params
    field = ff.FqParams(params.p, params.s)
    residue = tuple(c % params.p for c in x.coords[: params.s])
    if not any(residue):
        raise ZeroDivisionError("not a unit in the coefficient ring")
    inv = power(field, residue, field.q - 2)
    y = params.from_coords(inv + (0,) * (params.blow - params.s))
    two, one = params.from_int(2), params.one()
    # 1 - x*y gains pi-valuation quadratically; (p-1)*M steps of 1/(p-1) needed
    for _ in range(((params.p - 1) * params.M).bit_length() + 2):
        y = y * (two - x * y)
        if x * y == one:
            return y
    raise ArithmeticError("inversion did not converge")


@lru_cache(maxsize=None)
def _embed_powers(src: padic.RingParams, dst: padic.RingParams) -> tuple:
    """Powers of the distinguished image of the source generator b in dst:
    the Hensel lift of embed_root's root of the source modulus."""
    if src.p != dst.p or src.M != dst.M or dst.s % src.s != 0:
        raise ParamsMismatch(f"cannot embed {src!r} into {dst!r}")
    root_res = embed_root(ff.FqParams(src.p, src.s), ff.FqParams(dst.p, dst.s))
    r = dst.from_coords(root_res + (0,) * (dst.blow - dst.s))
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
        r = r - gr * ring_inverse(dgr)
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


def nondegeneracy_check(config, field: ff.FqParams, a_coeffs, s_max: int = 2):
    """The bounded nondegeneracy certificate, one torus point at a time:
    every face in faces_off_origin order, every point of the torus over
    F_{q^s} in itertools.product order, levels s = 1..s_max."""
    faces = pt.newton_data(config).faces_off_origin()
    for s in range(1, s_max + 1):
        big = ff.FqParams(field.p, field.degree * s)
        a_emb = [embed(a, field, big) for a in a_coeffs]
        units = enumerate_units(big)
        for face in faces:
            live = [j for j in face if any(a_emb[j])]
            if not live:
                # the face polynomial vanishes identically
                return lf.DegenerateWitness((const(big, 1),) * config.n, face)
            for point in itertools.product(units, repeat=config.n):
                degenerate = True
                for i in range(config.n):
                    acc = const(big, 0)
                    for j in live:
                        term = mul(big, a_emb[j], const(big, config.A[i][j]))
                        for t_idx in range(config.n):
                            e = config.A[t_idx][j]
                            if e:
                                # u^e = u^(e mod (q - 1)) for a unit u, e < 0 too
                                u = power(big, point[t_idx], e % (big.q - 1))
                                term = mul(big, term, u)
                        acc = add(big, acc, term)
                    if any(acc):
                        degenerate = False
                        break
                if degenerate:
                    return lf.DegenerateWitness(tuple(point), face)
    return lf.NondegenerateUpTo(s_max)
