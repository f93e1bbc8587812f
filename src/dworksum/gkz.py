"""The hypergeometric system attached to (A, gamma).

Emits the n Euler operators  sum_j w_ij x_j d/dx_j + gamma_i  and one box
operator per basis vector of the integer relation lattice ker_Z(A); the box
operators use the pi-normalized derivations (1/pi) d/dx_j.  The presentation
map phi sends a normalized operator monomial to the monomial t^(sum v_j w_j)
and kills every box operator; that identity is checked symbolically here.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .errors import NotARelation, RankDeficient, Timeout
from .polytope import ExponentConfig, column_hermite, sign_normal


# ----------------------------------------------------------------------
# relation lattice
# ----------------------------------------------------------------------

class LatticeBasis:
    def __init__(self, config: ExponentConfig, vectors):
        self.config = config
        self.vectors = [tuple(int(x) for x in v) for v in vectors]

    def __iter__(self):
        return iter(self.vectors)

    def __len__(self):
        return len(self.vectors)


def lattice_kernel(config: ExponentConfig) -> LatticeBasis:
    """Basis of {k in Z^N : A k = 0}: the columns of the unimodular column
    transform past the pivots of A's column Hermite form.  The kernel of an
    integer matrix is saturated, so this basis generates every integer
    relation; each vector has its first nonzero entry positive."""
    n, N = config.n, config.N
    _, U, pivots = column_hermite(config.A, N)
    if len(pivots) != n:
        raise RankDeficient("column reduction found rank < n")
    return LatticeBasis(
        config, [sign_normal([row[j] for row in U]) for j in range(n, N)]
    )


# ----------------------------------------------------------------------
# operators
# ----------------------------------------------------------------------

class BoxOperator:
    """lambda split into positive/negative parts; realizes
    prod (1/pi d_j)^(lambda_j^+) - prod (1/pi d_j)^(lambda_j^-)."""

    def __init__(self, config: ExponentConfig, lam):
        lam = tuple(int(x) for x in lam)
        if len(lam) != config.N:
            raise NotARelation("wrong length")
        if any(
            sum(lam[j] * config.columns[j][i] for j in range(config.N))
            for i in range(config.n)
        ):
            raise NotARelation(f"A @ {lam} != 0")
        self.config = config
        self.lam = lam
        self.plus = tuple(max(x, 0) for x in lam)
        self.minus = tuple(max(-x, 0) for x in lam)

    def is_zero(self):
        return all(x == 0 for x in self.lam)

    def render(self) -> str:
        def prod(part):
            factors = [
                f"(1/pi d_{j + 1})^{e}" if e > 1 else f"(1/pi d_{j + 1})"
                for j, e in enumerate(part)
                if e
            ]
            return " ".join(factors) if factors else "1"

        return f"{prod(self.plus)} - {prod(self.minus)}"


class EulerOperator:
    def __init__(self, config: ExponentConfig, i: int, gamma_i: Fraction):
        self.config = config
        self.i = i
        self.row = config.A[i]
        self.gamma = Fraction(gamma_i)

    def render(self) -> str:
        terms = [
            f"{w if w != 1 else ''}x_{j + 1} d_{j + 1}"
            for j, w in enumerate(self.row)
            if w
        ]
        body = " + ".join(terms) if terms else "0"
        return f"{body} + ({self.gamma})"


def box_operator(config: ExponentConfig, lam) -> BoxOperator:
    return BoxOperator(config, lam)


def phi_image(config: ExponentConfig, v) -> tuple:
    """phi(d^v / pi^|v|) = t^(v_1 w_1 + ... + v_N w_N)."""
    v = tuple(int(x) for x in v)
    if any(x < 0 for x in v):
        raise ValueError("operator exponents must be nonnegative")
    return tuple(
        sum(v[j] * config.columns[j][i] for j in range(config.N))
        for i in range(config.n)
    )


def phi_operator_image(config: ExponentConfig, terms: dict) -> dict:
    """Linear extension of phi: terms maps exponent vectors v to coefficients;
    the image collects coefficients on t-monomials.  Zero coefficients are
    dropped, so the zero operator maps to {}."""
    out = {}
    for v, c in terms.items():
        w = phi_image(config, v)
        out[w] = out.get(w, 0) + c
        if out[w] == 0:
            del out[w]
    return out


def phi_kills_box(config: ExponentConfig, box: BoxOperator) -> bool:
    image = phi_operator_image(config, {box.plus: 1, box.minus: -1})
    return image == {}


def euler_applied_to_one(config: ExponentConfig, gamma, i: int) -> dict:
    """phi-side: E_{i,gamma} * 1 with d_j acting as the twisted derivation.
    Written as D-dagger element sum_j (w_ij pi x_j) (d_j/pi) + gamma_i and
    pushed through phi term by term."""
    out = {("const",): Fraction(gamma[i])}
    for j in range(config.N):
        w_ij = config.A[i][j]
        if w_ij:
            texp = phi_image(config, tuple(1 if t == j else 0 for t in range(config.N)))
            key = ("pi_x", j, texp)
            out[key] = out.get(key, 0) + w_ij
    return {k: v for k, v in out.items() if v != 0}


def f_operator_applied_to_one(config: ExponentConfig, gamma, i: int) -> dict:
    """Torus-side: F_{i,gamma} * 1 = gamma_i + pi sum_j w_ij x_j t^(w_j);
    the t_i d/dt_i part kills constants."""
    out = {("const",): Fraction(gamma[i])}
    for j in range(config.N):
        w_ij = config.A[i][j]
        if w_ij:
            key = ("pi_x", j, config.columns[j])
            out[key] = out.get(key, 0) + w_ij
    return {k: v for k, v in out.items() if v != 0}


# ----------------------------------------------------------------------
# emitted system
# ----------------------------------------------------------------------

class SystemPresentation:
    def __init__(self, config, gamma, euler, boxes, basis):
        self.config = config
        self.gamma = gamma
        self.euler = euler
        self.boxes = boxes
        self.basis = basis

    def as_dict(self) -> dict:
        return {
            "euler": [
                {
                    "row": list(e.row),
                    "gamma": [e.gamma.numerator, e.gamma.denominator],
                }
                for e in self.euler
            ],
            "box": [
                {
                    "lambda": list(b.lam),
                    "plus": list(b.plus),
                    "minus": list(b.minus),
                }
                for b in self.boxes
            ],
            "lattice_basis": [list(v) for v in self.basis],
        }

    def render(self) -> list[str]:
        lines = [f"[E_{e.i + 1}]  ({e.render()}) f = 0" for e in self.euler]
        lines += [f"[box {list(b.lam)}]  ({b.render()}) f = 0" for b in self.boxes]
        return lines


def emit_system(config: ExponentConfig, gamma, saturate: bool = False) -> SystemPresentation:
    """n Euler equations plus one box equation per kernel basis vector; with
    saturate=True the box list is the completed generating set."""
    gamma = [Fraction(g) for g in gamma]
    if len(gamma) != config.n:
        raise ValueError("gamma must have one entry per row")
    basis = lattice_kernel(config)
    lams = list(basis)
    if saturate:
        lams = toric_saturation(config, basis)
    euler = [EulerOperator(config, i, gamma[i]) for i in range(config.n)]
    boxes = [BoxOperator(config, lam) for lam in lams if any(lam)]
    return SystemPresentation(config, gamma, euler, boxes, basis)


# ----------------------------------------------------------------------
# saturation of the binomial ideal (optional)
# ----------------------------------------------------------------------

def _term_cmp_key(mono):
    # graded reverse lexicographic order key for exponent tuples
    return (sum(mono), tuple(-x for x in reversed(mono)))


def _orient(lam):
    """Orient so the positive part is the leading term under grevlex."""
    plus = tuple(max(x, 0) for x in lam)
    minus = tuple(max(-x, 0) for x in lam)
    if _term_cmp_key(plus) < _term_cmp_key(minus):
        return tuple(-x for x in lam)
    return tuple(lam)


def _divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def _reduce(lam, gens):
    """Reduce the binomial x^(lam+) - x^(lam-) by the oriented generator set,
    stripping common monomial factors (saturation by the variable product)."""
    changed = True
    while changed and any(lam):
        lam = _orient(lam)
        plus = tuple(max(x, 0) for x in lam)
        changed = False
        for g in gens:
            gp = tuple(max(x, 0) for x in g)
            if any(gp) and _divides(gp, plus):
                lam = tuple(a - b for a, b in zip(lam, g))
                changed = True
                break
    return _orient(lam)


def toric_saturation(config: ExponentConfig, basis: LatticeBasis,
                     max_steps: int = 2000) -> list[tuple]:
    """Buchberger-style completion of the binomial relation ideal with
    immediate monomial-factor stripping; returns lattice vectors whose box
    operators generate every relation, containing the input basis.

    Budgeted: raises Timeout if completion does not stabilize in max_steps
    S-binomial reductions.
    """
    gens = []
    for lam in basis:
        if any(lam):
            gens.append(_orient(lam))
    gens = sorted(set(gens))
    pairs = list(itertools.combinations(range(len(gens)), 2))
    steps = 0
    while pairs:
        i, j = pairs.pop()
        steps += 1
        if steps > max_steps:
            raise Timeout("saturation budget exhausted")
        # S-binomial of x^(g+) - x^(g-) pairs has lattice vector g_i - g_j
        s = tuple(a - b for a, b in zip(gens[i], gens[j]))
        s = _reduce(s, gens)
        if any(s):
            gens.append(s)
            pairs.extend((k, len(gens) - 1) for k in range(len(gens) - 1))

    out = {sign_normal(g) for g in gens}
    out |= {sign_normal(tuple(l)) for l in basis if any(l)}
    return sorted(out)
