"""Job-file driven command line interface.

A job is a JSON object:

    {
      "p": 5, "f": 1,
      "A": [[1, -1]],
      "gamma_k": [0],
      "a": [1, 1],
      "precision": {"M": 8, "m_max": 3, "D": null, "s_max": 2, "K_max": 50}
    }

Every job number is a JSON integer: a boolean, a string or a number with a
fraction or an exponent (5.0 included) is a parse error, never truncated.
Rationals are emitted as [num, den] pairs.  gamma_i = gamma_k[i] / (1 - q).
Coefficients a_j are residues in F_q, given as bare integers when f = 1 or
as coefficient vectors of length f.
Every reported ring element carries its certified precision, and reports are
byte-identical across runs.  ``precision.K_max`` is parsed and echoed in
the report, and no command reads it.

Exit codes: 0 success, 2 validation, 3 identity failure (check), 4 budget.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from functools import cached_property
from itertools import chain
from json.encoder import encode_basestring_ascii as _quote
from operator import itemgetter

import numpy as np

from . import dwork, finitefield as ff, gkz, lfunction as lf, padic, polytope as pt
from .errors import (
    BudgetExceeded,
    DworksumError,
    NotPrime,
    ParseError,
    UnsupportedPrime,
    ValidationError,
)

SCHEMA_VERSION = 1


# ----------------------------------------------------------------------
# job parsing and validation
# ----------------------------------------------------------------------

def _int(value, name: str) -> int:
    """value when it is an integer, else a ParseError naming the job field.
    Only JSON integers pass: a boolean, a string, or a number written with a
    fraction or an exponent (5.0 included) is refused, never truncated."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{name}: not an integer: {value!r}")
    return value


class JobConfig:
    def __init__(self, raw: dict):
        if not isinstance(raw, dict):
            raise ParseError("job must be a JSON object")
        try:
            self.p = _int(raw["p"], "p")
            self.f = _int(raw.get("f", 1), "f")
            A = raw["A"]
            self.gamma_k = [_int(x, "gamma_k") for x in raw["gamma_k"]]
            a_raw = raw["a"]
        except (KeyError, TypeError) as e:
            raise ParseError(f"malformed job: {e}") from None
        if not isinstance(A, list) or not A or any(
            not isinstance(r, list) or len(r) != len(A[0]) for r in A
        ):
            raise ParseError("A must be a nonempty rectangular integer matrix")
        A = [[_int(x, "A") for x in r] for r in A]

        try:
            ff.check_odd_prime(self.p)
        except (NotPrime, UnsupportedPrime) as e:
            raise ValidationError(f"p: {e}") from None
        if self.f < 1:
            raise ValidationError("f: must be >= 1")
        self.q = self.p**self.f

        try:
            self.config = pt.ExponentConfig(A)
        except DworksumError as e:
            raise ValidationError(f"A: {e}") from None
        if len(self.gamma_k) != self.config.n:
            raise ValidationError("gamma_k: need one entry per row of A")

        prec = raw.get("precision", {})
        if not isinstance(prec, dict):
            raise ParseError("precision must be an object")
        self.M = _int(prec.get("M", 6), "precision.M")
        if not 1 <= self.M <= 20:
            raise ValidationError("precision.M: need 1 <= M <= 20")
        if self.p**self.M >= 2**34:
            raise ValidationError(
                "precision.M: p^M must stay below 2^34 for the integer kernels"
            )
        self.D = prec.get("D")
        if self.D is not None:
            self.D = _int(self.D, "precision.D")
            if self.D < 0:
                raise ValidationError("precision.D: must be >= 0")
        self.s_max = _int(prec.get("s_max", 2), "precision.s_max")
        if self.s_max < 1:
            # s_max = 0 would certify nondegeneracy after testing no level
            raise ValidationError("precision.s_max: must be >= 1")
        self.K_max = _int(prec.get("K_max", 50), "precision.K_max")
        self.m_max_raw = prec.get("m_max")

        self.field = ff.FqParams(self.p, self.f)
        # coefficient tuples (c_0, ..., c_{f-1}) of F_q
        self.a_residues = []
        if not isinstance(a_raw, list) or len(a_raw) != self.config.N:
            raise ValidationError("a: need one coefficient per column of A")
        for entry in a_raw:
            if isinstance(entry, list) and len(entry) == self.f:
                self.a_residues.append(
                    tuple(_int(c, "a") % self.p for c in entry)
                )
            elif isinstance(entry, list):
                raise ValidationError("a: entries must be ints or length-f vectors")
            elif self.f != 1:
                raise ValidationError("a: bare integers only allowed for f = 1")
            else:
                self.a_residues.append((_int(entry, "a") % self.p,))

        self.nd = pt.newton_data(self.config)
        self.twist = dwork.TwistData(self.config, self.gamma_k, self.q)
        if not dwork.twist_validate(self.twist, self.nd):
            raise ValidationError("gamma_k: twist lies outside the cone")
        self.decomposition = pt.simplicial_decomposition(self.nd)
        self.volume = sum(s.det for s in self.decomposition.simplices)
        if self.m_max_raw is None:
            self.m_max = max(2, self.volume + 1)
        else:
            self.m_max = _int(self.m_max_raw, "precision.m_max")
        if self.m_max < 1:
            raise ValidationError("precision.m_max: must be >= 1")

        self.params = padic.ring_create(self.p, self.f, self.M)

    @cached_property
    def a_lifts(self) -> list:
        """Teichmueller lifts of the coefficients, fixed by x -> x^q by
        construction; only the commands that multiply in R lift them."""
        return [padic.teichmueller(r, self.params) for r in self.a_residues]

    @property
    def live_columns(self) -> list:
        """The exponent columns w_j of the nonzero coefficients a_j."""
        return [w for w, a in zip(self.config.columns, self.a_residues) if any(a)]

    def torus_points(self, m: int) -> int:
        """(q^m - 1)^n, the size of the torus over F_{q^m}."""
        return (self.q**m - 1) ** self.config.n

    def comparison_precision(self) -> int:
        """M' = M - ceil(log_p m_max) - 2: absorbs exp-division and tail loss."""
        e = 0
        while self.p**e < self.m_max:
            e += 1
        return self.M - e - 2

    def operator_cap(self) -> int:
        if self.D is not None:
            return self.D
        return dwork.default_weight_cap(self.nd, self.twist, self.params)

    def echo(self) -> dict:
        return {
            "p": self.p,
            "f": self.f,
            "A": [list(r) for r in self.config.A],
            "gamma_k": list(self.gamma_k),
            "a": [list(r) for r in self.a_residues],
            "precision": {
                "M": self.M,
                "D": self.operator_cap(),
                "m_max": self.m_max,
                "s_max": self.s_max,
                "K_max": self.K_max,
            },
        }


# ----------------------------------------------------------------------
# serialization helpers
# ----------------------------------------------------------------------

def frac(x) -> list:
    x = Fraction(x)
    return [x.numerator, x.denominator]


def triples(coords, s: int) -> list:
    """The nonzero coordinates of a flat row as [i, j, c], the coordinate c
    of pi^i b^j at index i s + j, in index order."""
    return [[k // s, k % s, c] for k, c in enumerate(coords) if c]


def element_json(x: padic.RamifiedElement, precision=None) -> dict:
    prec = Fraction(x.params.M) if precision is None else min(
        Fraction(precision), Fraction(x.params.M)
    )
    return {"triples": triples(x.coords, x.params.s), "precision": frac(prec)}


def congruent(x, y, digits) -> bool:
    """x == y mod p^digits (identical certified prefixes)."""
    diff = x - y
    return padic.pi_ord(diff).known_at_least(Fraction(digits))


# ----------------------------------------------------------------------
# commands
# ----------------------------------------------------------------------

def cmd_polytope(job: JobConfig) -> dict:
    nd = job.nd
    return {
        "volume": job.volume,
        "denom": nd.denom,
        "facets": [[frac(Fraction(x, nd.denom)) for x in L] for L in nd.facet_rows],
        "cone_facets": [list(nu) for nu in nd.cone_facets],
        "column_weights": [frac(nd.weight(w)) for w in job.config.columns],
        "simplices": [
            {"vertices": [list(v) for v in s.vertices], "det": s.det,
             "cell_points": [list(b) for b in s.cell_points]}
            for s in job.decomposition.simplices
        ],
    }


def cmd_gkz(job: JobConfig) -> dict:
    gamma = [Fraction(k, 1 - job.q) for k in job.gamma_k]
    system = gkz.emit_system(job.config, gamma)
    out = system.as_dict()
    out["rendered"] = system.render()
    out["phi_kills_boxes"] = all(
        gkz.phi_kills_box(job.config, b) for b in system.boxes
    )
    return out


def cmd_sums(job: JobConfig) -> dict:
    lf.require_level_budget(job.p, job.f, job.m_max, job.config.n)
    dwork.require_fold_budget(
        job.params, job.q, job.m_max, job.config.n, job.live_columns
    )
    out = {"levels": []}
    for m in range(1, job.m_max + 1):
        Sc, pc = lf.sums_oracle_characters(
            job.config, job.field, job.a_residues, job.twist, m, job.M
        )
        # the series summed over the torus: (q^m - 1)^n times its diagonal
        t_ser = dwork.level_diagonal_sum(job.a_lifts, job.twist, m, job.nd)
        Ss = t_ser * job.torus_points(m)
        out["levels"].append(
            {
                "m": m,
                "character_oracle": element_json(Sc, pc),
                "series_oracle": element_json(Ss),
                "agree": Sc == Ss,
            }
        )
    return out


def cmd_hyp(job: JobConfig) -> dict:
    grid, values = lf.hyp_table(job.config, job.twist, job.field, job.M)
    # every nonzero coordinate as [i, j, c] in row-major order, one slice
    # of the list per entry; every entry carries the full precision M
    row, col = np.nonzero(values)
    s = job.params.s
    found = np.stack([col // s, col % s, values[row, col]], axis=1).tolist()
    ends = np.searchsorted(row, np.arange(len(values) + 1)).tolist()
    prec = [job.M, 1]
    return {
        "entries": [
            {"x": x, "value": {"triples": found[lo:hi], "precision": prec}}
            for x, lo, hi in zip(grid.tolist(), ends, ends[1:])
        ]
    }


def _int_template(shape, nl: str) -> str:
    """render_report's text of a nested list of ints of this shape (the
    lengths from the outer list in) at the indent nl ends in, with a %d in
    place of every int."""
    if not shape[0]:
        return "[]"
    inner = nl + "  "
    item = _int_template(shape[1:], inner) if shape[1:] else "%d"
    return "[" + inner + ("," + inner).join([item] * shape[0]) + nl + "]"


def _lengths(rows) -> set | None:
    """The lengths of the rows when every row is a list, else None."""
    return set(map(len, rows)) if set(map(type, rows)) <= {list} else None


def _records(rows, *keys) -> bool:
    """Whether every row is a dict with exactly these keys."""
    return (set(map(type, rows)) == {dict}
            and set(map(frozenset, rows)) == {frozenset(keys)})


def _entries_text(entries, nl: str) -> str | None:
    """cmd_hyp's entries, a list of dicts, as render_report writes them at
    the indent nl ends in, or None when an entry is off that layout.  Each
    entry is the template of its triple count, and one % fills the ints of
    all entries (precision, triples, x) in key order."""
    if not _records(entries, "value", "x"):
        return None
    values = list(map(itemgetter("value"), entries))
    if not _records(values, "precision", "triples"):
        return None
    precs = list(map(itemgetter("precision"), values))
    found = list(map(itemgetter("triples"), values))
    xs = list(map(itemgetter("x"), entries))
    P, K, N = _lengths(precs), _lengths(found), _lengths(xs)
    if None in (P, K, N) or len(P) > 1 or len(N) > 1:
        return None
    F = _lengths(list(chain.from_iterable(xs)))
    if (_lengths(list(chain.from_iterable(found))) not in ({3}, set())
            or F is None or len(F) > 1):
        return None
    ints = tuple(chain.from_iterable(chain.from_iterable(
        chain.from_iterable(zip(zip(precs), found, xs))
    )))
    if not set(map(type, ints)) <= {int}:
        return None
    (width,), (n,), (f,) = P, N, F or {0}
    entry, value = nl + "  ", nl + "    "
    inner = value + "  "
    head = ("{" + value + '"value": {' + inner + '"precision": '
            + _int_template((width,), inner) + "," + inner + '"triples": ')
    tail = value + "}," + value + '"x": ' + _int_template((n, f), value) + entry + "}"
    shapes = {k: head + _int_template((k, 3), inner) + tail for k in K}
    return ("[" + entry + ("," + entry).join(map(shapes.__getitem__, map(len, found)))
            + nl + "]") % ints


def _operator(job: JobConfig) -> dwork.DworkMatrix:
    return dwork.build_operator(
        job.config, job.nd, job.a_lifts, job.twist, cap=job.operator_cap()
    )


def cmd_trace(job: JobConfig) -> dict:
    dwork.require_fold_budget(
        job.params, job.q, job.m_max, job.config.n, job.live_columns
    )
    dm = _operator(job)
    # every Tr(G^m), m <= m_max, off det(I - T G) to T^m_max
    traces = dwork.traces(dm, dwork.char_series(dm, job.m_max)[0], job.m_max)
    out = {
        "basis_size": dm.dim,
        "weight_cap": frac(dm.cap),
        "cap_formula": "ceil(M p q/((p-1)(q-1))) + ceil(d((q-1) gamma)) + 2",
        "tail_bound": frac(dm.tail_bound),
        "levels": [],
    }
    for m, (t_pow, prec_pow) in enumerate(traces, 1):
        t_ser = dwork.level_diagonal_sum(job.a_lifts, job.twist, m, job.nd)
        scaled = t_pow * job.torus_points(m)
        out["levels"].append(
            {
                "m": m,
                "trace_matrix_power": element_json(t_pow, prec_pow),
                "trace_level_series": element_json(t_ser),
                "routes_agree": t_pow == t_ser,
                "scaled_trace": element_json(scaled, min(prec_pow, Fraction(job.M))),
            }
        )
    return out


def cmd_charpoly(job: JobConfig) -> dict:
    dm = _operator(job)
    full_cap = 128
    if dm.dim <= full_cap:
        coeffs, prec = dwork.char_series(dm)
        truncated = None
    else:
        truncated = max(job.m_max + 3, 8)
        coeffs, prec = dwork.char_series(dm, max_degree=truncated)
    return {
        "basis_size": dm.dim,
        "weight_cap": frac(dm.cap),
        "truncated_to": truncated,
        "coefficients": [element_json(c, prec) for c in coeffs],
    }


def cmd_nondegeneracy(job: JobConfig) -> dict:
    verdict = lf.nondegeneracy_check(job.nd, job.field, job.a_residues, job.s_max)
    if isinstance(verdict, lf.NondegenerateUpTo):
        return {"verdict": "NondegenerateUpTo", "s_max": verdict.s_max}
    return {
        "verdict": "DegenerateWitness",
        "face_columns": list(verdict.face),
        "point": [list(x) for x in verdict.point],
    }


def _routes_agree(
    L_sums: lf.PowerSeriesT, L_char: lf.PowerSeriesT, mprime: int
) -> bool:
    """Whether the two L series agree coefficient by coefficient at
    min(M', both precisions), through the shorter of them."""
    return all(
        congruent(a, b, min(mprime, pa, pb))
        for (a, pa), (b, pb) in zip(
            zip(L_sums.coeffs, L_sums.precs), zip(L_char.coeffs, L_char.precs)
        )
    )


def cmd_lfunction(job: JobConfig) -> dict:
    # refuse before any work when the top character-oracle level is over budget
    order = max(job.m_max, job.volume + 3)
    lf.require_level_budget(job.p, job.f, order, job.config.n)
    # the sums-side L series to T^order: coefficient k reads only S_1..S_k, so
    # the L identity's series to T^m_max and recognition's to T^(volume + 3)
    # are both prefixes of this one
    L = lf.l_series_from_sums([
        lf.sums_oracle_characters(
            job.config, job.field, job.a_residues, job.twist, m, job.M
        )
        for m in range(1, order + 1)
    ], order)
    dm = _operator(job)
    mprime = job.comparison_precision()
    L_sums = L.truncate(job.m_max)
    # the operator side: L is det(I - T Frob) of the operator, through the
    # binomial product of its characteristic series (Dwork's trace formula)
    P, P_prec = dwork.char_series(dm, max_degree=job.m_max)
    L_char = lf.l_from_charseries(P, P_prec, job.config.n, job.q, job.m_max)
    out = {
        "m_max": job.m_max,
        "comparison_precision": mprime,
        "from_sums": [
            element_json(c, p) for c, p in zip(L_sums.coeffs, L_sums.precs)
        ],
        "from_charseries": [
            element_json(c, p) for c, p in zip(L_char.coeffs, L_char.precs)
        ],
        "routes_agree": _routes_agree(L_sums, L_char, mprime),
        "expected_degree": job.volume,
    }
    used_order = job.volume + 3
    rec = lf.rational_recognition(
        L.truncate(used_order), job.volume, job.config.n
    )
    if isinstance(rec, lf.LPolynomial):
        poly = {
            "degree": rec.degree(),
            "sign_exponent": rec.sign,
            "series_order_used": used_order,
            "coefficients": [
                element_json(c, p) for c, p in zip(rec.coeffs, rec.precs)
            ],
        }
        np_ = lf.newton_polygon(rec)
        poly["newton_polygon"] = {
            "vertices": [[i, frac(o)] for i, o in np_.vertices],
            "slopes": [[frac(s), mult] for s, mult in np_.slopes],
            "flagged": np_.flagged,
        }
        out["recognition"] = poly
    else:
        out["recognition"] = {
            "not_polynomial": True,
            "first_offending_degree": rec.index,
            "series_order_used": used_order,
        }
    return out


def cmd_check(job: JobConfig) -> dict:
    """The identity suite, reported as verdicts only.

    The character sums run at the levels m <= m_max alone, as the
    independent check of the operator route.  The operator route is one
    characteristic series det(I - T G), to T^max(m_max, volume + 3): the
    traces Tr(G^m) are read off it, the L identity compares the sums-side L
    series with its binomial product through T^m_max, and the degree law
    recognizes on that product to T^(volume + 3).  By the Dwork trace
    formula L is det(I - T Frob) of the operator, so the series gives every
    coefficient recognition reads, at the matrix's precision, which no
    division of exp(sum S_m T^m / m) lowers.  ``cmd_lfunction`` still
    recognizes on the sums-side series, whose coefficient precisions its
    recognition block prints; moving it to the operator route changes those
    bytes and waits for a schema bump."""
    mprime = job.comparison_precision()
    if mprime < 1:
        raise ValidationError(
            "precision.M too small for the identity suite at this m_max"
        )
    # refuse before any work when the top character-oracle level m_max, the
    # top nondegeneracy level s_max (field tables only) or the top diagonal
    # fold is over budget
    lf.require_level_budget(job.p, job.f, job.m_max, job.config.n)
    lf.require_level_budget(job.p, job.f, job.s_max, job.config.n, rows=0)
    dwork.require_fold_budget(
        job.params, job.q, job.m_max, job.config.n, job.live_columns
    )
    checks = []

    def record(name, passed, detail=None):
        entry = {"name": name, "pass": bool(passed)}
        if detail:
            entry["detail"] = detail
        checks.append(entry)

    # the operator's one characteristic series, to the order recognition
    # needs too
    need = job.volume + 3
    order = max(job.m_max, need)
    dm = _operator(job)
    P, P_prec = dwork.char_series(dm, max_degree=order)
    traces = dwork.traces(dm, P, job.m_max)
    # oracle equivalence and trace formula, every level; the level-m diagonal
    # is the series side of both: scaled by (q^m - 1)^n it is the series
    # summed over the torus
    sums = []
    for m, (t_pow, prec_pow) in enumerate(traces, 1):
        Sc, pc = lf.sums_oracle_characters(
            job.config, job.field, job.a_residues, job.twist, m, job.M
        )
        t_ser = dwork.level_diagonal_sum(job.a_lifts, job.twist, m, job.nd)
        sums.append((Sc, pc))
        record(
            f"oracle_equivalence_m{m}",
            congruent(Sc, t_ser * job.torus_points(m), mprime),
        )
        record(f"trace_routes_m{m}", congruent(t_pow, t_ser, mprime))
        scaled = t_pow * job.torus_points(m)
        record(
            f"trace_formula_m{m}",
            congruent(scaled, Sc, min(Fraction(mprime), prec_pow, pc)),
        )

    # L identity: the sums-side series against the first m_max + 1 terms of
    # the operator's
    L_char = lf.l_from_charseries(P, P_prec, job.config.n, job.q, order)
    L_sums = lf.l_series_from_sums(sums, job.m_max)
    record("l_identity", _routes_agree(L_sums, L_char, mprime))

    # degree law: recognized iff the bounded certificate says nondegenerate
    verdict = lf.nondegeneracy_check(job.nd, job.field, job.a_residues, job.s_max)
    nondeg = isinstance(verdict, lf.NondegenerateUpTo)
    rec = lf.rational_recognition(L_char.truncate(need), job.volume, job.config.n)
    recognized = isinstance(rec, lf.LPolynomial)
    if nondeg:
        record("degree_law", recognized, f"expected degree {job.volume}")
    else:
        record(
            "degree_law_degenerate_control",
            not recognized,
            "degenerate coefficients must not recognize",
        )
    return {
        "comparison_precision": mprime,
        "nondegenerate_up_to": job.s_max if nondeg else None,
        "checks": checks,
        "all_pass": all(c["pass"] for c in checks),
    }


COMMAND_FNS = {
    "polytope": cmd_polytope,
    "gkz": cmd_gkz,
    "sums": cmd_sums,
    "hyp": cmd_hyp,
    "trace": cmd_trace,
    "charpoly": cmd_charpoly,
    "lfunction": cmd_lfunction,
    "check": cmd_check,
    "nondegeneracy": cmd_nondegeneracy,
}

COMMANDS = tuple(COMMAND_FNS)


def run(command: str, raw_job: dict) -> dict:
    """Execute a command against a parsed job; returns the report dict."""
    if command not in COMMAND_FNS:
        raise ParseError(f"unknown command {command!r}")
    job = JobConfig(raw_job)
    result = COMMAND_FNS[command](job)
    return {
        "schema": SCHEMA_VERSION,
        "command": command,
        "job": job.echo(),
        "result": result,
    }


_INT_ONLY = {int}


def _emit(value, nl: str, out: list) -> None:
    """Append value to out as json.dumps(value, sort_keys=True, indent=2)
    writes it at the indent that nl ends in.  Only dict with str keys, list,
    str, int, bool and None are accepted; anything else is a TypeError.  A
    list of hyp entries is written from their templates (_entries_text)."""
    kind = type(value)
    if kind is int:
        out.append(int.__repr__(value))
    elif kind is str:
        out.append(_quote(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif kind is list:
        if not value:
            out.append("[]")
            return
        inner = nl + "  "
        if set(map(type, value)) == _INT_ONLY:
            out.append("[" + inner + ("," + inner).join(map(int.__repr__, value))
                       + nl + "]")
            return
        text = _entries_text(value, nl) if type(value[0]) is dict else None
        if text is not None:
            out.append(text)
            return
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _emit(item, inner, out)
            sep = "," + inner
        out.append(nl + "]")
    elif kind is dict:
        if not value:
            out.append("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for key in sorted(value):
            if type(key) is not str:
                raise TypeError(f"report key {key!r} is not a string")
            out.append(sep + _quote(key) + ": ")
            _emit(value[key], inner, out)
            sep = "," + inner
        out.append(nl + "}")
    else:
        raise TypeError(f"reports hold no {kind.__name__}: {value!r}")


def render_report(report: dict) -> str:
    """The report as JSON with sorted keys, a two-space indent and ASCII
    escapes: the bytes of json.dumps(report, sort_keys=True, indent=2) plus
    a newline.  The emitter exists because json writes an indented document
    in pure Python; a list of plain ints here is one str.join, and the
    entries of a hyp report are written from per-shape templates
    (_entries_text), with the same bytes."""
    out = []
    _emit(report, "\n", out)
    return "".join(out) + "\n"


def _require_writable(path: str) -> None:
    """Refuse a report target that cannot be written, before any work and
    without creating or truncating it: its directory must exist, and the
    file (or, for a new file, its directory) must be writable."""
    folder = os.path.dirname(path) or "."
    if not os.path.isdir(folder):
        raise OSError(f"cannot write {path}: no directory {folder}")
    if os.path.isdir(path):
        raise OSError(f"cannot write {path}: it is a directory")
    if not os.access(path if os.path.exists(path) else folder, os.W_OK):
        raise OSError(f"cannot write {path}: permission denied")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="dworksum",
        description="twisted exponential sums, Dwork traces and L-functions",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--job", required=True, help="path to the JSON job file")
    parser.add_argument("--out", help="write the report here instead of stdout")
    parser.add_argument("--verbose", action="store_true")
    args = parser.parse_args(argv)

    try:
        if args.out:
            _require_writable(args.out)
        with open(args.job) as fh:
            try:
                raw = json.load(fh)
            except json.JSONDecodeError as e:
                raise ParseError(f"job file is not valid JSON: {e}") from None
        report = run(args.command, raw)
    except (ParseError, ValidationError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except BudgetExceeded as e:
        print(f"budget: {e}", file=sys.stderr)
        return 4
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    text = render_report(report)
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as e:
            print(f"error: {e}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    if args.verbose and args.command == "check":
        for c in report["result"]["checks"]:
            status = "pass" if c["pass"] else "FAIL"
            print(f"{status}: {c['name']}", file=sys.stderr)
    if args.command == "check" and not report["result"]["all_pass"]:
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
