"""Job-file driven command line interface.

A job is a JSON object:

    {
      "p": 5, "f": 1,
      "A": [[1, -1]],
      "gamma_k": [0],
      "a": [1, 1],
      "precision": {"M": 8, "m_max": 3, "D": null, "s_max": 2, "K_max": 50}
    }

Numbers that must be exact are integers; rationals are emitted as [num, den]
pairs.  gamma_i = gamma_k[i] / (1 - q).  Coefficients a_j are residues in
F_q, given as bare integers when f = 1 or as coefficient vectors of length f.
Every reported ring element carries its certified precision, and reports are
byte-identical across runs.  ``precision.K_max`` is parsed and echoed in
the report, and no command reads it.

Exit codes: 0 success, 2 validation, 3 identity failure (check), 4 budget.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import dwork, finitefield as ff, gkz, lfunction as lf, padic, polytope as pt
from .errors import (
    BudgetExceeded,
    DworksumError,
    LevelTooLarge,
    NotPrime,
    ParseError,
    Timeout,
    UnsupportedPrime,
    ValidationError,
)

SCHEMA_VERSION = 1

COMMANDS = (
    "polytope",
    "gkz",
    "sums",
    "hyp",
    "trace",
    "charpoly",
    "lfunction",
    "check",
    "nondegeneracy",
)


# ----------------------------------------------------------------------
# job parsing and validation
# ----------------------------------------------------------------------

class JobConfig:
    def __init__(self, raw: dict):
        if not isinstance(raw, dict):
            raise ParseError("job must be a JSON object")
        try:
            self.p = int(raw["p"])
            self.f = int(raw.get("f", 1))
            A = raw["A"]
            self.gamma_k = [int(x) for x in raw["gamma_k"]]
            a_raw = raw["a"]
        except (KeyError, TypeError, ValueError) as e:
            raise ParseError(f"malformed job: {e}") from None
        if not isinstance(A, list) or not A or any(
            not isinstance(r, list) or len(r) != len(A[0]) for r in A
        ):
            raise ParseError("A must be a nonempty rectangular integer matrix")

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
        self.M = int(prec.get("M", 6))
        if not 1 <= self.M <= 20:
            raise ValidationError("precision.M: need 1 <= M <= 20")
        if self.p**self.M >= 2**34:
            raise ValidationError(
                "precision.M: p^M must stay below 2^34 for the integer kernels"
            )
        self.D = prec.get("D")
        if self.D is not None:
            self.D = int(self.D)
        self.s_max = int(prec.get("s_max", 2))
        self.K_max = int(prec.get("K_max", 50))
        self.m_max_raw = prec.get("m_max")

        self.field = ff.FqParams(self.p, self.f)
        self.a_residues = []
        if not isinstance(a_raw, list) or len(a_raw) != self.config.N:
            raise ValidationError("a: need one coefficient per column of A")
        for entry in a_raw:
            if isinstance(entry, int):
                if self.f != 1:
                    raise ValidationError("a: bare integers only allowed for f = 1")
                self.a_residues.append(self.field.from_int(entry))
            elif isinstance(entry, list) and len(entry) == self.f:
                self.a_residues.append(self.field.element(entry))
            else:
                raise ValidationError("a: entries must be ints or length-f vectors")

        self.nd = pt.newton_data(self.config)
        self.twist = dwork.TwistData(self.config, self.gamma_k, self.q)
        if not dwork.twist_validate(self.twist, self.nd):
            raise ValidationError("gamma_k: twist lies outside the cone")
        self.volume = pt.normalized_volume(self.config)
        if self.m_max_raw is None:
            self.m_max = max(2, self.volume + 1)
        else:
            self.m_max = int(self.m_max_raw)
        if self.m_max < 1:
            raise ValidationError("precision.m_max: must be >= 1")

        self.params = padic.ring_create(self.p, self.f, self.M)
        # Teichmueller lifts of residues are fixed by x -> x^q by construction
        self.a_lifts = [
            padic.teichmueller(r, self.params) for r in self.a_residues
        ]

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
            "a": [list(r.coeffs) for r in self.a_residues],
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


def element_json(x: padic.RamifiedElement, precision=None) -> dict:
    s = x.params.s
    triples = []
    for i in range(x.params.p - 1):
        for j in range(s):
            c = x.coords[i * s + j]
            if c:
                triples.append([i, j, c])
    prec = Fraction(x.params.M) if precision is None else min(
        Fraction(precision), Fraction(x.params.M)
    )
    return {"triples": triples, "precision": frac(prec)}


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
        "facets": [[frac(c) for c in l] for l in nd.functionals],
        "cone_facets": [list(nu) for nu in nd.cone_facets],
        "column_weights": [frac(nd.weight(w)) for w in job.config.columns],
        "simplices": [
            {"vertices": [list(v) for v in s.vertices], "det": s.det,
             "cell_points": [list(b) for b in s.cell_points]}
            for s in pt.simplicial_decomposition(job.config).simplices
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
    out = {"levels": []}
    for m in range(1, job.m_max + 1):
        Sc, pc = lf.sums_oracle_characters(
            job.config, job.a_residues, job.twist, m, job.M
        )
        Ss, ps = lf.sums_oracle_series(
            job.config, job.a_residues, job.twist, m, job.M, job.nd
        )
        out["levels"].append(
            {
                "m": m,
                "character_oracle": element_json(Sc, pc),
                "series_oracle": element_json(Ss, ps),
                "agree": Sc == Ss,
            }
        )
    return out


def cmd_hyp(job: JobConfig) -> dict:
    table = lf.hyp_table(job.config, job.twist, job.field, job.M)
    entries = []
    for key in sorted(table):
        entries.append(
            {"x": [list(c) for c in key], "value": element_json(table[key])}
        )
    return {"entries": entries}


def _operator(job: JobConfig) -> dwork.DworkMatrix:
    return dwork.build_operator(
        job.config, job.nd, job.a_lifts, job.twist, cap=job.operator_cap()
    )


def cmd_trace(job: JobConfig) -> dict:
    dm = _operator(job)
    out = {
        "basis_size": dm.dim,
        "weight_cap": frac(dm.cap),
        "cap_formula": "ceil(M p q/((p-1)(q-1))) + ceil(d((q-1) gamma)) + 2",
        "tail_bound": frac(dm.tail_bound),
        "levels": [],
    }
    for m in range(1, job.m_max + 1):
        t_pow, prec_pow = dwork.trace(dm, m)
        # level 1 is the series the operator was built from
        series = dm.series if m == 1 else dwork.h_series(
            job.a_lifts, job.twist, m, job.nd
        )
        t_ser = dwork.diagonal_sum(series)
        scaled = t_pow * ((job.q**m - 1) ** job.config.n)
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
    verdict = pt.nondegeneracy_check(job.config, job.a_residues, job.s_max)
    if isinstance(verdict, pt.NondegenerateUpTo):
        return {"verdict": "NondegenerateUpTo", "s_max": verdict.s_max}
    return {
        "verdict": "DegenerateWitness",
        "face_columns": list(verdict.face),
        "point": [list(x.coeffs) for x in verdict.point],
    }


def _sums_to(job: JobConfig, order: int):
    return [
        lf.sums_oracle_characters(
            job.config, job.a_residues, job.twist, m, job.M
        )
        for m in range(1, order + 1)
    ]


def _recognize(job: JobConfig, sums):
    """Rational recognition needs the series to order volume + 3; extend the
    sums beyond the job's m_max when necessary."""
    need = job.volume + 3
    if len(sums) < need:
        sums = list(sums) + [
            lf.sums_oracle_characters(
                job.config, job.a_residues, job.twist, m, job.M
            )
            for m in range(len(sums) + 1, need + 1)
        ]
    L_ext = lf.l_series_from_sums(sums, need)
    return lf.rational_recognition(L_ext, job.volume, job.config.n), need


def _series_pair(job: JobConfig):
    """(from sums, from char series) both truncated at T^m_max."""
    sums = _sums_to(job, job.m_max)
    L_sums = lf.l_series_from_sums(sums, job.m_max)
    dm = _operator(job)
    P, P_prec = dwork.char_series(dm, max_degree=min(job.m_max, dm.dim))
    L_char = lf.l_from_charseries(P, P_prec, job.config.n, job.q, job.m_max)
    return sums, L_sums, L_char, dm


def cmd_lfunction(job: JobConfig) -> dict:
    # refuse before any work when the top character-oracle level is over budget
    top = max(job.m_max, job.volume + 3)
    lf.require_level_budget(job.p, job.f, top, job.config.n)
    sums, L_sums, L_char, dm = _series_pair(job)
    mprime = job.comparison_precision()
    agree = all(
        congruent(a, b, min(mprime, pa, pb))
        for (a, pa), (b, pb) in zip(
            zip(L_sums.coeffs, L_sums.precs), zip(L_char.coeffs, L_char.precs)
        )
    )
    out = {
        "m_max": job.m_max,
        "comparison_precision": mprime,
        "from_sums": [
            element_json(c, p) for c, p in zip(L_sums.coeffs, L_sums.precs)
        ],
        "from_charseries": [
            element_json(c, p) for c, p in zip(L_char.coeffs, L_char.precs)
        ],
        "routes_agree": agree,
        "expected_degree": job.volume,
    }
    rec, used_order = _recognize(job, sums)
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
    mprime = job.comparison_precision()
    if mprime < 1:
        raise ValidationError(
            "precision.M too small for the identity suite at this m_max"
        )
    # refuse before any work when the top character-oracle level is over budget
    top = max(job.m_max, job.volume + 3)
    lf.require_level_budget(job.p, job.f, top, job.config.n)
    checks = []

    def record(name, passed, detail=None):
        entry = {"name": name, "pass": bool(passed)}
        if detail:
            entry["detail"] = detail
        checks.append(entry)

    # oracle equivalence and trace formula, every level; the level-m series
    # feeds both the series oracle and the series side of the trace formula,
    # and level 1 is the series the operator was built from
    dm = _operator(job)
    sums = []
    for m in range(1, job.m_max + 1):
        Sc, pc = lf.sums_oracle_characters(
            job.config, job.a_residues, job.twist, m, job.M
        )
        series = dm.series if m == 1 else dwork.h_series(
            job.a_lifts, job.twist, m, job.nd
        )
        Ss, _ = lf.sums_oracle_series(
            job.config, job.a_residues, job.twist, m, job.M, job.nd,
            series=series
        )
        sums.append((Sc, pc))
        record(f"oracle_equivalence_m{m}", congruent(Sc, Ss, mprime))
        t_pow, prec_pow = dwork.trace(dm, m)
        t_ser = dwork.diagonal_sum(series)
        record(f"trace_routes_m{m}", congruent(t_pow, t_ser, mprime))
        scaled = t_pow * ((job.q**m - 1) ** job.config.n)
        record(
            f"trace_formula_m{m}",
            congruent(scaled, Sc, min(Fraction(mprime), prec_pow, pc)),
        )

    # L identity
    L_sums = lf.l_series_from_sums(sums, job.m_max)
    P, P_prec = dwork.char_series(dm, max_degree=min(job.m_max, dm.dim))
    L_char = lf.l_from_charseries(P, P_prec, job.config.n, job.q, job.m_max)
    ok = True
    for (a, pa), (b, pb) in zip(
        zip(L_sums.coeffs, L_sums.precs), zip(L_char.coeffs, L_char.precs)
    ):
        ok = ok and congruent(a, b, min(Fraction(mprime), pa, pb))
    record("l_identity", ok)

    # degree law: recognized iff the bounded certificate says nondegenerate
    verdict = pt.nondegeneracy_check(job.config, job.a_residues, job.s_max)
    nondeg = isinstance(verdict, pt.NondegenerateUpTo)
    rec, _ = _recognize(job, sums)
    recognized = isinstance(rec, lf.LPolynomial)
    if nondeg:
        record("degree_law", recognized, f"expected degree {job.volume}")
    else:
        record(
            "degree_law_degenerate_control",
            not recognized,
            "degenerate coefficients must not recognize",
        )
    out = {
        "comparison_precision": mprime,
        "nondegenerate_up_to": job.s_max if nondeg else None,
        "checks": checks,
        "all_pass": all(c["pass"] for c in checks),
    }
    return out


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


def render_report(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


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
        with open(args.job) as fh:
            try:
                raw = json.load(fh)
            except json.JSONDecodeError as e:
                raise ParseError(f"job file is not valid JSON: {e}") from None
        report = run(args.command, raw)
    except (ParseError, ValidationError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (BudgetExceeded, LevelTooLarge, Timeout) as e:
        print(f"budget: {e}", file=sys.stderr)
        return 4
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    text = render_report(report)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
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
