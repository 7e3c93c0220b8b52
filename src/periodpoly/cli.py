"""Command-line interface.

Subcommands cover space construction, Hecke computations, eigen-polynomial
extraction, L-values, Petersson norms, eigenvalue recovery, the invariant
suites, and the two worked demos.  Exact data is printed as "p/q" strings
and complex floats as {re, im, err} objects; all exact output is
deterministic byte for byte.  Progress goes to stderr only.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .exactalg import PeriodPolyError, scalar_to_str
from .cosets import GAMMA0, GAMMA1, build_coset_space, coset_index, cusp_classes
from .polyspace import (build_W, build_W_extended, build_coboundary_and_D,
                        coboundary_and_D_dimensions, w_dimensions, wtilde_dimension)
from .hecke import (HeckeError, common_eigen_polynomial, delta_spec, delta_vee_spec,
                    hecke_matrix, theta_spec, universal_hecke_element,
                    verified_hecke_element, witness_element)
from .analytic import (AnalyticError, NewformData, completed_lvalue,
                       eisenstein_period_demo, eta_product, manin_coefficient,
                       petersson_product)
from . import gamma02
from . import verifysuite

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_USAGE = 2
EXIT_BAD_FILE = 3
EXIT_VERIFY_FAILED = 5

# Largest coset index a command builds unless --max-index says otherwise;
# Gamma0(3000) has index 7200, Gamma1(1000) about 360,000.
MAX_INDEX = 20000
# Largest n of a universal element T~_n (an --n or an --eigen prime) unless
# --max-n says otherwise; below it the largest Merel family, at n = 1980, has
# 93,226 matrices.
MAX_N = 2000
# Largest --terms of gamma02-relations, which builds that many eta-product
# coefficients and sums that many terms per L-value: 2000 terms take about
# 0.5 s, 4000 about 0.8 s, and the cost grows faster than linearly beyond.
MAX_TERMS = 4000
# Largest --weight.  The relation systems grow with the weight and the index
# together: dims takes 0.02 s at level 1 and weight 40, 0.16 s at 80, 1.1 s
# at 160 and 2.5 s at 200 (about w^3.5), and at level 11 (index 12) 0.84 s at
# weight 40 and 11 s at 80 (one process under -O).  --max-index bounds the
# index; this bounds the weight, far above the weights of the paper's
# examples (at most 14).
MAX_WEIGHT = 100
# Largest index x (weight - 1)^3.5 a command builds: the cost grows with the
# index and the weight together, so a small index still needs a bound below
# MAX_WEIGHT.  dims takes 0.23 s at level 1 and weight 100 (9.65e6), 0.31 s
# at level 2 and weight 72 (9.05e6), 2.0 s at level 11 and weight 50
# (9.88e6), and at level 11 and weight 80 (5.3e7, refused) 11 s (one process
# under -O).
MAX_COST = 10 ** 7


class CliError(Exception):
    def __init__(self, message, code=EXIT_ERROR):
        super().__init__(message)
        self.code = code


def _emit(doc, out):
    out.write(json.dumps(doc, sort_keys=True, indent=2))
    out.write("\n")


def _progress(msg):
    sys.stderr.write(msg + "\n")
    sys.stderr.flush()


def _cnum(z, err=None) -> dict:
    z = complex(z)
    doc = {"re": z.real, "im": z.imag}
    if err is not None:
        doc["err"] = err
    return doc


def _parse_eigen(items) -> list:
    out = []
    for item in items or ():
        try:
            p, lam = item.split(":")
            p, lam = int(p), Fraction(lam)
        except (ValueError, ZeroDivisionError):
            raise CliError("eigen data must look like p:lambda, got %r" % item,
                           EXIT_USAGE)
        if p < 1:
            raise CliError("--eigen prime must be >= 1, got %d" % p, EXIT_USAGE)
        out.append((p, lam))
    return out


def _load_form(path: str) -> NewformData:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise CliError("cannot read %s: %s" % (path, exc), EXIT_BAD_FILE)
    except json.JSONDecodeError as exc:
        raise CliError("malformed JSON in %s: %s" % (path, exc), EXIT_BAD_FILE)
    try:
        return NewformData.from_json(doc)
    except AnalyticError as exc:
        raise CliError(str(exc), EXIT_BAD_FILE)


def _matrix_doc(m) -> dict:
    return {
        "rows": [[scalar_to_str(x) for x in row] for row in m.rows],
        "trace": scalar_to_str(m.trace()) if m.nrows == m.ncols else None,
    }


def _coset_space(args, kind, N, k):
    """build_coset_space, refused before anything is built above --max-index
    or above MAX_COST.  The index of Gamma0(N) and of Gamma1(N) is at least
    N, so a level above the bound is refused before N is factored."""
    if N > args.max_index:
        raise CliError("%s(%d) has index at least %d, above --max-index %d"
                       % (kind, N, N, args.max_index), EXIT_USAGE)
    index = coset_index(kind, N)
    if index > args.max_index:
        raise CliError("%s(%d) has index %d, above --max-index %d"
                       % (kind, N, index, args.max_index), EXIT_USAGE)
    if index * (k - 1) ** 3.5 > MAX_COST:
        raise CliError("%s(%d) at weight %d: index x (weight - 1)^3.5 is above %d"
                       % (kind, N, k, MAX_COST), EXIT_USAGE)
    return build_coset_space(kind, N, k)


def _sigma_for(args, kind, N, n):
    """The --sigma double coset; a pair it refuses is a usage error."""
    make = {"delta": delta_spec, "delta-vee": delta_vee_spec, "theta": theta_spec}
    try:
        return make[args.sigma](kind, N, n)
    except HeckeError as exc:
        raise CliError(str(exc), EXIT_USAGE)


# ----------------------------------------------------------------------
# subcommands

def cmd_dims(args, out):
    space = _coset_space(args, args.group, args.level, args.weight)
    w = args.weight - 2
    if space.size > 60:
        _progress("building relation systems at index %d ..." % space.size)
    dim_w, dim_plus, dim_minus = w_dimensions(space, w)
    dim_c, dim_d = coboundary_and_D_dimensions(space, w)
    dim_wt = wtilde_dimension(space, w)
    _emit({
        "group": args.group, "level": args.level, "weight": args.weight,
        "index": space.index,
        "dim_W": dim_w, "dim_W_plus": dim_plus, "dim_W_minus": dim_minus,
        "dim_C": dim_c, "dim_D": dim_d, "dim_Wtilde": dim_wt,
        "dim_S_inferred": (dim_w - dim_c) // 2,
    }, out)
    return EXIT_OK


def cmd_cusps(args, out):
    space = _coset_space(args, args.group, args.level, args.weight)
    cs = cusp_classes(space)
    _emit({
        "group": args.group, "level": args.level,
        "cusps": [{
            "representative": space.label_str(c.representative),
            "labels": [space.label_str(l) for l in c.labels],
            "width": c.width,
            "regular": c.regular,
        } for c in cs.classes],
    }, out)
    return EXIT_OK


def cmd_hecke_element(args, out):
    t, y, den = verified_hecke_element(args.n)
    _emit({"n": args.n, "verified": True, "terms": t.to_json(),
           "witness_Y": witness_element(args.n, y, den).to_json()}, out)
    return EXIT_OK


# --space names of W and of its eps parts, with the sign build_W takes
_W_SIGNS = {"W": 0, "Wplus": 1, "Wminus": -1}


def _space_choice(args, space, w):
    name = args.space
    if name in _W_SIGNS:
        return build_W(space, w, _W_SIGNS[name])
    if name == "C":
        return build_coboundary_and_D(space, w)[0]
    return build_W_extended(space, w)


def cmd_hecke_matrix(args, out):
    spec = _sigma_for(args, args.group, args.level, args.n)
    space = _coset_space(args, args.group, args.level, args.weight)
    w = args.weight - 2
    sub = _space_choice(args, space, w)
    m = hecke_matrix(sub, universal_hecke_element(args.n), spec)
    doc = _matrix_doc(m)
    doc.update({"space": args.space, "n": args.n, "dim": sub.dim})
    _emit(doc, out)
    return EXIT_OK


def _claim_output(path: str) -> bool:
    """Refuse an unwritable -o path before any work, leaving an existing
    file as it is.  True when the (empty) file was created here."""
    existed = os.path.lexists(path)
    try:
        open(path, "a").close()
    except OSError as exc:
        raise CliError("cannot write %s: %s" % (path, exc.strerror or exc), EXIT_USAGE)
    return not existed


def cmd_eigenpoly(args, out):
    space = _coset_space(args, args.group, args.level, args.weight)
    eigendata = _parse_eigen(args.eigen)
    created = bool(args.output) and _claim_output(args.output)
    try:
        sign, parity = (1, "+") if args.parity == "plus" else (-1, "-")
        sub = build_W(space, args.weight - 2, sign)
        doc = common_eigen_polynomial(sub, eigendata, parity=parity).to_json()
        doc["parity"] = parity
        if args.output:
            try:
                with open(args.output, "w") as fh:
                    _emit(doc, fh)
            except OSError as exc:
                raise CliError("cannot write %s: %s" % (args.output, exc.strerror or exc),
                               EXIT_USAGE) from None
    except BaseException:
        if created:
            os.remove(args.output)  # the empty file claimed above, nothing else
        raise
    _emit({"written": args.output, "dim_searched": sub.dim} if args.output else doc, out)
    return EXIT_OK


def cmd_lvalue(args, out):
    f = _load_form(args.form)
    if not 0 < args.s < f.weight:
        raise CliError("--s must lie strictly between 0 and the weight %d, got %d"
                       % (f.weight, args.s), EXIT_USAGE)
    lv = completed_lvalue(f, args.s, args.terms)
    _emit({"s": args.s, "level": f.level, "weight": f.weight,
           "value": _cnum(lv.value, lv.err)}, out)
    return EXIT_OK


def _eigen_polys_for(args, f: NewformData, eigendata):
    space = _coset_space(args, GAMMA0, f.level, f.weight)
    plus, minus = build_W(space, f.weight - 2, 1), build_W(space, f.weight - 2, -1)
    Pp = common_eigen_polynomial(plus, eigendata, parity="+")
    Pm = common_eigen_polynomial(minus, eigendata if minus.dim > 1 else [],
                                 parity="-")
    return Pp, Pm


def cmd_petersson(args, out):
    f = _load_form(args.form)
    eigendata = _parse_eigen(args.eigen)
    Pp, Pm = _eigen_polys_for(args, f, eigendata)
    value, per_kappa = petersson_product(f, f, (Pp, Pm), (Pp, Pm), terms=args.terms)
    _emit({
        "level": f.level, "weight": f.weight,
        "value": _cnum(value),
        "kappa_choices": {"%s%s" % kk: _cnum(v) for kk, v in per_kappa.items()},
    }, out)
    return EXIT_OK


def cmd_eigenvalue(args, out):
    if args.form:
        f = _load_form(args.form)
        level, weight = f.level, f.weight
    else:
        level, weight = args.level, args.weight
    if level is None or weight is None:
        raise CliError("need --level and --weight (or --form)", EXIT_USAGE)
    space = _coset_space(args, GAMMA0, level, weight)
    Pp = common_eigen_polynomial(build_W(space, weight - 2, 1), _parse_eigen(args.eigen),
                                 parity="+")
    lam = manin_coefficient(Pp, universal_hecke_element(args.n))
    _emit({"level": level, "weight": weight, "n": args.n,
           "eigenvalue": scalar_to_str(lam)}, out)
    return EXIT_OK


def cmd_verify(args, out):
    for sub in args.only or ():
        if not any(sub in name for name, _ in verifysuite.CHECKS):
            raise CliError("--only %r matches no check" % sub, EXIT_USAGE)
    report, failures = {}, 0
    for name, seconds, message in verifysuite.run_checks(args.only):
        failures += message is not None
        if args.json:
            report[name] = {"status": "PASS" if message is None else "FAIL",
                            "seconds": round(seconds, 6), "message": message}
        else:
            out.write("PASS %s\n" % name if message is None else "FAIL %s: %s\n" % (name, message))
    if args.json:
        _emit(report, out)
    return EXIT_OK if failures == 0 else EXIT_VERIFY_FAILED


def cmd_gamma02_relations(args, out):
    if args.terms > MAX_TERMS:
        raise CliError("--terms %d is above %d, the most gamma02-relations sums"
                       % (args.terms, MAX_TERMS), EXIT_USAGE)
    if args.weight not in (8, 10, 14):
        raise CliError("--weight must be 8, 10 or 14, got %d" % args.weight, EXIT_USAGE)
    if args.form:
        f = _load_form(args.form)
    elif args.weight == 8:
        f = NewformData(2, 8, eta_product([(1, 8), (2, 8)], max(args.terms, 64)), 1)
    else:
        raise CliError("weights 10 and 14 need an eigenform data file (--form)",
                       EXIT_USAGE)
    rep = gamma02.extra_relations_check(f, terms=args.terms)
    doc = {
        "weight": rep["weight"],
        "relations": [{
            "a": r["a"], "lhs": _cnum(r["lhs"]), "rhs": _cnum(r["rhs"]),
            "abs_residual": r["abs_residual"], "rel_residual": r["rel_residual"],
        } for r in rep["relations"]],
    }
    if "petersson_full" in rep:
        doc["petersson"] = {
            "full": _cnum(rep["petersson_full"]),
            "reduced": _cnum(rep["petersson_reduced"]),
            "residual": rep["petersson_residual"],
        }
    _emit(doc, out)
    worst = max(r["rel_residual"] for r in rep["relations"])
    return EXIT_OK if worst < 1e-6 else EXIT_VERIFY_FAILED


def cmd_gamma06_demo(args, out):
    rep = eisenstein_period_demo("gamma06")
    full = eisenstein_period_demo("fulllevel:12")
    doc = {
        "sigma": rep["sigma"],
        "tau": rep["tau"],
        "d1_numeric": {str(t): _cnum(v) for t, v in rep["d1_numeric"].items()},
        "d9_matches_ln3_minus_ln2": rep["d9_matches_ln3_minus_ln2"],
        "additivity_exact": rep["additivity_exact"],
        "additivity_residual": rep["additivity_residual"],
        "d1_residual": rep["d1_residual"],
        "fulllevel_k12_residual": full["residual"],
    }
    _emit(doc, out)
    ok = (rep["additivity_exact"] and rep["d1_residual"] < 1e-10
          and rep["d9_matches_ln3_minus_ln2"] and full["residual"] < 1e-8)
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


# ----------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """An argparse parser that reports a usage error as one line, exit 2;
    its subparsers are of the same class."""

    def error(self, message):
        raise CliError("%s: %s" % (self.prog, message), EXIT_USAGE)


def _add_max_index(p):
    p.add_argument("--max-index", type=int, default=MAX_INDEX,
                   help="refuse (exit 2) a coset space of larger index; "
                        "default %d" % MAX_INDEX)


def _add_max_n(p):
    p.add_argument("--max-n", type=int, default=MAX_N,
                   help="refuse (exit 2) an --n or --eigen prime above this; "
                        "default %d" % MAX_N)


def _add_space(p):
    p.add_argument("--group", default=GAMMA0, choices=[GAMMA0, GAMMA1])
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--weight", type=int, required=True)
    _add_max_index(p)


def _add_hecke_element(p):
    p.add_argument("--n", type=int, required=True)
    _add_max_n(p)


def _add_hecke_matrix(p):
    _add_space(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--space", default="W",
                   choices=["W", "Wplus", "Wminus", "C", "Wtilde"])
    p.add_argument("--sigma", default="delta", choices=["delta", "delta-vee", "theta"])
    _add_max_n(p)


def _add_eigenpoly(p):
    _add_space(p)
    p.add_argument("--parity", choices=["plus", "minus"], required=True)
    p.add_argument("--eigen", action="append", metavar="p:lambda",
                   help="eigenvalue constraints; repeatable")
    p.add_argument("-o", "--output", default=None)
    _add_max_n(p)


def _add_lvalue(p):
    p.add_argument("--form", required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--terms", type=int, default=200)


def _add_petersson(p):
    p.add_argument("--form", required=True)
    p.add_argument("--eigen", action="append", metavar="p:lambda")
    p.add_argument("--terms", type=int, default=200)
    _add_max_index(p)
    _add_max_n(p)


def _add_eigenvalue(p):
    p.add_argument("--form", default=None)
    p.add_argument("--level", type=int, default=None)
    p.add_argument("--weight", type=int, default=None)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--eigen", action="append", metavar="p:lambda")
    _add_max_index(p)
    _add_max_n(p)


def _add_verify(p):
    p.add_argument("--only", action="append", metavar="SUBSTRING")
    p.add_argument("--json", action="store_true",
                   help="one JSON document: each check's status, seconds and message")


def _add_gamma02_relations(p):
    p.add_argument("--weight", type=int, default=8)
    p.add_argument("--form", default=None)
    p.add_argument("--terms", type=int, default=200,
                   help="L-series terms; at most %d" % MAX_TERMS)


# subcommand -> (help, handler, adds its arguments), in the order of --help
_COMMANDS = {
    "dims": ("dimensions of W, W+-, C, D, Wtilde", cmd_dims, _add_space),
    "cusps": ("cusp classes with widths and regularity", cmd_cusps, _add_space),
    "hecke-element": ("Merel's universal T~_n, verified", cmd_hecke_element,
                      _add_hecke_element),
    "hecke-matrix": ("exact matrix of T~_n on a space", cmd_hecke_matrix,
                     _add_hecke_matrix),
    "eigenpoly": ("rational common eigenvector extraction", cmd_eigenpoly,
                  _add_eigenpoly),
    "lvalue": ("completed L-value Lambda(s, f)", cmd_lvalue, _add_lvalue),
    "petersson": ("Petersson norm via Haberland", cmd_petersson, _add_petersson),
    "eigenvalue": ("Hecke eigenvalue from the even polynomial", cmd_eigenvalue,
                   _add_eigenvalue),
    "verify": ("run the module invariant suites", cmd_verify, _add_verify),
    "gamma02-relations": ("extra relations on Gamma0(2)", cmd_gamma02_relations,
                          _add_gamma02_relations),
    "gamma06-demo": ("Eisenstein period checks", cmd_gamma06_demo, None),
}


def build_parser(command=None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or of ``command`` alone: that one
    parses its own arguments, usage errors and help exactly as the full
    parser does."""
    ap = _Parser(
        prog="periodpoly",
        description="Period polynomials of modular forms: spaces, pairings, "
                    "Hecke action, L-values and Petersson norms.")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (help_text, func, add_arguments) in _COMMANDS.items():
        if command is None or name == command:
            p = sub.add_parser(name, help=help_text)
            if add_arguments:
                add_arguments(p)
            p.set_defaults(func=func)
    return ap


def _check_args(args):
    for name, low in (("level", 1), ("weight", 2), ("n", 1), ("terms", 1),
                      ("max_index", 1), ("max_n", 1)):
        value = getattr(args, name, None)
        if value is not None and value < low:
            raise CliError("--%s must be >= %d, got %d"
                           % (name.replace("_", "-"), low, value), EXIT_USAGE)
    weight = getattr(args, "weight", None)
    if weight is not None and weight > MAX_WEIGHT:
        raise CliError("--weight %d is above %d, the largest weight built"
                       % (weight, MAX_WEIGHT), EXIT_USAGE)
    # every T~_n a command builds, refused before any element is built
    max_n = getattr(args, "max_n", None)
    if max_n is not None:
        n = getattr(args, "n", None)
        if n is not None and n > max_n:
            raise CliError("--n %d is above --max-n %d" % (n, max_n), EXIT_USAGE)
        for p, _ in _parse_eigen(getattr(args, "eigen", None)):
            if p > max_n:
                raise CliError("--eigen prime %d is above --max-n %d" % (p, max_n),
                               EXIT_USAGE)


def _named_command(argv):
    """The subcommand argv names, or None where the full parser must answer:
    no command, an unknown one, or a help request."""
    if not argv or argv[0] not in _COMMANDS or "-h" in argv or "--help" in argv:
        return None
    return argv[0]


def main(argv=None, out=None) -> int:
    out = out or sys.stdout
    if argv is None:
        argv = sys.argv[1:]
    try:
        try:
            args = build_parser(_named_command(argv)).parse_args(argv)
        except SystemExit:  # --help, after printing the help text
            return EXIT_OK
        _check_args(args)
        return args.func(args, out)
    except CliError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return exc.code
    except PeriodPolyError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
