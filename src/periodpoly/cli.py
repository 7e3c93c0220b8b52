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
import sys
from fractions import Fraction

from .exactalg import PeriodPolyError, scalar_to_str
from .cosets import GAMMA0, GAMMA1, build_coset_space, coset_index, cusp_classes
from .polyspace import (build_W, build_W_extended, build_coboundary_and_D,
                        eps_split, w_dimensions, wtilde_dimension)
from .hecke import (InfeasibleSolveError, common_eigen_polynomial, delta_spec,
                    delta_vee_spec, hecke_matrix, solve_universal_hecke,
                    theta_spec, universal_hecke_element,
                    verify_hecke_property)
from .analytic import (AnalyticError, NewformData, completed_lvalue,
                       eisenstein_period_demo, eta_product, manin_coefficient,
                       petersson_product)
from . import gamma02
from . import verifysuite

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_USAGE = 2
EXIT_BAD_FILE = 3
EXIT_INFEASIBLE = 4
EXIT_VERIFY_FAILED = 5

# Largest coset index a command builds unless --max-index says otherwise;
# Gamma0(3000) has index 7200, Gamma1(1000) about 360,000.
MAX_INDEX = 20000


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


def _group_kind(name: str) -> str:
    if name in ("gamma0", "g0"):
        return GAMMA0
    if name in ("gamma1", "g1"):
        return GAMMA1
    raise CliError("unknown group %r" % name, EXIT_USAGE)


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
    """build_coset_space, refused before anything is built above --max-index."""
    index = coset_index(kind, N)
    if index > args.max_index:
        raise CliError("%s(%d) has index %d, above --max-index %d"
                       % (kind, N, index, args.max_index), EXIT_USAGE)
    return build_coset_space(kind, N, k)


def _sigma_for(args, kind, N, n):
    name = getattr(args, "sigma", "delta")
    if name == "delta":
        return delta_spec(kind, N, n)
    if name == "delta-vee":
        return delta_vee_spec(kind, N, n)
    if name == "theta":
        return theta_spec(kind, N, n)
    raise CliError("unknown double coset %r" % name, EXIT_USAGE)


# ----------------------------------------------------------------------
# subcommands

def cmd_dims(args, out):
    kind = _group_kind(args.group)
    space = _coset_space(args, kind, args.level, args.weight)
    w = args.weight - 2
    if space.size > 60:
        _progress("building relation systems at index %d ..." % space.size)
    dim_w, dim_plus, dim_minus = w_dimensions(space, w)
    C, D = build_coboundary_and_D(space, w)
    dim_wt = wtilde_dimension(space, w)
    _emit({
        "group": kind, "level": args.level, "weight": args.weight,
        "index": space.index,
        "dim_W": dim_w, "dim_W_plus": dim_plus, "dim_W_minus": dim_minus,
        "dim_C": C.dim, "dim_D": D.dim, "dim_Wtilde": dim_wt,
        "dim_S_inferred": (dim_w - C.dim) // 2,
    }, out)
    return EXIT_OK


def cmd_cusps(args, out):
    kind = _group_kind(args.group)
    space = _coset_space(args, kind, args.level, args.weight)
    cs = cusp_classes(space)
    _emit({
        "group": kind, "level": args.level,
        "cusps": [{
            "representative": space.label_str(c.representative),
            "labels": [space.label_str(l) for l in c.labels],
            "width": c.width,
            "regular": c.regular,
        } for c in cs.classes],
    }, out)
    return EXIT_OK


def cmd_hecke_element(args, out):
    if args.variant is not None:
        if args.method != "solve":
            raise CliError("--variant needs --method solve", EXIT_USAGE)
        if args.variant not in (0, 1):
            raise CliError("--variant must be 0 or 1, got %d" % args.variant, EXIT_USAGE)
    try:
        if args.method == "solve":
            t = solve_universal_hecke(args.n, args.entry_bound, variant=args.variant or 0)
        else:
            t = universal_hecke_element(args.n, args.entry_bound)
    except InfeasibleSolveError as exc:
        raise CliError(str(exc), EXIT_INFEASIBLE)
    ok, witness = verify_hecke_property(t, args.n)
    doc = {"n": args.n, "verified": ok, "terms": t.to_json()}
    if ok:
        doc["witness_Y"] = witness.to_json()
    else:
        doc["refuting_orbit"] = [witness.a, witness.b, witness.c, witness.d]
    _emit(doc, out)
    return EXIT_OK if ok else EXIT_ERROR


def _space_choice(args, space, w):
    name = args.space
    if name in ("W", "Wplus", "Wminus"):
        W = build_W(space, w)
        if name == "W":
            return W
        plus, minus = eps_split(W)
        return plus if name == "Wplus" else minus
    if name == "C":
        return build_coboundary_and_D(space, w)[0]
    if name == "Wtilde":
        return build_W_extended(space, w)
    raise CliError("unknown space %r" % name, EXIT_USAGE)


def cmd_hecke_matrix(args, out):
    kind = _group_kind(args.group)
    space = _coset_space(args, kind, args.level, args.weight)
    w = args.weight - 2
    sub = _space_choice(args, space, w)
    t = universal_hecke_element(args.n, args.entry_bound)
    spec = _sigma_for(args, kind, args.level, args.n)
    m = hecke_matrix(sub, t, spec)
    doc = _matrix_doc(m)
    doc.update({"space": args.space, "n": args.n, "dim": sub.dim})
    _emit(doc, out)
    return EXIT_OK


def cmd_eigenpoly(args, out):
    kind = _group_kind(args.group)
    space = _coset_space(args, kind, args.level, args.weight)
    w = args.weight - 2
    W = build_W(space, w)
    plus, minus = eps_split(W)
    sub = plus if args.parity == "plus" else minus
    parity = "+" if args.parity == "plus" else "-"
    P = common_eigen_polynomial(sub, _parse_eigen(args.eigen), parity=parity)
    doc = P.to_json()
    doc["parity"] = parity
    if args.output:
        with open(args.output, "w") as fh:
            _emit(doc, fh)
        _emit({"written": args.output, "dim_searched": sub.dim}, out)
    else:
        _emit(doc, out)
    return EXIT_OK


def cmd_lvalue(args, out):
    f = _load_form(args.form)
    lv = completed_lvalue(f, args.s, args.terms)
    _emit({"s": args.s, "level": f.level, "weight": f.weight,
           "value": _cnum(lv.value, lv.err)}, out)
    return EXIT_OK


def _eigen_polys_for(args, f: NewformData, eigendata):
    space = _coset_space(args, GAMMA0, f.level, f.weight)
    W = build_W(space, f.weight - 2)
    plus, minus = eps_split(W)
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
    W = build_W(space, weight - 2)
    plus, _ = eps_split(W)
    try:
        Pp = common_eigen_polynomial(plus, _parse_eigen(args.eigen), parity="+")
        t = universal_hecke_element(args.n, args.entry_bound)
        lam = manin_coefficient(Pp, t, delta_spec(GAMMA0, level, args.n), args.n)
    except InfeasibleSolveError as exc:
        raise CliError(str(exc), EXIT_INFEASIBLE)
    _emit({"level": level, "weight": weight, "n": args.n,
           "eigenvalue": scalar_to_str(lam)}, out)
    return EXIT_OK


def cmd_verify(args, out):
    for sub in args.only or ():
        if not any(sub in name for name, _ in verifysuite.CHECKS):
            raise CliError("--only %r matches no check" % sub, EXIT_USAGE)
    failures = verifysuite.run_all(args.only, out)
    return EXIT_OK if failures == 0 else EXIT_VERIFY_FAILED


def cmd_gamma02_relations(args, out):
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

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="periodpoly",
        description="Period polynomials of modular forms: spaces, pairings, "
                    "Hecke action, L-values and Petersson norms.")
    sub = ap.add_subparsers(dest="command", required=True)

    def max_index(p):
        p.add_argument("--max-index", type=int, default=MAX_INDEX,
                       help="refuse (exit 2) a coset space of larger index; "
                            "default %d" % MAX_INDEX)

    def common_space(p):
        p.add_argument("--group", default="gamma0", choices=["gamma0", "gamma1"])
        p.add_argument("--level", type=int, required=True)
        p.add_argument("--weight", type=int, required=True)
        max_index(p)

    p = sub.add_parser("dims", help="dimensions of W, W+-, C, D, Wtilde")
    common_space(p)
    p.set_defaults(func=cmd_dims)

    p = sub.add_parser("cusps", help="cusp classes with widths and regularity")
    common_space(p)
    p.set_defaults(func=cmd_cusps)

    p = sub.add_parser("hecke-element", help="solve and verify a universal T~_n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--entry-bound", type=int, default=None)
    p.add_argument("--method", choices=["auto", "solve"], default="auto")
    p.add_argument("--variant", type=int, default=None,
                   help="0 (default) or 1; with --method solve only")
    p.set_defaults(func=cmd_hecke_element)

    p = sub.add_parser("hecke-matrix", help="exact matrix of T~_n on a space")
    common_space(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--space", default="W",
                   choices=["W", "Wplus", "Wminus", "C", "Wtilde"])
    p.add_argument("--sigma", default="delta", choices=["delta", "delta-vee", "theta"])
    p.add_argument("--entry-bound", type=int, default=None)
    p.set_defaults(func=cmd_hecke_matrix)

    p = sub.add_parser("eigenpoly", help="rational common eigenvector extraction")
    common_space(p)
    p.add_argument("--parity", choices=["plus", "minus"], required=True)
    p.add_argument("--eigen", action="append", metavar="p:lambda",
                   help="eigenvalue constraints; repeatable")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_eigenpoly)

    p = sub.add_parser("lvalue", help="completed L-value Lambda(s, f)")
    p.add_argument("--form", required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--terms", type=int, default=200)
    p.set_defaults(func=cmd_lvalue)

    p = sub.add_parser("petersson", help="Petersson norm via Haberland")
    p.add_argument("--form", required=True)
    p.add_argument("--eigen", action="append", metavar="p:lambda")
    p.add_argument("--terms", type=int, default=200)
    max_index(p)
    p.set_defaults(func=cmd_petersson)

    p = sub.add_parser("eigenvalue", help="Hecke eigenvalue from the even polynomial")
    p.add_argument("--form", default=None)
    p.add_argument("--level", type=int, default=None)
    p.add_argument("--weight", type=int, default=None)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--eigen", action="append", metavar="p:lambda")
    p.add_argument("--entry-bound", type=int, default=None)
    max_index(p)
    p.set_defaults(func=cmd_eigenvalue)

    p = sub.add_parser("verify", help="run the module invariant suites")
    p.add_argument("--only", action="append", metavar="SUBSTRING")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("gamma02-relations", help="extra relations on Gamma0(2)")
    p.add_argument("--weight", type=int, default=8)
    p.add_argument("--form", default=None)
    p.add_argument("--terms", type=int, default=200)
    p.set_defaults(func=cmd_gamma02_relations)

    p = sub.add_parser("gamma06-demo", help="Eisenstein period checks")
    p.set_defaults(func=cmd_gamma06_demo)
    return ap


def _check_args(args):
    for name, low in (("level", 1), ("weight", 2), ("n", 1), ("terms", 1),
                      ("max_index", 1)):
        value = getattr(args, name, None)
        if value is not None and value < low:
            raise CliError("--%s must be >= %d, got %d"
                           % (name.replace("_", "-"), low, value), EXIT_USAGE)
    bound = getattr(args, "entry_bound", None)
    if bound is not None and bound < args.n:
        raise CliError("--entry-bound must be >= --n (%d), got %d" % (args.n, bound),
                       EXIT_USAGE)


def main(argv=None, out=None) -> int:
    out = out or sys.stdout
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
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
