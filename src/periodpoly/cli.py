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
import math
import os
import sys
from fractions import Fraction

from .exactalg import PeriodPolyError, scalar_to_str
from .cosets import (GAMMA0, GAMMA1, _factor, build_coset_space, coset_index,
                     cusp_classes)
from .polyspace import (build_W, build_W_extended, build_coboundary_and_D,
                        coboundary_and_D_dimensions, w_dimensions, wtilde_dimension)
from .hecke import (HeckeError, common_eigen_polynomial, delta_spec, delta_vee_spec,
                    hecke_matrix, theta_spec, universal_hecke_element,
                    verified_hecke_element, witness_terms)
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

# Largest n of a T~_n built alone, without a coset space: the --n of
# hecke-element and of eigenvalue.  Below it the largest Merel family, at
# n = 1980, has 93,226 matrices, and hecke-element --n 1980 prints about 39 MB.
MAX_N = 2000
# Largest --terms of gamma02-relations, which builds that many eta-product
# coefficients and sums that many terms per L-value: 2000 terms take about
# 0.5 s, 4000 about 0.8 s, and the cost grows faster than linearly beyond.
MAX_TERMS = 4000
# Largest estimated work of a command that builds a coset space, in seconds
# of one core of a 2-core VM under python -O; see _coset_space.
MAX_WORK = 15.0


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


def _divisor_sum(n: int) -> int:
    return math.prod((p ** (e + 1) - 1) // (p - 1) for p, e in _factor(n))


def _coset_space(kind, N, k, spaces=(), primes=(), eigen=False):
    """build_coset_space(kind, N, k), refused with exit 2 before anything is
    built when the command's estimated work is above MAX_WORK: the coset
    space, each space in ``spaces`` ("dims" for the ranks of dims), each
    T~_p in ``primes`` acting on it and, with ``eigen``, its eigenspace.

    The index is at least N and sigma(p) at least p, and the work grows with
    both, so the estimate is first made with those bounds: a huge level or
    p is refused before it is factored."""
    def work(index, sigma):
        # seconds of a 2-core VM under -O, each term fitted on timings of its
        # layer, with K = k - 1; inputs above 10^12, where every term is far
        # above the bound, count as 10^12, so the estimate stays a float
        index, K, N3 = min(index, 10 ** 12), min(k, 10 ** 12) - 1, min(N, 10 ** 12) ** 3
        out = 1e-5 * index  # the coset space
        for space in spaces:
            # the relation systems; the second term takes the rise of the
            # exponent of K at large weight
            if space == "dims":
                out += 2e-5 * index ** 1.1 * K + 6e-8 * index ** 1.4 * K ** 3.35
                continue
            out += 2.4e-6 * index ** 1.25 * K ** 2 + 4.5e-8 * index ** 1.6 * K ** 3.5
            ext, half = space == "Wtilde", space in ("Wplus", "Wminus")
            dim = index * K / (12 if half else 6)  # about dim W, or dim W+-
            if primes:
                out += 1.5e-7 * K ** 3.2  # the slash table of the weight
            for p in primes:
                # s bounds |supp T~_p| and c its classes mod N: the element,
                # and each term folded (in Fractions on Wtilde)
                s = 2.26 * sigma(min(p, 10 ** 12)) * math.log(p + 1)
                c = min(s, N3)
                out += s * (7e-6 + 4e-7 * K ** 2.25 + (2e-4 if ext else 0))
                # each class resolved, and its block added, at every label
                out += c * index ** 1.25 * (2.7e-7 + (1.7e-7 * (K + 2) ** 2 if ext
                                                      else 2.8e-8 * K ** 2))
                # the restriction to the subspace, and its about index
                # min(c, index) blocks
                out += 6.5e-8 * index ** 2 * K ** 2.8 / (7 if half else 1)
                out += (1.4e-9 if ext else 9e-10) * index * min(c, index) * dim * K ** 3
            if eigen and primes:
                # the eigenspace: it took 2.2 s for T~_2 and 43 s for T~_3 on
                # W+ of Gamma0(1000) at weight 4, which nothing here tells
                # apart, so the term takes the dearer
                out += 6e-8 * dim ** 3 * K
        return out

    acts = " with %s" % ", ".join("T~_%d" % p for p in primes) if primes else ""
    if spaces and spaces != ("dims",):
        acts += " on %s" % " and ".join(spaces)
    for exact in (False, True):
        index = coset_index(kind, N) if exact else N
        estimate = work(index, _divisor_sum if exact else int)
        if estimate > MAX_WORK:
            at_least = "" if exact else "at least "
            raise CliError("%s(%d) has index %s%d: at weight %d%s the estimated work is "
                           "%s%.3g s, above %g s" % (kind, N, at_least, index, k, acts,
                                                     at_least, estimate, MAX_WORK), EXIT_USAGE)
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
    space = _coset_space(args.group, args.level, args.weight, ("dims",))
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
    space = _coset_space(args.group, args.level, args.weight)
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
    t, runs, den = verified_hecke_element(args.n)
    y = witness_terms(runs)
    _emit({"n": args.n, "verified": True, "terms": t.to_json(),
           "witness_Y": [{"matrix": list(m), "coeff": scalar_to_str(Fraction(y[m], den))}
                         for m in sorted(y) if y[m]]}, out)
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
    space = _coset_space(args.group, args.level, args.weight, (args.space,), (args.n,))
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
    eigendata = _parse_eigen(args.eigen)
    sign, parity = (1, "+") if args.parity == "plus" else (-1, "-")
    space = _coset_space(args.group, args.level, args.weight,
                         ("Wplus" if sign == 1 else "Wminus",), [p for p, _ in eigendata],
                         eigen=True)
    created = bool(args.output) and _claim_output(args.output)
    try:
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


def _eigen_polys_for(f: NewformData, eigendata):
    space = _coset_space(GAMMA0, f.level, f.weight, ("Wplus", "Wminus"),
                         [p for p, _ in eigendata], eigen=True)
    plus, minus = build_W(space, f.weight - 2, 1), build_W(space, f.weight - 2, -1)
    Pp = common_eigen_polynomial(plus, eigendata, parity="+")
    Pm = common_eigen_polynomial(minus, eigendata if minus.dim > 1 else [],
                                 parity="-")
    return Pp, Pm


def cmd_petersson(args, out):
    f = _load_form(args.form)
    eigendata = _parse_eigen(args.eigen)
    Pp, Pm = _eigen_polys_for(f, eigendata)
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
    eigendata = _parse_eigen(args.eigen)
    space = _coset_space(GAMMA0, level, weight, ("Wplus",), [p for p, _ in eigendata],
                         eigen=True)
    Pp = common_eigen_polynomial(build_W(space, weight - 2, 1), eigendata, parity="+")
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


def _add_space(p):
    p.add_argument("--group", default=GAMMA0, choices=[GAMMA0, GAMMA1])
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--weight", type=int, required=True)


def _add_hecke_element(p):
    p.add_argument("--n", type=int, required=True)


def _add_hecke_matrix(p):
    _add_space(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--space", default="W",
                   choices=["W", "Wplus", "Wminus", "C", "Wtilde"])
    p.add_argument("--sigma", default="delta", choices=["delta", "delta-vee", "theta"])


def _add_eigenpoly(p):
    _add_space(p)
    p.add_argument("--parity", choices=["plus", "minus"], required=True)
    p.add_argument("--eigen", action="append", metavar="p:lambda",
                   help="eigenvalue constraints; repeatable")
    p.add_argument("-o", "--output", default=None)


def _add_lvalue(p):
    p.add_argument("--form", required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--terms", type=int, default=200)


def _add_petersson(p):
    p.add_argument("--form", required=True)
    p.add_argument("--eigen", action="append", metavar="p:lambda")
    p.add_argument("--terms", type=int, default=200)


def _add_eigenvalue(p):
    p.add_argument("--form", default=None)
    p.add_argument("--level", type=int, default=None)
    p.add_argument("--weight", type=int, default=None)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--eigen", action="append", metavar="p:lambda")


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
    for name, low in (("level", 1), ("weight", 2), ("n", 1), ("terms", 1)):
        value = getattr(args, name, None)
        if value is not None and value < low:
            raise CliError("--%s must be >= %d, got %d" % (name, low, value), EXIT_USAGE)
    _parse_eigen(getattr(args, "eigen", None))  # malformed --eigen data, before any file
    # a T~_n built alone; every other size is bounded by _coset_space
    if args.command in ("hecke-element", "eigenvalue") and args.n > MAX_N:
        raise CliError("--n %d is above %d, the largest T~_n built alone"
                       % (args.n, MAX_N), EXIT_USAGE)


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
