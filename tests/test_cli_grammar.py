"""Generated argv over the CLI grammar.

Every argv, small and valid or deliberately bad (wrong types; negative or
huge levels, weights, n and terms; unknown groups, spaces and sigmas), must
end in a documented exit code with at most one ``error:`` line and no
traceback, within a time bound.  Huge values are tested by refusal only:
build_coset_space and the element constructors raise if such an argv
reaches them.
"""

import contextlib
import io
import json
import os
import signal
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from periodpoly import cli, hecke
from periodpoly.analytic import NewformData, eta_product

EXIT_CODES = {cli.EXIT_OK, cli.EXIT_ERROR, cli.EXIT_USAGE, cli.EXIT_BAD_FILE,
              cli.EXIT_VERIFY_FAILED}
SECONDS = 5  # per argv; the slowest valid one here takes about 0.3 s
HUGE = ["1000000000000000003", "1" + "0" * 30, "1" + "0" * 400]
WRONG = ["x", "1.5", "", "2e3", "0x11"]


def _int(low, high):
    """(small valid values, negative, zero, huge or malformed ones)."""
    return (st.integers(low, high).map(str),
            st.sampled_from(HUGE) | st.sampled_from(["0", "-1", "-7"] + WRONG))


def _choice(valid, bad):
    return st.sampled_from(valid), st.sampled_from(bad)


# option -> (valid values, bad values)
OPTIONS = {
    "level": _int(1, 12),
    "weight": _int(2, 5),
    "n": _int(1, 30),
    "eigen": (st.tuples(st.sampled_from("2357"), st.integers(-9, 9)).map(lambda t: "%s:%d" % t),
              st.sampled_from(["2:", "x:1", "2:1/0", "0:1", "-3:1", "2:1:3", ""]
                              + [h + ":1" for h in HUGE])),
    "group": _choice(["gamma0", "gamma1"], ["gamma2", "Gamma0", ""]),
    "space": _choice(["W", "Wplus", "Wminus", "C", "Wtilde"], ["V", "w", ""]),
    "sigma": _choice(["delta", "delta-vee", "theta"], ["diamond", "sigma", ""]),
    "parity": _choice(["plus", "minus"], ["even", ""]),
    "terms": _int(1, 300),
    "s": _int(-1, 5),
    "only": _choice(["exactalg.bernoulli", "cyclotomic"], ["zzz", ""]),
}
# command -> (options it must have, options it may have, the options that
# size what it builds); the --weight of gamma02-relations and the --form of
# eigenvalue are drawn apart, and the cusps do not depend on the weight
GRAMMAR = {
    "dims": (["level", "weight"], ["group"], ["level", "weight"]),
    "cusps": (["level", "weight"], ["group"], ["level"]),
    "hecke-element": (["n"], [], ["n"]),
    "hecke-matrix": (["level", "weight", "n"], ["group", "space", "sigma"],
                     ["level", "weight", "n"]),
    "eigenpoly": (["level", "weight", "parity"], ["group", "eigen", "eigen"],
                  ["level", "weight", "eigen"]),
    "lvalue": (["form", "s"], ["terms"], []),
    "petersson": (["form", "eigen"], ["eigen", "terms"], ["eigen"]),
    "eigenvalue": (["n"], ["eigen", "eigen"], ["level", "weight", "n", "eigen"]),
    "verify": ([], ["only"], []),
    "gamma02-relations": ([], ["terms"], []),
    "gamma06-demo": ([], [], []),
}
SIZED_COMMANDS = sorted(c for c, (_, _, sizing) in GRAMMAR.items() if sizing)


@st.composite
def argvs(draw, forms, one_huge=False):
    """(argv, whether a sizing option is huge).  Each value is valid three
    times in four; with ``one_huge`` every value is valid but one sizing
    value, which is huge."""
    commands = SIZED_COMMANDS if one_huge else sorted(GRAMMAR) + ["frobnicate"]
    command = draw(st.sampled_from(commands))
    if command == "frobnicate":
        return [command], False
    required, optional, sizing = GRAMMAR[command]
    # now and then a required option is missing
    names = [o for o in required if one_huge or draw(st.integers(0, 9))]
    names += [o for o in optional if draw(st.booleans())]
    if command == "eigenvalue":
        names += ["form"] if draw(st.booleans()) else ["level", "weight"]
    huge_at = draw(st.sampled_from([i for i, o in enumerate(names) if o in sizing])) \
        if one_huge else None
    argv, huge = [command], False
    for i, name in enumerate(names):
        if name == "form":
            value = draw(st.sampled_from(forms[:2] if one_huge else forms))
        elif command == "gamma02-relations" and name == "weight":
            value = draw(st.sampled_from(["8", "10", "14", "7", "x"]))
        elif i == huge_at:
            value = draw(st.sampled_from(HUGE)) + (":1" if name == "eigen" else "")
        else:
            valid, bad = OPTIONS[name]
            value = draw(valid if one_huge or draw(st.integers(0, 3)) else bad)
        huge |= name in sizing and any(h in value for h in HUGE)
        argv += ["--" + name, value]
    if command == "gamma02-relations" and draw(st.booleans()):
        argv += ["--weight", draw(st.sampled_from(["8", "10", "14", "7", "x"]))]
    if not one_huge and draw(st.integers(0, 19)) == 0:
        argv.append(draw(st.sampled_from(["--frobnicate", "extra", "-h"])))
    return argv, huge


@pytest.fixture(scope="module")
def forms(tmp_path_factory):
    root = tmp_path_factory.mktemp("grammar")
    paths = []
    for name, f in (("f5.json", NewformData(5, 4, eta_product([(1, 4), (5, 4)], 250), 1)),
                    ("f11.json", NewformData(11, 2, eta_product([(1, 2), (11, 2)], 250), -1))):
        (root / name).write_text(json.dumps(f.to_json()))
        paths.append(str(root / name))
    (root / "bad.json").write_text("{\"level\": ")
    return paths + [str(root / "bad.json"), str(root / "missing.json")]


class _TimedOut(Exception):
    pass


def _alarm(signum, frame):
    raise _TimedOut()


def _refuse(*args, **kwargs):
    raise AssertionError("a huge value reached a coset space or element constructor")


def _run(argv, huge):
    """cli.main(argv) under the time bound: (exit code, error: lines).  With
    huge, build_coset_space and the element constructors raise if reached."""
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        if huge:
            for module, name in ((cli, "build_coset_space"), (cli, "universal_hecke_element"),
                                 (hecke, "universal_hecke_element"),
                                 (cli, "verified_hecke_element")):
                mp.setattr(module, name, _refuse)
        previous = signal.signal(signal.SIGALRM, _alarm)
        signal.setitimer(signal.ITIMER_REAL, SECONDS)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv, out=out)
        except _TimedOut:
            pytest.fail("%r ran for more than %d s" % (argv, SECONDS))
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
    assert "Traceback" not in err.getvalue(), (argv, err.getvalue())
    return code, [line for line in err.getvalue().splitlines() if line.startswith("error:")]


needs_timer = pytest.mark.skipif(not hasattr(signal, "setitimer"),
                                 reason="needs signal.setitimer")


@needs_timer
def test_generated_argv_ends_in_a_documented_exit_code(forms):
    @settings(max_examples=250, derandomize=True, database=None, deadline=None)
    @given(argvs(forms))
    def check(drawn):
        argv, huge = drawn
        code, errors = _run(argv, huge)
        assert code in EXIT_CODES and len(errors) <= 1, (argv, code, errors)
        if code == cli.EXIT_USAGE:
            assert len(errors) == 1, argv
        if huge and "-h" not in argv:
            assert code in (cli.EXIT_USAGE, cli.EXIT_BAD_FILE), (argv, code)
    check()


@needs_timer
def test_one_huge_value_is_refused_before_building(forms):
    @settings(max_examples=80, derandomize=True, database=None, deadline=None)
    @given(argvs(forms, one_huge=True))
    def check(drawn):
        argv, _ = drawn
        code, errors = _run(argv, True)
        assert code == cli.EXIT_USAGE and len(errors) == 1, (argv, code, errors)
    check()


def test_a_generated_refusal_under_optimize():
    # -O strips assert statements; the refusal must not rest on one
    argv = ["hecke-matrix", "--level", HUGE[0], "--weight", HUGE[2], "--n", HUGE[1]]
    src = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-O", "-m", "periodpoly.cli"] + argv,
                          capture_output=True, text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == cli.EXIT_USAGE and proc.stdout == ""
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1
