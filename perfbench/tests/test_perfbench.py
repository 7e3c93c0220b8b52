"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import sys
import types

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)

import run as bench  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

bench._import_program()

import periodpoly  # noqa: E402
from periodpoly import exactalg, hecke, polyspace  # noqa: E402
from periodpoly.cosets import CosetSpace  # noqa: E402

SMALL_JOBS = ("dims --group gamma0 --level 89 --weight 2",
              "cusps --level 420 --weight 2",
              "hecke-matrix --level 11 --weight 4 --n 11 --space W --sigma delta",
              "hecke-matrix --level 11 --weight 4 --n 3 --space Wtilde --sigma delta",
              "chi-component gamma1 11 2")


@pytest.fixture(scope="module")
def jobs():
    expected = workloads.load_expected()
    everything = workloads.index_sweep_jobs(expected) + workloads.hecke_space_jobs(expected)
    by_id = {job.id: job for job in everything}
    return [by_id[i] for i in SMALL_JOBS]


def _function_bindings() -> dict:
    """(module or class, attribute) -> object, for every function of periodpoly."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if not (name == "periodpoly" or name.startswith("periodpoly.")):
            continue
        for attr, value in vars(mod).items():
            if isinstance(value, types.FunctionType):
                out[(name, attr)] = value
            elif isinstance(value, type) and value.__module__ == name:
                for meth, fn in vars(value).items():
                    if isinstance(fn, types.FunctionType):
                        out[(name + "." + attr, meth)] = fn
    return out


def test_untraced_run_leaves_every_wrapped_name_original(jobs):
    before = _function_bindings()
    run = bench.Run("test", 0)
    tr = tracing.Tracer()
    with tr:
        assert polyspace.slash_poly is not before[("periodpoly.polyspace", "slash_poly")]
        assert hecke.slash_poly is polyspace.slash_poly
        run.run_pass(jobs[:1], 0, tr)
    run.run_pass(jobs[:1], 1)
    assert _function_bindings() == before
    assert hecke.slash_poly is polyspace.slash_poly
    assert polyspace.reduced_column_basis is exactalg.reduced_column_basis
    assert periodpoly.build_W is polyspace.build_W
    assert CosetSpace.cusp_classes is before[("periodpoly.cosets.CosetSpace", "cusp_classes")]
    assert not run.failures


@pytest.mark.parametrize("index", [0, 2, 4])
def test_sabotaged_output_makes_failed_frac_positive(jobs, index):
    job = jobs[index]
    code, text = job.execute()
    assert job.failure(code, text) is None
    digit = next(i for i, ch in enumerate(text) if ch.isdigit())
    bad = text[:digit] + str((int(text[digit]) + 1) % 10) + text[digit + 1:]
    sabotaged = workloads.Job(job.id, job.command, checks=job.checks,
                              library=lambda: bad)
    run = bench.Run("test", 0)
    run.run_pass([job, sabotaged], 0)
    assert run.attempted == 2
    assert run.failed / run.attempted > 0


def test_float_oracle_rejects_values_outside_err(tmp_path):
    inputs = workloads.generate_inputs("eigen-sweep", 0, str(tmp_path))
    job = next(j for j in inputs["jobs"] if j.id == "lvalue --form f11.json --s 1")
    code, text = job.execute()
    assert job.failure(code, text) is None
    doc = json.loads(text)
    doc["value"]["re"] += 10 * doc["value"]["err"] + 1e-12
    assert job.failure(0, json.dumps(doc)) is not None


def test_count_only_wrappers_keep_output_bytes(jobs):
    plain = [job.execute() for job in jobs]
    tr = tracing.Tracer()
    with tr:
        traced = [job.execute() for job in jobs]
    assert traced == plain
    assert tr.counts["hecke.resolve_sigma_coset.calls"] > 0
    assert tr.counts["polyspace.slash_poly.calls"] > 0


def test_traced_counts_repeat_exactly(jobs):
    counts = []
    for index in range(2):
        tr = tracing.Tracer()
        with tr:
            bench.Run("test", 7).run_pass(jobs, index, tr)
        counts.append(tr.counts)
    assert counts[0] == counts[1]
    assert counts[0]["exactalg.sparse_int_pivots.nnz_in"] > 0
