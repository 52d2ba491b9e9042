"""The benchmark's tracer (perfbench/spans.py) patches this package by name.

Installing and uninstalling it here makes a rename or deletion of a
traced name fail the test suite, not a traced benchmark run. The oracle's
seed memo is checked against the benchmark's query traffic the same way.
"""

import pytest

from conftest import model_1a
from retxdist import cli, experiment, oracle


def test_tracer_patches_and_restores_every_name(perfbench):
    tracer = perfbench("spans").Tracer()
    try:
        tracer.install()
    finally:
        patched = list(tracer._patches)
        tracer.uninstall()
    assert patched
    for owner, attr, original in patched:
        assert owner.__dict__[attr] is original, f"{owner.__name__}.{attr}"


def test_oracle_call_records_its_quadrature(perfbench):
    # the integrator is traced through the oracle module's attribute, and a
    # curve calls ccdf_exact through it too; a call around either would
    # leave --trace 1 without oracle or quadrature metrics
    grid = [1, 10, 100]
    tracer = perfbench("spans").Tracer()
    try:
        tracer.install()
        oracle.ccdf_exact_curve(model_1a(1.0), grid)
    finally:
        tracer.uninstall()
    recorded = [tracer.names[i] for i in tracer.name]
    assert recorded.count("oracle.ccdf_exact") == len(grid)
    assert recorded.count("quadrature.integrate") == len(grid)
    assert "quadrature.integrand" in recorded


@pytest.mark.parametrize("argv", [
    ["approx", "--preset", "example1a", "--n", "10"],
    ["run", "--preset", "example1a", "--samples", "1000", "--n-max", "10",
     "--curves", "oracle,uniform_approx"],
])
def test_closed_forms_resolve_through_asym(perfbench, capsys, argv):
    # the shared closed-form loop looks asym's functions up when called,
    # so the tracer's wrappers see every verb's closed forms
    tracer = perfbench("spans").Tracer()
    try:
        tracer.install()
        assert cli.main(argv) == 0
    finally:
        tracer.uninstall()
    assert "asym.uniform_approx" in [tracer.names[i] for i in tracer.name]


def test_seed_memo_holds_every_exact_query_seed(perfbench):
    # exact-query cycles through the same (case, n) queries every round; a
    # memo smaller than the seeds they reach would miss on every one of them
    workloads = perfbench("workloads")
    seeds = set()
    for name in workloads.QUERY_PRESETS:
        cfg = experiment.preset(name)
        for label, channel, doc, bound in cfg.cases():
            m = experiment.build_model(channel, doc, cfg.alpha, cfg.ell, bound)
            seeds.update((name, label, oracle._depth(m, n))
                         for n in range(workloads.QUERY_N_MIN, workloads.QUERY_N_MAX + 1))
    assert len(seeds) <= oracle._seed.cache_parameters()["maxsize"]
