"""The benchmark's tracer (perfbench/spans.py) patches this package by name.

Installing and uninstalling it here makes a rename or deletion of a
traced name fail the test suite, not a traced benchmark run.
"""

import pytest

from conftest import model_1a, model_log_power
from retxdist import cli, oracle


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


@pytest.mark.parametrize("model", [model_1a(1.0), model_log_power(16.0)])
def test_oracle_call_records_its_quadrature(perfbench, model):
    # the rule is traced through the oracle module's attribute, and a curve
    # calls ccdf_exact through it too; a call around either would leave
    # --trace 1 without oracle or quadrature metrics. Both pieces of a
    # log_power kink split go through one integrand call.
    grid = [1, 10, 100]
    tracer = perfbench("spans").Tracer()
    try:
        tracer.install()
        oracle.ccdf_exact_curve(model, grid)
    finally:
        tracer.uninstall()
    recorded = [tracer.names[i] for i in tracer.name]
    assert recorded.count("oracle.ccdf_exact") == len(grid)
    assert recorded.count("quadrature.integrate") == len(grid)
    assert recorded.count("quadrature.integrand") == len(grid)


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

