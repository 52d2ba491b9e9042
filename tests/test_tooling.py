"""The benchmark's tracer (perfbench/spans.py) patches this package by name.

Installing and uninstalling it here makes a rename or deletion of a
traced name fail the test suite, not a traced benchmark run.
"""

from conftest import model_1a
from retxdist import oracle


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
