"""The names the benchmark imports stay exported and callable as it calls
them. `bench/workloads.py` is read as source, not imported."""

import ast
from pathlib import Path

import gwspeed

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


def bench_names():
    """The `_USED` tuple of `bench/workloads.py`."""
    tree = ast.parse(WORKLOADS.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "_USED" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no _USED tuple in {WORKLOADS}")


def test_bench_names_are_exported():
    names = bench_names()
    assert "pgf_derivative" in names
    assert sorted(set(names) - set(gwspeed.__all__)) == []


def test_pgf_derivative_takes_the_bench_arguments():
    law = gwspeed.parse_law("poisson:2")
    f, df = gwspeed.pgf_derivative(law, 0.5), gwspeed.pgf_derivative(law, 0.5, 1)
    assert (f, df) == (law.pgf_derivative(0.5, 0), law.pgf_derivative(0.5, 1))
    assert df == 2.0 * f
