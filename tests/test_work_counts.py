"""The work each benchmark workload does, pinned in tier-1.

Each workload's seed-1 instances run once under the benchmark's tracer, and
every call count and work count (terms, pair products, ``phi`` calls) must
equal the number pinned here.  A change that moves the work updates these
numbers and says so in CHANGES.md.

    python3 -m pytest -q tests/test_work_counts.py
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402
import workloads  # noqa: E402

COUNTS = {
    "ct3": {
        "cli.main.calls": 1,
        "ordering.phi.calls": 222,
        "parser.parse.calls": 1,
        "series.compose.calls": 3,
        "series.compose.terms_out": 18,
        "series.extract.calls": 1,
        "series.init.calls": 25,
        "series.init.terms": 25,
        "series.invert.calls": 6,
        "series.invert.terms_in": 20,
        "series.invert.terms_out": 140,
        "series.multiply.calls": 20,
        "series.multiply.pairs": 30,
        "series.multiply.terms_out": 30,
    },
    "dyson": {
        "ordering.phi.calls": 8960,
        "series.init.calls": 72,
        "series.init.terms": 1281,
    },
    "cov_lemma": {
        "identities.wilson_v.calls": 10,
        "ordering.phi.calls": 12776,
        "parser.parse.calls": 200,
        "residues.change_of_variables.calls": 300,
        "residues.jacobian.calls": 501,
        "residues.log_jacobian.calls": 201,
        "residues.residue_verify.calls": 200,
        "series.extract.calls": 800,
        "series.init.calls": 895,
        "series.init.terms": 1024,
        "series.invert.calls": 766,
        "series.invert.terms_in": 1367,
        "series.invert.terms_out": 7039,
        "series.multiply.calls": 625,
        "series.multiply.pairs": 71544,
        "series.multiply.terms_out": 10138,
    },
    "lagrange": {
        "ordering.phi.calls": 6481,
        "parser.expand.calls": 300,
        "parser.parse.calls": 300,
        "residues.jacobian.calls": 300,
        "residues.lagrange_coefficient.calls": 300,
        "residues.lagrange_inverse.calls": 100,
        "series.extract.calls": 300,
        "series.init.calls": 700,
        "series.init.terms": 1512,
        "series.invert.calls": 120,
        "series.invert.terms_in": 201,
        "series.invert.terms_out": 312,
        "series.multiply.calls": 150,
        "series.multiply.pairs": 276,
        "series.multiply.terms_out": 266,
    },
}


@pytest.mark.parametrize("workload", sorted(COUNTS))
def test_seed_1_work_is_pinned(workload):
    instances = workloads.build(workload, 1)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for instance in instances:
            instance.check()
    finally:
        tracer.uninstall()
    spans, counts = tracer.take()
    calls, _ = tracing.self_times(spans)
    counts.update({f"{name}.calls": n for name, n in calls.items()})
    assert dict(counts) == COUNTS[workload]
