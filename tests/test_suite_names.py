"""Which suite emits which check.

Each property has one verifier, so no check name comes from two suites, and
the suites together emit the canonical name set of ``verify --suite all``.
Self-duality is a property of the cone: all six of its checks come from the
``selfdual`` suite, none from ``tp``.
"""

import pytest

from conftest import ALL_MODEL_SPECS
from jordantp import get_model
from jordantp.suites import SUITES
from test_selfdual import SELF_DUALITY_CHECKS as SELF_DUALITY
from test_verdict_gate import ASYMMETRIC_CHECKS, SYMMETRIC_CHECKS, _spec

@pytest.mark.parametrize("spec", ALL_MODEL_SPECS, ids=[_spec(*s) for s in ALL_MODEL_SPECS])
def test_each_check_comes_from_one_suite(spec):
    model = get_model(*spec)
    by_suite = {name: suite(model, 0, 4) for name, suite in SUITES.items()}
    names = [c.name for checks in by_suite.values() for c in checks]
    assert len(names) == len(set(names))
    canonical = SYMMETRIC_CHECKS if model.symmetric_tp else ASYMMETRIC_CHECKS
    assert set(names) == canonical

    assert not any(c.name.startswith("selfdual.") for c in by_suite["tp"])
    selfdual = {c.name: c for c in by_suite["selfdual"] if c.name.startswith("selfdual.")}
    if model.symmetric_tp:
        assert set(selfdual) == SELF_DUALITY
        assert not any(c.skipped for c in selfdual.values())
    else:
        # no cone: every self-duality check is skipped, and membership
        # agreement, which needs the cone's own test, is not emitted
        assert set(selfdual) == SELF_DUALITY - {"selfdual.membership_agreement"}
        assert all(c.skipped for c in selfdual.values())
