"""The table of `g2f verify` checks, read without running a suite.

Tests name checks by string: the kill sets of the mutants, the route
comparisons and the NaN probes.  A check renamed or moved in the table
must take those names with it, or a kill set would go stale without a
failure.  So every name a test gives is an entry of its suite, no suite
has two entries of one name, and every bound is one the driver reads.
"""

import math

import test_cli
import test_mutants
import test_route_sharing
from g2fueter import checks, cli

# (suite, name, bound) of each check; an entry holds one, or a pair that reads one draw
CHECKS = [(c.suite, name, bound) for c in checks.TABLE
          for name, _, bound, _ in checks._split(c, (None, None))]
ENTRIES = {(suite, name) for suite, name, _ in CHECKS}


def _named_by_tests():
    """(suite, check) for each check that a test names by string."""
    named = {pair for *_, kill in test_mutants.MUTANTS.values() for pair in kill}
    named |= {key[:2] for key in test_route_sharing.ROUTES}
    marks = test_cli.TestExitCodes.test_nan_residual_fails.pytestmark
    [params] = [m.args[1] for m in marks if m.name == "parametrize"]
    named |= {(p.values[0], p.values[3]) for p in params}
    return named


def test_every_check_a_test_names_is_an_entry():
    named = _named_by_tests()
    assert len(named) > 20 and named - ENTRIES == set()


def test_every_mutant_a_test_names_resolves():
    # the targets of the kill sets, the refused and the surviving mutants,
    # and the one mutant per suite run unpruned
    for module, attr, *_ in (*test_mutants.MUTANTS.values(), *test_mutants.REFUSED.values(),
                             *test_mutants.SURVIVORS.values()):
        assert hasattr(module, attr), attr
    for suite, mutant in test_mutants.UNPRUNED.items():
        assert suite in {s for s, _ in test_mutants.MUTANTS[mutant][3]}


def test_the_table_runs_the_commands_suites_one_after_another():
    suites = [c.suite for c in checks.TABLE]
    assert set(suites) == set(cli.SUITES) == set(test_mutants.UNPRUNED)
    assert suites == sorted(suites, key=cli.SUITES.index)


def test_no_suite_has_two_checks_of_one_name():
    assert len(ENTRIES) == len(CHECKS) == 57


def _readable(bound):
    """Whether the driver reads this bound: EXACT, a key of every
    tolerance profile, or a positive finite number."""
    if isinstance(bound, str):
        return bound == checks.EXACT or (bound in ("identity", "construction", "slack")
                                         and all(bound in p for p in cli.PROFILES.values()))
    return isinstance(bound, float) and math.isfinite(bound) and bound > 0.0


def test_every_bound_is_one_the_driver_reads():
    assert [name for _, name, bound in CHECKS if not _readable(bound)] == []
    assert _readable(1e-12) and not _readable(0.0) and not _readable(math.nan)
    assert not _readable("samples") and not _readable(True)
