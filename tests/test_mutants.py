"""Mutants of the routes that `g2f verify` compares, and the checks that kill them.

The library's value is that its checks notice a wrong implementation, and
that the routes meeting in each identity stay independent.  Each mutant
below breaks one route where the verify samplers now call it, the batched
kernel (the per-plane entry point, its n = 1 case, goes wrong with it), and
the test asserts the exact set of (suite, check) pairs that fail over all
six suites at the fast profile and seed 1.  A check that is deleted,
loosened or merged with the route it guards shows up as a diff here.

Each mutant is patched on its defining module, so the library's own calls
through that module's globals see it too; names imported into another
module keep the original (fueter's `ve_series_many`, for one, which is why
`ve_series[1] + 1e-6` leaves the six-way report alone).
"""

import numpy as np
import pytest

from g2fueter import cli, fueter, g2core, pde, splitting


def _negated(real):
    return lambda *args: -real(*args)


def _scaled(factor):
    return lambda real: lambda *args: factor * real(*args)


def _ve1_shifted(real):
    def mutant(*args):
        ve = real(*args)
        ve[:, 1] += 1e-6
        return ve
    return mutant


# name -> (module, function, mutant of the real function, checks it kills)
MUTANTS = {
    "fueter_vector negated": (
        fueter, "fueter_vector_many", _negated, {("fueter", "route-equivalence")}),
    "chi1_via_projection negated": (
        fueter, "chi1_via_projection", _negated, {("fueter", "route-equivalence")}),
    "chi x (1+1e-6)": (
        g2core, "chi_many", _scaled(1 + 1e-6), {("algebra", "associator-equality")}),
    "tau x 2": (
        g2core, "tau_many", _scaled(2.0), {("algebra", "coassociator-equality")}),
    "ve_series[1] + 1e-6": (
        splitting, "ve_series_many", _ve1_shifted,
        {("splitting", "ve-two-routes"), ("splitting", "ve-sqrt-taylor"),
         ("splitting", "equality-ladder"), ("fueter", "secondary-equality")}),
    "lambda_k x (1+1e-9)": (
        g2core, "lambda_k", _scaled(1 + 1e-9),
        {("algebra", "lambda-isometry"), ("algebra", "projection-eigen-oracle"),
         ("fueter", "route-equivalence")}),
}


# Known survivors: every check of the six suites still passes under them,
# since no check compares the Fueter map matrix or the flat operator with
# a second route of the same value.  Strict xfails, so the check that
# first kills one turns it into an XPASS failure here, to be moved into
# MUTANTS with its exact kill set.
SURVIVORS = {
    "fueter_map_matrix x 1.001": (fueter, "fueter_map_matrix", _scaled(1.001)),
    # on pde alone: fm_gauge imported the real one by name
    "pde.fueter_operator_flat x 1.001": (pde, "fueter_operator_flat", _scaled(1.001)),
}


def _failing_checks():
    failed = set()
    for suite, run in cli.SUITES.items():
        for check in run(np.random.default_rng(1), dict(cli.PROFILES["fast"])):
            if not check["pass"]:
                failed.add((suite, check["name"]))
    return failed


def test_every_check_passes_unmutated():
    assert _failing_checks() == set()


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_mutant_is_killed_by_exactly_its_checks(name, monkeypatch):
    module, attr, mutate, killed_by = MUTANTS[name]
    monkeypatch.setattr(module, attr, mutate(getattr(module, attr)))
    assert _failing_checks() == killed_by


@pytest.mark.xfail(strict=True, reason="no verify check sees this mutant yet")
@pytest.mark.parametrize("name", sorted(SURVIVORS))
def test_survivor_is_killed(name, monkeypatch):
    module, attr, mutate = SURVIVORS[name]
    monkeypatch.setattr(module, attr, mutate(getattr(module, attr)))
    assert _failing_checks() != set()
