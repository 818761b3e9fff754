"""Mutants of the routes that `g2f verify` compares, and the checks that kill them.

The library's value is that its checks notice a wrong implementation, and
that the routes meeting in each identity stay independent.  Each mutant
below breaks one route where the verify samplers now call it, the batched
kernel, and the test asserts the exact set of (suite, check) pairs that fail over all
six suites at the fast profile and seed 1, or the guard that refuses it
before any check runs.  A check that is deleted, loosened or merged with
the route it guards shows up as a diff here.

A mutant runs only on the suites that call its target (`_reached`,
recorded once, cold); every other suite runs as it does unmutated.  The
package's caches, the one standard splitting among them, are cleared
before each suite run and after each test, so a warm cache hides no
mutant and no mutant's value outlives its patch.

Each mutant is patched on its defining module (a method on its class), so
the library's own calls through that module's globals see it too; names
imported into another module keep the original (fueter's
`ve_series`, for one, which is why `ve_series[1] + 1e-6` leaves the
six-way report alone).
"""

import functools

import numpy as np
import pytest

from g2fueter import checks, cli, fm_gauge, fueter, g2core, models, pde, splitting
from g2fueter import exterior as ex


def _negated(real):
    return lambda *args: -real(*args)


def _scaled(factor):
    return lambda real: lambda *args: factor * real(*args)


def _component_scaled(index, factor):
    """Scale one entry of the tuple a function returns."""
    def mutate(real):
        def mutant(*args, **kwargs):
            values = list(real(*args, **kwargs))
            values[index] = factor * values[index]
            return tuple(values)
        return mutant
    return mutate


def _entry_shifted(key, delta):
    """Shift one entry of the dict a function returns."""
    def mutate(real):
        def mutant(*args):
            values = real(*args)
            return {**values, key: values[key] + delta}
        return mutant
    return mutate


def _order_scaled(order, factor):
    """Scale one jet order of a kernel `(self, cos, sin, order, rows)`."""
    def mutate(real):
        def mutant(self, cos, sin, k, rows):
            out = real(self, cos, sin, k, rows)
            return factor * out if k == order else out
        return mutant
    return mutate


def _j_permuted(order):
    """Reorder the three complex structures of a JTriple; the triple is
    built again, so its construction guard sees the new order."""
    def mutate(real):
        def mutant(*args):
            Js = real(*args).as_tuple()
            return fueter.JTriple(*(Js[i] for i in order))
        return mutant
    return mutate


def _depth_shifted(real):
    """|v_ell|^2 read one vertical degree too high: the ladder's off-by-one."""
    def mutant(frames):
        norms = real(frames)
        return norms[1:] + [np.zeros_like(norms[0])]
    return mutant


def _vertical_solve_scaled(factor):
    """The completion's vertical part, the solution x of its linear
    systems, scaled; the condition numbers are left alone."""
    def mutate(real):
        def mutant(*args):
            V3, conds = real(*args)
            V3 = V3.copy()
            V3[:, 3:] *= factor
            return V3, conds
        return mutant
    return mutate


def _blocks_transposed(real):
    """The Fueter map matrix [J1 | J2 | J3] with each J_i transposed."""
    def mutant():
        M = real().copy()
        for i in range(3):
            M[:, 4 * i: 4 * i + 4] = M[:, 4 * i: 4 * i + 4].T
        return M
    return mutant


def _ve1_shifted(real):
    def mutant(*args):
        ve = real(*args)
        ve[:, 1] += 1e-6
        return ve
    return mutant


def _e123_at_degree_2(real):
    """The e123 monomial binned at vertical degree 2 instead of 0."""
    def mutant(a, degree_cap):
        parts = real(a, degree_cap)
        c = parts[0].coeffs.get((1, 2, 3), 0.0)
        if c:
            moved = ex.basis_form(7, (1, 2, 3), c)
            parts[0], parts[2] = parts[0] - moved, parts[2] + moved
        return parts
    return mutant


# name -> (module, function, mutant of the real function, checks it kills)
MUTANTS = {
    "fueter_vector negated": (
        fueter, "fueter_vector", _negated, {("fueter", "route-equivalence")}),
    "chi1_via_projection negated": (
        fueter, "chi1_via_projection", _negated, {("fueter", "route-equivalence")}),
    "chi1_via_beta negated": (
        fueter, "chi1_via_beta", _negated, {("fueter", "route-equivalence")}),
    "fueter_complete vertical solve x (1+1e-6)": (
        fueter, "fueter_complete", _vertical_solve_scaled(1 + 1e-6),
        {("fueter", "completion"), ("fueter", "six-way-vanishing")}),
    "chi x (1+1e-6)": (
        g2core, "chi", _scaled(1 + 1e-6), {("algebra", "associator-equality")}),
    "tau x 2": (
        g2core, "tau", _scaled(2.0), {("algebra", "coassociator-equality")}),
    "ve_series[1] + 1e-6": (
        splitting, "ve_series", _ve1_shifted,
        {("splitting", "ve-two-routes"), ("splitting", "ve-sqrt-taylor"),
         ("splitting", "equality-ladder"), ("fueter", "secondary-equality")}),
    "lambda_k x (1+1e-9)": (
        g2core, "lambda_k", _scaled(1 + 1e-9),
        {("algebra", "lambda-isometry"), ("algebra", "projection-eigen-oracle"),
         ("fueter", "route-equivalence")}),
    "project_2_7 x (1+1e-9)": (
        g2core, "project_2_7", _scaled(1 + 1e-9), {("algebra", "projection-eigen-oracle")}),
    "psi_pullback x (1+1e-9)": (
        fm_gauge, "psi_pullback", _scaled(1 + 1e-9), {("fm", "curvature-beta")}),
    "instanton_residual x 1.001": (
        fm_gauge, "instanton_residual", _scaled(1.001),
        {("fm", "mirror-ratio"), ("fm", "large-radius-slope")}),
    "cs_first_variation numeric x 1.01": (
        pde, "cs_first_variation", _component_scaled(0, 1.01),
        {("pde", "action-detects-defect")}),
    "immersion_energies VE + 1e-9": (
        pde, "immersion_energies", _entry_shifted("VE", 1e-9),
        {("pde", "energies"), ("pde", "reparametrization")}),
    "random_su2_points x 1.01": (
        pde, "random_su2_points", _scaled(1.01), {("pde", "cot-solution")}),
    # a cyclic reorder keeps J1 J2 = -J3, so it passes JTriple's guard
    "jtriple_from_splitting (J2, J3, J1)": (
        fueter, "jtriple_from_splitting", _j_permuted((1, 2, 0)),
        {("fueter", "j-matrices"), ("fueter", "route-equivalence")}),
    "equality ladder |v_ell|^2 at degree ell + 1": (
        splitting, "_wedge3_vertical_norms", _depth_shifted, {("splitting", "equality-ladder")}),
    "_vertical_parts e123 at vertical degree 2": (
        splitting, "_vertical_parts", _e123_at_degree_2,
        {("splitting", "decomposition"), ("splitting", "adiabatic-pullback"),
         ("splitting", "eps-associator"), ("splitting", "equality-ladder"),
         ("fueter", "six-way-vanishing"), ("fueter", "secondary-equality"),
         ("models", "heisenberg-identities"), ("models", "type-split")}),
}


# Mutants that a construction guard refuses before any check runs:
# name -> (module, function, mutant, the exception and its message).
# Exchanging two complex structures breaks J1 J2 = -J3, which JTriple
# enforces; with the guard bypassed, `j-matrices` and `route-equivalence`
# fail, as for the cyclic reorder above.
REFUSED = {
    "jtriple_from_splitting J1 <-> J2": (
        fueter, "jtriple_from_splitting", _j_permuted((1, 0, 2)), ValueError, "J1 J2 != -J3"),
}


# Known survivors: every check of the six suites still passes under them,
# since no check compares the Fueter map matrix, the flat operator, the
# quadrature's pointwise energies or the Fourier jets with a second route
# of the same value, and none fixes the sign of the cross product or of
# chi.
# Strict xfails, so the check that first kills one turns it into an XPASS
# failure here, to be moved into MUTANTS with its exact kill set.
SURVIVORS = {
    "fueter_map_matrix x 1.001": (fueter, "fueter_map_matrix", _scaled(1.001)),
    # each J_i is antisymmetric, so this is the matrix negated: `p-linearity`
    # cannot see it, `linearization-rank` counts only rank, and the
    # anisotropic scan's identity guard reads only |F|^2 (ROADMAP item 4)
    "fueter_map_matrix J_i transposed": (fueter, "fueter_map_matrix", _blocks_transposed),
    # on pde alone: fm_gauge imported the real one by name
    "pde.fueter_operator_flat x 1.001": (pde, "fueter_operator_flat", _scaled(1.001)),
    # only Tier-1 oracles in test_pde.py (exact fractions, eigenvalues)
    # guard these (ROADMAP item 4).  ve_1 is left out: shifting it trips
    # the energy identity's guard, which raises instead of failing a check
    "pde._ve_pointwise ve_2 x (1+1e-9)": (pde, "_ve_pointwise", _component_scaled(1, 1 + 1e-9)),
    "pde._ve_pointwise ve_3 x (1+1e-9)": (pde, "_ve_pointwise", _component_scaled(2, 1 + 1e-9)),
    "pde._ve_pointwise Vol density x (1+1e-9)": (
        pde, "_ve_pointwise", _component_scaled(3, 1 + 1e-9)),
    # the Fourier kernel's first jets, on the class, so that both the
    # maps' jet1 and minimization's stacked competitors see it; only
    # Tier-1 tests in test_pde.py guard it: the finite-difference jet
    # test, the per-wave bit oracle and the cs_* hex pins
    # (ROADMAP item 4)
    "pde.FourierMap order-1 kernel x 1.001": (
        pde.FourierMap, "_wave_sum", _order_scaled(1, 1.001)),
    # both checks that call the cross product are even in its sign:
    # `double-cross` applies it twice and `cross-completion-associative`
    # asks only |chi(u, v, u x v)| = 0.  Nothing pins its orientation,
    # g(u x v, w) = phi(u, v, w) at a sampled w (ROADMAP item 4)
    "g2core.cross negated": (g2core, "cross", _negated),
    # every check that calls chi reads |chi|: `associator-equality` squares
    # it and `cross-completion-associative` and the splittings' guard ask
    # only that it vanish; the Fueter routes read chi's components from
    # the frame chi_form, not from chi.  Nothing compares chi(u, v, w)
    # with (*phi)(u, v, w, x) at a sampled x (ROADMAP item 4)
    "g2core.chi negated": (g2core, "chi", _negated),
}


PACKAGE = (checks, ex, fm_gauge, fueter, g2core, models, pde, splitting)
SUITES = tuple(cli.SUITES)


def _clear_caches():
    """Drop every per-process cache of the package: the one standard
    splitting (and with it its cached parts) and each functools cache.
    Otherwise a warm cache can hide a mutant, and a mutant's values can
    outlive its patch."""
    for module in PACKAGE:
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()


@pytest.fixture(autouse=True)
def cold_caches():
    _clear_caches()
    yield
    _clear_caches()


def _failing_checks(suites=SUITES):
    """The (suite, check) pairs that fail over the given suites at the fast
    profile and seed 1, each suite run with the caches cleared."""
    failed = set()
    for suite in suites:
        _clear_caches()
        for check in checks.run(suite, np.random.default_rng(1), dict(cli.PROFILES["fast"])):
            if not check["pass"]:
                failed.add((suite, check["name"]))
    return failed


@functools.cache
def _reached():
    """(module, attr) -> the suites that call it, recorded once with every
    target spied at its patch point, each suite run cold.  A suite that
    never calls a target runs exactly as it does unmutated, so a mutant
    needs to run only on the suites that reach its target."""
    reached = {(module, attr): set() for module, attr, *_ in
               (*MUTANTS.values(), *REFUSED.values(), *SURVIVORS.values())}

    def spy(real, seen):
        def call(*args, **kwargs):
            seen.add(suite)  # the suite running now
            return real(*args, **kwargs)
        return call

    with pytest.MonkeyPatch.context() as m:
        for (module, attr), seen in reached.items():
            m.setattr(module, attr, spy(getattr(module, attr), seen))
        for suite in SUITES:
            _failing_checks([suite])
    _clear_caches()
    return {target: tuple(s for s in SUITES if s in seen) for target, seen in reached.items()}


def _mutated_failing_checks(monkeypatch, module, attr, mutate, suites=None):
    """_failing_checks with the mutant patched in, over the suites that
    reach its target unless suites are given."""
    suites = _reached()[module, attr] if suites is None else suites
    monkeypatch.setattr(module, attr, mutate(getattr(module, attr)))
    return _failing_checks(suites)


def test_every_target_is_reached():
    # a target that no suite calls would make its mutant vacuous: a kill
    # set of nothing, or a strict xfail that can never pass
    assert [target for target, suites in _reached().items() if not suites] == []


def test_every_check_passes_unmutated():
    assert _failing_checks() == set()


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_mutant_is_killed_by_exactly_its_checks(name, monkeypatch):
    module, attr, mutate, killed_by = MUTANTS[name]
    assert _mutated_failing_checks(monkeypatch, module, attr, mutate) == killed_by


# for each suite, a mutant that it kills, run on all six suites: pruning
# by reachability must not change the kill set
UNPRUNED = {
    "algebra": "tau x 2",
    "splitting": "equality ladder |v_ell|^2 at degree ell + 1",
    "fueter": "fueter_complete vertical solve x (1+1e-6)",
    "models": "_vertical_parts e123 at vertical degree 2",
    "pde": "random_su2_points x 1.01",
    "fm": "psi_pullback x (1+1e-9)",
}


@pytest.mark.parametrize("suite", SUITES)
def test_pruned_kill_set_is_the_full_one(suite, monkeypatch):
    module, attr, mutate, killed_by = MUTANTS[UNPRUNED[suite]]
    assert suite in {s for s, _ in killed_by}
    assert _mutated_failing_checks(monkeypatch, module, attr, mutate, SUITES) == killed_by


@pytest.mark.parametrize("name", sorted(REFUSED))
def test_mutant_is_refused_by_its_guard(name, monkeypatch):
    module, attr, mutate, error, message = REFUSED[name]
    with pytest.raises(error, match=message):
        _mutated_failing_checks(monkeypatch, module, attr, mutate)


@pytest.mark.xfail(strict=True, reason="no verify check sees this mutant yet")
@pytest.mark.parametrize("name", sorted(SURVIVORS))
def test_survivor_is_killed(name, monkeypatch):
    module, attr, mutate = SURVIVORS[name]
    assert _mutated_failing_checks(monkeypatch, module, attr, mutate) != set()
