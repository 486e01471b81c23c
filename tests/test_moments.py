"""Stationary block models, moment matching, and atom forcing."""

import numpy as np
import pytest

from woldlab.errors import DomainError
from woldlab.moments import (block_model_check, block_model_from_assembly,
                             finite_spectrum_forcing, moment_match,
                             nnls_projected)
from woldlab.pairs import construct_example
from woldlab.symbols import blaschke, polynomial

from oracles import nnls_scipy


@pytest.fixture(scope="module")
def half_model():
    pair = construct_example(polynomial([0, 0.5]), 16)
    return block_model_from_assembly(pair.assembly)


@pytest.fixture(scope="module")
def average_model():
    pair = construct_example(polynomial([0.5, 0.5]), 32)
    return block_model_from_assembly(pair.assembly)


def test_block_model_satisfies_every_identity(half_model):
    res = block_model_check(half_model)
    assert set(res) == {"u_unitary", "a_isometry", "ua_commutator",
                        "intertwine", "a_orthogonality", "defect_identity"}
    assert all(v <= 1e-12 for v in res.values())


def test_block_model_has_the_pair_boundary_blocks():
    pair = construct_example(polynomial([0.5, 0.5]), 16)
    model = block_model_from_assembly(pair.assembly)
    nb = model.u.shape[0]
    assert np.array_equal(model.u, pair.s1.matrix[:nb, :nb])
    assert np.array_equal(model.a, pair.s2.matrix[:nb, :nb])


def test_block_model_check_rejects_degree_beyond_columns(half_model):
    with pytest.raises(DomainError):
        block_model_check(half_model, degree=40)


def test_block_model_needs_a_nontrivial_boundary():
    pair = construct_example(blaschke([0.5], truncation_hint=120), 16)
    with pytest.raises(DomainError):
        block_model_from_assembly(pair.assembly)


def test_moments_walk_down_matches_weight_coefficients(average_model):
    measured, expected, err = moment_match(average_model.u,
                                           average_model.b[:, 0],
                                           average_model.phi, 12)
    assert err <= 1e-12
    assert abs(expected[1] - (-0.25)) < 1e-14
    assert abs(measured[1] - (-0.25)) < 1e-12
    assert abs(measured[0] - 0.5) < 1e-12


def test_single_atom_cannot_carry_flat_weight(half_model):
    rep = finite_spectrum_forcing(half_model.u, half_model.phi, 4,
                                  atoms=np.array([1.0 + 0.0j]))
    assert rep.forced_trivial
    assert abs(rep.residual - np.sqrt(0.5)) < 1e-10
    assert rep.masses.shape == (1,)
    assert abs(rep.masses[0] - 1.0 / 12.0) < 1e-10


def test_dense_atom_grid_aliases_band_limited_moments(average_model):
    roots = np.exp(2j * np.pi * np.arange(12) / 12)
    rep = finite_spectrum_forcing(average_model.u, average_model.phi, 6,
                                  atoms=roots)
    assert not rep.forced_trivial
    assert rep.residual <= 1e-8
    assert np.all(rep.masses >= 0)


def test_forcing_defaults_to_clustered_walk_eigenvalues(average_model):
    rep = finite_spectrum_forcing(average_model.u, average_model.phi, 6)
    assert rep.atoms.size >= 1
    assert np.max(np.abs(np.abs(rep.atoms) - 1.0)) <= 1e-8
    assert np.all(rep.masses >= 0)
    assert not rep.forced_trivial


def test_inner_symbol_weight_forces_nothing():
    rep = finite_spectrum_forcing(np.eye(2), blaschke([0.5], truncation_hint=120),
                                  4, atoms=np.array([1.0 + 0.0j]))
    assert not rep.forced_trivial
    assert rep.max_weight <= 1e-12
    assert rep.residual <= 1e-12


def test_forcing_rejects_atoms_off_the_circle(half_model):
    with pytest.raises(DomainError, match="circle"):
        finite_spectrum_forcing(half_model.u, half_model.phi, 4,
                                atoms=np.array([0.5 + 0.0j]))


def test_projected_gradient_matches_reference_nnls():
    rng = np.random.default_rng(9)
    for _ in range(10):
        a = rng.normal(size=(8, 5))
        b = rng.normal(size=8)
        mine = nnls_projected(a, b)
        ref = nnls_scipy(a, b)
        assert np.all(mine >= 0)
        gap = np.linalg.norm(a @ mine - b) - np.linalg.norm(a @ ref - b)
        assert gap <= 1e-8


def test_projected_gradient_warns_at_its_iteration_cap():
    rng = np.random.default_rng(9)
    a = rng.normal(size=(8, 5))
    b = rng.normal(size=8)
    with pytest.warns(RuntimeWarning, match=r"max_iter=1\b.*last step"):
        x = nnls_projected(a, b, max_iter=1)
    assert np.all(x >= 0)
