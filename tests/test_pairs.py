"""Pair validation, the verdict battery, and structure recovery."""

import numpy as np
import pytest

import woldlab.pairs
from woldlab.errors import (DimensionError, DomainError, PreconditionError,
                            ValidationError)
from woldlab.linalg import Subspace, operator_norm, reducing_residual
from woldlab.moments import finite_spectrum_forcing
from woldlab.pairs import (biunitary_pair, constant_shift_pair,
                           construct_example, finiteness_checks,
                           four_block_pair, model_decomposition,
                           point_spectrum_part, shift_multiplier_pair,
                           slocinski, tensor_shift_pair, three_part_pair,
                           validate_pair, verdict_battery)
from woldlab.symbols import SchurSymbol, blaschke, constant, polynomial, taylor
from woldlab.wold import unitary_part

from oracles import reducing_residual_complement, verdict_battery_projector

HALF_SHIFT_NORM = 0.8660254037844386  # sqrt(3)/2
AVERAGE_NORM = 0.7071067811865476  # sqrt(1/2)


def _random_unitary(rng, n):
    return np.linalg.qr(rng.normal(size=(n, n))
                        + 1j * rng.normal(size=(n, n)))[0]


def test_validate_pair_rejects_noncommuting_operators():
    rng = np.random.default_rng(0)
    u = _random_unitary(rng, 4)
    v = _random_unitary(rng, 4)
    with pytest.raises(DomainError, match="commute"):
        validate_pair(u, v)


def test_validate_pair_rejects_nonisometric_operator():
    half = 0.5 * np.eye(4)
    with pytest.raises(DomainError, match="isometric"):
        validate_pair(half, np.eye(4))


def test_validate_pair_contraction_mode_admits_strict_contraction():
    pair = validate_pair(0.5 * np.eye(4), np.eye(4), mode="contraction")
    assert pair.mode == "contraction"
    assert pair.defect_1 == 0.0
    assert pair.commutator_residual == 0.0


def test_validate_pair_rejects_mismatched_spaces():
    with pytest.raises(DimensionError):
        validate_pair(np.eye(4), np.eye(5))


def test_validate_pair_rejects_unknown_mode():
    with pytest.raises(ValidationError):
        validate_pair(np.eye(3), np.eye(3), mode="unitary")


def test_default_probe_needs_room_below_the_growth():
    with pytest.raises(ValidationError, match="probe"):
        shift_multiplier_pair(polynomial([0, 1.0]), 1)


def test_construct_example_half_shift_gram_is_scalar():
    pair = construct_example(polynomial([0, 0.5]), 16)
    a = pair.assembly
    assert a.rank == 17
    assert np.allclose(a.gram, 0.75 * np.eye(17), atol=1e-14)
    assert pair.commutator_residual == 0.0
    assert pair.defect_1 <= 1e-12 and pair.defect_2 <= 1e-12
    assert np.allclose(a.factor.conj().T @ a.factor, a.gram, atol=1e-12)


def test_construct_example_average_gram_is_tridiagonal():
    pair = construct_example(polynomial([0.5, 0.5]), 16)
    g = pair.assembly.gram
    assert pair.assembly.rank == 17
    assert abs(g[0, 0] - 0.5) < 1e-14
    assert abs(g[0, 1] + 0.25) < 1e-14
    assert abs(g[0, 2]) < 1e-14


def test_construct_example_inner_symbol_needs_no_boundary():
    pair = construct_example(blaschke([0.5], truncation_hint=120), 16)
    assert pair.assembly.rank == 0
    assert pair.assembly.b1.size == 0


def test_construct_example_rejects_symbol_outside_schur_class():
    bad = SchurSymbol(kind="polynomial", fiber_dim=1,
                      coeffs=np.array([[[1.3]]], dtype=np.complex128),
                      zeros=None, front=1.0 + 0.0j, truncation_hint=None)
    with pytest.raises(DomainError, match="Schur"):
        construct_example(bad, 8)


def test_construct_example_rejects_matrix_symbol():
    with pytest.raises(DomainError, match="scalar"):
        construct_example(constant(np.eye(2)), 8)


def test_verdict_battery_flags_noninner_symbol():
    pair = construct_example(polynomial([0, 0.5]), 16)
    rep = verdict_battery(pair)
    assert not rep.verdict
    assert not rep.vacuous
    assert abs(rep.r_iii - HALF_SHIFT_NORM) < 1e-12
    assert abs(rep.r_i - np.sqrt(1.5)) < 1e-9
    assert abs(rep.r_ii - np.sqrt(1.5)) < 1e-9
    assert rep.levels == [7, 14, 21]
    assert rep.r_iv == [[7], [14], [17]]
    flat = [row[0] for row in rep.r_iv]
    assert all(a < b for a, b in zip(flat, flat[1:]))


def test_verdict_battery_accepts_inner_symbol():
    pair = construct_example(blaschke([0.5], truncation_hint=120), 16)
    rep = verdict_battery(pair)
    assert rep.verdict
    assert not rep.vacuous
    assert rep.r_i <= 1e-10 and rep.r_ii <= 1e-10 and rep.r_iii <= 1e-10
    assert all(d == 0 for row in rep.r_iv for d in row)


def test_verdict_battery_constant_shift_is_vacuous():
    rep = verdict_battery(constant_shift_pair(1.1, 12))
    assert rep.verdict
    assert rep.vacuous
    assert rep.r_iii == 0.0


def test_verdict_battery_tensor_and_biunitary_pass():
    rep_t = verdict_battery(tensor_shift_pair(5, 5))
    assert rep_t.verdict and not rep_t.vacuous
    rep_b = verdict_battery(biunitary_pair(3, 5))
    assert rep_b.verdict and rep_b.vacuous


_BATTERY_PAIRS = {
    **{f"{kind}-{d}": (lambda sym=sym, d=d: construct_example(sym(), d))
       for kind, sym in (
           ("polynomial", lambda: polynomial([0.5, 0.5])),
           ("blaschke", lambda: blaschke([0.35, -0.3j])),
           ("constant", lambda: constant(np.array([[1j]]))))
       for d in (16, 32, 48)},
    "three-part": lambda: three_part_pair(0)[0],
    "four-block": lambda: four_block_pair(1)[0],
    "tensor": lambda: tensor_shift_pair(5, 5),
    "biunitary": lambda: biunitary_pair(3, 5),
}


@pytest.mark.parametrize("name", sorted(_BATTERY_PAIRS))
def test_verdict_battery_matches_projector_oracle(name):
    pair = _BATTERY_PAIRS[name]()
    got = verdict_battery(pair)
    want = verdict_battery_projector(pair)
    for field in ("r_i", "r_ii", "r_iii"):
        assert abs(getattr(got, field) - getattr(want, field)) <= 1e-13
    assert len(got.r_v) == len(want.r_v)
    for row, ref in zip(got.r_v, want.r_v):
        assert len(row) == len(ref)
        assert np.max(np.abs(np.subtract(row, ref))) <= 1e-13
    assert got.r_iv == want.r_iv
    assert got.levels == want.levels
    assert got.verdict == want.verdict
    assert got.vacuous == want.vacuous
    assert got.e_subspace.dim == want.e_subspace.dim


def test_verdict_battery_runs_no_full_size_svd(monkeypatch):
    pair = construct_example(polynomial([0.5, 0.5]), 48)
    n = pair.space.dim
    pair.hyper_range_1  # cached on the pair: count the battery's own SVDs
    square = []
    real_svd = np.linalg.svd

    def counting(a, *args, **kwargs):
        if np.shape(a) == (n, n):
            square.append(a)
        return real_svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    verdict_battery(pair)
    assert len(square) == 0


def test_model_decomposition_requires_true_verdict():
    pair = construct_example(polynomial([0, 0.5]), 16)
    with pytest.raises(PreconditionError, match="0.866"):
        model_decomposition(pair)


def test_model_decomposition_recovers_scrambled_three_part_sum():
    pair, truth = three_part_pair(0)
    md = model_decomposition(pair)
    assert md.h_uu.dim == truth["uu_dim"] == 2
    assert md.f_dim == 1 and md.e_dim == 1
    assert md.f_ladder_dim == 55 and md.e_ladder_dim == 30
    assert md.psi_unitarity <= 1e-10
    assert abs(md.psi[0, 0] - truth["psi"]) <= 1e-8
    assert md.toeplitz_residual <= 1e-10
    assert md.reconstruction_residual <= 1e-8
    want = taylor(truth["phi"], md.phi_coeffs.shape[0] - 1)[:, 0, 0]
    got = md.phi_coeffs[:, 0, 0]
    assert np.max(np.abs(np.abs(got) - np.abs(want))) <= 1e-8
    ang = sorted(np.angle(np.linalg.eigvals(md.v1)))
    want_ang = sorted(np.angle(np.linalg.eigvals(truth["v1"])))
    assert np.allclose(ang, want_ang, atol=1e-8)


def test_model_decomposition_of_tensor_pair_is_all_multiplier():
    md = model_decomposition(tensor_shift_pair(5, 5))
    assert md.h_uu.dim == 0
    assert md.f_dim == 0
    assert md.e_dim == 6
    assert md.phi is not None and md.phi.fiber_dim == 6
    assert md.phi_coeffs.shape == (1, 6, 6)
    sv = np.linalg.svd(md.phi_coeffs[0], compute_uv=False)
    assert np.allclose(sv, [1, 1, 1, 1, 1, 0], atol=1e-10)
    assert md.reconstruction_residual <= 1e-10
    assert md.toeplitz_residual <= 1e-10


def test_slocinski_splits_four_block_sum_exactly():
    pair, expected = four_block_pair(2)
    dec = slocinski(pair)
    assert dec.dims == expected
    assert dec.labels == {"uu": ("unitary", "unitary"),
                          "us": ("unitary", "shift"),
                          "su": ("shift", "unitary"),
                          "ss": ("shift", "shift")}
    assert dec.fiber_dims["us"] == (0, 1)
    assert dec.fiber_dims["su"] == (1, 0)
    assert dec.fiber_dims["ss"] == (6, 6)
    assert dec.orthogonality_residual <= 1e-8
    assert dec.reduction_residual <= 1e-8
    assert dec.double_commutation_residual <= 1e-8


def test_reducing_residual_matches_complement_oracle_on_every_part():
    pair, _ = four_block_pair(2)
    for sub in slocinski(pair).parts.values():
        for m in (pair.s1.matrix, pair.s2.matrix):
            got = reducing_residual(m, sub)
            want = reducing_residual_complement(m, sub)
            assert np.max(np.abs(np.subtract(got, want))) \
                <= 1e-13 * max(1.0, operator_norm(m))


def test_slocinski_tensor_pair_is_pure_double_shift():
    dec = slocinski(tensor_shift_pair(5, 5))
    assert dec.dims == {"uu": 0, "us": 0, "su": 0, "ss": 36}
    assert dec.orthogonality_residual == 0.0


def test_slocinski_rejects_pair_without_double_commutation():
    pair = shift_multiplier_pair(blaschke([0.5], truncation_hint=60), 52)
    with pytest.raises(PreconditionError, match="8.660e-01"):
        slocinski(pair)


def test_point_spectrum_of_biunitary_pair_is_everything():
    dec = point_spectrum_part(biunitary_pair(3, 5))
    assert dec.subspace.dim == 3
    assert len(dec.eigenpairs) == 3
    assert dec.unimodularity <= 1e-10
    assert dec.reduction_residual_1 <= 1e-10
    assert dec.reduction_residual_2 <= 1e-10


def test_finiteness_checks_count_three_part_invariants():
    pair, _ = three_part_pair(0)
    rep = finiteness_checks(pair)
    assert (rep.dim_a, rep.dim_b, rep.spectrum_card) == (1, 1, 3)
    assert rep.verdict


def test_finiteness_checks_report_failed_verdict():
    rep = finiteness_checks(construct_example(polynomial([0, 0.5]), 16))
    assert not rep.verdict
    assert abs(rep.r_iii - HALF_SHIFT_NORM) < 1e-12
    assert (rep.dim_a, rep.dim_b, rep.spectrum_card) == (17, 16, 17)


def test_average_symbol_projected_norm_matches_weight_mass():
    pair = construct_example(polynomial([0.5, 0.5]), 32)
    rep = verdict_battery(pair)
    assert abs(rep.r_iii - AVERAGE_NORM) < 1e-6


def test_finiteness_cardinality_counts_the_default_forcing_atoms():
    # 0.3 and 0.3 + 6e-7 share an anchor, 0.3 + 1.2e-6 starts its own
    # cluster, and the two values straddling angle pi form one cluster
    angles = [0.3, 0.3 + 6e-7, 0.3 + 1.2e-6, np.pi - 2e-7, -np.pi + 2e-7]
    pair = validate_pair(np.diag(np.exp(1j * np.array(angles))), np.eye(5))
    card = finiteness_checks(pair).spectrum_card
    block = unitary_part(pair.s1.matrix).unitary_block
    atoms = finite_spectrum_forcing(block, polynomial([0, 0.5]), 4).atoms
    assert card == atoms.size == 3


def test_pair_computes_its_first_hyper_range_once(monkeypatch):
    pair = construct_example(blaschke([0.5]), 16)
    real = woldlab.pairs.hyper_range
    calls = []

    def counting(t, *args, **kwargs):
        calls.append(np.array_equal(t, pair.s1.matrix))
        return real(t, *args, **kwargs)

    monkeypatch.setattr(woldlab.pairs, "hyper_range", counting)
    verdict_battery(pair)
    finiteness_checks(pair)
    model_decomposition(pair)
    assert sum(calls) == 1


def test_pair_runs_its_verdict_battery_once(monkeypatch):
    pair, _ = three_part_pair(1, degree=40)
    real = woldlab.pairs.verdict_battery
    calls = []

    def counting(p, *args, **kwargs):
        calls.append(p is pair)
        return real(p, *args, **kwargs)

    monkeypatch.setattr(woldlab.pairs, "verdict_battery", counting)
    fc = finiteness_checks(pair)
    model_decomposition(pair)
    assert sum(calls) == 1
    assert fc.r_iii == pair.verdict_report.r_iii


def test_slocinski_computes_each_wandering_subspace_once(monkeypatch):
    pair, _ = four_block_pair(1)
    real = woldlab.pairs.wandering_subspace
    calls = []

    def counting(t, *args, **kwargs):
        calls.append((t.shape, t.tobytes()))
        return real(t, *args, **kwargs)

    monkeypatch.setattr(woldlab.pairs, "wandering_subspace", counting)
    sl = slocinski(pair)
    nonempty = sum(1 for d in sl.dims.values() if d)
    assert nonempty == 4
    assert len(calls) == 2 * nonempty
    assert len(set(calls)) == len(calls)


def test_pair_computes_its_first_unitary_part_once(monkeypatch):
    pair, _ = four_block_pair(1)
    real = woldlab.pairs.unitary_part
    calls = []

    def counting(t, *args, **kwargs):
        calls.append(np.array_equal(t, pair.s1.matrix))
        return real(t, *args, **kwargs)

    monkeypatch.setattr(woldlab.pairs, "unitary_part", counting)
    finiteness_checks(pair)
    ps = point_spectrum_part(pair)
    assert sum(calls) == 1
    assert ps.subspace.dim == pair.unitary_part_1.unitary_part.dim


_WORKING_SIZE_PAIRS = {
    "three-part": lambda: three_part_pair(0)[0],
    "four-block": lambda: four_block_pair(2)[0],
    "tensor": lambda: tensor_shift_pair(5, 5),
}


@pytest.mark.parametrize("name", sorted(_WORKING_SIZE_PAIRS))
def test_structure_analyses_form_no_projector(name, monkeypatch):
    pair = _WORKING_SIZE_PAIRS[name]()

    def refuse(self):
        raise AssertionError("an n x n projector was formed")

    monkeypatch.setattr(Subspace, "projector", refuse)
    for analysis in (verdict_battery, model_decomposition, slocinski,
                     finiteness_checks, point_spectrum_part):
        try:
            analysis(pair)
        except PreconditionError:
            pass
