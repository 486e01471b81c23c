"""Output checks computed apart from the library.

Every reference value here is recomputed from the benchmark's own inputs
with numpy or scipy, never with the woldlab routine under test: symbols
are evaluated on a dense boundary grid, Fourier coefficients come from an
FFT, eigenvalues come from numpy, and forcing masses
come from scipy's active-set NNLS. A check raises ``CheckFailed`` naming
the quantity that disagrees.

Symbols travel as plain dicts ("specs") so that the checks never need a
library object to know what was asked for:
``{"kind": "polynomial", "coeffs": [...]}``,
``{"kind": "blaschke", "zeros": [...], "front": c}`` or
``{"kind": "constant", "value": c}``.
"""

from __future__ import annotations

import csv
import json
import os

import numpy as np
import scipy.optimize

GRID = 4096
EXACT_TOL = 1e-10
SUBSPACE_TOL = 1e-8
VERDICT_TOL = 1e-8
MOMENT_TOL = 1e-8
NNLS_TOL = 1e-8
CLUSTER_TOL = 1e-6


class CheckFailed(AssertionError):
    """An output disagrees with its independently computed reference."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# --- references --------------------------------------------------------


def boundary_values(spec: dict, n: int = GRID) -> np.ndarray:
    """The symbol on n equispaced points of the unit circle."""
    zeta = np.exp(2j * np.pi * np.arange(n) / n)
    kind = spec["kind"]
    if kind == "polynomial":
        return np.polyval(np.asarray(spec["coeffs"])[::-1], zeta)
    if kind == "constant":
        return np.full(n, complex(spec["value"]))
    vals = np.full(n, complex(spec["front"]))
    for a in spec["zeros"]:
        vals *= (zeta - a) / (1.0 - np.conj(a) * zeta)
    return vals


def taylor_reference(spec: dict, count: int) -> np.ndarray:
    """First ``count`` Taylor coefficients, by FFT of boundary values."""
    vals = boundary_values(spec)
    return (np.fft.fft(vals) / vals.size)[:count]


def weight_reference(spec: dict, k_max: int) -> np.ndarray:
    """Fourier coefficients of ``1 - |phi|^2`` for k = -k_max..k_max."""
    dens = 1.0 - np.abs(boundary_values(spec)) ** 2
    coef = np.fft.fft(dens) / dens.size
    return coef[np.arange(-k_max, k_max + 1) % dens.size]


def weight_at_zero(spec: dict) -> float:
    """Mean of ``1 - |phi|^2`` over the boundary grid."""
    return float(np.mean(1.0 - np.abs(boundary_values(spec)) ** 2))


def distinct(values, tol: float = CLUSTER_TOL) -> list:
    """Values clustered at ``tol``, one representative per cluster."""
    reps: list = []
    for v in values:
        if all(abs(v - r) > tol for r in reps):
            reps.append(complex(v))
    return reps


def nnls_reference(spec: dict, atoms: np.ndarray, k_max: int):
    """Masses and misfit of the forcing fit, by scipy's active-set NNLS."""
    ks = np.arange(-k_max, k_max + 1)
    design = np.conj(atoms)[None, :] ** ks[:, None]
    w = weight_reference(spec, k_max)
    masses, _ = scipy.optimize.nnls(np.vstack([design.real, design.imag]),
                                    np.concatenate([w.real, w.imag]))
    return masses, float(np.linalg.norm(design @ masses - w))


# --- library-call checks -------------------------------------------------


def check_pair_residuals(pair) -> None:
    """Isometry and commutator residuals of a pair on its probe."""
    m1, m2, pb = pair.s1.matrix, pair.s2.matrix, pair.probe.basis
    eye = np.eye(pb.shape[1])
    for name, m in (("first", m1), ("second", m2)):
        img = m @ pb
        d = np.linalg.norm(img.conj().T @ img - eye, 2)
        require(d <= EXACT_TOL, f"{name} isometry residual {d:.3e}")
    comm = np.linalg.norm((m1 @ m2 - m2 @ m1) @ pb, 2)
    require(comm <= EXACT_TOL, f"commutator residual {comm:.3e}")


def check_verdict(spec: dict, inner: bool, pair, report) -> None:
    """Verdict against inner-ness, r_iii against the boundary weight."""
    require(report.verdict == inner,
            f"verdict {report.verdict} for an inner={inner} symbol")
    votes = {r <= VERDICT_TOL for r in (report.r_i, report.r_ii,
                                        report.r_iii)}
    require(len(votes) == 1, f"residuals vote apart: r_i={report.r_i:.3e} "
            f"r_ii={report.r_ii:.3e} r_iii={report.r_iii:.3e}")
    if report.e_subspace.dim == 1:
        w0 = weight_at_zero(spec)
        require(abs(report.r_iii ** 2 - w0) <= EXACT_TOL,
                f"r_iii^2 = {report.r_iii ** 2:.15g}, "
                f"boundary mean of 1-|phi|^2 = {w0:.15g}")
    check_pair_residuals(pair)


def check_model(md, truth: dict) -> None:
    """Three-part recovery against the scrambled fixture's ground truth."""
    require(md.h_uu.dim == truth["uu_dim"],
            f"h_uu dimension {md.h_uu.dim} != {truth['uu_dim']}")
    require(md.f_dim == 1 and md.e_dim == 1,
            f"f/e dimensions {md.f_dim}/{md.e_dim} != 1/1")
    dpsi = abs(complex(md.psi[0, 0]) - truth["psi"])
    require(dpsi <= SUBSPACE_TOL, f"psi off by {dpsi:.3e}")
    got = np.abs(md.phi_coeffs[:, 0, 0])
    ref = np.abs(taylor_reference({"kind": "blaschke",
                                   "zeros": truth["zeros"],
                                   "front": truth["front"]}, GRID // 2))
    dphi = float(np.max(np.abs(got - ref[:got.size])))
    require(dphi <= SUBSPACE_TOL, f"|phi| coefficients off by {dphi:.3e}")
    dropped = float(np.max(ref[got.size:]))
    require(dropped <= SUBSPACE_TOL,
            f"recovery stops at {got.size} coefficients, dropping "
            f"|c| = {dropped:.3e}")


def check_slocinski(sl, expected: dict) -> None:
    require(sl.dims == expected, f"part dimensions {sl.dims} != {expected}")


def check_finiteness(fc, eigenvalues) -> None:
    """Verdict and spectrum cardinality of a planted verdict-true pair."""
    require(fc.verdict, f"finiteness verdict false, r_iii={fc.r_iii:.3e}")
    require(fc.r_iii <= VERDICT_TOL, f"r_iii {fc.r_iii:.3e}")
    card = len(distinct(eigenvalues))
    require(fc.spectrum_card == card,
            f"spectrum cardinality {fc.spectrum_card} != {card}")


def check_point_spectrum(ps, eigenvalues, unitary_dim: int) -> None:
    """Unimodular eigenspaces against the planted unitary summands."""
    require(ps.subspace.dim == unitary_dim,
            f"point-spectrum dimension {ps.subspace.dim} != {unitary_dim}")
    planted = distinct(eigenvalues)
    got = [lam for lam, _ in ps.eigenpairs]
    require(len(got) == len(planted),
            f"{len(got)} eigenvalue clusters, planted {len(planted)}")
    for lam in planted:
        gap = min(abs(lam - g) for g in got)
        require(gap <= SUBSPACE_TOL, f"planted eigenvalue {lam:.6f} "
                f"missed by {gap:.3e}")


# --- command-line checks --------------------------------------------------


def _read_csv(path: str) -> list:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _value(entry: dict, key: str) -> float:
    return float(entry[key]["value"])


def check_boundary_csv(out_dir: str, spec: dict) -> None:
    rows = _read_csv(os.path.join(out_dir, "boundary.csv"))
    ref = np.abs(boundary_values(spec, len(rows))) ** 2
    got = np.array([float(r["modulus_squared"]) for r in rows])
    dev = float(np.max(np.abs(got - ref)))
    require(dev <= EXACT_TOL, f"boundary.csv off by {dev:.3e}")


def check_cli(command: str, out_dir: str, params: dict) -> None:
    """Check one CLI run's report and CSV series; ``params`` is its input."""
    with open(os.path.join(out_dir, "report.json"), encoding="utf-8") as fh:
        report = json.load(fh)
    require(report["command"] == command,
            f"report names command {report['command']!r}")
    levels = report["levels"]
    spec = params.get("spec")
    if command == "wold":
        for e in levels:
            require(e["hyper_range_dim"] == params["unitary_dim"]
                    and e["wandering_dim"] == 1,
                    f"wold dims {e['hyper_range_dim']}/{e['wandering_dim']}")
            require(_value(e, "completeness_residual") <= EXACT_TOL
                    and _value(e, "ladder_orthogonality") <= EXACT_TOL,
                    "wold residuals above 1e-10")
    elif command == "construct-example":
        w0 = weight_at_zero(spec)
        for e in levels:
            require(e["boundary_rank"] == e["degree"] + 1,
                    f"boundary rank {e['boundary_rank']} at {e['degree']}")
            require(abs(e["weight_at_zero"] - w0) <= EXACT_TOL,
                    f"weight_at_zero {e['weight_at_zero']} != {w0}")
            for key in ("isometry_defect_1", "isometry_defect_2",
                        "commutator_residual"):
                require(_value(e, key) <= EXACT_TOL, f"{key} above 1e-10")
        check_boundary_csv(out_dir, spec)
    elif command == "verdict":
        w0 = weight_at_zero(spec)
        for e in levels:
            require(e["verdict"] == params["verdict"],
                    f"verdict {e['verdict']} at degree {e['degree']}")
            r_iii = _value(e, "r_iii")
            require(abs(r_iii ** 2 - w0) <= EXACT_TOL,
                    f"r_iii^2 = {r_iii ** 2:.15g}, quadrature {w0:.15g}")
            require(e["r_iii"]["tolerance"] == params["tolerance"],
                    f"printed tolerance {e['r_iii']['tolerance']}")
        decay = _read_csv(os.path.join(out_dir, "decay.csv"))
        require(len(decay) == len(levels), "decay.csv misses levels")
        check_boundary_csv(out_dir, spec)
    elif command == "model-decompose":
        for e in levels:
            require((e["uu_dim"], e["f_dim"], e["e_dim"]) == (0, 0, 1),
                    f"inner-symbol parts {e['uu_dim']}/{e['f_dim']}/"
                    f"{e['e_dim']} != 0/0/1")
            require(_value(e, "reconstruction_residual") <= VERDICT_TOL,
                    "reconstruction residual above 1e-8")
    elif command == "slocinski":
        for e in levels:
            require(e["dims_match"], f"slocinski dims {e['dims']} != "
                    f"{e['expected_dims']}")
    elif command == "moments":
        k_max = params["k_max"]
        ref = weight_reference(spec, k_max)
        rows = _read_csv(os.path.join(out_dir, "moments.csv"))
        require(len(rows) == 2 * k_max + 1, "moments.csv row count")
        meas = np.array([complex(float(r["measured_re"]),
                                 float(r["measured_im"])) for r in rows])
        dev = max(float(np.max(np.abs(meas - ref))),
                  max(float(r["deviation"]) for r in rows))
        require(dev <= MOMENT_TOL, f"moments.csv deviation {dev:.3e}")
    elif command == "forcing":
        atoms = np.exp(2j * np.pi * np.arange(4) / 4)
        masses, misfit = nnls_reference(spec, atoms, params["k_max"])
        got = np.array(levels[0]["masses"])
        dm = float(np.max(np.abs(got - masses)))
        require(dm <= NNLS_TOL, f"forcing masses off scipy NNLS by {dm:.3e}")
        dr = abs(_value(levels[0], "residual") - misfit)
        require(dr <= NNLS_TOL, f"forcing residual off by {dr:.3e}")
    else:
        raise CheckFailed(f"no check for command {command!r}")
