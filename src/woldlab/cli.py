"""Command-line front end: config ingestion, pipelines, report emission.

Every run is driven by a JSON config validated against the packaged
schema, executes one named pipeline per truncation level, and writes a
``report.json`` whose bytes are reproducible for identical configs (the
wall-time field aside). Exit code 0 means the run completed, 2 flags a
completed run whose orthogonality verdict came back false (so scripts
can branch without parsing), and 1 is reserved for errors.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import operator
import os
import sys
import time
from dataclasses import dataclass, replace
from importlib import resources

import numpy as np

from . import __version__
from .errors import SchemaError, WoldlabError
from .hardy import GradedOperator, abstract_space, compress, direct_sum, \
    hardy_space, shift
from .symbols import SchurSymbol, blaschke_required_order, \
    coefficient_tail_bound, defect_weight, evaluate, symbol_from_literal, \
    unit_circle_grid
from .wold import wold_split

__all__ = ["RunConfig", "validate_config", "run", "main"]

DEFAULT_TOLERANCES = {
    "wold": 1e-10,
    "verdict": 1e-8,
    "reduction": 1e-8,
    "moment": 1e-8,
    "forcing": 1e-6,
    "unitarity": 1e-8,
}

@dataclass(frozen=True, eq=False)
class RunConfig:
    """Validated run configuration with defaults applied."""

    command: str | None
    symbol: SchurSymbol | None
    symbol_literal: dict | None
    degree: int
    levels: tuple
    tolerances: dict
    output_dir: str
    emit_csv: bool
    seed: int
    fixture: str | None
    unitary_dim: int
    k_max: int
    atoms: np.ndarray | None


def _schema() -> dict:
    text = resources.files("woldlab").joinpath(
        "schema/runconfig.schema.json").read_text()
    return json.loads(text)


_JSON_TYPES = {"object": dict, "array": list, "string": str, "boolean": bool}
_BOUNDS = {
    "minimum": (operator.lt, "less than the minimum"),
    "maximum": (operator.gt, "greater than the maximum"),
    "exclusiveMinimum": (operator.le, "less than or equal to the minimum"),
}


def _is(instance, kind: str) -> bool:
    """Draft-7 type test: a bool is not a number, and 8.0 is an integer."""
    if kind == "integer":
        return _is(instance, "number") and (isinstance(instance, int)
                                            or instance.is_integer())
    if kind == "number":
        return isinstance(instance, (int, float)) \
            and not isinstance(instance, bool)
    return isinstance(instance, _JSON_TYPES[kind])


def _errors(instance, schema: dict, path: tuple = ()):
    """Yield ``(path, message)`` for each violation of ``schema``.

    Covers the keywords of the packaged schema with draft-7 semantics and
    words each message as jsonschema does; other keywords are ignored, so
    the schema may use no others.
    """
    for key, value in schema.items():
        if key == "type":
            if not _is(instance, value):
                yield path, f"{instance!r} is not of type {value!r}"
        elif key == "enum":
            if instance not in value:
                yield path, f"{instance!r} is not one of {value!r}"
        elif key == "anyOf":
            if all(next(_errors(instance, sub, path), None) is not None
                   for sub in value):
                yield path, (f"{instance!r} is not valid under any of the "
                             "given schemas")
        elif key in _BOUNDS:
            violated, words = _BOUNDS[key]
            if _is(instance, "number") and violated(instance, value):
                yield path, f"{instance!r} is {words} of {value!r}"
        elif _is(instance, "array"):
            if key == "items":
                for i, item in enumerate(instance):
                    yield from _errors(item, value, path + (i,))
            elif key == "minItems" and len(instance) < value:
                words = "should be non-empty" if value == 1 else "is too short"
                yield path, f"{instance!r} {words}"
            elif key == "maxItems" and len(instance) > value:
                yield path, f"{instance!r} is too long"
        elif _is(instance, "object"):
            if key == "properties":
                for name, sub in value.items():
                    if name in instance:
                        yield from _errors(instance[name], sub, path + (name,))
            elif key == "required":
                for name in value:
                    if name not in instance:
                        yield path, f"{name!r} is a required property"
            elif key == "additionalProperties" and not value:
                extras = sorted(instance.keys() - schema.get("properties", {}))
                if extras:
                    verb = "was" if len(extras) == 1 else "were"
                    yield path, ("Additional properties are not allowed ("
                                 f"{', '.join(map(repr, extras))} {verb} "
                                 "unexpected)")


def _finite(token: str) -> float:
    value = float(token)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {token}")
    return value


def validate_config(text) -> RunConfig:
    """Parse and validate raw config text, applying defaults.

    Raises
    ------
    SchemaError
        On malformed JSON (non-UTF-8 bytes and non-finite numbers
        included) or schema violations, naming the offending path, and
        on decreasing levels.
    """
    try:
        if isinstance(text, bytes):
            text = text.decode("utf-8")
        data = json.loads(text, parse_float=_finite, parse_constant=_finite)
    except ValueError as exc:
        raise SchemaError(f"config is not valid JSON: {exc}") from exc
    error = next(_errors(data, _schema()), None)
    if error is not None:
        path = "/".join(str(p) for p in error[0]) or "<root>"
        raise SchemaError(f"config invalid at {path}: {error[1]}")
    degree = int(data.get("degree", 16))
    levels = tuple(int(x) for x in data.get("levels", [degree]))
    if any(b <= a for a, b in zip(levels, levels[1:])):
        raise SchemaError("config invalid at levels: must be strictly "
                          "increasing")
    tolerances = dict(DEFAULT_TOLERANCES)
    tolerances.update(data.get("tolerances", {}))
    literal = data.get("symbol")
    symbol = symbol_from_literal(literal) if literal is not None else None
    atoms = None
    if "atoms" in data:
        atoms = np.array([complex(re, im) for re, im in data["atoms"]],
                         dtype=np.complex128)
    return RunConfig(
        command=data.get("command"),
        symbol=symbol,
        symbol_literal=literal,
        degree=degree,
        levels=levels,
        tolerances=tolerances,
        output_dir=data.get("output_dir", "."),
        emit_csv=bool(data.get("emit_csv", False)),
        seed=int(data.get("seed", 0)),
        fixture=data.get("fixture"),
        unitary_dim=int(data.get("unitary_dim", 2)),
        k_max=int(data.get("k_max", 12)),
        atoms=atoms,
    )


def _tv(value: float, tol: float) -> dict:
    return {"tolerance": tol, "value": float(value)}


def _require_symbol(cfg: RunConfig, command: str) -> SchurSymbol:
    if cfg.symbol is None:
        raise SchemaError(f"command {command} requires a symbol")
    return cfg.symbol


def _shift_plus_unitary(degree: int, unitary_dim: int, seed: int):
    s080 = compress(shift(1, degree))
    if unitary_dim == 0:
        return s080
    rng = np.random.default_rng(seed)
    q = np.linalg.qr(rng.normal(size=(unitary_dim, unitary_dim))
                     + 1j * rng.normal(size=(unitary_dim, unitary_dim)))[0]
    space, (sl_s, sl_u) = direct_sum(hardy_space(1, degree),
                                     abstract_space(unitary_dim))
    m = np.zeros((space.dim, space.dim), dtype=np.complex128)
    m[sl_s, sl_s] = s080.matrix
    m[sl_u, sl_u] = q
    return GradedOperator(matrix=m, domain=space, codomain=space, growth=1,
                          window=degree - 1)


def _run_wold(cfg: RunConfig, warnings: list):
    if cfg.symbol is not None:
        warnings.append("symbol ignored by the wold command")
    tol = cfg.tolerances["wold"]
    out = []
    for level in cfg.levels:
        op = _shift_plus_unitary(level, cfg.unitary_dim, cfg.seed)
        dec = wold_split(op, n_max=level + 2)
        out.append({
            "completeness_residual": _tv(dec.completeness_residual, tol),
            "degree": level,
            "hyper_range_dim": dec.hyper_range.dim,
            "ladder_dims": [s.dim for s in dec.ladder],
            "ladder_orthogonality": _tv(dec.ladder_orthogonality, tol),
            "wandering_dim": dec.wandering.dim,
        })
    return out, 0, {}


def _boundary_rows(sym: SchurSymbol, n: int = 256):
    grid = unit_circle_grid(n)
    dens = np.linalg.norm(evaluate(sym, grid), 2, axis=(1, 2)) ** 2
    return [(float(np.angle(z)), float(d)) for z, d in zip(grid, dens)]


def _run_construct(cfg: RunConfig, warnings: list):
    from .pairs import construct_example

    sym = _require_symbol(cfg, "construct-example")
    tol = cfg.tolerances["verdict"]
    out = []
    csvs = {"boundary.csv": _boundary_rows(sym)}
    for level in cfg.levels:
        pair = construct_example(sym, level)
        out.append({
            "boundary_rank": pair.assembly.rank,
            "commutator_residual": _tv(pair.commutator_residual, tol),
            "degree": level,
            "dimension": pair.space.dim,
            "isometry_defect_1": _tv(pair.defect_1, tol),
            "isometry_defect_2": _tv(pair.defect_2, tol),
            "weight_at_zero": float(pair.assembly.gram[0, 0].real),
        })
    return out, 0, csvs


def _run_verdict(cfg: RunConfig, warnings: list):
    from .pairs import construct_example, verdict_battery

    sym = _require_symbol(cfg, "verdict")
    tol = cfg.tolerances["verdict"]
    out = []
    decay = []
    all_true = True
    for level in cfg.levels:
        pair = construct_example(sym, level)
        rep = verdict_battery(pair, seed=cfg.seed)
        verdict = bool(rep.vacuous or rep.r_iii <= tol)
        all_true = all_true and verdict
        decay.append((level, *rep.r_v[-1]))
        out.append({
            "boundary_rank": pair.assembly.rank,
            "degree": level,
            "r_i": _tv(rep.r_i, tol),
            "r_ii": _tv(rep.r_ii, tol),
            "r_iii": _tv(rep.r_iii, tol),
            "r_iv_dims": rep.r_iv,
            "r_iv_levels": rep.levels,
            "vacuous": rep.vacuous,
            "verdict": verdict,
            "wandering_dim": rep.e_subspace.dim,
        })
    csvs = {"boundary.csv": _boundary_rows(sym), "decay.csv": decay}
    return out, (0 if all_true else 2), csvs


def _run_model(cfg: RunConfig, warnings: list):
    from .pairs import construct_example, model_decomposition

    sym = _require_symbol(cfg, "model-decompose")
    tol = cfg.tolerances["verdict"]
    utol = cfg.tolerances["unitarity"]
    out = []
    decay = []
    for level in cfg.levels:
        pair = construct_example(sym, level)
        md = model_decomposition(pair)
        decay.append((level, *pair.verdict_report.r_v[-1]))
        for key in ("reconstruction_residual", "toeplitz_residual"):
            value = getattr(md, key)
            if value > tol:
                warnings.append(f"degree {level}: {key} {value:.3e} "
                                f"exceeds its tolerance {tol:.3e}")
        out.append({
            "coefficient_count": int(md.phi_coeffs.shape[0]),
            "degree": level,
            "e_dim": md.e_dim,
            "f_dim": md.f_dim,
            "psi_unitarity": _tv(md.psi_unitarity, utol),
            "reconstruction_residual": _tv(md.reconstruction_residual, tol),
            "toeplitz_residual": _tv(md.toeplitz_residual, tol),
            "uu_dim": md.h_uu.dim,
        })
    csvs = {"boundary.csv": _boundary_rows(sym), "decay.csv": decay}
    return out, 0, csvs


def _run_slocinski(cfg: RunConfig, warnings: list):
    from .pairs import four_block_pair, slocinski, tensor_shift_pair

    if cfg.symbol is not None:
        warnings.append("symbol ignored by the slocinski command")
    fixture = cfg.fixture or "four-block"
    if fixture == "shift-plus-unitary":
        raise SchemaError(
            "fixture shift-plus-unitary belongs to the wold command"
        )
    rtol = cfg.tolerances["reduction"]
    out = []
    for level in cfg.levels:
        if fixture == "tensor":
            pair = tensor_shift_pair(level, level)
            expected = None
        else:
            pair, expected = four_block_pair(cfg.seed, f_degree=level,
                                             g_degree=level,
                                             bidegree=min(level, 8))
        sl = slocinski(pair)
        entry = {
            "degree": level,
            "dims": sl.dims,
            "double_commutation_residual": _tv(
                sl.double_commutation_residual, rtol),
            "fixture": fixture,
            "labels": {k: list(v) for k, v in sl.labels.items()},
            "orthogonality_residual": _tv(sl.orthogonality_residual, rtol),
            "reduction_residual": _tv(sl.reduction_residual, rtol),
        }
        if expected is not None:
            entry["expected_dims"] = expected
            entry["dims_match"] = bool(expected == sl.dims)
        out.append(entry)
    return out, 0, {}


def _run_moments(cfg: RunConfig, warnings: list):
    from .moments import moment_match
    from .pairs import construct_example

    sym = _require_symbol(cfg, "moments")
    warnings.append(
        "defect weight uses the normalized arc-length convention d(theta)/2pi"
    )
    tol = cfg.tolerances["moment"]
    out = []
    rows = []
    for level in cfg.levels:
        if cfg.k_max > level:
            raise SchemaError(
                f"k_max {cfg.k_max} exceeds level degree {level}"
            )
        pair = construct_example(sym, level)
        asm = pair.assembly
        meas, exp, err = moment_match(asm.v_hat, asm.b1, sym, cfg.k_max)
        out.append({
            "boundary_rank": asm.rank,
            "degree": level,
            "hermitian_defect": float(meas.hermitian_defect()),
            "k_max": cfg.k_max,
            "max_deviation": _tv(err, tol),
        })
        if level == cfg.levels[-1]:
            for k in range(-cfg.k_max, cfg.k_max + 1):
                m, w = meas[k], exp[k]
                rows.append((k, m.real, m.imag, w.real, w.imag,
                             abs(m - w)))
    csvs = {"boundary.csv": _boundary_rows(sym), "moments.csv": rows}
    return out, 0, csvs


def _run_forcing(cfg: RunConfig, warnings: list):
    from .moments import finite_spectrum_forcing

    sym = _require_symbol(cfg, "forcing")
    warnings.append(
        "defect weight uses the normalized arc-length convention d(theta)/2pi"
    )
    tol = cfg.tolerances["forcing"]
    atoms = cfg.atoms
    if atoms is None:
        atoms = np.exp(2j * np.pi * np.arange(4) / 4)
        warnings.append("no atoms given; using 4 equally spaced unimodular "
                        "atoms")
    rep = finite_spectrum_forcing(None, sym, cfg.k_max, tol=tol, atoms=atoms)
    w = defect_weight(sym, cfg.k_max)
    rows = []
    fit = (np.conj(rep.atoms)[None, :]
           ** np.arange(-cfg.k_max, cfg.k_max + 1)[:, None]) @ rep.masses
    for i, k in enumerate(range(-cfg.k_max, cfg.k_max + 1)):
        m, ww = fit[i], w[k]
        rows.append((k, m.real, m.imag, ww.real, ww.imag, abs(m - ww)))
    out = [{
        "atom_count": int(rep.atoms.size),
        "forced_trivial": rep.forced_trivial,
        "k_max": cfg.k_max,
        "masses": [float(x) for x in rep.masses],
        "max_weight": rep.max_weight,
        "residual": _tv(rep.residual, tol),
    }]
    csvs = {"boundary.csv": _boundary_rows(sym), "moments.csv": rows}
    return out, 0, csvs


_RUNNERS = {
    "wold": _run_wold,
    "construct-example": _run_construct,
    "verdict": _run_verdict,
    "model-decompose": _run_model,
    "slocinski": _run_slocinski,
    "moments": _run_moments,
    "forcing": _run_forcing,
}

_CSV_HEADERS = {
    "decay.csv": ["level", "s1", "s2", "s3", "s4", "s5"],
    "moments.csv": ["k", "measured_re", "measured_im", "weight_re",
                    "weight_im", "deviation"],
    "boundary.csv": ["theta", "modulus_squared"],
}


def _write_atomic(path: str, data: str) -> None:
    tmp = f"{path}.tmp-{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(data)
    os.replace(tmp, path)


def _format_cell(x) -> str:
    if isinstance(x, float):
        return "%.17g" % x
    return str(x)


def run(cfg: RunConfig, command: str) -> tuple:
    """Execute one pipeline; returns the report dict and the exit code."""
    if command not in _RUNNERS:
        raise SchemaError(f"unknown command {command!r}")
    warnings: list = []
    if cfg.command is not None and cfg.command != command:
        warnings.append(
            f"config names command {cfg.command!r}; the command-line "
            f"choice {command!r} wins"
        )
    if cfg.symbol is not None and cfg.symbol.kind == "blaschke":
        order = cfg.symbol.truncation_hint
        if order is None:
            order = blaschke_required_order(cfg.symbol, max(cfg.levels))
        bound = coefficient_tail_bound(cfg.symbol, order)
        warnings.append(
            f"blaschke coefficients truncated at order {order}; "
            f"certified dropped tail {bound:.3e}"
        )
    t0 = time.monotonic()
    levels, code, csvs = _RUNNERS[command](cfg, warnings)
    elapsed = time.monotonic() - t0
    report = {
        "command": command,
        "config": {
            "degree": cfg.degree,
            "emit_csv": cfg.emit_csv,
            "k_max": cfg.k_max,
            "levels": list(cfg.levels),
            "symbol": cfg.symbol_literal,
            "tolerances": cfg.tolerances,
            "unitary_dim": cfg.unitary_dim,
        },
        "levels": levels,
        "provenance": {
            "library_version": __version__,
            "wall_time_seconds": elapsed,
        },
        "seed": cfg.seed,
        "warnings": warnings,
    }
    return report, code, csvs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="woldlab",
        description="Structure analyses for commuting isometry pairs",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _RUNNERS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--csv", action="store_true")
    args = parser.parse_args(argv)
    try:
        with open(args.config, "rb") as fh:
            cfg = validate_config(fh.read())
        if args.seed is not None:
            cfg = replace(cfg, seed=args.seed)
        if args.csv:
            cfg = replace(cfg, emit_csv=True)
        out_dir = args.out if args.out is not None else cfg.output_dir
        report, code, csvs = run(cfg, args.command)
        if cfg.emit_csv and not csvs:
            report["warnings"].append("no csv series defined for this command")
        os.makedirs(out_dir, exist_ok=True)
        _write_atomic(os.path.join(out_dir, "report.json"),
                      json.dumps(report, indent=2, sort_keys=True) + "\n")
        if cfg.emit_csv:
            for fname, rows in csvs.items():
                buf = io.StringIO()
                writer = csv.writer(buf, lineterminator="\n")
                writer.writerow(_CSV_HEADERS[fname])
                for row in rows:
                    writer.writerow([_format_cell(x) for x in row])
                _write_atomic(os.path.join(out_dir, fname), buf.getvalue())
        summary = f"{args.command}: exit {code}; report.json written to " \
                  f"{out_dir}"
        print(summary)
        return code
    except OSError as exc:
        print(f"woldlab: {exc}", file=sys.stderr)
        return 1
    except WoldlabError as exc:
        print(f"woldlab: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
