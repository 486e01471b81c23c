"""The three benchmark workloads, built round by round from a seed.

A workload is a closed loop with one client: the benchmark issues an
operation, waits for it, checks its output outside the timed region, and
only then issues the next. Operations come in rounds of a fixed make-up,
so every round does the same kinds of work at the same sizes; the seed
picks the symbols and fixture seeds inside that make-up and the order of
the round. Round ``r`` of seed ``s`` draws from
``numpy.random.default_rng([s, r])`` and is identical every time it is
built, which lets the traced run replay exactly what the untraced run did.

Every library call an operation makes sits inside its timed region,
fixture builders included, so no library work can hide in untimed input
generation. Library functions are looked up through the package at call
time, so a tracer that rebinds them sees every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from typing import Callable

import numpy as np

import woldlab as wl
import woldlab.cli

import checks

#: construct_example degrees of each verdict-sweep round; one non-inner
#: and one inner symbol per degree. The plain-matrix hyper-range of the
#: first operator takes most of each round's time. Degree 64 is left out
#: to keep the run-to-run spread within the bounds (see README).
VERDICT_DEGREES = (16, 24, 32, 40, 48)
THREE_PART_DEGREE = 56
FOUR_BLOCK = {"f_degree": 10, "g_degree": 10, "bidegree": 8}
TENSOR_DEGREE = 9
#: symbol z/2: r_iii = sqrt(3)/2 sits below a configured verdict
#: tolerance of 1.0, yet the library thresholds at a fixed 1e-8
TOLERANCE_PROBE = {"kind": "polynomial", "coeffs": [0.0, 0.5]}


class OpFailed(RuntimeError):
    """The program did not complete an operation as documented."""


@dataclass
class Op:
    """One timed library call (or CLI run) and the check of its output."""

    name: str
    call: Callable[[], object]
    check: Callable[[object], None]


# --- seeded inputs -----------------------------------------------------


def non_inner_spec(rng) -> dict:
    """Degree-2 polynomial scaled to a boundary sup-norm in [0.5, 0.8]."""
    c = rng.normal(size=3) + 1j * rng.normal(size=3)
    sup = np.max(np.abs(checks.boundary_values({"kind": "polynomial",
                                                 "coeffs": c})))
    return {"kind": "polynomial", "coeffs": c * rng.uniform(0.5, 0.8) / sup}


def inner_spec(rng, kind: int, max_zeros: int = 2) -> dict:
    """Blaschke product with up to ``max_zeros`` zeros of modulus 0.3-0.4
    (kind 0), or a unimodular constant (kind 1)."""
    phase = np.exp(2j * np.pi * rng.random())
    if kind == 1:
        return {"kind": "constant", "value": phase}
    k = int(rng.integers(1, max_zeros + 1))
    zeros = rng.uniform(0.3, 0.4, k) * np.exp(2j * np.pi * rng.random(k))
    return {"kind": "blaschke", "zeros": zeros, "front": phase}


def make_symbol(spec: dict):
    if spec["kind"] == "polynomial":
        return wl.polynomial(spec["coeffs"])
    if spec["kind"] == "constant":
        return wl.constant(spec["value"])
    return wl.blaschke(spec["zeros"], spec["front"])


def literal(spec: dict) -> dict:
    """The CLI config form of a symbol spec."""
    def pair(c):
        return [float(np.real(c)), float(np.imag(c))]

    if spec["kind"] == "polynomial":
        return {"kind": "polynomial", "coeffs": [pair(c)
                                                 for c in spec["coeffs"]]}
    return {"kind": "blaschke", "zeros": [pair(z) for z in spec["zeros"]],
            "front": pair(spec["front"])}


# --- workloads ---------------------------------------------------------


class Workload:
    """A seeded source of rounds; ``close`` removes any scratch files."""

    name = ""

    def __init__(self, seed: int, in_process: bool = False):
        self.seed = seed
        self.in_process = in_process

    def rng(self, r: int):
        return np.random.default_rng([self.seed, r])

    def round(self, r: int) -> list:
        raise NotImplementedError

    def close(self) -> None:
        pass


class VerdictSweep(Workload):
    """construct_example then verdict_battery over a mix of symbols."""

    name = "verdict-sweep"

    def round(self, r: int) -> list:
        rng = self.rng(r)
        ops = []
        for i, degree in enumerate(VERDICT_DEGREES):
            ops.append(self._op(non_inner_spec(rng), False, degree))
            ops.append(self._op(inner_spec(rng, (i + r) % 2), True, degree))
        return [ops[k] for k in rng.permutation(len(ops))]

    @staticmethod
    def _op(spec: dict, inner: bool, degree: int) -> Op:
        def call():
            pair = wl.construct_example(make_symbol(spec), degree)
            return pair, wl.verdict_battery(pair)

        return Op(f"verdict/{spec['kind']}/{degree}", call,
                  lambda out: checks.check_verdict(spec, inner, *out))


class StructureRecovery(Workload):
    """Model, Slocinski, finiteness and point-spectrum analyses, each run
    on freshly built three-part, four-block and tensor-shift fixtures."""

    name = "structure-recovery"

    def round(self, r: int) -> list:
        rng = self.rng(r)
        seeds = [int(x) for x in rng.integers(0, 2 ** 31, 2)]
        built: dict = {}

        def build(key, make):
            def call():
                built[key] = make()
                return built[key]
            return Op(f"build/{key}", call,
                      lambda out: checks.check_pair_residuals(out[0]))

        def spectral(key, eigenvalues, unitary_dim):
            return [
                Op(f"finiteness_checks/{key}",
                   lambda: wl.finiteness_checks(built[key][0]),
                   lambda fc: checks.check_finiteness(fc, eigenvalues())),
                Op(f"point_spectrum_part/{key}",
                   lambda: wl.point_spectrum_part(built[key][0]),
                   lambda ps: checks.check_point_spectrum(
                       ps, eigenvalues(), unitary_dim)),
            ]

        def three_eigs():
            truth = built["three"][1]
            return list(np.linalg.eigvals(truth["v1"])) + [truth["psi"]]

        def four_eigs():
            pair, expected = built["four"]
            k = expected["uu"] + expected["us"]
            return list(np.linalg.eigvals(pair.s1.matrix[:k, :k]))

        tensor_dims = {"uu": 0, "us": 0, "su": 0,
                       "ss": (TENSOR_DEGREE + 1) ** 2}
        return [
            build("three", lambda: wl.three_part_pair(
                seeds[0], degree=THREE_PART_DEGREE)),
            Op("model_decomposition/three",
               lambda: wl.model_decomposition(built["three"][0]),
               lambda md: checks.check_model(md, built["three"][1])),
            *spectral("three", three_eigs, 2 + THREE_PART_DEGREE + 1),
            build("four", lambda: wl.four_block_pair(seeds[1], **FOUR_BLOCK)),
            Op("slocinski/four", lambda: wl.slocinski(built["four"][0]),
               lambda sl: checks.check_slocinski(sl, built["four"][1])),
            *spectral("four", four_eigs, 2 + FOUR_BLOCK["f_degree"] + 1),
            build("tensor", lambda: (wl.tensor_shift_pair(
                TENSOR_DEGREE, TENSOR_DEGREE), tensor_dims)),
            Op("slocinski/tensor", lambda: wl.slocinski(built["tensor"][0]),
               lambda sl: checks.check_slocinski(sl, tensor_dims)),
            *spectral("tensor", list, 0),
        ]


class CliPipeline(Workload):
    """All seven subcommands as ``python -m woldlab`` runs, plus the
    configured-tolerance probe that fails while the library ignores
    configured tolerances. Untraced runs spawn one subprocess per
    operation; traced runs call ``woldlab.cli.main`` in-process."""

    name = "cli-pipeline"

    def __init__(self, seed: int, in_process: bool = False,
                 workdir: str | None = None):
        super().__init__(seed, in_process)
        if workdir is None:
            out = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                               "out")
            os.makedirs(out, exist_ok=True)
            workdir = tempfile.mkdtemp(prefix="cli-", dir=out)
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=os.path.dirname(
            os.path.dirname(os.path.abspath(wl.__file__))))

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)

    def round(self, r: int) -> list:
        rng = self.rng(r)
        seed = int(rng.integers(0, 2 ** 31))
        non_inner = [non_inner_spec(rng) for _ in range(4)]
        # one zero keeps the coefficient tail past the trusted ladder at
        # level 24 below the 1e-8 the reconstruction residual is held to
        blaschke = inner_spec(rng, 0, max_zeros=1)
        default_tolerance = 1e-8
        ops = [
            self._op(r, "wold", {"levels": [64, 112], "unitary_dim": 3,
                                 "seed": seed}, {"unitary_dim": 3}),
            self._op(r, "construct-example", {"levels": [16, 24]},
                     {"spec": non_inner[0]}),
            self._op(r, "verdict", {"levels": [16, 24]},
                     {"spec": non_inner[1], "verdict": False,
                      "tolerance": default_tolerance}, expect=2),
            self._op(r, "model-decompose", {"levels": [24, 32]},
                     {"spec": blaschke}),
            self._op(r, "slocinski", {"levels": [8, 10], "seed": seed,
                                      "fixture": "four-block"}, {}),
            self._op(r, "moments", {"levels": [24, 32], "k_max": 20},
                     {"spec": non_inner[2], "k_max": 20}),
            self._op(r, "forcing", {"k_max": 20},
                     {"spec": non_inner[3], "k_max": 20}),
            self._op(r, "verdict", {"levels": [16],
                                    "tolerances": {"verdict": 1.0}},
                     {"spec": TOLERANCE_PROBE, "verdict": True,
                      "tolerance": 1.0}, tag="tolerance"),
        ]
        return [ops[k] for k in rng.permutation(len(ops))]

    def _op(self, r: int, command: str, config: dict, params: dict,
            expect: int = 0, tag: str | None = None) -> Op:
        tag = tag or command
        base = os.path.join(self.workdir, f"r{r}-{tag}")
        if "spec" in params:
            config = dict(config, symbol=literal(params["spec"]))
        with open(base + ".json", "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        argv = [command, "--config", base + ".json", "--out", base, "--csv"]

        def call():
            if self.in_process:
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()) as err:
                    code = woldlab.cli.main(argv)
                message = err.getvalue()
            else:
                proc = subprocess.run(
                    [sys.executable, "-m", "woldlab", *argv], env=self.env,
                    stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                    text=True)
                code, message = proc.returncode, proc.stderr
            if code != expect:
                raise OpFailed(f"{tag}: exit {code}, documented {expect}"
                               + (f"; {message.strip()}" if message else ""))
            return base

        def check(out):
            try:
                checks.check_cli(command, out, params)
            finally:
                shutil.rmtree(out, ignore_errors=True)

        return Op(f"cli/{tag}", call, check)


WORKLOADS = {w.name: w for w in (VerdictSweep, StructureRecovery,
                                 CliPipeline)}
