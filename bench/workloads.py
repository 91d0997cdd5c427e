"""The benchmark's four workloads.

A workload builds its ops one round at a time.  A round is a fixed list
of op kinds; its inputs are drawn from ``numpy.random.default_rng([seed,
round, slot, attempt])``, so a seed fixes every input of every round and
a run of any length attempts whole rounds of the same mix.  Inputs of a
round are made before the round is timed.  An op calls into symidx
through module attributes at call time, so the wrappers of a traced
phase see it.

Each op returns plain values and has a check that runs after the round,
outside the timed region.  An op with ``fault`` set hits a named,
seed-independent fault of the program: a wrong value or an error there
counts the op as failed, never as an incorrect output.

Inputs are drawn again (the next ``attempt``) in these cases only: a
matrix family with a singular end, which the program rejects as a
domain error; a path handed to the crossing scan that crosses the
Maslov cycle for t in (0, FIRST_STEP] or ends within ENDPOINT_MARGIN of
it; a direct sum whose summands cross it in the same or adjacent cells;
and a path or loop whose matrices exceed NORM_BOUND in norm.  On such
inputs the index functions fail or go wrong on some seeds (see
CHANGES.md), and a path ending on the cycle is a domain error too.
"""

from __future__ import annotations

import contextlib
import io as _io
import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional

import numpy as np

from symidx import axioms, cli, index, splin

import checks

FAULT_RS_ZERO = "rs-zero-axiom"
FAULT_POLY_STALL = "polynomial-midpoint-stall"


@dataclass
class Op:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], None]
    fault: Optional[str] = None


# Cells [k, k + 1] / CELLS of the benchmark's own grid on [0, 1], on which
# the inputs of an op are screened before it is timed.  CELLS is the step
# count of the paths of axioms.random_admissible_path, the coarsest grid
# any workload hands to the crossing scan; it is fixed here, so that a
# change of the program's grids does not change which inputs a seed gives.
CELLS = 192
# the window at t = 0 in which a crossing makes a path be drawn again
FIRST_STEP = 1.0 / CELLS


def crossing_in_first_step(P) -> bool:
    """Whether det(Psi(t) - I) changes sign for t in (0, FIRST_STEP].

    Sampled geometrically from 1e-4 of the window, where Psi - I is still
    resolved in double precision, up to the window's end.
    """
    h = FIRST_STEP
    ts = np.union1d(np.geomspace(1e-4 * h, h, 24), np.linspace(0.0, h, 25)[1:])
    eye = np.eye(P.dim)
    d = np.array([np.linalg.det(P.at(t) - eye) for t in ts])
    return bool(np.any(d[:-1] * d[1:] < 0.0))


# Least singular value of Psi(1) - I below which a path is drawn again.
# A path that ends this close to the Maslov cycle can cross it in a close
# pair just before t = 1, which the crossing scan misses (see CHANGES.md).
ENDPOINT_MARGIN = 0.05


def end_near_cycle(P) -> bool:
    """Whether Psi(1) lies within ENDPOINT_MARGIN of the Maslov cycle."""
    E = P.endpoint()
    return bool(np.linalg.svd(E - np.eye(len(E)), compute_uv=False)[-1] < ENDPOINT_MARGIN)


# Largest spectral norm of Psi(t), on the grid t = k / 32, of a path or
# loop handed to the index functions.  On worse-conditioned matrices rho
# leaves the unit circle (|rho| = 0.99999 from norms of about 700 on) and
# the program raises NotSymplecticError on some seeds (see CHANGES.md).
NORM_BOUND = 200.0


def ill_conditioned(P) -> bool:
    """Whether ||Psi(t)|| exceeds NORM_BOUND somewhere on t = k / 32."""
    mats = np.stack([P.at(k / 32) for k in range(33)])
    return bool(np.max(np.linalg.norm(mats, 2, axis=(1, 2))) > NORM_BOUND)


def unclear(P) -> bool:
    """Whether the index functions may get P wrong on some seeds."""
    return crossing_in_first_step(P) or end_near_cycle(P) or ill_conditioned(P)


def crossing_cells(P) -> np.ndarray:
    """The cells k >= 1 on which det(Psi(t) - I) changes sign.

    Cell 0 is left out: Psi(0) = I, so the sign of det(Psi(0) - I) is
    round-off, and a crossing inside cell 0 is screened on its own.
    """
    eye = np.eye(P.dim)
    d = np.array([np.linalg.det(P.at(k / CELLS) - eye) for k in range(1, CELLS + 1)])
    return 1 + np.flatnonzero(d[:-1] * d[1:] < 0.0)


def crossings_coincide(P1, P2) -> bool:
    """Whether P1 and P2 cross the Maslov cycle in the same or adjacent cells.

    Their direct sum then crosses it twice within a short interval, or
    once with a two-dimensional kernel, and the crossing scan can count
    that wrongly (see CHANGES.md).
    """
    c1, c2 = crossing_cells(P1), crossing_cells(P2)
    return bool(c1.size and c2.size and np.min(np.abs(c1[:, None] - c2[None, :])) <= 1)


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: Path, quick: bool = False):
        self.seed = seed
        self.workdir = workdir
        self.quick = quick

    def rng(self, r: int, slot: int, attempt: int = 0) -> np.random.Generator:
        return np.random.default_rng([self.seed, r, slot, attempt])

    def clear_draw(self, r: int, slot: int, draw, reject=None):
        """The first attempt of a slot none of whose paths is ``unclear``.

        ``draw(rng)`` makes the inputs and returns them with every path the
        op hands to the crossing scan; ``reject(inputs)``, if given, rejects
        more.  Returns a fresh rng of that attempt (for ops that draw their
        inputs themselves) and the inputs.
        """
        for attempt in itertools.count():
            inputs, paths = draw(self.rng(r, slot, attempt))
            if not (any(map(unclear, paths)) or (reject is not None and reject(inputs))):
                return self.rng(r, slot, attempt), inputs

    def round(self, r: int) -> list[Op]:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# sp2-three-algorithms


def _sp2_three(rng, scale):
    P = axioms.random_admissible_path(rng, 1, scale=scale)
    winding, interval = index.cz_winding(P)
    return {
        "cz_rs": index.cz_rs(P).doubled,
        "cz_winding": winding.doubled,
        "cz_degree_sp2": index.cz_degree_sp2(P).doubled,
        "lower": interval.lower,
        "upper": interval.upper,
        "endpoint": P.endpoint(),
    }


def _sp2_check(out):
    checks.same_index(cz_rs=out["cz_rs"], cz_winding=out["cz_winding"],
                      cz_degree_sp2=out["cz_degree_sp2"])
    checks.winding_interval_short(out["lower"], out["upper"])
    checks.parity(out["cz_rs"], 1, out["endpoint"])


class Sp2ThreeAlgorithms(Workload):
    name = "sp2-three-algorithms"
    # family scales of random_admissible_path; at each, about a third of
    # the paths have no interior crossing and a few have four or five.
    # From scale 3 up, cz_degree_sp2 fails on some paths (see CHANGES.md).
    SCALES = (0.8, 1.2, 1.6, 2.0, 2.4)

    def round(self, r):
        ops = []
        for j, s in enumerate(self.SCALES[2:3] if self.quick else self.SCALES):
            g, _ = self.clear_draw(r, j, lambda g, s=s: (
                None, [axioms.random_admissible_path(g, 1, s)]))
            ops.append(Op("cz3/scale=%g" % s, lambda g=g, s=s: _sp2_three(g, s), _sp2_check))
        return ops


# ---------------------------------------------------------------------------
# axiom-sweep


class _Indices:
    """Index calls of an axiom op."""

    @staticmethod
    def cz(P):
        return index.cz_rs(P).doubled

    @staticmethod
    def maslov(L):
        return index.maslov_loop(L).doubled


class _Probe:
    """Stands in for ``_Indices`` while inputs are drawn: collects the
    paths the op would hand to cz_rs and the loops it would hand to
    maslov_loop, and computes nothing."""

    def __init__(self):
        self.paths = []
        self.loops = []

    def cz(self, P):
        self.paths.append(P)
        return 0

    def maslov(self, L):
        self.loops.append(L)
        return 0


def _product(rng, idx, n, k1, k2):
    L1 = axioms.conjugated_rotation_loop(rng, n, k1)
    L2 = axioms.conjugated_rotation_loop(rng, n, k2)
    return {"mu1": idx.maslov(L1), "mu2": idx.maslov(L2),
            "mu12": idx.maslov(L1.product(L2))}


def _loop(rng, idx, n, k):
    Phi = axioms.conjugated_rotation_loop(rng, n, k)
    P = axioms.random_admissible_path(rng, n)
    return {"lhs": idx.cz(Phi.product(P)), "mu": idx.maslov(Phi), "cz": idx.cz(P)}


def _inverse(rng, idx, n, k):
    P = axioms.random_admissible_path(rng, n)
    L = axioms.conjugated_rotation_loop(rng, n, k)
    return {"cz": idx.cz(P), "cz_inv": idx.cz(P.inverse()),
            "mu": idx.maslov(L), "mu_inv": idx.maslov(L.inverse())}


def _naturality(rng, idx, n):
    P = axioms.random_admissible_path(rng, n)
    Theta = axioms.random_conjugating_path(rng, n)
    return {"cz": idx.cz(P), "cz_conj": idx.cz(P.conjugate_by(Theta))}


def _determinant(rng, idx, n):
    P = axioms.random_admissible_path(rng, n)
    return {"cz": idx.cz(P), "endpoint": P.endpoint()}


def _direct_sum(rng, idx, n1, n2):
    P1 = axioms.random_admissible_path(rng, n1)
    P2 = axioms.random_admissible_path(rng, n2)
    return {"cz1": idx.cz(P1), "cz2": idx.cz(P2), "cz_sum": idx.cz(P1.direct_sum(P2))}


def _rs_zero(n):
    return index.rs_index(splin.constant_path(np.eye(2 * n))).doubled


class AxiomSweep(Workload):
    name = "axiom-sweep"
    # identity -> half-dimensions n it runs at.  Product stops at n = 2
    # and loop at n = 1: beyond, they fail on some seeds even on screened
    # inputs (see CHANGES.md), and an op that fails only on some seeds
    # cannot be counted steadily.
    DIMS = {"product": (1, 2), "loop": (1,), "inverse": (1, 2, 3),
            "naturality": (1, 2, 3), "determinant": (1, 2, 3)}
    SUMS = ((1, 1), (1, 2), (2, 1))

    @staticmethod
    def _identity(name, n, k1, k2):
        """(op body taking (rng, idx), check of its output)."""
        if name == "product":
            return (lambda g, idx: _product(g, idx, n, k1, k2),
                    lambda o: (checks.product_identity(o["mu1"], o["mu2"], o["mu12"]),
                               checks.maslov_closed_form(o["mu1"], k1, n),
                               checks.maslov_closed_form(o["mu2"], k2, n)))
        if name == "loop":
            return (lambda g, idx: _loop(g, idx, n, k1),
                    lambda o: (checks.loop_identity(o["lhs"], o["mu"], o["cz"]),
                               checks.maslov_closed_form(o["mu"], k1, n)))
        if name == "inverse":
            return (lambda g, idx: _inverse(g, idx, n, k1),
                    lambda o: (checks.inverse_identity(o["cz"], o["cz_inv"]),
                               checks.inverse_identity(o["mu"], o["mu_inv"]),
                               checks.maslov_closed_form(o["mu"], k1, n)))
        if name == "naturality":
            return (lambda g, idx: _naturality(g, idx, n),
                    lambda o: checks.naturality(o["cz"], o["cz_conj"]))
        return (lambda g, idx: _determinant(g, idx, n),
                lambda o: checks.parity(o["cz"], n, o["endpoint"]))

    def _op(self, kind, r, slot, body, check, reject=None):
        def draw(g):
            probe = _Probe()
            body(g, probe)
            return probe, probe.paths

        def unfit(probe):
            return (any(map(ill_conditioned, probe.loops))
                    or (reject is not None and reject(probe.paths)))

        g, _ = self.clear_draw(r, slot, draw, unfit)
        return Op(kind, lambda: body(g, _Indices), check)

    def round(self, r):
        ops = []
        for j, (name, dims) in enumerate(self.DIMS.items()):
            for n in dims[:1] if self.quick else dims:
                # rotation counts: up to 3 turns per loop, 2 in the loop identity
                turns = self.rng(r, 1000 + 10 * j + n)
                k1, k2 = (int(k) for k in turns.integers(-3, 4, size=2))
                if name == "loop":
                    k1 = int(turns.integers(-2, 3))
                body, check = self._identity(name, n, k1, k2)
                ops.append(self._op("%s/n=%d" % (name, n), r, 10 * j + n, body, check))
        for j, (n1, n2) in enumerate(self.SUMS[:1] if self.quick else self.SUMS):
            ops.append(self._op(
                "direct-sum/n=%d+%d" % (n1, n2), r, 100 + j,
                lambda g, idx, a=n1, b=n2: _direct_sum(g, idx, a, b),
                lambda o: checks.direct_sum_identity(o["cz1"], o["cz2"], o["cz_sum"]),
                # the paths are P1, P2 and their sum, in the order of _direct_sum
                reject=lambda paths: crossings_coincide(paths[0], paths[1])))
        # the constant identity path does not depend on the seed
        for n in (1,) if self.quick else (1, 2):
            ops.append(Op("rs-zero/n=%d" % n, lambda n=n: _rs_zero(n), checks.rs_zero,
                          fault=FAULT_RS_ZERO))
        return ops


# ---------------------------------------------------------------------------
# loop-spectral-flow

REF_STEPS = 1024  # steps of the reference paths Psi^0, Psi^1


def _loop_and_matrix_flow(fam2, cutoff, fam):
    return {"loop_flow": index.loop_operator_spectral_flow(fam2, cutoff),
            "matrix_flow": index.spectral_flow_matrix(fam)}


class LoopSpectralFlow(Workload):
    name = "loop-spectral-flow"
    # (n, cutoff K) per slot.  One op below and one above (1, 32) in cost
    # puts the median op of a run in the middle of the (1, 32) ops, not at
    # the edge of a cost class, so that op_p50_ms does not jump between classes.
    SLOTS = ((1, 16), (1, 32), (2, 32))

    @staticmethod
    def _draw(g, n):
        """A two-slice family, its reference paths and a matrix family,
        then the reference paths again for ``clear_draw``.

        Families whose flows Psi^0, Psi^1 end on the Maslov cycle, or
        whose ends are singular, make the program raise
        EndpointDegenerateError, a domain condition; they are drawn again,
        the first by ``clear_draw``'s endpoint margin.
        """
        f0, f1 = (splin.random_symmetric_family(n, g, modes=2, scale=1.5) for _ in range(2))
        paths = [splin.path_from_symmetric(f, REF_STEPS) for f in (f0, f1)]
        while True:
            fam = splin.random_symmetric_family(n, g, modes=2, scale=2.0)
            ends = [np.linalg.eigvalsh(fam.at(s)) for s in (0.0, 1.0)]
            if min(np.min(np.abs(w)) for w in ends) >= ENDPOINT_MARGIN:
                break
        return (splin.SymmetricFamily2(np.array([0.0, 1.0]), [f0, f1]), paths, fam), paths

    def round(self, r):
        ops = []
        for j, (n, cutoff) in enumerate(((1, 8),) if self.quick else self.SLOTS):
            _, (fam2, paths, fam) = self.clear_draw(r, j, lambda g, n=n: self._draw(g, n))
            # reference values by crossing forms, computed before the round
            cz0, cz1 = (index.cz_rs(P).doubled for P in paths)
            start, end = fam.at(0.0), fam.at(1.0)

            def check(o, cz0=cz0, cz1=cz1, start=start, end=end):
                checks.loop_flow(o["loop_flow"], cz0, cz1)
                checks.matrix_flow(o["matrix_flow"], start, end)

            ops.append(Op("flow/n=%d/K=%d" % (n, cutoff),
                          lambda a=fam2, k=cutoff, b=fam: _loop_and_matrix_flow(a, k, b),
                          check))
        return ops


# ---------------------------------------------------------------------------
# periodic-orbits

SYSTEMS = {
    "harmonic": {"phase_space": "plane", "hamiltonian": {"builtin": "harmonic"}},
    "pendulum": {"phase_space": "cylinder", "hamiltonian": {"builtin": "pendulum"}},
    "pendulum-canonical": {
        "phase_space": "cylinder",
        "hamiltonian": {"builtin": "pendulum", "parameters": {"scale": 0.05}},
        "j_convention": "canonical",
    },
    # the harmonic circle H = (x^2 + y^2) / 2 given as a polynomial
    "circle-polynomial": {
        "phase_space": "plane",
        "hamiltonian": {"polynomial": {"n": 1, "terms": [
            {"coeff": 0.5, "powers": [2, 0]}, {"coeff": 0.5, "powers": [0, 2]}]}},
    },
}
DT = 1e-3  # the CLI's default step, passed explicitly
LIBRATION_AMPLITUDES = (0.1, 0.2, 0.38)
POLY_RADIUS = 1.5


def _cli(argv):
    out = _io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _point(z) -> str:
    return ",".join(repr(float(x)) for x in z)


def write_systems(workdir: Path) -> dict:
    """System files of the periodic-orbit workload; returns name -> path."""
    workdir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, doc in SYSTEMS.items():
        p = workdir / (name + ".json")
        p.write_text(json.dumps(doc, indent=2) + "\n")
        paths[name] = str(p)
    return paths


class PeriodicOrbits(Workload):
    name = "periodic-orbits"

    def __init__(self, seed, workdir, quick=False):
        super().__init__(seed, workdir, quick)
        self.files = write_systems(workdir)

    def _dyn(self, action, system, z0, T):
        return ["dyn", action, "--input", self.files[system], "--z0=" + _point(z0),
                "--T=%r" % float(T), "--dt", repr(DT)]

    def _harmonic_orbit(self, g, action):
        radius, angle = g.uniform(0.6, 1.8), g.uniform(0.0, 2 * math.pi)
        z0 = radius * np.array([math.cos(angle), math.sin(angle)])
        argv = self._dyn(action, "harmonic", z0, 6.0)

        def check(out):
            res = checks.cli_result(*out)
            checks.harmonic_period(res["period"])
            if action == "monodromy":
                checks.degenerate_orbit(res["nondegenerate"])

        return Op("harmonic-%s" % action, lambda: _cli(argv), check)

    def _libration(self, g, base, action):
        a = base + g.uniform(-0.02, 0.02)
        guess = 1.05 * checks.libration_period_exact(a)
        argv = self._dyn(action, "pendulum", (0.5 + a, 0.0), guess)

        def check(out):
            res = checks.cli_result(*out)
            checks.libration_period(res["period"], a, DT)
            if action == "monodromy":
                checks.degenerate_orbit(res["nondegenerate"])

        return Op("libration-%s/a=%g" % (action, base), lambda: _cli(argv), check)

    def _equilibrium(self, name, z, morse):
        argv = self._dyn("monodromy", "pendulum-canonical", z, 1.0)

        def check(out):
            res = checks.cli_result(*out)
            checks.equilibrium_index(res.get("doubled_index_canonical"), 1, morse)

        return Op("equilibrium/%s" % name, lambda: _cli(argv), check)

    def _there_and_back(self, g, T):
        """Forward along a pendulum trajectory, then backward to its start."""
        z0 = np.array([g.uniform(0.05, 0.45), g.uniform(-0.5, 0.5)])
        forward = self._dyn("integrate", "pendulum", z0, T)
        state = {}

        def run_forward():
            state["out"] = _cli(forward)
            return state["out"]

        def run_backward():
            end = json.loads(state["out"][1])["result"]["endpoint"]
            return _cli(self._dyn("integrate", "pendulum", end, -T))

        return [
            Op("integrate-forward", run_forward, lambda out: checks.cli_result(*out)),
            Op("integrate-backward", run_backward,
               lambda out: checks.returns_to(checks.cli_result(*out)["endpoint"], z0)),
        ]

    def _energy(self, system, z0, T, fault=None):
        argv = self._dyn("integrate", system, z0, T)

        def check(out):
            checks.energy_conserved(z0, checks.cli_result(*out)["endpoint"])

        return Op("integrate-energy/%s" % system, lambda: _cli(argv), check, fault)

    def round(self, r):
        g = self.rng(r, 0)
        poly = self._energy("circle-polynomial", (POLY_RADIUS, 0.0), 1.0, FAULT_POLY_STALL)
        if self.quick:
            return [self._libration(g, LIBRATION_AMPLITUDES[0], "orbit"),
                    self._equilibrium("saddle", (0.0, 0.0), 1),
                    self._equilibrium("centre", (0.5, 0.0), 0),
                    *self._there_and_back(g, 0.5),
                    self._energy("harmonic", g.uniform(-1.5, 1.5, size=2), 0.5),
                    poly]
        a1, a2, a3 = LIBRATION_AMPLITUDES
        # eleven ops; in cost order the sixth, the median op of a run, is the
        # a = 0.1 libration, whose cost varies little from input to input
        return [
            self._harmonic_orbit(g, "orbit"),
            self._libration(g, a1, "orbit"),
            self._libration(g, a2, "monodromy"),
            self._equilibrium("saddle", (0.0, 0.0), 1),
            *self._there_and_back(g, 2.0),
            self._harmonic_orbit(g, "monodromy"),
            self._libration(g, a3, "monodromy"),
            self._equilibrium("centre", (0.5, 0.0), 0),
            self._energy("harmonic", g.uniform(-1.5, 1.5, size=2), 3.0),
            poly,
        ]


WORKLOADS = {w.name: w for w in (Sp2ThreeAlgorithms, AxiomSweep, LoopSpectralFlow,
                                 PeriodicOrbits)}
