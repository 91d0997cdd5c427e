"""Command-line frontend.

Exit codes: 0 success, 1 domain error, 2 usage error; both errors print
a machine-readable error object on stdout (``--help`` prints its text
and exits 0).  With ``--format structured`` (the default) each
invocation emits a single JSON document containing the input digests,
the configuration, and the result; identical invocations with identical
seeds produce byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from pathlib import Path

import numpy as np

from . import io as sio
from .axioms import run_axiom_suite
from .chain import cascade_complex, cohomology, homology, rfh_unit_sphere
from .chern import c1_from_clutching
from .errors import FileFormatError, ParameterError, SymidxError, UsageError
from .hamdyn import (
    find_periodic_orbit,
    integrate,
    monodromy_and_cz,
    pendulum_system,
    twist_fixed_points,
)
from .index import (
    cz_rs,
    cz_winding,
    loop_operator_spectral_flow,
    maslov_loop,
    rs_index,
    spectral_flow_matrix,
)
from .splin import SymmetricFamily2, path_from_symmetric

DEFAULT_TOL = 1e-9


def _tol(args) -> float:
    """``--tol``, else ``SYMIDX_TOL``, else the default: a finite positive number."""
    if args.tol is not None:
        source, tol = "--tol", args.tol
    else:
        source, env = "SYMIDX_TOL", os.environ.get("SYMIDX_TOL")
        if not env:
            return DEFAULT_TOL
        try:
            tol = float(env)
        except ValueError:
            raise ParameterError("SYMIDX_TOL=%r is not a number" % env)
    if not (np.isfinite(tol) and tol > 0.0):
        raise ParameterError("%s must be a finite positive number, got %r" % (source, tol))
    return tol


def _load_path_or_family(args):
    doc = sio._load_json(args.input)
    kind = doc.get("kind")
    if kind == "path":
        return sio.load_path(doc)
    if kind == "symmetric_family":
        fam = sio.load_family(doc)
        if isinstance(fam, SymmetricFamily2):
            raise FileFormatError("expected a one-parameter input here")
        return path_from_symmetric(fam, steps=args.steps)
    raise FileFormatError("unknown input kind %r" % kind)


def _index_payload(iv) -> dict:
    return {
        "doubled_index": iv.doubled,
        "doubled_index_canonical": iv.in_normalization("canonical").doubled,
        "normalization": "standard",
    }


# ---------------------------------------------------------------------------
# subcommand handlers; each returns the result dict


def _cmd_index(args):
    algo = args.algorithm
    if algo == "sf":
        fam = sio.load_family(args.input)
        if isinstance(fam, SymmetricFamily2):
            raise FileFormatError("index sf expects a one-parameter family")
        return {"algorithm": "sf", "spectral_flow": spectral_flow_matrix(fam)}
    if algo == "loop-sf":
        fam = sio.load_family(args.input)
        if not isinstance(fam, SymmetricFamily2):
            raise FileFormatError("index loop-sf expects a two-parameter family")
        val = loop_operator_spectral_flow(fam, args.fourier_cutoff)
        return {"algorithm": "loop-sf", "spectral_flow": val,
                "fourier_cutoff": args.fourier_cutoff}

    P = _load_path_or_family(args)
    if algo == "maslov":
        return {"algorithm": "maslov", **_index_payload(maslov_loop(P))}
    if algo == "cz":
        return {"algorithm": "cz", **_index_payload(cz_rs(P, tol=_tol(args)))}
    if algo == "rs":
        return {"algorithm": "rs", **_index_payload(rs_index(P))}
    if algo == "winding":
        iv, interval = cz_winding(P)
        out = {"algorithm": "winding", **_index_payload(iv)}
        out["winding_interval"] = {
            "lower": interval.lower, "upper": interval.upper,
            "index": interval.index,
        }
        return out
    raise FileFormatError("unknown index algorithm %r" % algo)


def _cmd_chern(args):
    D = sio.load_clutching(args.input)
    return {"c1": c1_from_clutching(D), "rank": D.rank, "genus": D.genus,
            "loops": len(D.overlap_loops)}


def _parse_z(text: str) -> np.ndarray:
    try:
        return np.array([float(x) for x in text.split(",")])
    except ValueError:
        raise FileFormatError("cannot parse phase point %r" % text)


def _cmd_dyn(args):
    if args.input is None:
        raise ParameterError("dyn %s needs --input" % args.action)
    sys_ = sio.load_system(args.input)
    if args.action == "integrate":
        traj = integrate(sys_, _parse_z(args.z0), args.T, args.dt)
        return {
            "action": "integrate",
            "steps": len(traj.ts) - 1,
            "energy_drift": traj.energy_drift(sys_),
            "endpoint": traj.zs[-1].tolist(),
        }
    if args.action in ("orbit", "monodromy"):
        orbit = find_periodic_orbit(sys_, _parse_z(args.z0), args.T, dt=args.dt)
        out = {
            "action": args.action,
            "z0": orbit.z0.tolist(),
            "period": orbit.period,
            "residual": orbit.residual,
        }
        if args.action == "monodromy":
            _, nondeg, idx = monodromy_and_cz(sys_, orbit)
            out["nondegenerate"] = nondeg
            if idx is not None:
                out.update(_index_payload(idx["standard"]))
        return out
    raise FileFormatError("unknown dyn action %r" % args.action)


def _cmd_twist(args):
    eps = args.epsilon

    def standard_map(p):
        th, r = p
        return np.array([th + r, r + eps * np.sin(2 * np.pi * (th + r))])

    rep = twist_fixed_points(standard_map, (-np.pi, np.pi), grid=args.grid)
    return {
        "epsilon": eps,
        "fixed_points": [p.tolist() for p in rep.fixed_points],
        "count": len(rep.fixed_points),
        "is_curve": rep.is_curve,
        "rotation_lower": rep.rotation_lower,
        "rotation_upper": rep.rotation_upper,
    }


def _degree_key(doubled: int) -> str:
    return str(doubled // 2) if doubled % 2 == 0 else "%d/2" % doubled


def _betti_payload(table: dict) -> dict:
    return {_degree_key(k): v for k, v in sorted(table.items())}


def _cmd_chain(args):
    if args.action == "homology":
        C = sio.load_complex(args.input)
        return {
            "action": "homology",
            "betti": _betti_payload(homology(C)),
            "cobetti": _betti_payload(cohomology(C)),
        }
    if args.action == "cascade":
        D = sio.load_morse_bott(args.input)
        C, lacunary = cascade_complex(D)
        return {
            "action": "cascade",
            "lacunary": lacunary,
            "betti": _betti_payload(homology(C)),
            "generators": len(C.generators),
        }
    raise FileFormatError("unknown chain action %r" % args.action)


def _cmd_demo(args):
    if args.what == "pendulum":
        sys_std = pendulum_system()
        traj = integrate(sys_std, np.array([0.4, 0.0]), 20.0, 1e-3)
        out = {"demo": "pendulum", "energy_drift": traj.energy_drift(sys_std),
               "equilibria": {}}
        eps = 0.05
        sys_can = pendulum_system("canonical", scale=eps)
        for name, z, morse in (("saddle", [0.0, 0.0], 1), ("center", [0.5, 0.0], 0)):
            orbit = find_periodic_orbit(sys_can, np.array(z), 1.0)
            _, nondeg, idx = monodromy_and_cz(sys_can, orbit)
            out["equilibria"][name] = {
                "morse_index": morse,
                "nondegenerate": nondeg,
                "cz_canonical_doubled": idx["canonical"].doubled if idx else None,
            }
        return out
    if args.what == "unit-sphere":
        table = rfh_unit_sphere(args.n, args.window)
        return {
            "demo": "unit-sphere",
            "n": args.n,
            "window": args.window,
            "lacunary": table["lacunary"],
            "betti": _betti_payload(table["betti"]),
            "support_doubled": table["support_doubled"],
        }
    raise FileFormatError("unknown demo %r" % args.what)


def _cmd_axioms(args):
    return run_axiom_suite(args.seed, args.count)


# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """argparse that raises ``UsageError`` instead of exiting.

    Any negative float literal (``-1e-9``, ``-inf``) is read as a value:
    argparse's own pattern knows only plain decimals and would read
    ``--tol -1e-9`` as an unknown option.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-((\d+\.?\d*|\.\d+)(e[-+]?\d+)?|inf|infinity|nan)$", re.IGNORECASE)

    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError("%s: %s" % (self.prog, message))


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves it unchanged, and
    building it costs ten times as much as one parse."""
    p = _Parser(prog="symidx")
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--output", type=str, default=None)
    p.add_argument("--format", choices=("structured", "human"),
                   default="structured")
    sub = p.add_subparsers(dest="command", required=True)

    pi = sub.add_parser("index")
    pi.add_argument("algorithm",
                    choices=("maslov", "cz", "rs", "winding", "sf", "loop-sf"))
    pi.add_argument("--input", required=True)
    pi.add_argument("--steps", type=int, default=256)
    pi.add_argument("--fourier-cutoff", type=int, default=32)
    pi.set_defaults(handler=_cmd_index)

    pc = sub.add_parser("chern")
    pc.add_argument("--input", required=True)
    pc.set_defaults(handler=_cmd_chern)

    pd = sub.add_parser("dyn")
    pd.add_argument("action", choices=("integrate", "orbit", "monodromy", "twist"))
    pd.add_argument("--input")
    pd.add_argument("--z0", default="1.0,0.0")
    pd.add_argument("--T", type=float, default=6.0)
    pd.add_argument("--dt", type=float, default=1e-3)
    pd.add_argument("--epsilon", type=float, default=0.1)
    pd.add_argument("--grid", type=int, default=32)
    pd.set_defaults(handler=None)

    pch = sub.add_parser("chain")
    pch.add_argument("action", choices=("homology", "cascade"))
    pch.add_argument("--input", required=True)
    pch.set_defaults(handler=_cmd_chain)

    pde = sub.add_parser("demo")
    pde.add_argument("what", choices=("pendulum", "unit-sphere"))
    pde.add_argument("--n", type=int, default=4)
    pde.add_argument("--window", type=int, default=2)
    pde.set_defaults(handler=_cmd_demo)

    pa = sub.add_parser("axioms")
    pa.add_argument("--seed", type=int, default=1)
    pa.add_argument("--count", type=int, default=20)
    pa.set_defaults(handler=_cmd_axioms)

    return p


def _render_human(doc: dict, prefix: str = "") -> str:
    lines = []
    for k in sorted(doc):
        v = doc[k]
        if isinstance(v, dict):
            lines.append("%s%s:" % (prefix, k))
            lines.append(_render_human(v, prefix + "  "))
        else:
            lines.append("%s%s: %s" % (prefix, k, v))
    return "\n".join(line for line in lines if line)


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except UsageError as e:
        sys.stdout.write(json.dumps({"error": e.payload()}, sort_keys=True, indent=2) + "\n")
        return 2
    except SystemExit as e:  # --help
        return 2 if e.code not in (0, None) else 0

    handler = getattr(args, "handler", None)
    if handler is None and args.command == "dyn":
        handler = _cmd_twist if args.action == "twist" else _cmd_dyn

    inputs = {}
    inp = getattr(args, "input", None)
    if inp is not None and Path(str(inp)).is_file():
        inputs[str(inp)] = sio.file_digest(inp)

    config = {
        k: v for k, v in sorted(vars(args).items())
        if k not in ("handler", "output", "format") and v is not None
        and not callable(v)
    }

    doc = {"command": args.command, "inputs": inputs}
    try:
        # checked for every subcommand: a non-finite number cannot go into
        # the strict-JSON config
        _tol(args)
        for name, v in config.items():
            if isinstance(v, float) and not np.isfinite(v):
                raise ParameterError("--%s must be finite, got %r" % (name, v))
        doc["config"] = config
        doc["result"] = handler(args)
        code = 0
    except SymidxError as e:
        doc["error"] = e.payload()
        code = 1

    if args.format == "structured":
        text = json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"
    else:
        text = _render_human(doc) + "\n"

    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
