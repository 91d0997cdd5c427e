"""File formats.

Everything is JSON.  Parsing is strict: unknown fields are errors, so
schema drift is caught instead of silently ignored.

Schemas
-------
path / symmetric family::

    {"n": 1, "kind": "path" | "symmetric_family",
     "samples": [{"t": 0.0, "matrix": [[...], [...]]}, ...],
     "starts_at_identity": bool?, "closed": bool?}

two-parameter families use "samples_2d": [{"s": 0.0, "rows": [samples]}].

clutching::   {"rank": 2, "genus": 0, "loops": [path payloads]}
system::      {"phase_space": ..., "hamiltonian": {...}, "j_convention": ...}
complex::     {"generators": [{"id", "doubled_degree", "action"?}],
               "boundary": [["from", "to"], ...]}
morse-bott::  {"components": [...], "cascades": [...], "intra": [...]}
"""

from __future__ import annotations

import hashlib
import json
from numbers import Integral, Real
from pathlib import Path
from typing import Union

import numpy as np

from .chain import BottComponent, ChainComplex, MorseBottData, MorsePoint, build_complex
from .chern import ClutchingData
from .errors import FileFormatError
from .hamdyn import HamiltonianSystem, harmonic_system, pendulum_system
from .splin import SymmetricFamily, SymmetricFamily2, SymplecticPath


def _check_keys(obj: dict, required: set, optional: set = frozenset(), what: str = "object"):
    if not isinstance(obj, dict):
        raise FileFormatError("%s must be a JSON object" % what)
    keys = set(obj)
    missing = required - keys
    unknown = keys - required - optional
    if missing:
        raise FileFormatError("%s missing fields: %s" % (what, sorted(missing)))
    if unknown:
        raise FileFormatError("%s has unknown fields: %s" % (what, sorted(unknown)))


def _load_json(source: Union[str, Path, dict]) -> dict:
    if isinstance(source, dict):
        return source
    try:
        text = Path(source).read_text()
    except OSError as e:
        raise FileFormatError("cannot read %s: %s" % (source, e))
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise FileFormatError("invalid JSON in %s: %s" % (source, e))
    if not isinstance(doc, dict):
        raise FileFormatError("%s must hold a JSON object, not %s"
                              % (source, type(doc).__name__))
    return doc


def _integer(value, what: str, minimum: int | None = None) -> int:
    """An integer; floats such as 1.5 (or 1.0) and booleans are rejected."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise FileFormatError("%s must be an integer, got %r" % (what, value))
    if minimum is not None and value < minimum:
        raise FileFormatError("%s must be at least %d, got %d" % (what, minimum, value))
    return int(value)


def _real(value, what: str) -> float:
    """A finite number."""
    if isinstance(value, bool) or not isinstance(value, Real) or not np.isfinite(value):
        raise FileFormatError("%s must be a finite number, got %r" % (what, value))
    return float(value)


def _boolean(value, what: str) -> bool:
    """true or false; strings and numbers such as "false" or 0 are rejected."""
    if not isinstance(value, bool):
        raise FileFormatError("%s must be true or false, got %r" % (what, value))
    return value


def _list(value, what: str) -> list:
    if not isinstance(value, list):
        raise FileFormatError("%s must be a list, got %r" % (what, value))
    return value


def _string(value, what: str) -> str:
    if not isinstance(value, str):
        raise FileFormatError("%s must be a string, got %r" % (what, value))
    return value


def _records(doc: dict, key: str, what: str, required: set, optional: set):
    """Yield (k, object) for each object of the list ``doc[key]``, with its
    fields checked; object k is named ``what % k`` in errors."""
    for k, rec in enumerate(_list(doc[key], key)):
        _check_keys(rec, required, optional, what % k)
        yield k, rec


def _entries(doc_entries, what: str) -> list[tuple]:
    """[from, to(, count)] entries with string ids and an integer count."""
    for k, e in enumerate(_list(doc_entries, what)):
        if not (isinstance(e, list) and len(e) in (2, 3)
                and all(isinstance(i, str) for i in e[:2])):
            raise FileFormatError("%s entry %d must be [from, to(, count)] with string ids"
                                  % (what, k))
        for count in e[2:]:
            _integer(count, "%s entry %d count" % (what, k))
    return [tuple(e) for e in doc_entries]


def file_digest(path: Union[str, Path]) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _matrix(entry, n: int, what: str) -> np.ndarray:
    try:
        M = np.asarray(entry, dtype=float)
    except (TypeError, ValueError):
        raise FileFormatError("%s matrix is not a rectangular array of numbers" % what)
    if M.shape != (2 * n, 2 * n):
        raise FileFormatError("%s matrix has shape %s, expected %s"
                              % (what, M.shape, (2 * n, 2 * n)))
    if not np.all(np.isfinite(M)):
        raise FileFormatError("%s matrix has a non-finite entry" % what)
    return M


def _samples(doc: dict, key: str, n: int):
    ts, mats = [], []
    for k, s in _records(doc, key, "sample %d", {"t", "matrix"}, set()):
        ts.append(_real(s["t"], "sample %d t" % k))
        mats.append(_matrix(s["matrix"], n, "sample %d" % k))
    if len(ts) < 2:
        raise FileFormatError("need at least 2 samples")
    return np.array(ts), np.stack(mats)


def load_path(source) -> SymplecticPath:
    doc = _load_json(source)
    _check_keys(doc, {"n", "kind", "samples"},
                {"starts_at_identity", "closed"}, "path file")
    if doc["kind"] != "path":
        raise FileFormatError("expected kind 'path', got %r" % doc["kind"])
    n = _integer(doc["n"], "n", 1)
    ts, mats = _samples(doc, "samples", n)
    start_id = doc.get("starts_at_identity", bool(np.max(np.abs(mats[0] - np.eye(2 * n))) < 1e-7))
    closed = doc.get("closed", bool(np.max(np.abs(mats[-1] - mats[0])) < 1e-7))
    return SymplecticPath(ts, mats, _boolean(start_id, "starts_at_identity"),
                          _boolean(closed, "closed")).validate()


def load_family(source):
    """SymmetricFamily, or SymmetricFamily2 when samples_2d is present."""
    doc = _load_json(source)
    key = "samples_2d" if "samples_2d" in doc else "samples"
    _check_keys(doc, {"n", "kind", key}, set(), "family file")
    if doc["kind"] != "symmetric_family":
        raise FileFormatError("expected kind 'symmetric_family'")
    n = _integer(doc["n"], "n", 1)
    if key == "samples":
        return SymmetricFamily(*_samples(doc, "samples", n)).validate()
    ss, slices = [], []
    for k, row in _records(doc, "samples_2d", "samples_2d entry %d", {"s", "rows"}, set()):
        ss.append(_real(row["s"], "samples_2d entry %d s" % k))
        slices.append(SymmetricFamily(*_samples(row, "rows", n)).validate())
    return SymmetricFamily2(np.array(ss), slices)


def dump_path(P: SymplecticPath) -> dict:
    stride = max(1, len(P.ts) // 513)
    idx = list(range(0, len(P.ts), stride))
    if idx[-1] != len(P.ts) - 1:
        idx.append(len(P.ts) - 1)
    return {
        "n": P.n,
        "kind": "path",
        "starts_at_identity": bool(P.starts_at_identity),
        "closed": bool(P.closed),
        "samples": [
            {"t": float(P.ts[k]), "matrix": P.mats[k].tolist()} for k in idx
        ],
    }


def dump_family(S: SymmetricFamily) -> dict:
    return {
        "n": S.dim // 2,
        "kind": "symmetric_family",
        "samples": [
            {"t": float(t), "matrix": m.tolist()} for t, m in zip(S.ts, S.mats)
        ],
    }


def load_clutching(source) -> ClutchingData:
    doc = _load_json(source)
    _check_keys(doc, {"rank", "genus", "loops"}, set(), "clutching file")
    loops = []
    for k, p in enumerate(_list(doc["loops"], "loops")):
        if not isinstance(p, dict):  # a string would be read as a file path
            raise FileFormatError("loop %d must be a JSON object, got %r" % (k, p))
        loops.append(load_path(p))
    return ClutchingData(_integer(doc["rank"], "rank"), _integer(doc["genus"], "genus"), loops)


def _polynomial_system(spec: dict, j_structure: str) -> HamiltonianSystem:
    _check_keys(spec, {"n", "terms"}, what="polynomial hamiltonian")
    n = _integer(spec["n"], "polynomial n", 1)
    terms = []
    for k, t in _records(spec, "terms", "polynomial term %d", {"coeff", "powers"}, set()):
        powers = [_integer(p, "term %d exponent" % k, 0)
                  for p in _list(t["powers"], "term %d powers" % k)]
        if len(powers) != 2 * n:
            raise FileFormatError("term %d has %d exponents, expected %d"
                                  % (k, len(powers), 2 * n))
        terms.append((_real(t["coeff"], "term %d coeff" % k), powers))

    def H(z):
        return float(sum(c * np.prod(np.asarray(z) ** p) for c, p in terms))

    return HamiltonianSystem(H, n, "plane" if n == 1 else "r2n", j_structure=j_structure)


def load_system(source) -> HamiltonianSystem:
    doc = _load_json(source)
    _check_keys(doc, {"phase_space", "hamiltonian"}, {"j_convention"}, "system file")
    ham = doc["hamiltonian"]
    if not isinstance(ham, dict):
        raise FileFormatError("hamiltonian must be a JSON object, got %r" % (ham,))
    jconv = doc.get("j_convention", "standard")
    if "builtin" in ham:
        _check_keys(ham, {"builtin"}, {"parameters"}, "hamiltonian")
        params = ham.get("parameters", {})
        name = ham["builtin"]
        if name == "harmonic":
            _check_keys(params, set(), set(), "harmonic parameters")
            sys = harmonic_system(jconv)
        elif name == "pendulum":
            _check_keys(params, set(), {"scale"}, "pendulum parameters")
            sys = pendulum_system(jconv, _real(params.get("scale", 1.0), "pendulum scale"))
        else:
            raise FileFormatError("unknown builtin hamiltonian %r" % name)
    elif "polynomial" in ham:
        _check_keys(ham, {"polynomial"}, set(), "hamiltonian")
        sys = _polynomial_system(ham["polynomial"], jconv)
    else:
        raise FileFormatError("hamiltonian must have 'builtin' or 'polynomial'")
    if doc["phase_space"] != sys.phase_space:
        # allow overriding plane <-> cylinder for n = 1 systems
        sys = HamiltonianSystem(sys.hamiltonian, sys.n, doc["phase_space"],
                                sys.gradient, sys.hessian, sys.j_structure)
    return sys


def load_complex(source) -> ChainComplex:
    doc = _load_json(source)
    _check_keys(doc, {"generators", "boundary"}, set(), "complex file")
    gens = []
    for k, g in _records(doc, "generators", "generator %d", {"id", "doubled_degree"}, {"action"}):
        what = "generator %d " % k
        gens.append((_string(g["id"], what + "id"),
                     _integer(g["doubled_degree"], what + "doubled_degree"),
                     _real(g["action"], what + "action") if "action" in g else None))
    return build_complex(gens, _entries(doc["boundary"], "boundary"))


def load_morse_bott(source) -> MorseBottData:
    doc = _load_json(source)
    _check_keys(doc, {"components"}, {"cascades", "intra"}, "morse-bott file")
    comps = []
    for k, c in _records(doc, "components", "component %d",
                         {"id", "dim", "action", "rs_trans_doubled", "morse_points"}, set()):
        pts = [MorsePoint(_string(p["id"], "morse point %d.%d id" % (k, j)),
                          _integer(p["morse_index"], "morse_index"))
               for j, p in _records(c, "morse_points", "morse point %d.%%d" % k,
                                    {"id", "morse_index"}, set())]
        what = "component %d " % k
        comps.append(BottComponent(_string(c["id"], what + "id"), _integer(c["dim"], what + "dim"),
                                   _real(c["action"], what + "action"),
                                   _integer(c["rs_trans_doubled"], what + "rs_trans_doubled"),
                                   tuple(pts)))
    return MorseBottData(comps, _entries(doc.get("cascades", []), "cascades"),
                         _entries(doc.get("intra", []), "intra"))
