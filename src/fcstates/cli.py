"""Command-line interface: JSON system files in, machine-readable reports out.

File format (SystemFile): a JSON object with integer fields ``d`` and
``dim``, and ``operators``: a list of d matrices, each a row-major list of
rows whose entries are two-element arrays [re, im]. Optional fields:
``tolerances`` (object) and ``seed`` (provenance of generated files).

Reports echo a SHA-256 hash of the input bytes and the tool version, and
are deterministic for identical input and tolerances.

Exit codes: 0 success, 1 domain/validation failure, 2 I/O or parse
failure, 3 numerical-health failure.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
from itertools import chain

import numpy as np

from . import __version__
from .chain import DEFAULT_DECAY_TOL, DEFAULT_N_MAX, LocalObservable, clustering_defect, expectation
from .classify import ClassificationReport, classify_chain
from .cpmap import (
    DEFAULT_PERIPHERAL_TOL,
    DEFAULT_SET_TOL,
    invariance_residual,
    invariant_state,
    mixed_fixed_points,
    root_of_unity_phase,
)
from .dilation import build, cuntz_residuals
from .errors import NumericalHealthError, ValidationError
from .modular import compare_duals, dual_system, verify_duality
from .popescu import DEFAULT_VALIDATE_TOL, PopescuSystem, random_system, validate

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_PARSE = 2
EXIT_NUMERICAL = 3


class SchemaError(ValueError):
    """The file is readable JSON but does not match the documented schema."""


# ----------------------------------------------------------------------
# serialization
# ----------------------------------------------------------------------

def _complex_pair(z: complex) -> list[float]:
    return [float(np.real(z)), float(np.imag(z))]


def matrix_to_json(m: np.ndarray) -> list[list[list[float]]]:
    return np.stack([m.real, m.imag], -1).tolist()


def matrix_from_json(rows, shape_name: str = "matrix") -> np.ndarray:
    """Rows of [re, im] pairs of JSON numbers, or a :class:`SchemaError`; the
    float pairs are viewed as complex, so every bit, -0.0 too, is kept. A
    boolean is not a number, though numpy would read one next to numbers
    as 0 or 1."""
    try:
        pairs = np.asarray(rows)
    except ValueError as exc:  # ragged nesting
        raise SchemaError(f"malformed {shape_name}: {exc}") from exc
    if pairs.ndim != 3 or pairs.shape[2] != 2 or pairs.dtype.kind not in "iuf":
        raise SchemaError(f"malformed {shape_name}: not rows of [re, im] number pairs")
    if bool in set(map(type, chain.from_iterable(chain.from_iterable(rows)))):
        raise SchemaError(f"malformed {shape_name}: a boolean where a number belongs")
    return np.ascontiguousarray(pairs, dtype=float).view(complex)[..., 0]


def system_to_json(system: PopescuSystem, seed: int | None = None) -> dict:
    doc = {
        "d": system.d,
        "dim": system.n,
        "operators": [matrix_to_json(v) for v in system.operators],
    }
    if seed is not None:
        doc["seed"] = seed
    return doc


def _json_object(value) -> dict:
    if not isinstance(value, dict):
        raise TypeError("not a JSON object")
    return value


def _json_list(value) -> list:
    if not isinstance(value, list):
        raise TypeError("not a JSON list")
    return value


def _integer(value) -> int:
    """A JSON integer; a float, a string or a boolean is not one."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError("not an integer")
    return value


def _field(doc: dict, key: str, convert, default=None):
    """doc[key], or the default when it is absent, passed through convert;
    a value that convert rejects is a :class:`SchemaError` naming the field."""
    value = doc.get(key, default)
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(f"malformed '{key}' field: {value!r:.60}") from exc


def parse_system(doc: dict, tol_validate: float = DEFAULT_VALIDATE_TOL) -> PopescuSystem:
    if not isinstance(doc, dict):
        raise SchemaError("system file does not hold a JSON object")
    for key in ("d", "dim", "operators"):
        if key not in doc:
            raise SchemaError(f"system file is missing the '{key}' field")
    d, n = _field(doc, "d", _integer), _field(doc, "dim", _integer)
    ops = [matrix_from_json(rows, "operator") for rows in _field(doc, "operators", _json_list)]
    if len(ops) != d:
        raise SchemaError(f"expected {d} operators, found {len(ops)}")
    for v in ops:
        if v.shape != (n, n):
            raise SchemaError(f"operator has shape {v.shape}, expected ({n}, {n})")
    tols = _field(doc, "tolerances", _json_object, {})
    tol = _field(tols, "validate", float, tol_validate)
    return PopescuSystem.from_operators(ops, tol=tol)


def load_system(path: str, tol_validate: float = DEFAULT_VALIDATE_TOL) -> tuple[PopescuSystem, bytes]:
    with open(path, "rb") as fh:
        raw = fh.read()
    doc = json.loads(raw.decode("utf-8"))
    return parse_system(doc, tol_validate), raw


def parse_observable(spec: str) -> LocalObservable:
    """Observable spec: inline JSON or a path to a JSON file.

    Format: {"start_site": s, "factors": [matrix, ...]} with matrices in
    the same [re, im] encoding as system files. Gaps between sites must be
    written as explicit identity factors.
    """
    text = spec
    if not spec.lstrip().startswith("{"):
        with open(spec, "r", encoding="utf-8") as fh:
            text = fh.read()
    doc = json.loads(text)
    if not isinstance(doc, dict) or "factors" not in doc:
        raise SchemaError("observable spec is not a JSON object with a 'factors' field")
    factors = tuple(matrix_from_json(rows, "factor") for rows in _field(doc, "factors", _json_list))
    return LocalObservable(_field(doc, "start_site", _integer, 1), factors)


def report_to_json(report: ClassificationReport, system: PopescuSystem, raw: bytes) -> dict:
    peripheral = []
    for z in report.peripheral:
        # a value that is not a root of unity of order <= n^2 has phase null
        phase = root_of_unity_phase(z, system.n**2)
        text = None if phase is None else f"{phase.numerator}/{phase.denominator}"
        peripheral.append({"value": _complex_pair(z), "phase": text})
    # ergodicity is purity on O_d; Fix(sigma) = M' and a faithful state hold
    # on the support of the state; when M is a factor, chain factoriality is purity
    factor = report.m_is_factor
    return {
        "tool": "fcstates",
        "version": __version__,
        "input_sha256": hashlib.sha256(raw).hexdigest(),
        "validate_residual": report.validate_residual,
        "residuals": {
            "validate": report.validate_residual,
            "state_invariance": invariance_residual(system, report.invariant_state.rho),
        },
        "ergodic": report.ergodic,
        "od_state_pure": report.ergodic,
        "invariant_state": {
            "rho": matrix_to_json(report.invariant_state.rho),
            "support_rank": report.invariant_state.rank,
            "faithful": report.invariant_state.faithful,
        },
        "compressed_ergodic": True if report.ergodic else None,
        "peripheral": peripheral,
        "k": report.k if report.k is not None else "undefined",
        "chain_hypotheses": (
            None
            if factor is None
            else {"M_is_factor": factor, "fixed_equals_M_prime": True, "phi_faithful": True}
        ),
        "chain_pure": report.chain_pure,
        "chain_factor": report.chain_pure if factor else None,
        "notes": list(report.notes),
    }


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------

def _cmd_validate(args) -> int:
    system, _ = load_system(args.path, args.tol_validate)
    residual = validate(system)
    print(f"{residual:.6e}")
    return EXIT_OK


def _cmd_analyze(args) -> int:
    system, raw = load_system(args.path, args.tol_validate)
    try:
        report = classify_chain(
            system, tol=args.tol_spectral_set, tol_peripheral=args.tol_peripheral
        )
    except NumericalHealthError as exc:
        # still emit a (partial) machine-readable document carrying the failure
        doc = {
            "tool": "fcstates",
            "version": __version__,
            "input_sha256": hashlib.sha256(raw).hexdigest(),
            "error": "numerical-health failure",
            "notes": [str(exc)],
        }
        print(json.dumps(doc, indent=2))
        print(f"numerical-health failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    print(json.dumps(report_to_json(report, system, raw), indent=2))
    return EXIT_OK


def _cmd_chain_eval(args) -> int:
    system, _ = load_system(args.path, args.tol_validate)
    state = invariant_state(system)
    obs = parse_observable(args.observable)
    value = expectation(system, state, obs)
    print(json.dumps({"value": _complex_pair(value)}))
    return EXIT_OK


def _cmd_cluster(args) -> int:
    system, _ = load_system(args.path, args.tol_validate)
    state = invariant_state(system)
    x = parse_observable(args.x)
    y = parse_observable(args.y)
    rep = clustering_defect(system, state, x, y, n_max=args.n_max, tol=args.decay_tol)
    print(
        json.dumps(
            {
                "defects": [float(v) for v in rep.defects],
                "decayed": rep.decayed,
                "tol": rep.tol,
            }
        )
    )
    return EXIT_OK


def _cmd_dilate(args) -> int:
    system, _ = load_system(args.path, args.tol_validate)
    dil = build(system, args.level)
    res = cuntz_residuals(dil)
    print(
        json.dumps(
            {
                "level": args.level,
                "dimension": dil.dim,
                "isometry_residual": res.isometry_residual,
                "completeness_residual": res.completeness_residual,
            }
        )
    )
    return EXIT_OK


def _cmd_dual(args) -> int:
    system, _ = load_system(args.path, args.tol_validate)
    dual = dual_system(system, invariant_state(system))
    rep = verify_duality(dual)
    cmp_ = compare_duals(dual, args.tol_spectral_set, args.tol_peripheral)
    # completeness is the parameter isometry residual (verify_duality); the
    # dual generators are right multiplications, which commute with left
    # multiplication exactly (fcstates.modular); and compare_duals returns
    # only when the dual agrees on ergodicity and on the peripheral set,
    # each value moving to its conjugate
    print(
        json.dumps(
            {
                "completeness": rep.completeness,
                "double_dual": rep.double_dual,
                "dual_invariance": rep.dual_invariance,
                "vector_consistency": rep.vector_consistency,
                "commutation": 0.0,
                "parameter_isometry": rep.completeness,
                "predual_invariance": rep.predual_invariance,
                "ergodic_match": True,
                "psp_match": True,
                "peripheral": [_complex_pair(z) for z in cmp_.peripheral],
                "dual_peripheral": [_complex_pair(z.conjugate()) for z in cmp_.peripheral],
            }
        )
    )
    return EXIT_OK


def _cmd_intertwine(args) -> int:
    sys_w, _ = load_system(args.path_w, args.tol_validate)
    sys_v, _ = load_system(args.path_v, args.tol_validate)
    sub = mixed_fixed_points(sys_w, sys_v)
    print(json.dumps({"dimension": sub.dim}))
    return EXIT_OK


def _cmd_random(args) -> int:
    system = random_system(args.d, args.n, args.seed)
    print(json.dumps(system_to_json(system, seed=args.seed), indent=2))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fcstates",
        description="Spectral classification of finitely correlated states",
    )
    parser.add_argument("--tol-validate", type=float, default=DEFAULT_VALIDATE_TOL)
    parser.add_argument("--tol-peripheral", type=float, default=DEFAULT_PERIPHERAL_TOL)
    parser.add_argument("--tol-spectral-set", type=float, default=DEFAULT_SET_TOL)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check the defining relation of a system file")
    p.add_argument("path")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("analyze", help="full classification report")
    p.add_argument("path")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("chain-eval", help="expectation of a local chain observable")
    p.add_argument("path")
    p.add_argument("observable", help="observable spec (inline JSON or path)")
    p.set_defaults(func=_cmd_chain_eval)

    p = sub.add_parser("cluster", help="two-point clustering defect sequence")
    p.add_argument("path")
    p.add_argument("x", help="observable spec (inline JSON or path)")
    p.add_argument("y", help="observable spec (inline JSON or path)")
    p.add_argument("--n-max", type=int, default=DEFAULT_N_MAX)
    p.add_argument("--decay-tol", type=float, default=DEFAULT_DECAY_TOL)
    p.set_defaults(func=_cmd_cluster)

    p = sub.add_parser("dilate", help="truncated dilation dimension and residuals")
    p.add_argument("path")
    p.add_argument("--level", type=int, default=3)
    p.set_defaults(func=_cmd_dilate)

    p = sub.add_parser("dual", help="dual-system residuals and spectral matches")
    p.add_argument("path")
    p.set_defaults(func=_cmd_dual)

    p = sub.add_parser("intertwine", help="dimension of the intertwiner space of two systems")
    p.add_argument("path_w")
    p.add_argument("path_v")
    p.set_defaults(func=_cmd_intertwine)

    p = sub.add_parser("random", help="emit a random system file (deterministic in seed)")
    p.add_argument("d", type=int)
    p.add_argument("n", type=int)
    p.add_argument("seed", type=int)
    p.set_defaults(func=_cmd_random)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # parsing leaves the parser unchanged, so one serves every call of main
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, SchemaError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except NumericalHealthError as exc:
        print(f"numerical-health failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValidationError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    raise SystemExit(main())
