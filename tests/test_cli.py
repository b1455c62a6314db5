import inspect
import functools
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import fcstates
import fcstates.chain
import fcstates.cli
import fcstates.classify
import fcstates.cpmap
import fcstates.modular
import fcstates.numerics
from fcstates import PopescuSystem
from fcstates.cli import (
    main,
    matrix_from_json,
    matrix_to_json,
    parse_system,
    system_to_json,
)
from fcstates.cpmap import RealTransfer
from fcstates.modular import DualSystem

from conftest import (
    ancilla,
    block_shift,
    direct_sum,
    eij,
    nonfaithful,
    pauli_channel,
    record_transfer_factorizations,
)


def write_system(tmp_path, system, name="sys.json"):
    path = tmp_path / name
    path.write_text(json.dumps(system_to_json(system)))
    return str(path)


@pytest.fixture()
def swap_path(tmp_path, swap2):
    return write_system(tmp_path, swap2, "swap.json")


@pytest.fixture()
def rank_one_path(tmp_path, rank_one2):
    return write_system(tmp_path, rank_one2, "rank1.json")


def test_matrix_round_trip_bit_exact():
    rng = np.random.default_rng(0)
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    back = matrix_from_json(json.loads(json.dumps(matrix_to_json(m))))
    assert np.array_equal(m, back)
    assert matrix_to_json(m) == [[[z.real, z.imag] for z in row] for row in m.tolist()]
    # signed zeros survive both ways
    m = np.array([[complex(-0.0, 0.0), complex(0.0, -0.0)]])
    back = matrix_from_json(json.loads(json.dumps(matrix_to_json(m))))
    assert np.array_equal(np.signbit(back.view(float)), [[True, False, False, True]])


def test_system_round_trip_bit_exact(averaging3):
    doc = json.loads(json.dumps(system_to_json(averaging3)))
    back = parse_system(doc)
    for a, b in zip(averaging3.operators, back.operators):
        assert np.array_equal(a, b)


def test_validate_ok(capsys, tmp_path, averaging3):
    path = write_system(tmp_path, averaging3)
    assert main(["validate", path]) == 0
    out = capsys.readouterr().out.strip()
    assert float(out) <= 1e-12


def test_validate_malformed_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["validate", str(path)]) == 2


def test_validate_file_that_is_not_utf8(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'\xff{"d": 2}')
    assert main(["validate", str(path)]) == 2


def test_validate_missing_field(tmp_path, capsys):
    path = tmp_path / "incomplete.json"
    path.write_text(json.dumps({"d": 2, "dim": 1}))
    assert main(["validate", str(path)]) == 2


def test_validate_invalid_system(tmp_path, capsys):
    doc = {
        "d": 2,
        "dim": 1,
        "operators": [[[[1.0, 0.0]]], [[[1.0, 0.0]]]],
    }
    path = tmp_path / "invalid.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 1


_SITE_FACTOR = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]


def _swap2_entry(entry):
    # the operators of swap2 with the (0, 0) entry of V_1 replaced
    zero, one = [0.0, 0.0], [1.0, 0.0]
    return {"operators": [[[entry, one], [zero, zero]], [[zero, zero], [one, zero]]]}


@pytest.mark.parametrize(
    "system_fields, observable",
    [
        ({"operators": 5}, None),
        ({"dim": None}, None),
        ({"dim": float("inf")}, None),
        ({"tolerances": [1]}, None),
        ({"d": "two"}, None),
        ({}, {"factors": 5}),
        ({}, {"start_site": None, "factors": [_SITE_FACTOR]}),
        ({}, {"start_site": "x", "factors": [_SITE_FACTOR]}),
        # an integer field takes a JSON integer only, never a truncated float,
        # a numeric string or a boolean
        ({"dim": 2.7}, None),
        ({"dim": "2"}, None),
        ({"d": 2.0}, None),
        ({}, {"start_site": 1.9, "factors": [_SITE_FACTOR]}),
        ({}, {"start_site": "3", "factors": [_SITE_FACTOR]}),
        ({}, {"start_site": True, "factors": [_SITE_FACTOR]}),
        # a matrix entry is a pair of JSON numbers: a third number is not
        # dropped, and an integer too large for a float is no traceback
        (_swap2_entry([0.0, 0.0, 7.0]), None),
        (_swap2_entry([0.0]), None),
        (_swap2_entry("0"), None),
        (_swap2_entry([10**400, 0]), None),
        ({}, {"factors": [[[[1.0, 0.0, 7.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]]}),
        # nor is a boolean, which numpy would read next to numbers as 0 or 1
        (_swap2_entry([False, 0.0]), None),
        ({}, {"factors": [[[[True, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]]}),
    ],
    ids=["operators_5", "dim_null", "dim_infinite", "tolerances_list", "d_two", "factors_5",
         "start_site_null", "start_site_x", "dim_2.7", "dim_string", "d_float",
         "start_site_1.9", "start_site_string", "start_site_true", "entry_3_numbers",
         "entry_1_number", "entry_string", "entry_huge_integer", "factor_entry_3_numbers",
         "entry_boolean", "factor_entry_boolean"],
)
def test_malformed_input_is_a_parse_error(capsys, tmp_path, swap2, system_fields, observable):
    # a field of the wrong kind exits 2 with one line on stderr, never a
    # traceback or the domain exit code 1
    path = tmp_path / "sys.json"
    path.write_text(json.dumps({**system_to_json(swap2), **system_fields}))
    argv = ["chain-eval", str(path), json.dumps(observable)] if observable else ["validate", str(path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def _scaled_path(tmp_path, excess):
    # random_system(2, 4, 5) with sum V_i V_i* = (1 + excess) I
    ops = [v * np.sqrt(1 + excess) for v in fcstates.random_system(2, 4, 5).operators]
    return write_system(tmp_path, PopescuSystem(tuple(ops)))


@pytest.mark.parametrize("command", ["validate", "analyze", "chain-eval", "cluster", "dual"])
def test_a_system_that_validates_is_analyzed(capsys, tmp_path, command):
    # residuals 4e-10 and 9e-10 of sum V_i V_i* = I pass validation
    # (tolerance 1e-9), so no later stage may reject the system as not
    # unital, nor its invariant state as not invariant
    spec = json.dumps({"start_site": 1, "factors": [_SITE_FACTOR]})
    extra = {"chain-eval": [spec], "cluster": [spec, spec]}.get(command, [])
    for excess in (4e-10, 9e-10):
        assert main([command, _scaled_path(tmp_path, excess), *extra]) == 0, excess
        assert capsys.readouterr().err == ""


@pytest.mark.parametrize("factor, code", [(0.5, 0), (2.0, 3)])
def test_invariant_state_residual_gate(capsys, monkeypatch, tmp_path, factor, code):
    # the state's invariance residual may reach 1e-10 n plus the validation
    # residual of the system; the predual's fixed vector is moved off its
    # kernel until the residual is factor times that bound
    ops = [v * np.sqrt(1 + 9e-10) for v in fcstates.random_system(2, 4, 5).operators]
    system = PopescuSystem(tuple(ops))
    gate = 1e-10 * system.n + fcstates.validate(system)
    exact = RealTransfer.fixed_kernels
    rng = np.random.default_rng(3)

    def moved(form, tol):
        fixed, dual = exact(form, tol)
        h = dual[:, 0]
        w = rng.standard_normal(h.size)
        w -= (w @ h) / (h @ h) * h
        w *= np.linalg.norm(h) / np.linalg.norm(w)
        # the state is h over its trace (the sum of its diagonal coordinates)
        # so the residual of the moved vector, scaled alike, is linear in eps
        per_unit = np.linalg.norm(form.matrix.T @ w - w) / np.sum(h[: form.n])
        eps = factor * gate / per_unit
        return fixed, (h + eps * w)[:, None]

    monkeypatch.setattr(RealTransfer, "fixed_kernels", moved)
    assert main(["analyze", write_system(tmp_path, system)]) == code
    err = capsys.readouterr().err
    assert ("invariant state has residual" in err) is (code == 3)


@pytest.mark.parametrize("command", ["analyze", "dual"])
@pytest.mark.parametrize(
    "excess, missed",
    [
        # 1 + 2e-9 lies off the circle at --tol-peripheral 1e-9: no peripheral value
        (2e-9, "no eigenvalue lies within 1.0e-09 of the unit circle"),
        # 1 + 2e-8 lies outside the kernel of S - I at 1e-8: no invariant state
        (2e-8, "S - I has no kernel at threshold 1.0e-08"),
    ],
)
def test_a_missing_value_one_exits_numerical(capsys, tmp_path, command, excess, missed):
    # a unital map has the value 1; a system unital only to the validation
    # residual can lose it, which is a numerical failure with one line on
    # stderr naming the tolerance and the residual, never a NaN state or an
    # empty peripheral set
    path = _scaled_path(tmp_path, excess)
    assert main(["--tol-validate", "1e-6", "validate", path]) == 0
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["--tol-validate", "1e-6", command, path]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert missed in err and f"unital only to {excess:.3e}" in err


def test_dual_accepts_the_state_that_invariant_state_accepts(capsys, tmp_path):
    # the invariant state of a system unital only to 5e-9 has residual
    # 1.25e-9, inside the bound of invariant_state, which the GNS
    # construction shares; at --tol-peripheral 1e-8 the value 1 + 5e-9 is
    # on the circle
    path = _scaled_path(tmp_path, 5e-9)
    assert main(["--tol-validate", "1e-6", "--tol-peripheral", "1e-8", "dual", path]) == 0
    assert capsys.readouterr().err == ""


def test_analyze_swap(capsys, swap_path):
    assert main(["analyze", swap_path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ergodic"] is True
    assert doc["k"] == 2
    assert doc["chain_pure"] is False
    phases = sorted(p["phase"] for p in doc["peripheral"])
    assert phases == ["0/1", "1/2"]


def _analyzed_phases(capsys, tmp_path, system):
    assert main(["analyze", write_system(tmp_path, system)]) == 0
    return [p["phase"] for p in json.loads(capsys.readouterr().out)["peripheral"]]


def test_analyze_reports_no_phase_for_a_value_that_is_not_a_root_of_unity(capsys, tmp_path):
    # sigma(X) = U X U* has the peripheral values 1 (twice) and
    # exp(+-i pi sqrt 2), whose phase 0.7071 is no fraction of denominator
    # <= n^2 = 4; snapped without a check it read 2/3 and 1/3
    u = np.diag([1.0, np.exp(1j * np.pi * np.sqrt(2))])
    system = PopescuSystem.from_operators([u / np.sqrt(2), u / np.sqrt(2)])
    assert _analyzed_phases(capsys, tmp_path, system) == ["0/1", None, None]


def test_analyze_reports_the_phases_of_a_direct_sum_of_block_shifts(capsys, tmp_path):
    system = direct_sum(block_shift(2, 2, 2, 3), block_shift(3, 2, 1, 4))
    assert _analyzed_phases(capsys, tmp_path, system) == ["0/1", "2/3", "1/3", "1/2"]


def test_analyze_rank_one(capsys, rank_one_path):
    assert main(["analyze", rank_one_path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["k"] == 1 and doc["chain_pure"] is True
    assert doc["invariant_state"]["support_rank"] == 1


def test_analyze_averaging(capsys, tmp_path, averaging3):
    path = write_system(tmp_path, averaging3)
    assert main(["analyze", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ergodic"] is False
    assert doc["k"] == "undefined"


ANALYZE_KEYS = [
    "tool", "version", "input_sha256", "validate_residual", "residuals", "ergodic",
    "od_state_pure", "invariant_state", "compressed_ergodic", "peripheral", "k",
    "chain_hypotheses", "chain_pure", "chain_factor", "notes",
]


@pytest.mark.parametrize("kind", ["ergodic", "non_ergodic_factor", "non_factor"])
def test_analyze_json_keys(capsys, tmp_path, swap2, averaging3, kind):
    # every key, nested ones too, in the order printed; the report types hold
    # each verdict once, and the keys that restate a theorem are written from it
    system = {"ergodic": swap2, "non_ergodic_factor": ancilla(swap2, 2), "non_factor": averaging3}
    assert main(["analyze", write_system(tmp_path, system[kind])]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert list(doc) == ANALYZE_KEYS
    assert list(doc["residuals"]) == ["validate", "state_invariance"]
    assert list(doc["invariant_state"]) == ["rho", "support_rank", "faithful"]
    assert doc["peripheral"] and all(list(p) == ["value", "phase"] for p in doc["peripheral"])
    assert list(doc["chain_hypotheses"]) == ["M_is_factor", "fixed_equals_M_prime", "phi_faithful"]


def test_analyze_deterministic(capsys, swap_path):
    assert main(["analyze", swap_path]) == 0
    first = capsys.readouterr().out
    assert main(["analyze", swap_path]) == 0
    second = capsys.readouterr().out
    assert first == second


def test_analyze_multiplicity_mismatch_exits_numerical(capsys, tmp_path):
    path = write_system(tmp_path, pauli_channel(3e-9))
    assert main(["analyze", path]) == 3
    doc = json.loads(capsys.readouterr().out)
    assert list(doc) == ["tool", "version", "input_sha256", "error", "notes"]
    assert doc["error"] == "numerical-health failure"
    assert "Jordan" in doc["notes"][0]


def test_chain_eval(capsys, swap_path):
    spec = json.dumps(
        {"start_site": 1, "factors": [matrix_to_json(eij(0, 0, 2)), matrix_to_json(eij(1, 1, 2))]}
    )
    assert main(["chain-eval", swap_path, spec]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert abs(complex(doc["value"][0], doc["value"][1]) - 0.5) <= 1e-12


def test_cluster_swap_constant(capsys, swap_path):
    spec = json.dumps({"start_site": 1, "factors": [matrix_to_json(eij(0, 0, 2))]})
    assert main(["cluster", swap_path, spec, spec, "--n-max", "12"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["decayed"] is False
    assert all(abs(v - 0.25) <= 1e-10 for v in doc["defects"][1:])


def test_cluster_builds_one_transfer_matrix(capsys, monkeypatch, swap_path):
    # the invariant state and the clustering defects step one real transfer
    # matrix, and sigma is built nowhere else
    forms, sigmas = [], []
    build = fcstates.cpmap.real_transfer
    sigma = fcstates.cpmap.sigma_matrix

    def building(system):
        forms.append(system)
        return build(system)

    def counting(system):
        sigmas.append(len(forms))
        return sigma(system)

    monkeypatch.setattr(fcstates.cpmap, "real_transfer", building)
    monkeypatch.setattr(fcstates.cpmap, "sigma_matrix", counting)
    spec = json.dumps({"start_site": 1, "factors": [matrix_to_json(eij(0, 0, 2))]})
    assert main(["cluster", swap_path, spec, spec, "--n-max", "12"]) == 0
    assert len(forms) == 1
    assert sigmas == [1]
    assert json.loads(capsys.readouterr().out)["decayed"] is False


@pytest.mark.parametrize("command", ["chain-eval", "cluster"])
def test_ergodic_state_takes_one_solve(monkeypatch, tmp_path, command):
    # the invariant state of an ergodic map is one LU solve of the bordered
    # n^2 x n^2 matrix; its fixed space is the kernel of the 1 x 1 Ritz
    # matrix S - I, and no other n^2 x n^2 matrix is factored
    path = write_system(tmp_path, fcstates.random_system(2, 6, 5))
    calls = record_transfer_factorizations(monkeypatch)
    spec = json.dumps({"start_site": 1, "factors": [matrix_to_json(eij(0, 1, 2))]})
    args = [spec] if command == "chain-eval" else [spec, spec, "--n-max", "12"]
    assert main([command, path, *args]) == 0
    assert calls == [("real_transfer", 36), ("solve", 36)]


def test_chain_eval_rejects_bad_factor_shape(capsys, swap_path):
    spec = json.dumps({"start_site": 1, "factors": [matrix_to_json(np.eye(3))]})
    assert main(["chain-eval", swap_path, spec]) == 1
    assert capsys.readouterr().out == ""


def test_cluster_rejects_negative_n_max(capsys, swap_path):
    spec = json.dumps({"start_site": 1, "factors": [matrix_to_json(eij(0, 0, 2))]})
    assert main(["cluster", swap_path, spec, spec, "--n-max", "-1"]) == 1
    assert capsys.readouterr().out == ""


def test_dilate(capsys, rank_one_path):
    assert main(["dilate", rank_one_path, "--level", "3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"level", "dimension", "isometry_residual", "completeness_residual"}
    assert doc["dimension"] == 2**3 * 2
    assert doc["isometry_residual"] <= 1e-9
    assert doc["completeness_residual"] <= 1e-9


def test_dual_swap(capsys, monkeypatch, swap_path):
    # the residuals and the spectral comparison read one dual system, and
    # the invariant state and the spectral comparison one transfer map of
    # the system, with one bordered solve and one eigensolve: the dual's
    # peripheral spectrum is read from the system's, so the dual parameter
    # system is never built
    builds, loaded, forms, solved = [], [], [], []
    original = fcstates.modular.dual_system

    def counted(*args, **kwargs):
        builds.append(args)
        return original(*args, **kwargs)

    for module in (fcstates.cli, fcstates.modular):
        monkeypatch.setattr(module, "dual_system", counted, raising=False)
    load = fcstates.cli.load_system

    def loading(*args, **kwargs):
        out = load(*args, **kwargs)
        loaded.append(out[0])
        return out

    monkeypatch.setattr(fcstates.cli, "load_system", loading)
    build = fcstates.cpmap.real_transfer

    def building(system):
        forms.append(system)
        return build(system)

    monkeypatch.setattr(fcstates.cpmap, "real_transfer", building)
    factored = record_transfer_factorizations(monkeypatch)
    eig = fcstates.numerics.eig

    def solving(*args, **kwargs):
        solved.append(args[0].shape)
        return eig(*args, **kwargs)

    for module in (fcstates, fcstates.numerics, fcstates.cpmap, fcstates.classify, fcstates.modular):
        monkeypatch.setattr(module, "eig", solving)

    def never(self):
        raise AssertionError("the dual parameter system was built")

    monkeypatch.setattr(DualSystem, "parameter_system", never)
    assert main(["dual", swap_path]) == 0
    assert len(builds) == 1
    (system,) = loaded
    assert sum(s is system for s in forms) == 1
    # n^2 = 4 does not exceed the first sample width, 8, so the Ritz
    # subspace is everything (p = n^2) and eig runs on sigma itself; its
    # kernels are those of S - I for the state, and of S - t at the two
    # peripheral values, the first of which, t = 1, gives the fixed space
    assert solved == [(4, 4)]
    assert factored == [
        ("real_transfer", 4), ("svd", 4), ("solve", 4), ("eig", 4), ("svd", 4), ("svd", 4),
    ]
    doc = json.loads(capsys.readouterr().out)
    assert list(doc) == [
        "completeness", "double_dual", "dual_invariance", "vector_consistency", "commutation",
        "parameter_isometry", "predual_invariance", "ergodic_match", "psp_match",
        "peripheral", "dual_peripheral",
    ]
    assert doc["ergodic_match"] is True and doc["psp_match"] is True
    # the dual generators are right multiplications, which commute with
    # left multiplication exactly
    assert doc["commutation"] == 0.0
    assert doc["double_dual"] <= 1e-9
    # completeness is the parameter isometry residual, and each value moves
    # to its conjugate
    assert doc["parameter_isometry"] == doc["completeness"]
    assert doc["dual_peripheral"] == [[re, -im] for re, im in doc["peripheral"]]


@pytest.mark.parametrize("command", ["analyze", "dual"])
@pytest.mark.parametrize("tol", ["0.6", "0", "0.5"])
def test_a_peripheral_tolerance_outside_its_range_exits_one(capsys, tmp_path, command, tol):
    # the certificate serves a tolerance in (0, 1/2), for analyze and dual
    # alike
    path = write_system(tmp_path, fcstates.random_system(2, 4, 3))
    assert main([command, path]) == 0
    capsys.readouterr()
    assert main(["--tol-peripheral", tol, command, path]) == 1
    assert "must lie in (0, 1/2)" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["analyze", "dual"])
def test_the_spectral_set_tolerance_sets_the_kernels(capsys, tmp_path, command):
    # a kernel threshold below roundoff misses the value 1 that eig finds,
    # for dual as for analyze
    path = write_system(tmp_path, fcstates.random_system(2, 4, 1))
    assert main(["--tol-spectral-set", "1e-18", command, path]) == 3
    assert "geometric 0, algebraic 1" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["analyze", "dual"])
@pytest.mark.parametrize(
    "make, p", [(lambda: fcstates.random_system(2, 4, 3), 1), (lambda: block_shift(2, 2, 2, 5), 2)],
    ids=["random(2,4)", "block_shift(2,2,2)"],
)
def test_one_eig_on_the_ritz_matrix(capsys, monkeypatch, tmp_path, command, make, p):
    # one eig per op, on the p x p Ritz matrix of the 16 x 16 map: p is the
    # number of values on the circle, 1 and 2 here
    path = write_system(tmp_path, make())
    solved = []
    eig = fcstates.numerics.eig

    def solving(*args, **kwargs):
        solved.append(args[0].shape)
        return eig(*args, **kwargs)

    for module in (fcstates, fcstates.numerics, fcstates.cpmap, fcstates.classify, fcstates.modular):
        monkeypatch.setattr(module, "eig", solving)
    assert main([command, path]) == 0
    assert solved == [(p, p)]


def test_main_builds_its_parser_once(capsys, monkeypatch, swap_path):
    built = []
    build = fcstates.cli.build_parser

    def building():
        built.append(1)
        return build()

    monkeypatch.setattr(fcstates.cli, "build_parser", building)
    fcstates.cli._parser.cache_clear()
    assert main(["validate", swap_path]) == 0
    assert main(["analyze", swap_path]) == 0
    assert len(built) == 1


def test_analyze_validates_each_system_once(capsys, monkeypatch, tmp_path):
    # a map that is not ergodic, with a state that is not faithful, is
    # analyzed on itself and its commutant on its compression; each residual
    # of the defining relation is computed once
    path = write_system(tmp_path, ancilla(nonfaithful(2, 3, 2, 22), 2))
    computed = []
    residual = PopescuSystem.residual.func

    def computing(system):
        computed.append(system.n)
        return residual(system)

    prop = functools.cached_property(computing)
    prop.__set_name__(PopescuSystem, "residual")
    monkeypatch.setattr(PopescuSystem, "residual", prop)
    assert main(["analyze", path]) == 0
    assert sorted(computed) == [6, 10]


@pytest.mark.parametrize(
    "command, make, n",
    [
        ("analyze", lambda: fcstates.random_system(2, 5, 31), 5),
        ("analyze", lambda: ancilla(nonfaithful(2, 3, 2, 22), 2), 10),
        ("dual", lambda: fcstates.random_system(2, 5, 31), 5),
    ],
    ids=["analyze", "analyze_nonfaithful_x_I2", "dual"],
)
def test_each_op_takes_one_eigh_of_its_state(capsys, monkeypatch, tmp_path, command, make, n):
    # the state is held as its eigendecomposition: rho, its support basis
    # (which the compression takes) and rho^{+-1/2} are all read from the
    # one eigh that invariant_state takes
    path = write_system(tmp_path, make())
    sizes, eigh = [], np.linalg.eigh

    def counting(a, *args, **kwargs):
        sizes.append(a.shape)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    assert main([command, path]) == 0
    assert sizes == [(n, n)]


def test_dual_rejects_non_faithful(capsys, rank_one_path):
    # the GNS construction decides faithfulness, and names the support rank
    assert main(["dual", rank_one_path]) == 1
    assert "support rank 1 of 2" in capsys.readouterr().err


def test_intertwine(capsys, swap_path, rank_one_path):
    assert main(["intertwine", swap_path, rank_one_path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["dimension"] == 0


def test_random_emits_valid_file(capsys, tmp_path):
    assert main(["random", "2", "3", "42"]) == 0
    text = capsys.readouterr().out
    path = tmp_path / "rand.json"
    path.write_text(text)
    assert main(["validate", str(path)]) == 0
    capsys.readouterr()
    # deterministic in the seed
    assert main(["random", "2", "3", "42"]) == 0
    assert capsys.readouterr().out == text


def test_missing_file_is_parse_error():
    assert main(["validate", "/nonexistent/nowhere.json"]) == 2


def test_observable_spec_from_file(tmp_path, swap_path):
    spec_path = tmp_path / "obs.json"
    spec_path.write_text(
        json.dumps({"start_site": 1, "factors": [matrix_to_json(eij(0, 0, 2))]})
    )
    assert main(["chain-eval", swap_path, str(spec_path)]) == 0


def test_cluster_rejects_bad_observable(swap_path):
    assert main(["cluster", swap_path, '{"factors": "nope"}', '{"factors": []}']) == 2


def test_analyze_reports_residual_diagnostics(capsys, swap_path):
    assert main(["analyze", swap_path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["residuals"]["validate"] <= 1e-12
    assert doc["residuals"]["state_invariance"] <= 1e-10


def test_import_loads_no_scipy():
    # importing scipy submodules adds a large share of a fresh process's
    # start-up time; the package needs none of them
    src = str(Path(fcstates.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import sys, fcstates; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_default_tolerances_are_the_named_constants():
    # each default tolerance is defined once: the parser and the functions
    # read the constants of the module that owns them
    from fcstates.chain import DEFAULT_DECAY_TOL, DEFAULT_N_MAX, clustering_defect
    from fcstates.cli import build_parser, load_system, parse_system
    from fcstates.cpmap import DEFAULT_PERIPHERAL_TOL, DEFAULT_SET_TOL
    from fcstates.modular import compare_duals
    from fcstates.popescu import DEFAULT_VALIDATE_TOL

    args = build_parser().parse_args(["cluster", "p", "x", "y"])
    assert (args.tol_validate, args.tol_peripheral, args.tol_spectral_set) == (
        DEFAULT_VALIDATE_TOL, DEFAULT_PERIPHERAL_TOL, DEFAULT_SET_TOL)
    assert (args.n_max, args.decay_tol) == (DEFAULT_N_MAX, DEFAULT_DECAY_TOL)

    def defaults(fn):
        return {k: p.default for k, p in inspect.signature(fn).parameters.items()
                if p.default is not inspect.Parameter.empty}

    assert defaults(parse_system) == defaults(load_system) == {"tol_validate": DEFAULT_VALIDATE_TOL}
    for fn in (fcstates.classify_od, fcstates.classify_chain, compare_duals):
        assert defaults(fn) == {"tol": DEFAULT_SET_TOL, "tol_peripheral": DEFAULT_PERIPHERAL_TOL}
    assert defaults(clustering_defect) == {"n_max": DEFAULT_N_MAX, "tol": DEFAULT_DECAY_TOL}
