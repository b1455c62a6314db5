import json

import numpy as np
import pytest

from fcstates.cli import (
    main,
    matrix_from_json,
    matrix_to_json,
    parse_system,
    system_to_json,
)

from conftest import eij, pauli_channel


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


def test_analyze_swap(capsys, swap_path):
    assert main(["analyze", swap_path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ergodic"] is True
    assert doc["k"] == 2
    assert doc["chain_pure"] is False
    phases = sorted(p["phase"] for p in doc["peripheral"])
    assert phases == ["0/1", "1/2"]


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


def test_dilate(capsys, rank_one_path):
    assert main(["dilate", rank_one_path, "--level", "3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"level", "dimension", "isometry_residual", "completeness_residual"}
    assert doc["dimension"] == 2**3 * 2
    assert doc["isometry_residual"] <= 1e-9
    assert doc["completeness_residual"] <= 1e-9


def test_dual_swap(capsys, swap_path):
    assert main(["dual", swap_path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ergodic_match"] is True and doc["psp_match"] is True
    assert doc["double_dual"] <= 1e-9


def test_dual_rejects_non_faithful(capsys, rank_one_path):
    assert main(["dual", rank_one_path]) == 1


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
