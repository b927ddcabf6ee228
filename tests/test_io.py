"""Tests for serialization helpers."""

import json

import numpy as np
import pytest

from repro.cosim import CosimConfig
from repro.errors import ConfigurationError
from repro.flowcell.porous import PorousElectrodeSpec
from repro.geometry.floorplan import BlockKind
from repro.io import dumps, evaluation_record, load_json, save_json, to_jsonable


class TestToJsonable:
    def test_dataclass_roundtrip(self):
        spec = PorousElectrodeSpec()
        payload = to_jsonable(spec)
        assert payload["__type__"] == "PorousElectrodeSpec"
        assert payload["porosity"] == spec.porosity

    def test_nested_config(self):
        config = CosimConfig()
        payload = to_jsonable(config)
        assert payload["total_flow_ml_min"] == 676.0

    def test_numpy_array(self):
        assert to_jsonable(np.array([1.0, 2.0])) == [1.0, 2.0]

    def test_numpy_scalar(self):
        result = to_jsonable(np.float64(3.5))
        assert result == 3.5 and isinstance(result, float)

    def test_enum(self):
        assert to_jsonable(BlockKind.CORE) == "core"

    def test_dict_keys_coerced(self):
        assert to_jsonable({1: "a"}) == {"1": "a"}

    def test_unknown_type_rejected(self):
        with pytest.raises(ConfigurationError):
            to_jsonable(object())


class TestFiles:
    def test_save_and_load(self, tmp_path):
        path = save_json(PorousElectrodeSpec(), tmp_path / "spec.json")
        data = load_json(path)
        assert data["permeability_m2"] == pytest.approx(4.6e-10)

    def test_dumps_is_valid_json(self):
        text = dumps(CosimConfig())
        parsed = json.loads(text)
        assert parsed["operating_voltage_v"] == 1.0

    def test_dumps_numpy_bool_as_bool(self):
        from repro.io import csv_dumps

        records = [{"a": np.bool_(True), "b": np.bool_(False)}]
        assert json.loads(dumps(records)) == [{"a": True, "b": False}]
        assert csv_dumps(records).splitlines() == ["a,b", "True,False"]

    def test_deterministic_output(self):
        assert dumps(CosimConfig()) == dumps(CosimConfig())


class TestAtomicWrites:
    def test_write_text_atomic_roundtrip_and_parents(self, tmp_path):
        from repro.io import write_text_atomic

        target = tmp_path / "a" / "b" / "out.txt"
        assert write_text_atomic(target, "hello") == target
        assert target.read_text() == "hello"

    def test_no_tmp_residue(self, tmp_path):
        from repro.io import write_text_atomic

        write_text_atomic(tmp_path / "out.txt", "x")
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_save_json_creates_parents(self, tmp_path):
        path = save_json({"a": 1}, tmp_path / "nested" / "spec.json")
        assert load_json(path) == {"a": 1}

    def test_save_csv_bytes_match_csv_dumps(self, tmp_path):
        from repro.io import csv_dumps, save_csv

        records = [{"a": 1, "b": "x"}]
        path = save_csv(records, tmp_path / "deep" / "out.csv")
        written = path.read_bytes()
        assert written == csv_dumps(records).encode()
        # CRLF row terminators survive the atomic tmp-file hop.
        assert written == b"a,b\r\n1,x\r\n"


class TestEvaluationRecord:
    def test_record_structure(self):
        from repro.core.metrics import EnergyBalance
        from repro.core.system import SystemEvaluation

        evaluation = SystemEvaluation(
            array_ocv_v=1.648, array_current_a=5.99, array_power_w=5.99,
            vrm_efficiency=1.0, delivered_power_w=5.99, cache_demand_w=5.0,
            peak_temperature_c=40.7, coolant_outlet_rise_k=3.2,
            pressure_drop_pa=1.95e5, pressure_gradient_bar_cm=0.89,
            pumping_power_w=4.4, pdn_min_voltage_v=0.965,
            pdn_max_voltage_v=0.989, bright_utilization=1.0,
            baseline_utilization=0.87,
            energy_balance=EnergyBalance(5.99, 4.4),
        )
        record = evaluation_record(evaluation, label="nominal")
        assert record["label"] == "nominal"
        assert record["anchors"]["peak_temperature_paper_c"] == 41.0
        assert record["energy_balance"]["generated_w"] == pytest.approx(5.99)
        json.dumps(record)  # fully encodable
