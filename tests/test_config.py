import json

import numpy as np
import pytest

from gmmadapt.config import RunConfig, default_config, load_config, resolve_translation
from gmmadapt.errors import ConfigError


class TestDefaults:
    def test_default_config_is_valid_opda_task(self):
        cfg = default_config()
        assert cfg.shift.kind == "OPDA"
        assert (cfg.shift.n_shared, cfg.shift.n_source_private,
                cfg.shift.n_target_private) == (6, 3, 3)
        assert (cfg.fd, cfg.fd_r, cfg.n_b) == (256, 64, 64)
        assert (cfg.p_reject, cfg.n_init) == (50.0, 30)
        assert (cfg.temperature, cfg.lam, cfg.momentum) == (0.1, 1.0, 0.9)
        assert cfg.n_batches == 200

    def test_round_trip_through_dict(self):
        cfg = default_config()
        doc = cfg.to_dict()
        again = RunConfig.from_dict(doc)
        assert json.dumps(again.to_dict()) == json.dumps(doc)

    def test_resolved_dict_carries_derived_values(self):
        doc = default_config().resolved_dict()
        assert doc["derived"]["n_source_classes"] == 9
        assert doc["derived"]["unknown_marker"] == 9
        assert doc["lambda"] == 1.0


class TestLoadConfig:
    def test_file_overrides_defaults_flags_override_file(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"seed": 5, "lr": 0.01}))
        cfg = load_config(str(path), {"lr": 0.5})
        assert cfg.seed == 5
        assert cfg.lr == 0.5

    def test_nested_domain_override(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"domain": {"class_sep": 3.0}}))
        cfg = load_config(str(path), {"domain": {"noise_sigma_target": 2.5}})
        assert cfg.domain.class_sep == 3.0
        assert cfg.domain.noise_sigma_target == 2.5
        assert cfg.domain.d_in == 20

    def test_translation_scale_resolves_vector(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"domain": {"translation_scale": 3.0}}))
        cfg = load_config(str(path))
        assert np.linalg.norm(cfg.domain.shift_translation) == pytest.approx(3.0)

    def test_lambda_key_mapping(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"lambda": 0.25}))
        assert load_config(str(path)).lam == 0.25

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"learning_rate": 0.1}))
        with pytest.raises(ConfigError):
            load_config(str(path))

    def test_non_object_section_rejected_under_a_flag(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"domain": 5}))
        with pytest.raises(ConfigError, match=r"^domain keys: missing \['class_sep', "):
            load_config(str(path), {"domain": {"translation_scale": 1.0}})

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(str(path))


class TestValidation:
    def test_single_source_class_rejected(self):
        doc = default_config().to_dict()
        doc["shift"] = {"kind": "ODA", "n_shared": 1, "n_source_private": 0,
                        "n_target_private": 2}
        with pytest.raises(ConfigError):
            RunConfig.from_dict(doc)

    @pytest.mark.parametrize(
        "key,value",
        [("p_reject", 0.0), ("p_reject", 100.0), ("n_init", 0), ("temperature", 0.0),
         ("lambda", -0.5), ("lr", 0.0), ("momentum", 1.0), ("loss_mode", "off"),
         ("n_b", 2), ("jitter", -1.0)],
    )
    def test_bad_scalars_rejected(self, key, value):
        doc = default_config().to_dict()
        doc[key] = value
        with pytest.raises(ConfigError):
            RunConfig.from_dict(doc)

    def test_resolve_translation_zero_scale(self):
        cfg = default_config()
        np.testing.assert_array_equal(resolve_translation(cfg.domain, 0.0),
                                      np.zeros(cfg.domain.d_in))


def load_doc(tmp_path, doc):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(doc))
    return load_config(str(path))


SHIFT = {"kind": "OPDA", "n_shared": 6, "n_source_private": 3, "n_target_private": 3}


class TestValueTypes:
    @pytest.mark.parametrize("doc,message", [
        ({"fd_r": 8.5}, "fd_r must be int, got 8.5"),
        ({"shift": dict(SHIFT, n_shared=2.0)}, "shift.n_shared must be int, got 2.0"),
    ], ids=["fd_r", "shift.n_shared"])
    def test_int_key_rejects_float(self, tmp_path, doc, message):
        with pytest.raises(ConfigError, match=message):
            load_doc(tmp_path, doc)

    @pytest.mark.parametrize("doc", [{"n_b": True}, {"domain": {"rotation_seed": False}}],
                             ids=["n_b", "domain.rotation_seed"])
    def test_int_key_rejects_bool(self, tmp_path, doc):
        with pytest.raises(ConfigError, match="must be int"):
            load_doc(tmp_path, doc)

    def test_float_key_takes_int_or_float(self, tmp_path):
        cfg = load_doc(tmp_path, {"p_reject": 40, "temperature": 0.2,
                                  "domain": {"class_sep": 5}})
        assert (cfg.p_reject, cfg.temperature, cfg.domain.class_sep) == (40, 0.2, 5)

    @pytest.mark.parametrize("doc", [{"p_reject": True}, {"lambda": "1"},
                                     {"domain": {"translation_scale": True}}],
                             ids=["p_reject", "lambda", "domain.translation_scale"])
    def test_float_key_rejects_bool_and_str(self, tmp_path, doc):
        with pytest.raises(ConfigError, match="must be float"):
            load_doc(tmp_path, doc)

    def test_optional_key_takes_null(self, tmp_path):
        cfg = load_doc(tmp_path, {"augment_sigma": None, "domain": {"rotation_seed": None}})
        assert cfg.augment_sigma is None and cfg.domain.rotation_seed is None

    @pytest.mark.parametrize("doc,message", [
        ({"fd": None}, "fd must be int, got None"),
        ({"unknown_positive_pairs": 1}, "unknown_positive_pairs must be bool, got 1"),
        ({"loss_mode": None}, "loss_mode must be str, got None"),
    ], ids=["fd", "unknown_positive_pairs", "loss_mode"])
    def test_required_key_rejects_null_and_other_types(self, tmp_path, doc, message):
        with pytest.raises(ConfigError, match=message):
            load_doc(tmp_path, doc)

    def test_optional_key_message_names_null(self, tmp_path):
        with pytest.raises(ConfigError, match="augment_sigma must be float or null, got '0.1'"):
            load_doc(tmp_path, {"augment_sigma": "0.1"})
