import argparse
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gmmadapt.cli import _collect_overrides, build_parser, main
from gmmadapt.config import RunConfig, config_keys, load_config
from gmmadapt.errors import NotPositiveDefinite
from gmmadapt.gmm_stream import GaussianMixtureStream

SMALL_CONFIG = {
    "seed": 3,
    "shift": {"kind": "OPDA", "n_shared": 3, "n_source_private": 2, "n_target_private": 2},
    "domain": {
        "d_in": 8,
        "class_sep": 5.0,
        "rotation_seed": 2,
        "rotation_strength": 1.0,
        "translation_scale": 1.0,
        "noise_sigma_source": 1.0,
        "noise_sigma_target": 1.3,
    },
    "fd": 32,
    "fd_r": 8,
    "n_b": 16,
    "n_batches": 12,
    "n_init": 5,
    "source_epochs": 4,
    "n_source_train": 400,
    "n_source_holdout": 100,
}


@pytest.fixture
def small_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(SMALL_CONFIG))
    return path


# every file run_adapt writes, in write order
RUN_FILES = [
    "config.resolved.json",
    "metrics.jsonl",
    "model.ckpt",
    "gmm.ckpt",
    "summary.json",
]


def test_readme_layout_names_the_run_files():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"## Run directory layout\n.*?```\n(.*?)```", readme, re.S).group(1)
    assert re.findall(r"^(\S+) +#", block, re.M) == RUN_FILES


CONFIG_FLAGS = [
    "--augment-sigma", "--config", "--domain-class-sep", "--domain-d-in",
    "--domain-noise-sigma-source", "--domain-noise-sigma-target", "--domain-rotation-seed",
    "--domain-rotation-strength", "--domain-translation-scale", "--fd", "--fd-r", "--jitter",
    "--lambda", "--loss-mode", "--lr", "--momentum", "--n-b", "--n-batches", "--n-init",
    "--n-source-holdout", "--n-source-train", "--p-reject", "--seed", "--shift-kind",
    "--shift-n-shared", "--shift-n-source-private", "--shift-n-target-private",
    "--source-epochs", "--source-lr", "--temperature", "--unknown-positive-pairs",
]
HELP = ["--help", "-h"]
FLOAT_KEYS = [path for path, typ in config_keys() if typ is float]
PINNED_OPTIONS = {
    "train-source": sorted(CONFIG_FLAGS + HELP + ["--out"]),
    "adapt": sorted(CONFIG_FLAGS + HELP + ["--out", "--model"]),
    "sweep": sorted(CONFIG_FLAGS + HELP + ["--out", "--parameter", "--values", "--repeats",
                                           "--compensate-n-init"]),
    "memory": sorted(HELP + ["--fd", "--fd-r", "--queue-len", "--teacher-params", "--classes",
                             "--out"]),
    "replay": sorted(HELP + ["--out"]),
}

# Every override flag at a non-default value; integer-looking values on
# float flags pin the type conversion.
ALL_FLAGS_ARGV = [
    "adapt", "--seed", "7", "--fd", "128", "--fd-r", "16", "--n-b", "32",
    "--n-batches", "50", "--p-reject", "40", "--n-init", "10", "--temperature", "0.2",
    "--lambda", "0.5", "--lr", "1e-4", "--momentum", "0.8", "--loss-mode", "kld_only",
    "--augment-sigma", "0.05", "--jitter", "0.01", "--source-epochs", "3", "--source-lr", "0.05",
    "--n-source-train", "1000", "--n-source-holdout", "200", "--unknown-positive-pairs",
    "--shift-kind", "PDA", "--shift-n-shared", "4", "--shift-n-source-private", "2",
    "--shift-n-target-private", "0", "--domain-d-in", "6", "--domain-class-sep", "4",
    "--domain-rotation-seed", "3", "--domain-rotation-strength", "2",
    "--domain-translation-scale", "1.25", "--domain-noise-sigma-source", "0.9",
    "--domain-noise-sigma-target", "1.4",
]
ALL_FLAGS_RESOLVED = (
    '{"seed": 7, "shift": {"kind": "PDA", "n_shared": 4, "n_source_private": 2, '
    '"n_target_private": 0}, "domain": {"d_in": 6, "class_sep": 4.0, "rotation_seed": 3, '
    '"rotation_strength": 2.0, "translation_scale": 1.25, "noise_sigma_source": 0.9, '
    '"noise_sigma_target": 1.4}, "fd": 128, "fd_r": 16, "n_b": 32, '
    '"n_batches": 50, "p_reject": 40.0, "n_init": 10, "temperature": 0.2, "lr": 0.0001, '
    '"momentum": 0.8, "loss_mode": "kld_only", "unknown_positive_pairs": true, '
    '"augment_sigma": 0.05, "jitter": 0.01, "source_epochs": 3, "source_lr": 0.05, '
    '"n_source_train": 1000, "n_source_holdout": 200, "lambda": 0.5, '
    '"derived": {"n_source_classes": 6, "n_total_classes": 6, "unknown_marker": 6, '
    '"shift_translation": [-0.4217986620036601, -0.4683448872171185, 0.06047643691005702, '
    '-0.20710399605156787, -0.5763721628793833, 0.8868396814562283]}}'
)


class TestFlagPins:
    def test_option_strings_per_subcommand(self):
        parser = build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        options = {
            name: sorted(s for action in p._actions for s in action.option_strings)
            for name, p in sub.choices.items()
        }
        assert options == PINNED_OPTIONS

    def test_all_flags_resolve_to_pinned_config(self):
        args = build_parser().parse_args(ALL_FLAGS_ARGV)
        cfg = load_config(None, _collect_overrides(args))
        assert json.dumps(cfg.resolved_dict()) == ALL_FLAGS_RESOLVED


class TestMemoryCommand:
    def test_paper_scale_row(self, capsys):
        assert main(["memory", "--classes", "345:345"]) == 0
        out = capsys.readouterr().out
        header, row = out.strip().splitlines()
        assert header == "n_classes,n_gmm,n_queue,n_teacher,ratio_queue,ratio_teacher"
        cells = row.split(",")
        assert cells[:4] == ["345", "740025", "33288188", "24000000"]
        assert float(cells[4]) == pytest.approx(0.0222, abs=5e-4)
        assert float(cells[5]) == pytest.approx(0.0308, abs=5e-4)

    def test_span_rows_and_csv(self, tmp_path, capsys):
        out_path = tmp_path / "memory.csv"
        assert main(["memory", "--classes", "1:5", "--out", str(out_path)]) == 0
        lines = out_path.read_text().strip().splitlines()
        assert len(lines) == 6
        assert capsys.readouterr().out.strip().splitlines() == lines

    def test_default_table_bytes_pinned(self, capsys):
        assert main(["memory", "--classes", "1:345"]) == 0
        out = capsys.readouterr().out.encode()
        assert hashlib.sha256(out).hexdigest() == (
            "1572601760d192a55cfde502f8609df0f38b5b5001109b6a3a0e38ecf51d631d")

    def test_invalid_fd_r_exits_config(self, capsys):
        assert main(["memory", "--fd-r", "0", "--classes", "12:12"]) == 2
        assert "config error" in capsys.readouterr().err


class TestAdaptCommand:
    def test_run_layout_and_determinism(self, tmp_path, small_config, capsys):
        out_a = tmp_path / "run_a"
        out_b = tmp_path / "run_b"
        assert main(["adapt", "--config", str(small_config), "--out", str(out_a)]) == 0
        assert main(["adapt", "--config", str(small_config), "--out", str(out_b)]) == 0
        assert sorted(path.name for path in out_a.iterdir()) == sorted(RUN_FILES)
        assert (out_a / "metrics.jsonl").read_bytes() == (out_b / "metrics.jsonl").read_bytes()
        assert (out_a / "summary.json").read_bytes() == (out_b / "summary.json").read_bytes()

        resolved = json.loads((out_a / "config.resolved.json").read_text())
        assert resolved["seed"] == 3
        assert resolved["derived"]["unknown_marker"] == 5
        assert not {"tau_k", "tau_u", "tau", "thresholds_frozen"} & resolved["derived"].keys()

        assert len((out_a / "metrics.jsonl").read_text().splitlines()) == 12

    @pytest.mark.parametrize("flags,metrics_digest,model_digest", [
        (["--loss-mode", "none"],
         "57299a9d0172705445ae3269602a45bdd70ea9389175451614a21584d1aa946b",
         "2f0638e663b3667b6f165408a4552dc6a341497cb8162a57a4ec9a0ef1079eea"),
        (["--loss-mode", "kld_only"],
         "75b8f32c5078fb82610446390fb56f6de7c55ebd9512100406861539d28f1a11",
         "c3ee514c174d2f5d90205667b99a263a872e08ad8f4e303a8617c7fed3d98b3b"),
        (["--loss-mode", "contrastive_only"],
         "734201072b66a3a9564065a6882a946588c2c4ca0f74a2350ea08919a386c7f8",
         "8c20b3786b766d19993990330994f8754c1368d7de827554adf6b64158335776"),
        (["--loss-mode", "both", "--unknown-positive-pairs"],
         "0cb0f4ad8376c37727fc094e32d385ce7ba88520f7b2aaa937c04bae5a74a476",
         "faba3754c8544c9eda1705452058b8a5228f513f2e97cd8559cd5786c0072d7e"),
    ], ids=["none", "kld_only", "contrastive_only", "both-unknown-pairs"])
    def test_loss_mode_bytes_pinned(self, tmp_path, small_config, flags, metrics_digest,
                                    model_digest):
        out = tmp_path / "run"
        assert main(["adapt", "--config", str(small_config), "--out", str(out)] + flags) == 0
        digests = [hashlib.sha256((out / name).read_bytes()).hexdigest()
                   for name in ("metrics.jsonl", "model.ckpt")]
        assert digests == [metrics_digest, model_digest]

    @pytest.mark.parametrize("flags,message", [
        (["--seed", "-1"], "seed must be nonnegative"),
        (["--domain-rotation-seed", "-2"], "domain.rotation_seed must be null or nonnegative"),
    ], ids=["seed", "domain.rotation_seed"])
    def test_negative_seed_flag_is_config_error(self, tmp_path, small_config, capsys, flags,
                                                message):
        out = tmp_path / "run"
        assert main(["adapt", "--config", str(small_config), "--out", str(out)] + flags) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()

    def test_flag_overrides_config(self, tmp_path, small_config):
        out = tmp_path / "run"
        assert main(["adapt", "--config", str(small_config), "--out", str(out),
                     "--n-batches", "7"]) == 0
        resolved = json.loads((out / "config.resolved.json").read_text())
        assert resolved["n_batches"] == 7
        assert len((out / "metrics.jsonl").read_text().splitlines()) == 7

    def test_short_run_never_freezes_warns(self, tmp_path, small_config):
        out = tmp_path / "run"
        assert main(["adapt", "--config", str(small_config), "--out", str(out),
                     "--n-batches", "4"]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["thresholds_frozen"] is False
        assert summary["warnings"]

    def test_loss_mode_none_leaves_model_at_source(self, tmp_path, small_config):
        from gmmadapt.toy_model import ToyModel

        ckpt = tmp_path / "source.ckpt"
        assert main(["train-source", "--config", str(small_config), "--out", str(ckpt)]) == 0
        out = tmp_path / "run"
        assert main(["adapt", "--config", str(small_config), "--out", str(out),
                     "--model", str(ckpt), "--loss-mode", "none"]) == 0
        source = ToyModel.load(ckpt)
        final = ToyModel.load(out / "model.ckpt")
        for k in source.params:
            np.testing.assert_array_equal(source.params[k], final.params[k])

    def test_bad_config_exits_2(self, tmp_path, small_config, capsys):
        out = tmp_path / "run"
        code = main(["adapt", "--config", str(small_config), "--out", str(out),
                     "--p-reject", "150"])
        assert code == 2
        assert not (out / "summary.json").exists()

    def test_numerical_failure_exits_3_naming_the_batch(self, tmp_path, small_config, capsys,
                                                         monkeypatch):
        original = GaussianMixtureStream.likelihood_vectors
        calls = []

        def fail_on_third_call(gmm, feats):
            calls.append(feats.shape)
            if len(calls) == 3:
                raise NotPositiveDefinite("factorization of mode 0 failed")
            return original(gmm, feats)

        monkeypatch.setattr(GaussianMixtureStream, "likelihood_vectors", fail_on_third_call)
        out = tmp_path / "run"
        assert main(["adapt", "--config", str(small_config), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: batch 3: "), err
        assert len(calls) == 3
        assert not (out / "summary.json").exists()

    def test_zero_jitter_stops_the_default_run_at_batch_1(self, tmp_path, capsys):
        # 64 samples in 64 dimensions make batch 1's covariances singular:
        # modes 0-2 factor on rounding, with pivots near 1e-8, and mode 3,
        # the first that does not, is named
        out = tmp_path / "run"
        assert main(["adapt", "--jitter", "0", "--n-batches", "2", "--out", str(out)]) == 3
        assert capsys.readouterr().err == ("numerical failure: batch 1: factorization of mode 3 "
                                           "failed at jitter 0.0\n")
        # the config is written before the first batch, and nothing after it
        assert [path.name for path in out.iterdir()] == ["config.resolved.json"]
        stored = RunConfig.from_dict(json.loads((out / "config.resolved.json").read_text()))
        assert stored == load_config(None, {"jitter": 0.0, "n_batches": 2})

    def test_bad_loss_mode_is_config_error(self, tmp_path, small_config, capsys):
        out = tmp_path / "run"
        assert main(["adapt", "--config", str(small_config), "--out", str(out),
                     "--loss-mode", "off"]) == 2
        assert "config error: loss_mode must be one of" in capsys.readouterr().err
        assert not (out / "summary.json").exists()

    @pytest.mark.parametrize("flags,key", [
        (["--fd-r", "4"], "fd_r is 8 in the model, 4 in the config"),
        (["--shift-n-shared", "4"], "n_source_classes is 5 in the model, 6 in the config"),
        (["--fd", "16"], "fd is 32 in the model, 16 in the config"),
    ], ids=["fd_r", "n_shared", "fd"])
    def test_model_not_matching_config_is_config_error(self, tmp_path, small_config, capsys,
                                                       flags, key):
        ckpt = tmp_path / "source.ckpt"
        assert main(["train-source", "--config", str(small_config), "--out", str(ckpt)]) == 0
        out = tmp_path / "run"
        assert main(["adapt", "--config", str(small_config), "--out", str(out),
                     "--model", str(ckpt)] + flags) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and key in err
        assert not (out / "summary.json").exists()

    @pytest.mark.parametrize("edit,message", [
        ({"fd_r": 8.5}, "fd_r must be int, got 8.5"),
        ({"shift": dict(SMALL_CONFIG["shift"], n_shared=2.0)},
         "shift.n_shared must be int, got 2.0"),
    ], ids=["fd_r", "shift.n_shared"])
    def test_float_in_int_key_is_config_error(self, tmp_path, capsys, edit, message):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(dict(SMALL_CONFIG, **edit)))
        out = tmp_path / "run"
        assert main(["adapt", "--config", str(config), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("doc", [[1, 2], "x"], ids=["list", "string"])
    def test_non_object_config_is_config_error(self, tmp_path, capsys, doc):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(doc))
        out = tmp_path / "run"
        assert main(["adapt", "--config", str(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"config error: config {config} must be dict, got {doc!r}\n"
        assert not out.exists()

    def test_input_dimension_flag_alone(self, tmp_path):
        # no translation_scale given: the default scale at the new length
        out = tmp_path / "run"
        assert main(["adapt", "--domain-d-in", "12", "--out", str(out), "--fd", "16",
                     "--fd-r", "4", "--n-b", "8", "--n-batches", "3", "--n-init", "2",
                     "--source-epochs", "1", "--n-source-train", "100",
                     "--n-source-holdout", "20"]) == 0
        resolved = json.loads((out / "config.resolved.json").read_text())
        assert resolved["domain"]["d_in"] == 12
        assert len(resolved["derived"]["shift_translation"]) == 12
        assert np.linalg.norm(resolved["derived"]["shift_translation"]) == pytest.approx(2.0)

    @pytest.mark.parametrize("value,message", [
        ("0", "domain.d_in must be positive"),
        ("-3", "domain.d_in must be positive"),
        ("3", "domain.d_in must be at least 4 for 12 classes, one orthant each"),
    ])
    def test_too_few_input_dimensions_is_config_error(self, tmp_path, capsys, value, message):
        out = tmp_path / "run"
        assert main(["adapt", "--domain-d-in", value, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()

    def test_one_dimensional_domain_runs(self, tmp_path, small_config, capsys):
        """2 classes fit in 1 input dimension, whose only rotation is the
        identity; the seeded rotation does not turn into NaN inputs."""
        out = tmp_path / "run"
        assert main(["adapt", "--config", str(small_config), "--shift-kind", "PDA",
                     "--shift-n-shared", "1", "--shift-n-source-private", "1",
                     "--shift-n-target-private", "0", "--domain-d-in", "1",
                     "--n-batches", "4", "--n-init", "2", "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        assert len((out / "metrics.jsonl").read_text().splitlines()) == 4

    def test_overflowing_rotation_strength_is_config_error(self, tmp_path, small_config, capsys):
        out = tmp_path / "run"
        assert main(["adapt", "--config", str(small_config), "--domain-rotation-strength", "1e300",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "config error: rotation_strength 1e+300 is too large: the rotation overflows\n")
        assert not out.exists()

    def test_rotation_off_orthogonal_is_config_error(self, tmp_path, small_config, capsys):
        out = tmp_path / "run"
        assert main(["adapt", "--config", str(small_config), "--domain-rotation-strength", "1e12",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: rotation_strength 1e+12 is too large: max|R R^T - I| is ")
        assert err.endswith(", above 1e-09\n")
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("path", FLOAT_KEYS, ids=[".".join(p) for p in FLOAT_KEYS])
    def test_non_finite_float_flag_is_config_error(self, tmp_path, capsys, path, value):
        out = tmp_path / "run"
        flag = "--" + "-".join(path).replace("_", "-")
        assert main(["adapt", f"{flag}={value}", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"config error: {'.'.join(path)} must be finite, got {float(value)!r}\n")
        assert not out.exists()

    def test_zero_source_epochs_is_config_error(self, tmp_path, small_config, capsys):
        ckpt = tmp_path / "source.ckpt"
        assert main(["train-source", "--config", str(small_config), "--out", str(ckpt),
                     "--source-epochs", "0"]) == 2
        assert capsys.readouterr().err == "config error: source_epochs must be positive\n"
        assert not ckpt.exists()

    def test_env_var_output_root(self, tmp_path, small_config, monkeypatch):
        monkeypatch.setenv("GMMADAPT_RUNS", str(tmp_path / "root"))
        assert main(["adapt", "--config", str(small_config)]) == 0
        assert (tmp_path / "root" / "adapt" / "summary.json").exists()


class TestUnreadableInput:
    @pytest.mark.parametrize("argv", [
        ["replay", "{missing}"],
        ["train-source", "--config", "{missing}.json", "--out", "{tmp}/model.ckpt"],
        ["adapt", "--model", "{missing}.ckpt", "--n-batches", "2", "--out", "{tmp}/run"],
    ], ids=["replay-dir", "config", "model"])
    def test_missing_path_exits_2_with_one_line(self, tmp_path, capsys, argv):
        argv = [a.format(missing=tmp_path / "missing", tmp=tmp_path) for a in argv]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and str(tmp_path / "missing") in err
        assert not (tmp_path / "run").exists()


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    """One small adapt run directory, its source checkpoint and its config."""
    root = tmp_path_factory.mktemp("small_run")
    config = root / "config.json"
    config.write_text(json.dumps(SMALL_CONFIG))
    assert main(["train-source", "--config", str(config), "--out", str(root / "source.ckpt")]) == 0
    assert main(["adapt", "--config", str(config), "--out", str(root / "run"),
                 "--model", str(root / "source.ckpt")]) == 0
    return root


def _edit_record(run_dir, line, edit):
    path = run_dir / "metrics.jsonl"
    lines = path.read_text().splitlines()
    obj = json.loads(lines[line - 1])
    edit(obj)
    lines[line - 1] = json.dumps(obj)
    path.write_text("\n".join(lines) + "\n")


def _with(line, **values):
    """A metrics.jsonl line with some keys set to other values."""
    return json.dumps({**json.loads(line), **values})


class TestMalformedRunFiles:
    """A run file that cannot be read back exits 2 with one line on stderr."""

    def _assert_file_error(self, capsys, argv, *fragments):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("file error:") and err.count("\n") == 1, err
        for fragment in fragments:
            assert fragment in err

    def test_truncated_model_checkpoint(self, tmp_path, small_run, capsys):
        ckpt = tmp_path / "trunc.ckpt"
        ckpt.write_bytes((small_run / "source.ckpt").read_bytes()[:3000])
        self._assert_file_error(capsys, ["adapt", "--config", str(small_run / "config.json"),
                                         "--model", str(ckpt), "--out", str(tmp_path / "run")],
                                "trunc.ckpt is not a model checkpoint", "BadZipFile")
        assert not (tmp_path / "run").exists()

    def test_model_checkpoint_without_meta(self, tmp_path, small_run, capsys):
        with np.load(small_run / "source.ckpt") as data:
            arrays = {k: data[k] for k in data.files if k != "meta"}
        ckpt = tmp_path / "nometa.ckpt"
        with open(ckpt, "wb") as fh:
            np.savez(fh, **arrays)
        self._assert_file_error(capsys, ["adapt", "--config", str(small_run / "config.json"),
                                         "--model", str(ckpt), "--out", str(tmp_path / "run")],
                                "nometa.ckpt is not a model checkpoint", "meta")
        assert not (tmp_path / "run").exists()

    def test_model_checkpoint_holding_a_nan(self, tmp_path, small_run, capsys):
        with np.load(small_run / "source.ckpt") as data:
            arrays = {k: data[k] for k in data.files}
        arrays["param_W_h"][0, 0] = np.nan
        ckpt = tmp_path / "bad.ckpt"
        with open(ckpt, "wb") as fh:
            np.savez(fh, **arrays)
        self._assert_file_error(capsys, ["adapt", "--config", str(small_run / "config.json"),
                                         "--model", str(ckpt), "--out", str(tmp_path / "run")],
                                "bad.ckpt is not a model checkpoint",
                                "array param_W_h holds a non-finite value")
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("edit,fragment", [
        (lambda obj: obj["counts"].pop("n_total"), "missing ['n_total']"),
        (lambda obj: obj["counts"].update(n_extra=1), "unexpected ['n_extra']"),
        (lambda obj: obj.pop("tau_k"), "missing ['tau_k']"),
        (lambda obj: obj["counts"].update(n_total="16"), "counts.n_total must be int, got '16'"),
        (lambda obj: obj["counts"].update(n_known=True), "counts.n_known must be int, got True"),
        (lambda obj: obj["counts"].update(n_adapted=3.0), "n_adapted must be int, got 3.0"),
        (lambda obj: obj.update(h_score="0.5"),
         "line 5: h_score must be float or null, got '0.5'"),
        (lambda obj: obj.update(tau_k=None), "line 5: tau_k must be float, got None"),
        (lambda obj: obj.update(batch=[5]), "line 5: batch must be int, got [5]"),
    ], ids=["count_missing", "count_extra", "tau_k_missing", "count_str", "count_bool",
            "count_float", "rate_str", "tau_k_null", "batch_list"])
    def test_replay_of_edited_record(self, tmp_path, small_run, capsys, edit, fragment):
        run_dir = tmp_path / "run"
        shutil.copytree(small_run / "run", run_dir)
        _edit_record(run_dir, 5, edit)
        self._assert_file_error(capsys, ["replay", str(run_dir)], "metrics.jsonl line 5:",
                                fragment)

    @pytest.mark.parametrize("edit,fragment", [
        (lambda lines: lines[:4], "metrics.jsonl: 4 records for n_batches 12"),
        (lambda lines: lines[::-1], "metrics.jsonl line 1: batch 12, expected 1"),
        (lambda lines: lines[:5] * 2, "metrics.jsonl line 6: batch 1, expected 6"),
        (lambda lines: lines[:3] + [""] + lines[3:5] + lines[6:],
         "metrics.jsonl line 7: batch 7, expected 6"),
        (lambda lines: lines[:5] + [_with(lines[5], h_score=0.123, adapt_ratio=0.987)]
         + lines[6:], "metrics.jsonl line 6: h_score, adapt_ratio do not match the counts"),
    ], ids=["truncated", "reversed", "repeated", "line_dropped", "rates_edited"])
    def test_replay_of_log_that_does_not_match_its_run(self, tmp_path, small_run, capsys, edit,
                                                    fragment):
        run_dir = tmp_path / "run"
        shutil.copytree(small_run / "run", run_dir)
        path = run_dir / "metrics.jsonl"
        path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
        self._assert_file_error(capsys, ["replay", str(run_dir)], fragment + "\n")

    def test_replay_skips_blank_lines(self, tmp_path, small_run, capsys):
        run_dir = tmp_path / "run"
        shutil.copytree(small_run / "run", run_dir)
        path = run_dir / "metrics.jsonl"
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:3] + ["", "  "] + lines[3:]) + "\n\n")
        assert main(["replay", str(run_dir)]) == 0
        assert capsys.readouterr().out == (run_dir / "summary.json").read_text()

    @pytest.mark.parametrize("key,value,shown", [
        ("tau_k", float("nan"), "nan"),
        ("loss_c", float("inf"), "inf"),
        ("acc_known", float("-inf"), "-inf"),
    ], ids=["nan", "inf", "-inf"])
    def test_replay_of_non_finite_record(self, tmp_path, small_run, capsys, key, value, shown):
        # json writes NaN and Infinity, and reads them back as floats
        run_dir = tmp_path / "run"
        shutil.copytree(small_run / "run", run_dir)
        _edit_record(run_dir, 5, lambda obj: obj.update({key: value}))
        self._assert_file_error(capsys, ["replay", str(run_dir)],
                                f"metrics.jsonl line 5: {key} must be finite, got {shown}\n")


    @pytest.mark.parametrize("edit,fragment", [
        (lambda doc: doc.pop("n_init"), "config keys: missing ['n_init'], unexpected []"),
        (lambda doc: doc.update(n_init="30"), "n_init must be int, got '30'"),
        (lambda doc: doc.update(n_init=True), "n_init must be int, got True"),
        (lambda doc: doc["shift"].pop("kind"), "shift keys: missing ['kind'], unexpected []"),
        (lambda doc: doc["shift"].update(kind="opda"),
         "kind must be one of ('PDA', 'ODA', 'OPDA'), got 'opda'"),
        (lambda doc: doc.update(shift=None),
         "shift keys: missing ['kind', 'n_shared', 'n_source_private', 'n_target_private'], "
         "unexpected []"),
    ], ids=["n_init_missing", "n_init_str", "n_init_bool", "kind_missing", "kind_unknown",
            "shift_null"])
    def test_replay_of_edited_config(self, tmp_path, small_run, capsys, edit, fragment):
        run_dir = tmp_path / "run"
        shutil.copytree(small_run / "run", run_dir)
        path = run_dir / "config.resolved.json"
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        self._assert_file_error(capsys, ["replay", str(run_dir)], "config.resolved.json:",
                                fragment)


    def test_replay_of_config_with_translation_vector(self, tmp_path, small_run, capsys):
        # the domain section as earlier versions wrote it: the vector in
        # place of translation_scale
        run_dir = tmp_path / "run"
        shutil.copytree(small_run / "run", run_dir)
        path = run_dir / "config.resolved.json"
        doc = json.loads(path.read_text())
        del doc["domain"]["translation_scale"]
        doc["domain"]["shift_translation"] = doc["derived"].pop("shift_translation")
        path.write_text(json.dumps(doc))
        self._assert_file_error(capsys, ["replay", str(run_dir)], "config.resolved.json:",
                                "domain keys: missing ['translation_scale'], "
                                "unexpected ['shift_translation']")

    def test_replay_of_truncated_config(self, tmp_path, small_run, capsys):
        run_dir = tmp_path / "run"
        shutil.copytree(small_run / "run", run_dir)
        path = run_dir / "config.resolved.json"
        path.write_text(path.read_text()[:200])
        self._assert_file_error(capsys, ["replay", str(run_dir)], "config.resolved.json:")


class TestReplayCommand:
    def test_replay_reproduces_summary(self, tmp_path, small_config, capsys):
        out = tmp_path / "run"
        assert main(["adapt", "--config", str(small_config), "--out", str(out)]) == 0
        replay_out = tmp_path / "summary.replay.json"
        assert main(["replay", str(out), "--out", str(replay_out)]) == 0
        assert replay_out.read_text() == (out / "summary.json").read_text()


# sha256 of every file a small sweep writes, cell directories and sweep.csv.
P_REJECT_SWEEP_PINS = {
    "p_reject=40_rep0/config.resolved.json": "23fcac322ec74b703fed478324c9c53f9c1a72eacab1ddcb7c4e7f1e56bf3233",
    "p_reject=40_rep0/gmm.ckpt": "1757131169bb98871488c40df5f62bdc9c07d43f80f5d5e53ae5ecf311d4ce1d",
    "p_reject=40_rep0/metrics.jsonl": "0170bfc72f8f617cbbd3af12384340277547a34c3a6117e2ffbc3bf45421a591",
    "p_reject=40_rep0/model.ckpt": "b15269c8753e9f6334298e67d4d9cc4831e60d3485fe00e6ad0037b0ab694c62",
    "p_reject=40_rep0/summary.json": "c15822288239397c9ca1b11af1ce57ee8dae3caa04c9b6e898f86ad1872286bb",
    "p_reject=40_rep1/config.resolved.json": "ae87858e9b4c91fdeeb29dea8e6e6e9e5494b99f7f4acd18ca9d59743233cb4a",
    "p_reject=40_rep1/gmm.ckpt": "649ac0e9fb954fa5324cd1d7bd89f1be27e2c51aceb9d0851e4097cffa91faed",
    "p_reject=40_rep1/metrics.jsonl": "0d54e1347c8873f114f6c36185fb1e98ccaed7e9c0e89edfdf24ede53bb1d9cf",
    "p_reject=40_rep1/model.ckpt": "5d0ff154dab28a309e00bf376104a6a7625af201b60153cfad362a28661ebb33",
    "p_reject=40_rep1/summary.json": "8c3fdac3d783da2e4b6af9149bc1622b0cc523fe6d08fc0efca739a223ed2092",
    "p_reject=60.5_rep0/config.resolved.json": "80d2d84616bc8c438f00a636356681abe629f41a660d7014c22db82be208c781",
    "p_reject=60.5_rep0/gmm.ckpt": "d6bc3594a884e74297c6a8c6bacd26e09aa33e3322bd98baed618d41a49c9bc6",
    "p_reject=60.5_rep0/metrics.jsonl": "2619040cb27f567c2c4cdde5cadac43fbcd928d58a3c190b8bcd69bc7f9427c8",
    "p_reject=60.5_rep0/model.ckpt": "05797899702fb41bdd639091e01e4b45875aef69f8e5ed9e7d1474cc85a05a55",
    "p_reject=60.5_rep0/summary.json": "02b9f4445fe5a4d9a3891df475f4e53b7a12985bea788b619d7d13aba1431277",
    "p_reject=60.5_rep1/config.resolved.json": "41bd93144dece61fdc2481f0470396f87f50edbabed717602ff04720aba52366",
    "p_reject=60.5_rep1/gmm.ckpt": "4f284f43d7464e23f2c4b764bbea61b30eb0692e4b5fb153ee12abddcfb3f850",
    "p_reject=60.5_rep1/metrics.jsonl": "e06b6b6ad5527442d153893650b740364d0030fa1b4766b7ad9c0fcf147e5179",
    "p_reject=60.5_rep1/model.ckpt": "b72d97b2b32f2e968714464de1cd70b2ac28b1dc6b4b44a79a9f07c3fe6304ed",
    "p_reject=60.5_rep1/summary.json": "2789eef35276cc02e3dadc1b476a0fc841f32d3fbe8bb00cd6c5492d13dfb9c8",
    "sweep.csv": "f9f27d6cd0f199a80c80726adc7cf38c1870c86ced5b2f32fd22803cd2ef7a34",
}
FD_R_SWEEP_PINS = {
    "fd_r=6_rep0/config.resolved.json": "25676a925f70d546a91c160b2f6ebb2d25bcc1f3cc952da3ea362d6df00f0794",
    "fd_r=6_rep0/gmm.ckpt": "852c562a102d5b3b204dde51c3400ff63afa25c4f0f80d5fe7984b69af3817a8",
    "fd_r=6_rep0/metrics.jsonl": "7845725bcbf276bcf258c5c58e3744ac82361b6bbe748500444796bbb3a2e7ba",
    "fd_r=6_rep0/model.ckpt": "6c16478ee1dc826a1a7da7943355cd7a0e923139df811ade1a2d4b24f5986bbe",
    "fd_r=6_rep0/summary.json": "628ad15128de1a73313e81709ed99a65e90df970a31beb65f00c80cf000f02f9",
    "fd_r=8_rep0/config.resolved.json": "f37c6a0eac2b9d04436fa21711062139cb6a5a8c0c4c8f6cc60f5648732d87f6",
    "fd_r=8_rep0/gmm.ckpt": "68b1b836cd92cab80b6ba6b20491b34a35e6cfe8adc2b4ba33ddc5af323d50c0",
    "fd_r=8_rep0/metrics.jsonl": "ec3f20e7ab7901f18a53fe98ecd1af49ee605fd6aec102951a473d592fd2526a",
    "fd_r=8_rep0/model.ckpt": "f31e59ab156136b40b9b1edd5616f40522602994d5c9f69834ca1eb42ce297e6",
    "fd_r=8_rep0/summary.json": "2779569f804444c0781c0df15b26ad88ef50b0cd4be6b2726885eb982a8b3b70",
    "sweep.csv": "b8e928a37fc4fef5db33e804cbb151d0bb418a0ad90cde9e6696777a37d51e02",
}


def _tree_digests(root):
    return {str(path.relative_to(root)): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(root.rglob("*")) if path.is_file()}


class TestSweepCommand:
    def test_lambda_sweep_table(self, tmp_path, small_config, capsys):
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(small_config), "--out", str(out),
                     "--parameter", "lambda", "--values", "0,1", "--repeats", "2"]) == 0
        lines = (out / "sweep.csv").read_text().strip().splitlines()
        assert lines[0] == "parameter,value,n_runs,mean_primary_metric,std_primary_metric"
        assert len(lines) == 3
        assert (out / "lam=0_rep0" / "summary.json").exists()
        assert (out / "lam=1_rep1" / "summary.json").exists()

    def test_sweep_table_bytes_pinned(self, tmp_path, small_config):
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(small_config), "--out", str(out),
                     "--parameter", "p_reject", "--values", "40,60.5", "--repeats", "2",
                     "--n-batches", "6"]) == 0
        assert (out / "sweep.csv").read_text() == (
            "parameter,value,n_runs,mean_primary_metric,std_primary_metric\n"
            "p_reject,40,2,0.6766770299636757,0.08419253525371578\n"
            "p_reject,60.5,2,0.671036961200142,0.11843672301038422\n"
        )
        assert _tree_digests(out) == P_REJECT_SWEEP_PINS

    def test_fd_r_sweep_bytes_pinned(self, tmp_path, small_config):
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(small_config), "--out", str(out),
                     "--parameter", "fd_r", "--values", "6,8", "--n-batches", "6"]) == 0
        assert _tree_digests(out) == FD_R_SWEEP_PINS

    def test_non_finite_value_fails_before_any_cell(self, tmp_path, small_config, capsys):
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(small_config), "--out", str(out),
                     "--parameter", "temperature", "--values", "0.1,nan"]) == 2
        assert capsys.readouterr().err == "config error: temperature must be finite, got nan\n"
        assert not out.exists()

    def test_batch_size_sweep_with_compensation(self, tmp_path, small_config):
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(small_config), "--out", str(out),
                     "--parameter", "N_b", "--values", "8,16", "--repeats", "1",
                     "--compensate-n-init"]) == 0
        resolved = json.loads((out / "n_b=8_rep0" / "config.resolved.json").read_text())
        # base n_init=5, n_b=16 -> compensated n_init = 10 at n_b=8
        assert resolved["n_init"] == 10
        assert resolved["n_b"] == 8

    def test_unknown_parameter_rejected(self, tmp_path, small_config, capsys):
        assert main(["sweep", "--config", str(small_config), "--out", str(tmp_path / "s"),
                     "--parameter", "nope", "--values", "1"]) == 2

    @pytest.mark.parametrize("parameter", ["seed", "loss_mode", "unknown_positive_pairs",
                                           "shift_n_shared"])
    def test_seed_and_non_numeric_keys_not_sweepable(self, tmp_path, small_config, capsys,
                                                     parameter):
        assert main(["sweep", "--config", str(small_config), "--out", str(tmp_path / "s"),
                     "--parameter", parameter, "--values", "1"]) == 2
        assert "unknown sweep parameter" in capsys.readouterr().err

    def test_any_top_level_number_sweeps_by_any_case(self, tmp_path, small_config):
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(small_config), "--out", str(out),
                     "--parameter", "MOMENTUM", "--values", "0.5"]) == 0
        resolved = json.loads((out / "momentum=0.5_rep0" / "config.resolved.json").read_text())
        assert resolved["momentum"] == 0.5
        assert (out / "sweep.csv").read_text().splitlines()[1].startswith("momentum,0.5,1,")

    def test_float_value_for_int_key_is_config_error(self, tmp_path, small_config, capsys):
        assert main(["sweep", "--config", str(small_config), "--out", str(tmp_path / "s"),
                     "--parameter", "fd_r", "--values", "8.5"]) == 2
        assert capsys.readouterr().err == "config error: fd_r must be int, got 8.5\n"

    def test_bad_value_rejected_before_any_cell_runs(self, tmp_path, small_config, capsys):
        out = tmp_path / "sweep"
        out.mkdir()
        assert main(["sweep", "--config", str(small_config), "--out", str(out),
                     "--parameter", "fd_r", "--values", "8,8.5"]) == 2
        assert capsys.readouterr().err == "config error: fd_r must be int, got 8.5\n"
        assert list(out.iterdir()) == []

    def test_repeated_values_rejected_before_any_cell(self, tmp_path, small_config, capsys):
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(small_config), "--out", str(out),
                     "--parameter", "p_reject", "--values", "40,40.0"]) == 2
        assert capsys.readouterr().err == "config error: sweep values repeat: [40]\n"
        assert not out.exists()

    def test_compensated_batch_size_zero_is_config_error(self, tmp_path, small_config, capsys):
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(small_config), "--out", str(out),
                     "--parameter", "n_b", "--values", "0", "--compensate-n-init"]) == 2
        assert capsys.readouterr().err == (
            "config error: batch size must be at least 4 (threshold calibration)\n")
        assert not out.exists()

    def test_negative_rotation_seed_fails_before_any_cell(self, tmp_path, small_config, capsys):
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(small_config), "--out", str(out),
                     "--domain-rotation-seed", "-2", "--parameter", "p_reject",
                     "--values", "40,60"]) == 2
        assert capsys.readouterr().err == (
            "config error: domain.rotation_seed must be null or nonnegative\n")
        assert not out.exists()

    def test_single_value_single_repeat_degenerates_to_adapt(self, tmp_path, small_config):
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(small_config), "--out", str(out),
                     "--parameter", "lr", "--values", "0.0001", "--repeats", "1"]) == 0
        run_dir = out / "lr=0.0001_rep0"
        alone = tmp_path / "alone"
        assert main(["adapt", "--config", str(small_config), "--out", str(alone),
                     "--lr", "0.0001"]) == 0
        assert (run_dir / "metrics.jsonl").read_bytes() == (alone / "metrics.jsonl").read_bytes()


REPO_ROOT = Path(__file__).resolve().parents[1]

# The body of the wrapper pip writes for a `[project.scripts]` entry.
CONSOLE_SCRIPT = """\
import re
import sys
from {module} import {attr}
if __name__ == "__main__":
    sys.argv[0] = re.sub(r"(-script\\.pyw|\\.exe)?$", "", sys.argv[0])
    sys.exit({attr}())
"""


def _assert_memory_12_row(proc):
    assert proc.returncode == 0, proc.stderr
    # 12 classes x 2145 reals per class at fd_r = 64
    assert "25740" in proc.stdout
    # header and the one row asked for: the default span 1:345 would also hold 25740
    assert len(proc.stdout.strip().splitlines()) == 2


# Prints the thread counts of numpy's and then scipy's bundled OpenBLAS on
# one line, loading scipy's library (but not scipy) if it is not loaded yet.
PRINT_OPENBLAS_THREADS = """
import ctypes, glob, importlib.util, os
counts = []
for pkg, lib, getter in (("numpy", "libscipy_openblas64_*.so", "scipy_openblas_get_num_threads64_"),
                         ("scipy", "libscipy_openblas-*.so", "scipy_openblas_get_num_threads")):
    site = os.path.dirname(os.path.dirname(importlib.util.find_spec(pkg).origin))
    path = glob.glob(os.path.join(site, pkg + ".libs", lib))[0]
    counts.append(getattr(ctypes.CDLL(path), getter)())
print(*counts)
"""


class TestInstalledEntryPoint:
    def test_console_script_memory(self, package_env):
        """The declared `gmmadapt` entry point, run as pip's console-script wrapper runs it."""
        tomllib = pytest.importorskip("tomllib")
        with open(REPO_ROOT / "pyproject.toml", "rb") as f:
            target = tomllib.load(f)["project"]["scripts"]["gmmadapt"]
        module, attr = target.split(":")
        proc = subprocess.run(
            [sys.executable, "-c", CONSOLE_SCRIPT.format(module=module, attr=attr),
             "memory", "--classes", "12:12"],
            capture_output=True, text=True, timeout=60, env=package_env,
        )
        _assert_memory_12_row(proc)

    def test_python_m_gmmadapt_memory(self, package_env):
        """`python -m gmmadapt` runs the CLI without an install."""
        proc = subprocess.run(
            [sys.executable, "-m", "gmmadapt", "memory", "--classes", "12:12"],
            capture_output=True, text=True, timeout=60, env=package_env,
        )
        _assert_memory_12_row(proc)

    def test_import_leaves_scipy_special_unloaded(self, package_env):
        """The package's imports stay off scipy.special (about 3.6 MB of RSS)."""
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, gmmadapt, gmmadapt.cli; print('scipy.special' in sys.modules)"],
            capture_output=True, text=True, timeout=60, env=package_env,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"

    def test_mixture_step_leaves_scipy_linalg_unloaded(self, package_env):
        """A mixture update, its likelihoods and a snapshot round trip stay off
        scipy.linalg (about 26 MB of RSS): the solve calls OpenBLAS directly."""
        script = (
            "import sys\n"
            "import numpy as np\n"
            "import gmmadapt\n"
            "rng = np.random.default_rng(0)\n"
            "gmm = gmmadapt.GaussianMixtureStream(9, 16)\n"
            "feats = rng.standard_normal((64, 16))\n"
            "gmm.update(feats, rng.dirichlet(np.ones(9), size=64))\n"
            "assert np.allclose(gmm.likelihood_vectors(feats).sum(axis=1), 1.0)\n"
            "back = gmmadapt.GaussianMixtureStream.from_snapshot(gmm.to_snapshot())\n"
            "assert np.array_equal(back.cov_packed, gmm.cov_packed)\n"
            "print('scipy.linalg' in sys.modules)\n"
        )
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, timeout=60, env=package_env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"

    def test_scipy_without_bundled_openblas_is_an_import_error(self, package_env, tmp_path):
        """No silent fallback: a scipy with no scipy.libs/libscipy_openblas
        stops the import with the path searched."""
        (tmp_path / "scipy").mkdir()
        (tmp_path / "scipy" / "__init__.py").write_text("")
        env = dict(package_env, PYTHONPATH=f"{tmp_path}{os.pathsep}{package_env['PYTHONPATH']}")
        proc = subprocess.run([sys.executable, "-c", "import gmmadapt"],
                              capture_output=True, text=True, timeout=60, env=env)
        assert proc.returncode == 1
        assert "ImportError: no library matches " + str(tmp_path / "scipy.libs") in proc.stderr

    def test_scipy_without_expm_module_fails_at_the_first_rotation(self, package_env, tmp_path):
        """No silent fallback: with scipy's bundled OpenBLAS present but no
        scipy/linalg/_matfuncs_expm module, the package imports and a
        9-class mixture step runs, and the first rotation raises an
        ImportError naming the path searched."""
        import scipy

        (tmp_path / "scipy").mkdir()
        (tmp_path / "scipy" / "__init__.py").write_text("")
        (tmp_path / "scipy.libs").symlink_to(Path(scipy.__file__).parents[1] / "scipy.libs")
        env = dict(package_env, PYTHONPATH=f"{tmp_path}{os.pathsep}{package_env['PYTHONPATH']}")
        script = (
            "import numpy as np\n"
            "import gmmadapt\n"
            "rng = np.random.default_rng(0)\n"
            "gmm = gmmadapt.GaussianMixtureStream(9, 16)\n"
            "feats = rng.standard_normal((64, 16))\n"
            "gmm.update(feats, rng.dirichlet(np.ones(9), size=64))\n"
            "assert np.allclose(gmm.likelihood_vectors(feats).sum(axis=1), 1.0)\n"
            "print('step ran', flush=True)\n"
            "gmmadapt.DomainSpec(d_in=4, class_sep=4.0, rotation_seed=1).rotation()\n"
        )
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, timeout=60, env=env)
        assert proc.returncode == 1
        assert proc.stdout == "step ran\n"
        searched = tmp_path / "scipy" / "linalg" / "_matfuncs_expm"
        assert f"ImportError: no extension module {searched}{{" in proc.stderr

    def test_unset_thread_variables_give_the_one_thread_bytes(self, package_env, tmp_path):
        """With no BLAS thread variable set, a run writes the bytes of a
        1-thread run, since the package pins OpenBLAS, the ctypes-loaded
        copy included, to one thread, whether gmmadapt, numpy or
        scipy.linalg is imported first. At 2 OpenBLAS threads this config's
        metrics.jsonl differs in the last bits (measured on a 2-vCPU host)."""
        unset = {k: v for k, v in package_env.items()
                 if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
        written = {}
        for name, first, env in (("gmmadapt", "gmmadapt", unset), ("numpy", "numpy", unset),
                                 ("scipy.linalg", "scipy.linalg", unset),
                                 ("one", "gmmadapt", dict(unset, OPENBLAS_NUM_THREADS="1"))):
            out = tmp_path / name
            argv = ["adapt", "--fd", "256", "--fd-r", "128", "--n-b", "128", "--n-batches", "6",
                    "--n-init", "3", "--out", str(out)]
            proc = subprocess.run(
                [sys.executable, "-c", f"import {first}\nfrom gmmadapt.cli import main\n"
                 f"raise SystemExit(main({argv!r}))"],
                capture_output=True, text=True, timeout=120, env=env,
            )
            assert proc.returncode == 0, proc.stderr
            written[name] = (out / "metrics.jsonl").read_bytes()
        assert written["gmmadapt"] == written["numpy"] == written["scipy.linalg"] == written["one"]

    @pytest.mark.parametrize("given,first", [(None, "gmmadapt"), ("3", "gmmadapt"),
                                             (None, "numpy"), ("3", "numpy"),
                                             (None, "scipy.linalg")],
                             ids=["unset", "caller_set", "numpy_first_unset",
                                  "numpy_first_caller_set", "scipy_linalg_first_unset"])
    def test_import_defaults_openblas_to_one_thread(self, package_env, given, first):
        """Importing gmmadapt sets OPENBLAS_NUM_THREADS only when the caller
        has not, and leaves OMP_NUM_THREADS, which other libraries read,
        alone. Unset, both OpenBLAS copies run one thread, also when numpy
        or scipy.linalg was loaded first; a value the caller set keeps the
        thread counts that value gives without gmmadapt."""
        env = {k: v for k, v in package_env.items()
               if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
        if given is not None:
            env["OPENBLAS_NUM_THREADS"] = given
        proc = subprocess.run(
            [sys.executable, "-c", f"import {first}\nimport os, gmmadapt\n"
             "print(os.environ['OPENBLAS_NUM_THREADS'], os.environ.get('OMP_NUM_THREADS'))\n"
             + PRINT_OPENBLAS_THREADS],
            capture_output=True, text=True, timeout=60, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        if given is None:
            assert proc.stdout == "1 None\n1 1\n"
            return
        alone = subprocess.run([sys.executable, "-c", "import numpy\n" + PRINT_OPENBLAS_THREADS],
                               capture_output=True, text=True, timeout=60, env=env)
        assert alone.returncode == 0, alone.stderr
        assert proc.stdout == f"{given} None\n{alone.stdout}"

    def test_import_leaves_scipy_unloaded(self, package_env):
        """The package finds scipy's compiled code without importing scipy's
        top-level package, whose import would load more of scipy."""
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, gmmadapt, gmmadapt.cli; print('scipy' in sys.modules)"],
            capture_output=True, text=True, timeout=60, env=package_env,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"

    @pytest.mark.skipif(shutil.which("gmmadapt") is None,
                        reason="gmmadapt console script not installed")
    def test_installed_script_memory(self):
        proc = subprocess.run(
            [shutil.which("gmmadapt"), "memory", "--classes", "12:12"],
            capture_output=True, text=True, timeout=60,
        )
        _assert_memory_12_row(proc)
