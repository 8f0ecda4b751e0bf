import json
import re

import numpy as np
import pytest

from gmmadapt.errors import DimensionMismatch, MalformedFile
from gmmadapt.gmm_stream import GaussianMixtureStream
from gmmadapt.metrics import (
    BatchCounts,
    MemoryModelInputs,
    RunRecord,
    csv_text,
    h_score,
    memory_report,
    rates_from_counts,
    read_jsonl,
    score_batch,
    summarize,
    write_jsonl,
)
from gmmadapt.ood_gate import DISCARDED


class TestHScore:
    def test_direct_value(self):
        assert h_score(0.8, 0.6) == pytest.approx(0.6857142857142857, rel=1e-12)

    def test_equal_arguments_fixed_point(self):
        for x in (0.0, 0.3, 1.0):
            assert h_score(x, x) == pytest.approx(x)

    def test_zero_annihilates(self):
        assert h_score(1.0, 0.0) == 0.0

    def test_bounded_by_twice_min(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            a, b = rng.uniform(0, 1, size=2)
            h = h_score(a, b)
            assert 0.0 <= h <= 2 * min(a, b) + 1e-12


class TestMemoryReport:
    def test_paper_scale_ratios(self):
        rep = memory_report(MemoryModelInputs(fd=256, fd_r=64, queue_len=55388,
                                              teacher_params=24_000_000), 345)
        assert rep.n_gmm == 740025
        assert rep.n_queue == 33_288_188
        assert rep.ratio_queue == pytest.approx(0.0222, abs=5e-4)
        assert rep.ratio_teacher == pytest.approx(0.0308, abs=5e-4)

    def test_twelve_class_case(self):
        rep = memory_report(MemoryModelInputs(256, 64, 55388, 24_000_000), 12)
        assert rep.n_gmm == 25740

    def test_minimal_case(self):
        rep = memory_report(MemoryModelInputs(1, 1, 1, 1), 1)
        assert rep.n_gmm == 3
        assert rep.n_queue == 2

    def test_matches_gmm_stream_footprint(self):
        for fd_r, n_classes in ((64, 12), (16, 3), (8, 345)):
            rep = memory_report(MemoryModelInputs(256, fd_r, 10, 10), n_classes)
            assert rep.n_gmm == GaussianMixtureStream(n_classes, fd_r).memory_footprint()

    def test_positivity_validated(self):
        with pytest.raises(ValueError):
            MemoryModelInputs(0, 64, 10, 10)


class TestScoreBatch:
    def test_all_correct(self):
        true = np.array([0, 1, 4, 4])
        preds = np.array([0, 1, 4, 4])
        pls = np.array([0, 1, 4, 4])
        counts, rates = score_batch(true, preds, pls, n_classes=4)
        assert rates["acc_known"] == 1.0
        assert rates["acc_unknown"] == 1.0
        assert rates["h_score"] == 1.0
        assert rates["adapt_ratio"] == 1.0

    def test_all_discarded_null_precision(self):
        true = np.array([0, 1])
        preds = np.array([0, 1])
        pls = np.array([DISCARDED, DISCARDED])
        _, rates = score_batch(true, preds, pls, n_classes=4)
        assert rates["adapt_ratio"] == 0.0
        assert rates["pl_precision_known"] is None

    def test_mixed_batch_arithmetic(self):
        # 32 known (24 correct), 32 unknown (16 correct)
        true = np.array([0] * 32 + [4] * 32)
        preds = np.array([0] * 24 + [1] * 8 + [4] * 16 + [2] * 16)
        pls = np.full(64, DISCARDED)
        _, rates = score_batch(true, preds, pls, n_classes=4)
        assert rates["acc_known"] == pytest.approx(0.75)
        assert rates["acc_unknown"] == pytest.approx(0.5)
        assert rates["h_score"] == pytest.approx(0.6)

    def test_no_unknowns_gives_null(self):
        true = np.array([0, 1])
        _, rates = score_batch(true, true, true, n_classes=4)
        assert rates["acc_unknown"] is None
        assert rates["h_score"] is None

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatch):
            score_batch(np.zeros(3), np.zeros(2), np.zeros(3), 2)


def make_record(batch, n_known=32, k_corr=16, n_unk=32, u_corr=16,
                adapted=40, pl_known=20, pl_corr=15):
    counts = BatchCounts(
        n_known=n_known, n_known_correct=k_corr, n_unknown=n_unk,
        n_unknown_correct=u_corr, n_adapted=adapted, n_total=n_known + n_unk,
        n_pl_known=pl_known, n_pl_known_correct=pl_corr,
    )
    rates = rates_from_counts(counts)
    return RunRecord(batch=batch, tau_k=0.1, tau_u=0.4, loss_c=0.5, loss_kld=-0.2,
                     counts=counts, **rates)


class TestEmitters:
    def test_jsonl_round_trip_and_key_order(self, tmp_path):
        records = [make_record(1), make_record(2, k_corr=0, u_corr=0)]
        path = tmp_path / "metrics.jsonl"
        write_jsonl(records, path)
        lines = path.read_text().splitlines()
        first = json.loads(lines[0])
        assert list(first) == ["batch", "acc_known", "acc_unknown", "h_score", "adapt_ratio",
                               "pl_precision_known", "tau_k", "tau_u", "loss_c", "loss_kld",
                               "counts"]
        restored = read_jsonl(path)
        assert restored == records

    @pytest.mark.parametrize("edit,fragment", [
        (lambda obj: obj["counts"].pop("n_total"), "counts keys: missing ['n_total']"),
        (lambda obj: obj["counts"].update(n_extra=3), "unexpected ['n_extra']"),
        (lambda obj: obj.pop("tau_k"), "record keys: missing ['tau_k']"),
        (lambda obj: obj.update(note="x"), "unexpected ['note']"),
    ], ids=["count_missing", "count_extra", "key_missing", "key_extra"])
    def test_read_jsonl_rejects_other_key_sets_and_names_the_line(self, tmp_path, edit,
                                                                  fragment):
        path = tmp_path / "metrics.jsonl"
        write_jsonl([make_record(1), make_record(2)], path)
        first, second = path.read_text().splitlines()
        obj = json.loads(second)
        edit(obj)
        path.write_text(first + "\n" + json.dumps(obj) + "\n")
        with pytest.raises(MalformedFile, match=r"metrics.jsonl line 2: .*" + re.escape(fragment)):
            read_jsonl(path)

    def test_read_jsonl_rejects_counts_that_do_not_fit_together(self, tmp_path):
        """A part larger than its whole: 2 of 1 known samples correct, 3 of
        1 samples adapted, with the rates that follow from those counts."""
        counts = dict(n_known=1, n_known_correct=2, n_unknown=0, n_unknown_correct=0,
                      n_adapted=3, n_total=1, n_pl_known=0, n_pl_known_correct=0)
        obj = dict(batch=1, acc_known=2.0, acc_unknown=None, h_score=None, adapt_ratio=3.0,
                   pl_precision_known=None, tau_k=0.1, tau_u=0.4, loss_c=0.5, loss_kld=-0.2,
                   counts=counts)
        path = tmp_path / "metrics.jsonl"
        path.write_text(json.dumps(obj) + "\n")
        with pytest.raises(MalformedFile) as info:
            read_jsonl(path)
        assert str(info.value) == (f"{path} line 1: counts.n_known_correct must not exceed "
                                   "n_known, got 2 > 1")

    @pytest.mark.parametrize("edit,message", [
        (dict(n_known_correct=33), "n_known_correct must not exceed n_known, got 33 > 32"),
        (dict(n_unknown_correct=33), "n_unknown_correct must not exceed n_unknown, got 33 > 32"),
        (dict(n_pl_known_correct=21), "n_pl_known_correct must not exceed n_pl_known, got 21 > 20"),
        (dict(n_pl_known=41), "n_pl_known must not exceed n_adapted, got 41 > 40"),
        (dict(n_adapted=65), "n_adapted must not exceed n_total, got 65 > 64"),
        (dict(n_total=63), "n_known + n_unknown must equal n_total, got 32 + 32 != 63"),
    ], ids=["known", "unknown", "pl_known", "pl_known_in_adapted", "adapted", "sum"])
    def test_counts_must_fit_together(self, edit, message):
        counts = make_record(1).counts
        with pytest.raises(ValueError) as info:
            BatchCounts(**dict(vars(counts), **edit))
        assert str(info.value) == message

    def test_record_rates_must_follow_from_its_counts(self):
        rec = make_record(1)
        with pytest.raises(ValueError, match="^acc_known, pl_precision_known do not match"):
            RunRecord(**dict(vars(rec), acc_known=0.25, pl_precision_known=None))

    def test_csv_fixed_columns_and_nulls(self):
        rows = [{"name": "a", "n": 1, "x": 0.1, "y": None},
                {"name": "b", "n": 2, "x": 1e-20, "y": 3.0, "unlisted": 7}]
        assert csv_text(rows, ("name", "n", "x", "y")) == "name,n,x,y\na,1,0.1,\nb,2,1e-20,3.0\n"

    def test_null_h_score_serialized_as_json_null(self, tmp_path):
        rec = make_record(1, n_unk=0, u_corr=0, adapted=20)
        path = tmp_path / "m.jsonl"
        write_jsonl([rec], path)
        assert json.loads(path.read_text())["h_score"] is None


class TestSummarize:
    def test_pooling_and_windows(self):
        records = [make_record(k) for k in range(1, 61)]
        s = summarize(records, kind="OPDA", n_init=30)
        assert s["thresholds_frozen"] is True
        assert s["warnings"] == []
        assert s["full_run"]["n_batches"] == 60
        assert s["post_calibration"]["n_batches"] == 30
        assert s["full_run"]["acc_known"] == pytest.approx(0.5)
        assert s["full_run"]["h_score"] == pytest.approx(0.5)
        assert s["full_run"]["primary_metric"] == s["full_run"]["h_score"]

    def test_pda_primary_is_accuracy(self):
        records = [make_record(k, n_unk=0, u_corr=0, adapted=20) for k in range(1, 11)]
        s = summarize(records, kind="PDA", n_init=5)
        assert s["full_run"]["primary_metric"] == pytest.approx(0.5)
        assert s["full_run"]["h_score"] is None

    def test_never_frozen_warning(self):
        records = [make_record(k) for k in range(1, 11)]
        s = summarize(records, kind="OPDA", n_init=30)
        assert s["thresholds_frozen"] is False
        assert s["warnings"]

    def test_deterministic_under_round_trip(self, tmp_path):
        records = [make_record(k, k_corr=(k * 7) % 32) for k in range(1, 41)]
        path = tmp_path / "m.jsonl"
        write_jsonl(records, path)
        again = read_jsonl(path)
        a = summarize(records, "OPDA", 30)
        b = summarize(again, "OPDA", 30)
        assert json.dumps(a) == json.dumps(b)
