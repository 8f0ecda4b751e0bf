import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmmadapt.errors import InvalidSplit
from gmmadapt.simulator import (ORTHOGONALITY_TOL, DomainSpec, ShiftSpec, class_centers,
                                make_task)


def default_domain(**kw):
    base = dict(d_in=10, class_sep=4.0, rotation_seed=None,
                noise_sigma_source=1.0, noise_sigma_target=1.0)
    base.update(kw)
    return DomainSpec(**base)


class TestShiftSpec:
    def test_opda_split(self):
        s = ShiftSpec("OPDA", 6, 3, 3)
        assert s.n_source_classes == 9
        assert s.unknown_marker == 9
        np.testing.assert_array_equal(s.target_classes(), [0, 1, 2, 3, 4, 5, 9, 10, 11])

    def test_pda_target_inside_source(self):
        s = ShiftSpec("PDA", 6, 6, 0)
        assert set(s.target_classes()) < set(range(s.n_source_classes))

    def test_invalid_splits(self):
        with pytest.raises(InvalidSplit):
            ShiftSpec("PDA", 6, 0, 0)
        with pytest.raises(InvalidSplit):
            ShiftSpec("PDA", 6, 3, 1)
        with pytest.raises(InvalidSplit):
            ShiftSpec("ODA", 6, 1, 3)
        with pytest.raises(InvalidSplit):
            ShiftSpec("OPDA", 6, 0, 3)
        with pytest.raises(InvalidSplit):
            ShiftSpec("open", 6, 3, 3)


class TestDomainSpec:
    def test_identity_rotation_when_unseeded(self):
        dom = default_domain()
        np.testing.assert_array_equal(dom.rotation(), np.eye(10))

    def test_zero_strength_is_identity(self):
        dom = default_domain(rotation_seed=3, rotation_strength=0.0)
        np.testing.assert_array_equal(dom.rotation(), np.eye(10))

    def test_rotation_is_orthogonal(self):
        dom = default_domain(rotation_seed=3, rotation_strength=1.5)
        r = dom.rotation()
        np.testing.assert_allclose(r @ r.T, np.eye(10), atol=1e-12)

    @pytest.mark.parametrize("strength", [1.0, -2.0, 1e300])
    def test_rotation_of_a_line_is_the_identity(self, strength):
        dom = default_domain(d_in=1, rotation_seed=3, rotation_strength=strength)
        np.testing.assert_array_equal(dom.rotation(), np.eye(1))

    @pytest.mark.parametrize("strength", [1e300, -1e300])
    def test_overflowing_rotation_is_a_value_error(self, strength):
        dom = default_domain(rotation_seed=3, rotation_strength=strength)
        with pytest.raises(ValueError, match="^rotation_strength .* is too large"):
            dom.rotation()

    @pytest.mark.parametrize("strength", [1e12, 1e16, -1e16])
    def test_rotation_that_lost_orthogonality_is_a_value_error(self, strength):
        """The squarings after the Padé step drift off orthogonality as the
        strength grows: 2.5e-4 at 1e12 and 0.63 at 1e16 on this domain."""
        dom = DomainSpec(d_in=20, class_sep=6.0, rotation_seed=1, rotation_strength=strength)
        with pytest.raises(ValueError, match=r"^rotation_strength .* is too large: "
                                             r"max\|R R\^T - I\| is .*, above 1e-09$"):
            dom.rotation()

    @pytest.mark.parametrize("strength", [2.0, 1e4, 1e6])
    def test_rotation_within_the_tolerance_is_kept(self, strength):
        rot = DomainSpec(d_in=20, class_sep=6.0, rotation_seed=1,
                         rotation_strength=strength).rotation()
        assert np.max(np.abs(rot @ rot.T - np.eye(20))) <= ORTHOGONALITY_TOL

    def test_subnormal_strength_gives_the_identity(self):
        # 5e-324 times the unit-norm skew underflows to the zero matrix
        from scipy.linalg import expm

        rot = default_domain(d_in=11, rotation_seed=1, rotation_strength=5e-324).rotation()
        np.testing.assert_array_equal(rot, np.eye(11))
        np.testing.assert_array_equal(rot, expm(np.zeros((11, 11))))

    def test_rotation_bits_are_scipy_expm_bits(self):
        """Over d_in, seed and a signed strength the rotation is
        scipy.linalg.expm(strength * skew) bit for bit, orthogonal with
        determinant +1 at moderate strengths, and the identity at 0. Some
        examples take squarings (s > 0), the step after the Padé routines."""
        from scipy.linalg import expm

        from gmmadapt.linalg import _expm_module

        squarings = []

        @settings(max_examples=80, deadline=None)
        @given(d_in=st.integers(2, 64), rotation_seed=st.integers(0, 2**32 - 1),
               strength=st.just(0.0) | st.floats(-40.0, 40.0))
        def check(d_in, rotation_seed, strength):
            dom = default_domain(d_in=d_in, rotation_seed=rotation_seed,
                                 rotation_strength=strength)
            rot = dom.rotation()
            if strength == 0.0:
                np.testing.assert_array_equal(rot, np.eye(d_in))
                return
            a = np.random.default_rng(np.random.SeedSequence(rotation_seed)).standard_normal(
                (d_in, d_in))
            skew = (a - a.T) / 2.0
            skew *= 1.0 / np.linalg.norm(skew, 2)
            assert np.array_equal(rot, expm(strength * skew))
            am = np.empty((5, d_in, d_in))
            am[0] = strength * skew
            squarings.append(_expm_module().pick_pade_structure(am)[1])
            if abs(strength) <= 10.0:
                np.testing.assert_allclose(rot @ rot.T, np.eye(d_in), rtol=0, atol=1e-12)
                assert np.linalg.det(rot) == pytest.approx(1.0, abs=1e-9)

        check()
        assert max(squarings) > 0

    @pytest.mark.parametrize("rotation_first", [True, False], ids=["rotation_first", "scipy_first"])
    def test_rotation_and_scipy_linalg_in_either_import_order(self, package_env, rotation_first):
        """The rotation does not load scipy.linalg, and it shares one
        _matfuncs_expm module object and its bits with scipy.linalg.expm
        whichever of the two is imported first."""
        build = (
            "dom = DomainSpec(d_in=20, class_sep=6.0, rotation_seed=1, rotation_strength=2.0)\n"
            "rot = dom.rotation()\n"
        )
        script = (
            "import sys\n"
            "import numpy as np\n"
            "from gmmadapt import DomainSpec\n"
            "from gmmadapt.linalg import _expm_module\n"
            + (build + "print('scipy.linalg' in sys.modules)\n" if rotation_first else "")
            + "from scipy.linalg import expm, _matfuncs_expm\n"
            + ("" if rotation_first else build)
            + "rng = np.random.default_rng(np.random.SeedSequence(1))\n"
            "a = rng.standard_normal((20, 20))\n"
            "skew = (a - a.T) / 2.0\n"
            "skew *= 1.0 / np.linalg.norm(skew, 2)\n"
            "print(np.array_equal(rot, expm(2.0 * skew)), _matfuncs_expm is _expm_module())\n"
        )
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, timeout=60, env=package_env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == ("False\n" if rotation_first else "") + "True True\n"

    @settings(max_examples=60, deadline=None)
    @given(d_in=st.integers(1, 64),
           scale=st.just(0.0) | st.floats(1e-6, 1e6) | st.floats(-1e6, -1e-6),
           rotation_seed=st.none() | st.integers(0, 2**32 - 1))
    def test_translation_length_and_norm(self, d_in, scale, rotation_seed):
        dom = default_domain(d_in=d_in, translation_scale=scale, rotation_seed=rotation_seed)
        t = dom.translation()
        assert t.shape == (d_in,)
        if scale == 0.0:
            np.testing.assert_array_equal(t, np.zeros(d_in))
        else:
            assert np.linalg.norm(t) == pytest.approx(abs(scale), rel=1e-12)


class TestClassCenters:
    def test_radius_and_distinctness(self):
        dom = default_domain()
        centers = class_centers(12, dom, seed=0)
        np.testing.assert_allclose(np.linalg.norm(centers, axis=1), 4.0, rtol=1e-12)
        assert len({tuple(np.sign(c)) for c in centers}) == 12

    def test_deterministic(self):
        dom = default_domain()
        np.testing.assert_array_equal(class_centers(8, dom, seed=5),
                                      class_centers(8, dom, seed=5))

    @settings(max_examples=40, deadline=None)
    @given(d_in=st.integers(1, 8), n_classes=st.integers(1, 24), seed=st.integers(0, 2**32 - 1))
    def test_same_bytes_as_nested_loop(self, d_in, n_classes, seed):
        n_classes = min(n_classes, 2 ** d_in)
        dom = default_domain(d_in=d_in)
        assert class_centers(n_classes, dom, seed).tobytes() == \
            _nested_loop_centers(n_classes, dom, seed).tobytes()

    def test_same_bytes_as_nested_loop_after_relaxation(self):
        # with d_in 3 at most 4 corners keep Hamming distance 2, so 8
        # classes relax min_h to 1
        dom = default_domain(d_in=3)
        for seed in range(5):
            assert class_centers(8, dom, seed).tobytes() == \
                _nested_loop_centers(8, dom, seed).tobytes()


def _nested_loop_centers(n_classes, dom, seed):
    """The reference: class_centers as first written, one Python check
    per accepted corner."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    min_h = max(1, int(np.ceil(0.4 * dom.d_in)))
    signs = []
    while len(signs) < n_classes:
        attempts = 0
        while True:
            s = rng.integers(0, 2, size=dom.d_in) * 2 - 1
            if all(np.sum(s != t) >= min_h for t in signs):
                signs.append(s)
                break
            attempts += 1
            if attempts > 200 * n_classes:
                min_h = max(1, min_h - 1)
                attempts = 0
    corners = np.asarray(signs, dtype=np.float64)
    return dom.class_sep * corners / np.sqrt(dom.d_in)


class TestMakeTask:
    def test_opda_label_spaces(self):
        shift = ShiftSpec("OPDA", 6, 3, 3)
        source, stream = make_task(shift, default_domain(), seed=0,
                                   n_source_train=900, n_source_holdout=100,
                                   n_batches=20, batch_size=32)
        assert set(np.unique(source.y_train)) <= set(range(9))
        labels = np.concatenate([b.true_labels for b in stream])
        # shared classes or the unknown marker; source-private never appears
        assert set(np.unique(labels)) <= set(range(6)) | {9}

    def test_pda_stream_is_strictly_known(self):
        shift = ShiftSpec("PDA", 6, 6, 0)
        _, stream = make_task(shift, default_domain(), seed=1,
                              n_source_train=100, n_source_holdout=50,
                              n_batches=10, batch_size=16)
        labels = np.concatenate([b.true_labels for b in stream])
        assert set(np.unique(labels)) <= set(range(6))

    def test_oda_private_labels_use_marker(self):
        shift = ShiftSpec("ODA", 4, 0, 2)
        _, stream = make_task(shift, default_domain(), seed=2,
                              n_source_train=100, n_source_holdout=50,
                              n_batches=10, batch_size=16)
        labels = np.concatenate([b.true_labels for b in stream])
        assert shift.unknown_marker in labels

    def test_batch_count_and_indices(self):
        shift = ShiftSpec("OPDA", 3, 2, 2)
        _, stream = make_task(shift, default_domain(), seed=3,
                              n_source_train=50, n_source_holdout=20,
                              n_batches=10, batch_size=64)
        batches = list(stream)
        assert len(batches) == 10
        assert [b.batch_index for b in batches] == list(range(1, 11))
        assert all(b.inputs.shape == (64, 10) for b in batches)

    def test_same_seed_identical_stream(self):
        shift = ShiftSpec("OPDA", 3, 2, 2)
        dom = default_domain(rotation_seed=4, translation_scale=3.0)
        a = list(make_task(shift, dom, seed=7, n_batches=5, batch_size=16)[1])
        b = list(make_task(shift, dom, seed=7, n_batches=5, batch_size=16)[1])
        for ba, bb in zip(a, b):
            np.testing.assert_array_equal(ba.inputs, bb.inputs)
            np.testing.assert_array_equal(ba.true_labels, bb.true_labels)

    def test_short_final_batch_dropped(self):
        from gmmadapt.simulator import TargetStream
        stream = TargetStream(np.zeros((100, 2)), np.zeros(100, dtype=int), batch_size=16)
        assert stream.n_batches == 6
        assert sum(1 for _ in stream) == 6

    def test_class_frequencies_uniform_within_3_sigma(self):
        shift = ShiftSpec("OPDA", 6, 3, 3)
        n_batches, batch = 100, 64
        _, stream = make_task(shift, default_domain(d_in=20), seed=11,
                              n_batches=n_batches, batch_size=batch)
        labels = np.concatenate([b.true_labels for b in stream])
        n = labels.size
        # 9 target classes, 6 shared + 3 collapsed onto the marker
        p_shared, p_marker = 1 / 9, 3 / 9
        for c in range(6):
            expected, sd = n * p_shared, np.sqrt(n * p_shared * (1 - p_shared))
            assert abs((labels == c).sum() - expected) <= 3 * sd
        expected, sd = n * p_marker, np.sqrt(n * p_marker * (1 - p_marker))
        assert abs((labels == 9).sum() - expected) <= 3 * sd

    def test_null_shift_shared_class_distributions_match(self):
        shift = ShiftSpec("OPDA", 3, 2, 2)
        dom = default_domain(d_in=6, rotation_seed=None)
        source, stream = make_task(shift, dom, seed=13, n_source_train=6000,
                                   n_source_holdout=100, n_batches=120, batch_size=64)
        batches = list(stream)
        xt = np.concatenate([b.inputs for b in batches])
        yt = np.concatenate([b.true_labels for b in batches])
        for c in range(3):
            src_mean = source.x_train[source.y_train == c].mean(axis=0)
            tgt_mean = xt[yt == c].mean(axis=0)
            np.testing.assert_allclose(src_mean, tgt_mean, atol=0.15)


class TestNullShiftSanityAnchor:
    def test_adaptation_preserves_known_accuracy(self):
        # identity rotation, zero translation, equal noise: the adaptation
        # run's shared-class accuracy stays within 2 points of the source
        # holdout accuracy
        from gmmadapt.config import default_config
        from gmmadapt.runner import adapt_stream, build_task, train_source_model

        cfg = default_config()
        cfg.domain.rotation_seed = None
        cfg.domain.rotation_strength = 0.0
        cfg.domain.translation_scale = 0.0
        cfg.domain.noise_sigma_target = cfg.domain.noise_sigma_source
        source, stream = build_task(cfg)
        model, holdout_acc, _ = train_source_model(cfg, source)
        result = adapt_stream(cfg, model, stream)
        acc_known = result.summary(cfg)["full_run"]["acc_known"]
        assert holdout_acc - acc_known <= 0.02
