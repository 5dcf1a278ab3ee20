"""Model-zoo tests: registry completeness, stage equivalence, trained quality.

These use the on-disk training cache; the first run trains the models it
touches (deterministic, seeded).
"""

import io
import os
import shutil
import sys
import threading

import numpy as np
import pytest

from repro.convert import QuantizationConfig
from repro.graph.serialize import graph_to_bytes
from repro.metrics import top_1_accuracy
from repro.pipelines.edge import (
    IMAGE_OVERRIDE_KEYS,
    SPEECH_OVERRIDE_KEYS,
    make_preprocess,
)
from repro.pipelines.preprocess import NORMALIZATIONS, SPEC_NORMALIZATIONS
from repro.runtime import Interpreter, OpResolver, ReferenceOpResolver
from repro.util.errors import ReproError
from repro.zoo import (
    IMAGE_CLASSIFIERS,
    build_checkpoint,
    eval_data,
    get_entry,
    get_model,
    get_trained,
    list_models,
    playback_data,
)
from repro.zoo import cache, registry
from repro.zoo.arch import arch_signature


EXPECTED_MODELS = {
    "micro_mobilenet_v1", "micro_mobilenet_v2", "micro_mobilenet_v3",
    "micro_inception", "micro_resnet", "micro_densenet", "effdet_lite",
    "ssd_lite", "frcnn_lite", "deeplab_lite", "speech_cnn_a", "speech_cnn_b",
    "nnlm_lite", "micro_bert",
}


class TestRegistry:
    def test_all_models_registered(self):
        assert set(list_models()) == EXPECTED_MODELS

    def test_unknown_model_helpful_error(self):
        with pytest.raises(ReproError, match="available"):
            get_entry("resnet152")

    def test_entries_carry_pipelines(self):
        for name in list_models():
            entry = get_entry(name)
            assert entry.pipeline["task"] == entry.task
            assert entry.family

    def test_image_lineup_matches_paper_tables(self):
        assert len(IMAGE_CLASSIFIERS) == 6
        families = {get_entry(n).family for n in IMAGE_CLASSIFIERS}
        assert "Mobilenet v2" in families and "Densenet 121" in families

    def test_arch_signature_stable_and_sensitive(self):
        a = arch_signature(get_entry("micro_mobilenet_v2").arch_fn())
        b = arch_signature(get_entry("micro_mobilenet_v2").arch_fn())
        c = arch_signature(get_entry("micro_mobilenet_v1").arch_fn())
        assert a == b and a != c


class TestTrainedQuality:
    def test_mobilenet_v2_accuracy(self):
        _, _, meta = get_trained("micro_mobilenet_v2")
        assert meta["val_accuracy"] > 0.85

    def test_speech_accuracy(self):
        _, _, meta = get_trained("speech_cnn_a")
        assert meta["val_accuracy"] > 0.9

    def test_text_accuracy(self):
        _, _, meta = get_trained("nnlm_lite")
        assert meta["val_accuracy"] > 0.85

    def test_loss_decreases(self):
        _, _, meta = get_trained("micro_mobilenet_v2")
        history = meta["loss_history"]
        assert history[-1] < history[0] / 2

    def test_training_deterministic_via_cache(self):
        a = get_trained("micro_mobilenet_v2")
        b = get_trained("micro_mobilenet_v2")
        np.testing.assert_array_equal(a[0]["stem.w"], b[0]["stem.w"])


class TestStages:
    def test_checkpoint_has_bn_and_activations(self):
        graph = build_checkpoint("micro_mobilenet_v2")
        ops = {n.op for n in graph.nodes}
        assert "batch_norm" in ops and "activation" in ops
        assert graph.metadata["stage"] == "checkpoint"
        assert graph.metadata["pipeline"]["task"] == "classification"

    def test_mobile_folds_everything(self):
        mobile = get_model("micro_mobilenet_v2", "mobile")
        ops = {n.op for n in mobile.nodes}
        assert "batch_norm" not in ops
        assert mobile.num_layers() < build_checkpoint(
            "micro_mobilenet_v2").num_layers()

    def test_v2_second_layer_is_depthwise(self):
        """Figure 6's premise: MobileNet v2's 2nd (mobile) layer is a dwconv."""
        mobile = get_model("micro_mobilenet_v2", "mobile")
        assert mobile.nodes[1].op == "depthwise_conv2d"

    def test_v3_has_avgpool_in_every_se_block(self):
        mobile = get_model("micro_mobilenet_v3", "mobile")
        squeezes = [n for n in mobile.nodes
                    if n.op == "avg_pool2d" and "se" in n.name]
        assert len(squeezes) >= 4  # one full-extent AveragePool per SE block

    def test_mobile_equals_checkpoint(self):
        x, _ = eval_data("micro_mobilenet_v2", 32)
        ckpt = Interpreter(build_checkpoint("micro_mobilenet_v2")).invoke_single(x)
        mobile = Interpreter(get_model("micro_mobilenet_v2", "mobile")).invoke_single(x)
        np.testing.assert_allclose(ckpt, mobile, atol=1e-4)

    def test_quantized_close_to_float(self):
        x, labels = eval_data("micro_mobilenet_v2", 128)
        mobile = get_model("micro_mobilenet_v2", "mobile")
        quant = get_model("micro_mobilenet_v2", "quantized")
        acc_f = top_1_accuracy(Interpreter(mobile).invoke_single(x), labels)
        acc_q = top_1_accuracy(Interpreter(quant).invoke_single(x), labels)
        assert abs(acc_f - acc_q) < 0.06  # Fig 5: +-3% for correct kernels

    def test_quantized_resolvers_bit_identical(self):
        x, _ = eval_data("micro_mobilenet_v1", 32)
        quant = get_model("micro_mobilenet_v1", "quantized")
        a = Interpreter(quant, OpResolver()).invoke_single(x)
        b = Interpreter(quant, ReferenceOpResolver()).invoke_single(x)
        np.testing.assert_array_equal(a, b)

    def test_quant_config_respected(self):
        quant = get_model(
            "micro_mobilenet_v1", "quantized",
            QuantizationConfig(per_channel_weights=False))
        node = next(n for n in quant.nodes if n.op == "conv2d")
        assert not node.weight_quant["weights"].per_channel

    def test_unknown_stage_rejected(self, monkeypatch):
        def must_not_run(*args, **kwargs):
            raise AssertionError("built or trained before the stage check")

        monkeypatch.setattr(registry, "build_checkpoint", must_not_run)
        monkeypatch.setattr(registry, "get_trained", must_not_run)
        with pytest.raises(ReproError, match="did you mean 'quantized'"):
            get_model("micro_mobilenet_v1", "quantised")
        with pytest.raises(ReproError, match="unknown stage 'tflite'"):
            get_model("micro_mobilenet_v1", "tflite")

    def test_effdet_normalization_in_graph(self):
        mobile = get_model("effdet_lite", "mobile")
        assert mobile.nodes[0].op == "image_normalize"

    def test_inception_expects_bgr(self):
        entry = get_entry("micro_inception")
        assert entry.pipeline["image_preprocess"]["channel_order"] == "bgr"

    def test_text_models_run(self):
        ids, labels = eval_data("nnlm_lite", 64)
        graph = get_model("nnlm_lite", "mobile")
        out = Interpreter(graph).invoke_single(ids)
        assert top_1_accuracy(out, labels) > 0.8

    def test_detector_runs_and_detects(self):
        from repro.pipelines.detection import decode_predictions
        from repro.metrics import mean_average_precision
        x, anns = eval_data("ssd_lite", 64)
        graph = get_model("ssd_lite", "mobile")
        head = Interpreter(graph).invoke_single(x)
        decoded = decode_predictions(head, 4, 48)
        gt = [[(a.label, a.box) for a in img] for img in anns]
        assert mean_average_precision(decoded, gt, 4) > 0.3

    def test_segmenter_runs(self):
        from repro.metrics import mean_iou
        x, masks = eval_data("deeplab_lite", 32)
        graph = get_model("deeplab_lite", "mobile")
        logits = Interpreter(graph).invoke_single(x)
        assert mean_iou(logits.argmax(-1), masks, 4) > 0.5


MEMO_MODEL = "micro_mobilenet_v1"


def graph_parts(graph):
    """A graph's serialized document and weight arrays, by container key."""
    with np.load(io.BytesIO(graph_to_bytes(graph))) as data:
        return {key: data[key] for key in data.files}


def assert_same_graph(a, b):
    parts_a, parts_b = graph_parts(a), graph_parts(b)
    assert sorted(parts_a) == sorted(parts_b)
    for key, value in parts_a.items():
        other = parts_b[key]
        assert value.dtype == other.dtype and value.shape == other.shape, key
        assert value.tobytes() == other.tobytes(), key


@pytest.fixture
def count_builds(monkeypatch):
    """Names of the real builds behind get_model, from an empty memo."""
    registry._build_model.cache_clear()
    built = []
    real = registry.build_checkpoint

    def counted(name):
        built.append(name)
        return real(name)

    monkeypatch.setattr(registry, "build_checkpoint", counted)
    yield built
    registry._build_model.cache_clear()


def copy_trained_files(name, dest):
    key = registry._cache_key(get_entry(name))
    dest.mkdir(exist_ok=True)
    for path in cache._paths(key):
        shutil.copy2(path, dest / path.name)
    return key


class TestModelMemo:
    @pytest.mark.parametrize("stage", ["checkpoint", "mobile", "quantized"])
    def test_warm_result_matches_cold_build(self, stage):
        get_model(MEMO_MODEL, stage)
        warm = get_model(MEMO_MODEL, stage)
        registry._build_model.cache_clear()
        cold = get_model(MEMO_MODEL, stage)
        assert_same_graph(warm, cold)

    def test_repeat_calls_build_once(self, count_builds):
        first = get_model(MEMO_MODEL, "quantized")
        second = get_model(MEMO_MODEL, "quantized")
        assert count_builds == [MEMO_MODEL]
        assert first is not second
        assert_same_graph(first, second)

    def test_mutating_a_result_does_not_leak(self):
        pristine = get_model(MEMO_MODEL, "mobile")
        mutated = get_model(MEMO_MODEL, "mobile")
        for node in mutated.nodes:
            for array in node.weights.values():
                array[...] = 0
        mutated.nodes[0].attrs["tampered"] = True
        mutated.metadata["stage"] = "tampered"
        mutated.metadata["pipeline"]["image_preprocess"]["channel_order"] = "bgr"
        mutated.nodes.clear()
        assert_same_graph(get_model(MEMO_MODEL, "mobile"), pristine)

    def test_rewritten_trained_files_rebuild(self, tmp_path, monkeypatch,
                                             count_builds):
        key = copy_trained_files(MEMO_MODEL, tmp_path)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        get_model(MEMO_MODEL, "mobile")
        get_model(MEMO_MODEL, "mobile")
        assert len(count_builds) == 1

        params, state, meta = cache.load_trained(key)
        cache.save_trained(key, params, state, {**meta, "note": "rewritten"})
        rebuilt = get_model(MEMO_MODEL, "mobile")
        assert len(count_builds) == 2
        assert rebuilt.metadata["training_meta"]["note"] == "rewritten"
        get_model(MEMO_MODEL, "mobile")
        assert len(count_builds) == 2

    def test_switching_cache_dir_rebuilds(self, tmp_path, monkeypatch,
                                          count_builds):
        home = str(cache.cache_dir())
        get_model(MEMO_MODEL, "mobile")
        for sub in ("a", "b"):
            copy_trained_files(MEMO_MODEL, tmp_path / sub)
            monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / sub))
            get_model(MEMO_MODEL, "mobile")
        assert len(count_builds) == 3
        monkeypatch.setenv("REPRO_CACHE_DIR", home)
        get_model(MEMO_MODEL, "mobile")
        assert len(count_builds) == 3

    def test_quant_configs_give_different_graphs(self):
        def conv_per_channel(graph):
            node = next(n for n in graph.nodes if n.op == "conv2d")
            return node.weight_quant["weights"].per_channel

        default = get_model(MEMO_MODEL, "quantized")
        explicit = get_model(MEMO_MODEL, "quantized", QuantizationConfig())
        per_tensor = get_model(MEMO_MODEL, "quantized",
                               QuantizationConfig(per_channel_weights=False))
        assert_same_graph(default, explicit)
        assert conv_per_channel(default) and not conv_per_channel(per_tensor)

    def test_failed_build_is_not_cached(self, count_builds):
        for _ in range(2):
            with pytest.raises(ReproError, match="not supported"):
                get_model("nnlm_lite", "quantized")
        assert count_builds == ["nnlm_lite", "nnlm_lite"]

    def test_concurrent_callers_get_independent_graphs(self):
        # More threads than cores copy the one memoized graph at once, and
        # every thread wrecks what it gets, so a shared graph would leak.
        # The build is warm first and the checks stay in plain numpy:
        # np.load header parsing from many threads at this switch interval
        # trips a CPython 3.11 compiler race unrelated to the memo.
        pristine = get_model(MEMO_MODEL, "mobile")
        leaks, finished = [], []

        def intact(graph):
            return graph.metadata["stage"] == "mobile" and all(
                ours.weights.keys() == theirs.weights.keys() and all(
                    np.array_equal(ours.weights[k], theirs.weights[k])
                    for k in ours.weights)
                for ours, theirs in zip(graph.nodes, pristine.nodes,
                                        strict=True))

        def worker():
            for _ in range(5):
                graph = get_model(MEMO_MODEL, "mobile")
                if not intact(graph):
                    leaks.append(graph.name)
                for node in graph.nodes:
                    for array in node.weights.values():
                        array[...] = 0
                graph.metadata["stage"] = "tampered"
            finished.append(True)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker)
                       for _ in range(2 * (os.cpu_count() or 1) + 2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(finished) == len(threads) and leaks == []


class TestPlaybackMemo:
    @pytest.mark.parametrize("name", ["micro_mobilenet_v1", "ssd_lite",
                                      "speech_cnn_a", "nnlm_lite"])
    def test_arrays_reject_writes(self, name):
        raw, labels = playback_data(name, 3, "memo")
        for array in (raw, labels):
            if array is None:
                continue
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array.flat[0] = 0

    def test_repeat_calls_share_arrays(self):
        first = playback_data(MEMO_MODEL, 3, "memo")
        second = playback_data(MEMO_MODEL, 3, "memo")
        assert first[0] is second[0] and first[1] is second[1]

    @pytest.mark.parametrize("name, options, keys", [
        (MEMO_MODEL, {
            "target_size": [[48, 48], [80, 64]],
            "resize_method": ["area", "bilinear", "nearest"],
            "channel_order": ["rgb", "bgr"],
            "normalization": list(NORMALIZATIONS),
            "rotation_k": [1, 2, 3],
        }, IMAGE_OVERRIDE_KEYS),
        ("speech_cnn_a", {
            "spectrogram_normalization": list(SPEC_NORMALIZATIONS),
            "frame_len": [200, 320],
            "hop": [100, 160],
            "num_bins": [32, 48],
        }, SPEECH_OVERRIDE_KEYS),
    ], ids=["image", "speech"])
    def test_overrides_run_on_read_only_batch(self, name, options, keys):
        assert set(options) == keys
        raw, _ = playback_data(name, 3, "memo")
        before = raw.tobytes()
        pipeline = get_entry(name).pipeline
        for key, values in options.items():
            for value in values:
                out = make_preprocess(pipeline, {key: value})(raw)
                assert out.dtype == np.float32 and len(out) == len(raw)
        assert raw.tobytes() == before
