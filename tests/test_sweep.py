"""Deployment-sweep tests: variant parsing, parallel/serial equivalence."""

import gc
import json
import multiprocessing
import os
import sys

import numpy as np
import pytest

from repro.instrument import store
from repro.util.errors import ValidationError
from repro.validate import execution
from repro.validate.execution import (
    _resident_log,
    _run_variant_args,
    make_pool,
    resolve_ref_log,
)
from repro.validate.sweep import (
    DEFAULT_IMAGE_VARIANTS,
    SweepVariant,
    build_reference_log,
    coerce_override_value,
    parse_variant_spec,
    run_sweep,
    run_variant,
)
from repro.zoo import playback_data, registry

MODEL = "micro_mobilenet_v1"


class TestVariantSpec:
    def test_name_only(self):
        v = parse_variant_spec("clean")
        assert v.name == "clean" and v.overrides == {}
        assert v.stage == "mobile" and v.resolver == "optimized"

    def test_overrides_and_fields(self):
        v = parse_variant_spec(
            "bgr:channel_order=bgr,rotation_k=1,stage=quantized,"
            "resolver=reference,device=pixel3_cpu")
        assert v.overrides == {"channel_order": "bgr", "rotation_k": 1}
        assert v.stage == "quantized" and v.resolver == "reference"
        assert v.device == "pixel3_cpu"

    def test_integer_values_parsed(self):
        assert parse_variant_spec("r:rotation_k=2").overrides["rotation_k"] == 2

    def test_empty_name_rejected(self):
        with pytest.raises(ValidationError):
            parse_variant_spec(":channel_order=bgr")

    def test_missing_equals_rejected(self):
        with pytest.raises(ValidationError):
            parse_variant_spec("v:nonsense")

    def test_bad_stage_rejected(self):
        with pytest.raises(ValidationError):
            parse_variant_spec("v:stage=folded")

    def test_bad_device_rejected(self):
        with pytest.raises(ValidationError):
            parse_variant_spec("v:device=pixel9")

    def test_bad_kernel_bugs_rejected(self):
        with pytest.raises(ValidationError):
            parse_variant_spec("v:kernel_bugs=all-of-them")

    def test_bracketed_value_not_split(self):
        v = parse_variant_spec("n:normalization=[0,1]")
        assert v.overrides == {"normalization": "[0,1]"}

    def test_target_size_value_coerced(self):
        v = parse_variant_spec("s:target_size=[16,16]")
        assert v.overrides == {"target_size": [16, 16]}
        assert coerce_override_value("target_size", "16x16") == [16, 16]

    def test_bad_resolver_rejected(self):
        with pytest.raises(ValidationError):
            parse_variant_spec("v:resolver=turbo")

    def test_registered_resolver_becomes_sweepable(self):
        # The variant check consults the live registry, not a hardcoded
        # name list: registering a resolver makes it sweepable immediately.
        from repro.runtime.resolver import RESOLVERS, OpResolver, register_resolver
        with pytest.raises(ValidationError):
            SweepVariant("v", resolver="custom_opt").check()
        register_resolver("custom_opt", OpResolver)
        try:
            v = parse_variant_spec("v:resolver=custom_opt")
            assert v.resolver == "custom_opt"
        finally:
            del RESOLVERS["custom_opt"]
        with pytest.raises(ValidationError):
            SweepVariant("v", resolver="custom_opt").check()

    def test_bad_target_size_rejected(self):
        with pytest.raises(ValidationError):
            coerce_override_value("target_size", "huge")


class TestPlaybackData:
    def test_deterministic(self):
        # A warm call returns the memoized arrays themselves, so compare it
        # against a cold render after emptying the memo.
        playback_data(MODEL, 6, "t")
        warm = playback_data(MODEL, 6, "t")
        playback_data.cache_clear()
        cold = playback_data(MODEL, 6, "t")
        for a, b in zip(warm, cold):
            assert a is not b
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()

    def test_detection_labels_dropped(self):
        _, labels = playback_data("ssd_lite", 2, "t")
        assert labels is None


class TestRunVariant:
    def test_clean_variant_healthy(self):
        result = run_variant(MODEL, SweepVariant("clean"), frames=12)
        assert result.healthy and result.num_issues == 0
        assert result.mean_latency_ms > 0
        assert result.peak_memory_mb > 0

    def test_bug_variant_diagnosed(self):
        result = run_variant(
            MODEL, SweepVariant("rot", {"rotation_k": 1}), frames=12)
        assert not result.healthy
        assert any("rotated" in a.diagnosis for a in result.report.issues)

    def test_unknown_override_rejected(self):
        with pytest.raises(ValidationError):
            run_variant(MODEL, SweepVariant("typo", {"chanel_order": "bgr"}),
                        frames=2)

    def test_shared_reference_log_matches_private_run(self):
        ref_log = build_reference_log(MODEL, 8)
        shared = run_variant(MODEL, SweepVariant("clean"), frames=8,
                             ref_log=ref_log)
        private = run_variant(MODEL, SweepVariant("clean"), frames=8)
        assert shared.report.render() == private.report.render()


class TestRunSweep:
    def test_parallel_matches_serial_exactly(self):
        serial = run_sweep(MODEL, DEFAULT_IMAGE_VARIANTS, frames=12,
                           executor="serial")
        parallel = run_sweep(MODEL, DEFAULT_IMAGE_VARIANTS, frames=12,
                             executor="process")
        assert len(parallel.results) == len(DEFAULT_IMAGE_VARIANTS) >= 4
        for ours, theirs in zip(serial.results, parallel.results):
            assert ours.variant == theirs.variant
            assert ours.report.render() == theirs.report.render()
            assert ours.mean_latency_ms == theirs.mean_latency_ms
            assert ours.peak_memory_mb == theirs.peak_memory_mb
        assert serial.render() == parallel.render()

    @pytest.mark.parametrize("preflight", [True, False])
    def test_thread_sweep_builds_each_graph_once(self, monkeypatch, preflight):
        registry._build_model.cache_clear()
        quantized = []
        real = registry.quantize_graph

        def counted(*args, **kwargs):
            quantized.append(args[0].name)
            return real(*args, **kwargs)

        monkeypatch.setattr(registry, "quantize_graph", counted)
        variants = [SweepVariant("clean"),
                    SweepVariant("bgr", {"channel_order": "bgr"}),
                    SweepVariant("clean_q", stage="quantized"),
                    SweepVariant("bgr_q", {"channel_order": "bgr"},
                                 stage="quantized")]
        threaded = run_sweep(MODEL, variants, frames=8, executor="thread",
                             workers=4, backends="optimized,batched",
                             preflight=preflight)
        assert len(quantized) <= 1
        serial = run_sweep(MODEL, variants, frames=8, executor="serial",
                           backends="optimized,batched")
        assert json.dumps(threaded.to_doc(), sort_keys=True) == \
            json.dumps(serial.to_doc(), sort_keys=True)
        assert threaded.render() == serial.render()

    def test_spawned_worker_matches_in_process_run(self, tmp_path):
        frames, tag = 8, "spawn"
        ref = tmp_path / "reference"
        build_reference_log(MODEL, frames, tag, log_root=ref)
        args = (MODEL, SweepVariant("bgr_q", {"channel_order": "bgr"},
                                    stage="quantized"),
                frames, False, tag, str(ref), None)
        pool, _ = make_pool("process", 1, 1,
                            mp_context=multiprocessing.get_context("spawn"))
        with pool:
            spawned = pool.submit(_run_variant_args, args).result()
        assert spawned.to_doc() == _run_variant_args(args).to_doc()

    def test_thread_executor_matches_serial(self):
        variants = [SweepVariant("clean"),
                    SweepVariant("bgr", {"channel_order": "bgr"})]
        serial = run_sweep(MODEL, variants, frames=8, executor="serial")
        threaded = run_sweep(MODEL, variants, frames=8, executor="thread")
        assert serial.render() == threaded.render()

    def test_bug_lineup_flags_rot90_not_clean(self):
        report = run_sweep(MODEL, DEFAULT_IMAGE_VARIANTS, frames=12,
                           executor="process")
        assert report.result("clean").healthy
        assert not report.result("rot90").healthy
        assert not report.healthy

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValidationError):
            run_sweep(MODEL, [SweepVariant("a"), SweepVariant("a")], frames=2)

    def test_empty_variants_rejected(self):
        with pytest.raises(ValidationError):
            run_sweep(MODEL, [], frames=2)

    def test_unknown_executor_rejected(self):
        with pytest.raises(ValidationError):
            run_sweep(MODEL, [SweepVariant("a")], frames=2, executor="gpu")

    def test_nonpositive_workers_rejected(self):
        for bad in (0, -1):
            with pytest.raises(ValidationError):
                run_sweep(MODEL, [SweepVariant("a")], frames=2, workers=bad)

    def test_unknown_result_name_rejected(self):
        report = run_sweep(MODEL, [SweepVariant("clean")], frames=4,
                           executor="serial")
        with pytest.raises(ValidationError):
            report.result("nope")

    def test_render_mentions_every_variant(self):
        report = run_sweep(MODEL, DEFAULT_IMAGE_VARIANTS[:2], frames=8,
                           executor="serial")
        text = report.render()
        for variant in DEFAULT_IMAGE_VARIANTS[:2]:
            assert variant.name in text
        assert "sweep verdict" in text


class TestReferenceMemo:
    """The decoded shared reference: once per process, read-only, fresh."""

    VARIANTS = [SweepVariant("clean"),
                SweepVariant("bgr", {"channel_order": "bgr"}),
                SweepVariant("rot90", {"rotation_k": 1}),
                SweepVariant("clean_q", stage="quantized")]

    @pytest.fixture
    def count_decodes(self, monkeypatch, tmp_path):
        # Append one line per v3 shard decode; fork-started pool workers
        # inherit the patch and append to the same file.
        counter = tmp_path / "decodes.txt"
        counter.touch()
        real = store._DirectorySource._attach_v3

        def counted(source, doc, frame, keys=None):
            with counter.open("a") as handle:
                handle.write(f"{os.getpid()}\n")
            return real(source, doc, frame, keys)

        monkeypatch.setattr(store._DirectorySource, "_attach_v3", counted)
        return lambda: counter.read_text().splitlines()

    @pytest.fixture
    def ref_dir(self, tmp_path):
        root = tmp_path / "reference"
        build_reference_log(MODEL, 4, log_root=root)
        yield root
        _resident_log.cache_clear()

    def test_serial_sweep_decodes_each_reference_frame_once(
            self, count_decodes):
        frames = 8
        run_sweep(MODEL, self.VARIANTS, frames=frames, executor="serial")
        assert 0 < len(count_decodes()) <= frames

    def test_process_sweep_decodes_once_per_worker(self, count_decodes):
        if multiprocessing.get_start_method() != "fork":
            pytest.skip("counting decodes needs fork-inherited patches")
        frames, workers = 8, 2
        run_sweep(MODEL, self.VARIANTS, frames=frames, executor="process",
                  workers=workers)
        decodes = count_decodes()
        assert 0 < len(decodes) <= frames * workers
        for pid in set(decodes):
            assert decodes.count(pid) <= frames

    def test_memoized_tensors_are_read_only_and_shared(self, ref_dir):
        log = resolve_ref_log(ref_dir)
        assert resolve_ref_log(str(ref_dir)) is log
        tensors = [t for frame in log.frames for t in frame.tensors.values()]
        assert tensors and not any(t.flags.writeable for t in tensors)
        with pytest.raises(ValueError):
            tensors[0][...] = 0

    def test_rewritten_shard_reloads(self, ref_dir):
        first = resolve_ref_log(ref_dir)
        shard = ref_dir / "tensors" / "000000.bin"
        st = shard.stat()
        os.utime(shard, ns=(st.st_atime_ns, st.st_mtime_ns + 1_000_000_000))
        second = resolve_ref_log(ref_dir)
        assert second is not first
        for a, b in zip(first.frames, second.frames):
            assert a.tensors.keys() == b.tensors.keys()
            for key in a.tensors:
                np.testing.assert_array_equal(a.tensors[key], b.tensors[key])

    def test_corrupt_shard_raises_named_error_and_is_not_cached(
            self, ref_dir):
        resolve_ref_log(ref_dir)
        shard = ref_dir / "tensors" / "000001.bin"
        good = shard.read_bytes()
        shard.write_bytes(b"not a zlib stream")
        with pytest.raises(ValidationError, match="000001.bin is corrupt"):
            resolve_ref_log(ref_dir)
        with pytest.raises(ValidationError, match="000001.bin is corrupt"):
            resolve_ref_log(ref_dir)
        shard.write_bytes(good)
        assert len(resolve_ref_log(ref_dir).frames) == 4

    def test_log_dir_keeps_reference_lazy(self, monkeypatch, tmp_path):
        seen = []

        class Spy(execution.DebugSession):
            def __init__(self, edge_log, ref_log, **kwargs):
                seen.append((ref_log, _resident_log.cache_info().currsize))
                super().__init__(edge_log, ref_log, **kwargs)

        monkeypatch.setattr(execution, "DebugSession", Spy)
        _resident_log.cache_clear()
        run_sweep(MODEL, self.VARIANTS[:2], frames=8, executor="serial",
                  log_dir=tmp_path / "logs", always_assert=True)
        assert len(seen) == 2
        for ref_log, memo_size in seen:
            assert ref_log._frames is None
            assert memo_size == 0

    def test_variant_leaves_no_cyclic_garbage(self, ref_dir):
        # A pool worker runs many variants between cyclic collections;
        # each variant's graph copy and edge log must be freed by
        # refcounting when it returns, or they pile up on top of the
        # resident reference.
        variant = SweepVariant("bgr", {"channel_order": "bgr"})
        run_variant(MODEL, variant, frames=4, ref_log=ref_dir)
        gc.collect()
        gc.disable()
        try:
            run_variant(MODEL, variant, frames=4, ref_log=ref_dir)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_executors_agree_byte_for_byte(self):
        # More threads than cores, switching often, share one memo: the
        # first variants race to fill it.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            docs = {
                executor: json.dumps(
                    run_sweep(MODEL, self.VARIANTS, frames=8,
                              executor=executor, workers=workers).to_doc(),
                    sort_keys=True)
                for executor, workers in (("serial", None), ("thread", 4),
                                          ("process", 2))}
        finally:
            sys.setswitchinterval(interval)
        assert docs["serial"] == docs["thread"] == docs["process"]
