"""Refcounted runtime: parity, aliasing, memory metric, verifier skepticism.

The runtime contract, pinned from every side:

* **alias accounting** — reshape/flatten executors return *views*; the
  refcounted arena charges each base buffer once, so peak resident bytes
  match reality instead of double-counting every view;
* **fused-activation consistency** — ``mul`` applies its fused activation
  attr on every backend (builtin float, batched, quantized), byte-identical
  across all of them;
* **seed parity** — the compiled-plan interpreter is byte-identical to the
  re-derive-per-call reference (:class:`ReDeriveInterpreter`) in outputs,
  profile, simulated latency, and peak bytes, zoo-wide, float and
  quantized, at every batch size, on both CPU backends;
* **memory metric** — ``last_peak_activation_bytes`` equals the
  compile-time liveness peak of the plan at the invoked batch;
* **dtype conformance** — every node's output carries its spec's dtype,
  zoo-wide, on both CPU backends, at batch 1 and 32;
* **verifier skepticism** — ``verify_layout`` re-proves every alias claim
  from the graph; a layout asserting a false alias is rejected, never
  trusted.
"""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.analysis import pack_arena, verify_layout
from repro.analysis.liveness import liveness_from_plan, peak_live_bytes
from repro.graph import GraphBuilder
from repro.instrument import EdgeMLMonitor, EXrayLog
from repro.perfmodel import PIXEL4_CPU
from repro.runtime import (
    BatchedOpResolver,
    Interpreter,
    OpResolver,
    ReferenceOpResolver,
)
from repro.zoo import get_model, list_models
from tests.reference_interpreter import ReDeriveInterpreter, strip_wall

# Models whose mobile stage cannot be fully-integer quantized (embedding /
# resize / in-graph normalize ops); their quantized stage is skipped, the
# float stages still run through the whole matrix.
UNQUANTIZABLE = frozenset(
    {"micro_bert", "nnlm_lite", "deeplab_lite", "effdet_lite"})


def make_feeds(graph, batch, seed=0):
    """Random feeds honouring each input's spec (int specs get ids)."""
    rng = np.random.default_rng(seed)
    feeds = {}
    for name in graph.inputs:
        spec = graph.spec(name)
        shape = tuple(batch if d is None else d for d in spec.shape)
        if spec.dtype.startswith("float"):
            feeds[name] = rng.normal(size=shape).astype(spec.dtype)
        else:
            feeds[name] = rng.integers(0, 16, size=shape).astype(spec.dtype)
    return feeds


# ------------------------------------------------------- alias accounting

class TestAliasAccounting:
    def _flatten_graph(self, rng):
        b = GraphBuilder("flatview")
        x = b.input("input", (None, 4, 4, 8))
        h = b.add("flatten", x, name="flat")
        h = b.dense(h, rng.normal(size=(128, 10)).astype(np.float32),
                    rng.normal(size=(10,)).astype(np.float32), name="logits")
        b.mark_output(h)
        return b.finish()

    @pytest.mark.parametrize("compiled", [False, True])
    def test_view_not_double_counted(self, rng, compiled):
        # flatten returns a view of its input: true resident bytes while
        # dense runs are input + logits, and nothing more. A per-array
        # accounting would charge the flattened view again (and "free"
        # bytes that stayed resident through the view). The re-derive
        # reference (compiled=False) shares the accounting.
        graph = self._flatten_graph(rng)
        x = rng.normal(size=(2, 4, 4, 8)).astype(np.float32)
        cls = Interpreter if compiled else ReDeriveInterpreter
        interp = cls(graph)
        out = interp.invoke(x)["logits"]
        true_resident = x.nbytes + out.nbytes
        assert interp.last_peak_activation_bytes == true_resident

    def test_view_kept_alive_by_consumer(self, rng):
        # Freeing the *input name* after flatten must not release the
        # buffer the flattened view still references: the bytes stay
        # charged until the last name dies.
        graph = self._flatten_graph(rng)
        x = rng.normal(size=(1, 4, 4, 8)).astype(np.float32)
        interp = Interpreter(graph)
        out = interp.invoke(x)["logits"]
        # Peak below input+flat+logits (the double-count) but not below
        # input+logits (the premature free).
        assert interp.last_peak_activation_bytes >= x.nbytes + out.nbytes
        assert interp.last_peak_activation_bytes < 2 * x.nbytes + out.nbytes


# --------------------------------------------- fused activation on mul

class TestMulFusedActivation:
    def _mul_graph(self, activation):
        b = GraphBuilder("mulact")
        x = b.input("a", (None, 6, 6, 4))
        y = b.input("b", (None, 6, 6, 4))
        h = b.add("mul", [x, y], name="prod",
                  attrs={"activation": activation})
        b.mark_output(h)
        return b.finish()

    @pytest.mark.parametrize("activation", ["relu", "relu6"])
    def test_float_backends_apply_and_agree(self, rng, activation):
        graph = self._mul_graph(activation)
        feeds = make_feeds(graph, 5)
        ref = Interpreter(graph, ReferenceOpResolver()).invoke(feeds)["prod"]
        # The activation actually fired (negative products exist pre-clip).
        raw = feeds["a"] * feeds["b"]
        assert (raw < 0).any() and (ref >= 0).all()
        np.testing.assert_array_equal(
            ref, np.clip(raw, 0.0, 6.0 if activation == "relu6" else None))
        for resolver in (OpResolver(), BatchedOpResolver()):
            got = Interpreter(graph, resolver).invoke(feeds)["prod"]
            np.testing.assert_array_equal(ref, got)

    def test_quantized_mul_applies_activation(self, small_cnn_quantized, rng):
        # The quantized graph pins the end-to-end path; here we only need
        # the executor not to drop the attr: a quantized mul with relu
        # never emits below the zero-point's dequantized value.
        from repro.kernels.quantized.optimized import qmul
        from repro.quantize import QuantParams
        a_p = QuantParams(scale=0.05, zero_point=0)
        b_p = QuantParams(scale=0.04, zero_point=0)
        o_p = QuantParams(scale=0.02, zero_point=10)
        a_q = rng.integers(-100, 100, size=(2, 8)).astype(np.int8)
        b_q = rng.integers(-100, 100, size=(2, 8)).astype(np.int8)
        plain = qmul(a_q, a_p, b_q, b_p, o_p)
        relu = qmul(a_q, a_p, b_q, b_p, o_p, activation="relu")
        assert (plain < o_p.zero_point).any()
        assert (relu >= o_p.zero_point).all()


# ------------------------------------------------------- zoo parity matrix

class TestZooParityMatrix:
    @pytest.fixture(scope="class")
    def stages(self):
        cache = {}

        def build(model, stage):
            key = (model, stage)
            if key not in cache:
                cache[key] = get_model(model, stage)
            return cache[key]

        return build

    @pytest.mark.parametrize("model", sorted(list_models()))
    def test_paths_byte_identical(self, stages, model):
        stage_names = ["mobile", "quantized"]
        if model in UNQUANTIZABLE:
            stage_names = ["mobile"]
        for stage in stage_names:
            graph = stages(model, stage)
            for resolver_cls in (OpResolver, BatchedOpResolver):
                for batch in (1, 4, 32):
                    feeds = make_feeds(graph, batch)
                    ctx = (model, stage, resolver_cls.__name__, batch)
                    seed = ReDeriveInterpreter(graph, resolver_cls(),
                                               device=PIXEL4_CPU)
                    plan = Interpreter(graph, resolver_cls(),
                                       device=PIXEL4_CPU)
                    seed_out = seed.invoke(feeds)
                    plan_out = plan.invoke(feeds)
                    assert list(seed_out) == list(plan_out), ctx
                    for t in seed_out:
                        np.testing.assert_array_equal(
                            seed_out[t], plan_out[t], err_msg=repr((*ctx, t)))
                    assert strip_wall(plan.last_profile) == \
                        strip_wall(seed.last_profile), ctx
                    assert plan.last_latency_ms == seed.last_latency_ms, ctx
                    assert plan.last_peak_activation_bytes == \
                        seed.last_peak_activation_bytes, ctx

    @pytest.mark.parametrize("stage", ["mobile", "quantized"])
    def test_exray_layer_schedule_unchanged(self, stages, stage):
        # How bindings are derived must be invisible to EXray: same
        # layers, same order, same per-layer tensors.
        graph = stages("micro_mobilenet_v1", stage)
        feeds = make_feeds(graph, 4)
        frames = {}
        for label, cls in (("seed", ReDeriveInterpreter),
                           ("plan", Interpreter)):
            interp = cls(graph)
            monitor = EdgeMLMonitor(name=label, per_layer=True)
            monitor.attach(interp)
            with monitor.frame(interp):
                interp.invoke(feeds)
            frames[label] = EXrayLog.from_monitor(monitor).frames[0]
        ref = frames["seed"]
        assert list(ref.layer_ops) == [n.name for n in graph.nodes]
        frame = frames["plan"]
        assert list(frame.layer_ops) == list(ref.layer_ops)
        assert frame.layer_ops == ref.layer_ops
        for key, tensor in ref.tensors.items():
            np.testing.assert_array_equal(
                tensor, frame.tensors[key], err_msg=key)


# ------------------------------------------------------- memory metric

def _zoo_cases():
    for model in sorted(list_models()):
        for stage in ("mobile", "quantized"):
            yield pytest.param(model, stage, id=f"{model}-{stage}")


class TestPeakMatchesLiveness:
    @pytest.mark.parametrize("model,stage", list(_zoo_cases()))
    def test_peak_equals_liveness_peak(self, model, stage):
        # One path, one meaning: the runtime's refcounted peak is the
        # compile-time liveness peak of the plan it ran, at that batch.
        if stage == "quantized" and model in UNQUANTIZABLE:
            pytest.skip(f"{model} has no quantized stage")
        graph = get_model(model, stage)
        mismatches = []
        for resolver_cls in (OpResolver, BatchedOpResolver):
            interp = Interpreter(graph, resolver_cls())
            for batch in (1, 32):
                interp.invoke(make_feeds(graph, batch))
                want = peak_live_bytes(liveness_from_plan(interp.plan, batch))
                got = interp.last_peak_activation_bytes
                if got != want:
                    mismatches.append((resolver_cls.__name__, batch, got, want))
        assert mismatches == []


class TestDtypeConformance:
    @pytest.mark.parametrize("model,stage", list(_zoo_cases()))
    def test_node_outputs_keep_declared_dtype(self, model, stage):
        # Every node's output has its spec's dtype on every backend and
        # batch: a kernel that upcasts (a float64 scalar or count array
        # meeting a float32 tensor) would silently run the rest of the
        # graph in float64 at twice the declared bytes.
        if stage == "quantized" and model in UNQUANTIZABLE:
            pytest.skip(f"{model} has no quantized stage")
        graph = get_model(model, stage)
        violations = []
        for resolver_cls in (OpResolver, BatchedOpResolver):
            interp = Interpreter(graph, resolver_cls())

            def observe(record, backend=resolver_cls.__name__):
                if record.output.dtype != np.dtype(record.spec.dtype):
                    violations.append(
                        (backend, batch, record.node.name, record.node.op,
                         str(record.output.dtype), record.spec.dtype))

            interp.add_observer(observe)
            for batch in (1, 32):
                interp.invoke(make_feeds(graph, batch))
        assert violations == []


# ------------------------------------------------------- arena runtime

class TestArenaRuntime:
    """The refcounted arena's ownership contract with callers/observers."""

    def test_outputs_survive_buffer_reuse(self, small_cnn, rng):
        # A second invoke must never mutate the first invoke's outputs:
        # whatever the runtime frees or recycles, returned arrays belong
        # to the caller.
        interp = Interpreter(small_cnn)
        x1 = rng.normal(size=(1, 8, 8, 3)).astype(np.float32)
        x2 = rng.normal(size=(1, 8, 8, 3)).astype(np.float32)
        first = interp.invoke_single(x1)
        snapshot = first.copy()
        second = interp.invoke_single(x2)
        np.testing.assert_array_equal(first, snapshot)
        assert not np.shares_memory(first, second)
        assert not np.array_equal(first, second)

    def test_observer_sees_stable_snapshots(self, small_cnn, rng):
        # Records retained by an observer must hold each layer's output
        # as it was emitted, untouched by later layers or invokes.
        x = rng.normal(size=(2, 8, 8, 3)).astype(np.float32)
        expected = {}
        ref = ReDeriveInterpreter(small_cnn)
        ref.add_observer(
            lambda r: expected.__setitem__(r.node.name, r.output.copy()))
        ref.invoke(x)

        records = []
        interp = Interpreter(small_cnn)
        interp.add_observer(records.append)
        interp.invoke(x)
        interp.remove_observer(records.append)
        interp.invoke(rng.normal(size=(2, 8, 8, 3)).astype(np.float32))
        assert [r.node.name for r in records] == list(expected)
        for record in records:
            np.testing.assert_array_equal(
                record.output, expected[record.node.name],
                err_msg=record.node.name)


# --------------------------------------------------- verifier skepticism

class TestVerifierAliasClaims:
    def _flat_graph(self, rng):
        b = GraphBuilder("flatzoo")
        x = b.input("input", (None, 4, 4, 8))
        h = b.conv2d(x, rng.normal(size=(1, 1, 8, 8)).astype(np.float32),
                     activation="relu", name="pw")
        h = b.add("flatten", h, name="flat")
        h = b.dense(h, rng.normal(size=(128, 10)).astype(np.float32),
                    name="logits")
        b.mark_output(h)
        return b.finish()

    def test_true_alias_verifies(self, rng):
        graph = self._flat_graph(rng)
        layout = pack_arena(graph)
        assert not verify_layout(graph, layout)
        flat = layout.slot("flat")
        assert flat.alias_of == "pw"
        assert flat.offset == layout.slot("pw").offset

    def test_false_alias_claim_rejected(self, rng):
        # A layout asserting that a non-view tensor aliases another must
        # be refused: the verifier re-derives aliasing from the graph and
        # never trusts the document.
        graph = self._flat_graph(rng)
        layout = pack_arena(graph)
        lying = replace(layout, slots=tuple(
            replace(s, alias_of="input",
                    offset=layout.slot("input").offset)
            if s.tensor == "pw" else s
            for s in layout.slots))
        problems = verify_layout(graph, lying)
        assert problems
        assert any("alias" in p.message for p in problems)

    def test_alias_of_alias_rejected(self, rng):
        graph = self._flat_graph(rng)
        layout = pack_arena(graph)
        lying = replace(layout, slots=tuple(
            replace(s, alias_of="flat") if s.tensor == "logits" else s
            for s in layout.slots))
        assert verify_layout(graph, lying)


# ------------------------------------------------- repo rule: view returns

class TestExecutorViewAnnotationRule:
    def _check(self, source, filename="executors_fake.py"):
        import importlib.util
        spec = importlib.util.spec_from_file_location(
            "check_repo_rules",
            Path(__file__).resolve().parents[1] / "tools"
            / "check_repo_rules.py")
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
        return mod.check_source(filename, source)

    def test_unannotated_reshape_return_flagged(self):
        violations = self._check(
            "def reshape(node, inputs, ctx):\n"
            "    (x,) = inputs\n"
            "    return x.reshape(node.attrs['shape'])\n")
        assert len(violations) == 1
        assert "aliases_input" in violations[0][2]

    def test_annotated_reshape_return_clean(self):
        for decorator in ("@aliases_input",
                          "@annotations.aliases_input"):
            violations = self._check(
                f"{decorator}\n"
                "def flatten(node, inputs, ctx):\n"
                "    (x,) = inputs\n"
                "    return x.reshape((x.shape[0], -1))\n")
            assert violations == [], decorator

    def test_rule_scoped_to_executor_modules(self):
        source = ("def helper(x, shape):\n"
                  "    return x.reshape(shape)\n")
        assert self._check(source, filename="executors_quant.py")
        assert self._check(source, filename="kernels.py") == []

    def test_real_executor_modules_clean(self):
        root = Path(__file__).resolve().parents[1] / "src"
        checked = 0
        for path in sorted(root.rglob("executors*.py")):
            checked += 1
            assert self._check(path.read_text(), str(path)) == []
        assert checked >= 3  # float, quant, batched
