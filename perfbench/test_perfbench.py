"""Tests of the benchmark's own logic (not of the program it measures).

Run from the repository root::

    python3 -m pytest perfbench -q
"""

import asyncio
import json
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import stats  # noqa: E402
from gate import Gate, body, canonical  # noqa: E402
from tracer import Tracer, attribution, self_time_by_name, self_times  # noqa: E402


# ---------------------------------------------------------------------- #
# Self time.
# ---------------------------------------------------------------------- #


def test_self_time_on_synthetic_span_tree():
    # root [0, 10] has children a [1, 4] and b [3, 6] (overlapping, as two
    # threads' spans may); a has a grandchild g [2, 3].
    spans = [
        (1, "root", 0.0, 10.0, None, 7),
        (2, "a", 1.0, 4.0, 1, 7),
        (3, "b", 3.0, 6.0, 1, 7),
        (4, "g", 2.0, 3.0, 2, 7),
    ]
    own = self_times(spans)
    assert own == {1: pytest.approx(5.0), 2: pytest.approx(2.0), 3: pytest.approx(3.0),
                   4: pytest.approx(1.0)}
    # Self times of a tree add up to the root's wall time.
    assert sum(own.values()) == pytest.approx(10.0 + 1.0)  # + the a/b overlap counted twice


def test_attributed_share_counts_root_and_executor_self_time_as_unattributed():
    # op [0, 10] > api.run [0.5, 9.5] > core [1, 8]: the op root's 1 s and
    # api.run's 2 s of self time belong to no layer.
    spans = [
        (1, "op", 0.0, 10.0, None, 1),
        (2, "api.run", 0.5, 9.5, 1, 1),
        (3, "core", 1.0, 8.0, 2, 1),
        # A second op rooted at a top-level api.run (a worker's cell): 1 s of 4 s loose.
        (4, "api.run", 20.0, 24.0, None, 4),
        (5, "store.put_result", 21.0, 24.0, 4, 4),
        # A top-level span that is not a root is no op of its own.
        (6, "store.load_result", 30.0, 31.0, None, 6),
    ]
    assert attribution(spans, ["op", "api.run"]) == [
        (pytest.approx(3.0), pytest.approx(10.0)), (pytest.approx(1.0), pytest.approx(4.0))]
    assert attribution(spans, ["op"]) == [(pytest.approx(3.0), pytest.approx(10.0))]


def test_attribution_check_fails_an_op_below_the_share():
    import workloads

    ops = [(0.3, 10.0), (0.0, 10.0), (0.0, 10.0)]  # shares 0.97, 1, 1
    outcome = workloads.Outcome(gate=Gate())
    workloads.check_attribution(outcome, ops)
    assert outcome.gate.correct
    assert outcome.metrics["trace.attributed_share_min"][0] == pytest.approx(0.97)
    ops.append((0.6, 10.0))  # share 0.94: fails per op, but not in total (0.9775)
    outcome = workloads.Outcome(gate=Gate())
    workloads.check_attribution(outcome, ops)
    assert not outcome.gate.correct
    outcome = workloads.Outcome(gate=Gate())
    workloads.check_attribution(outcome, ops, per_op=False)
    assert outcome.gate.correct


def test_self_time_by_name_sums_nested_spans_of_one_layer():
    spans = [
        (1, "core", 0.0, 4.0, None, 1),
        (2, "core", 1.0, 3.0, 1, 1),
        (3, "backend", 1.5, 2.5, 2, 1),
    ]
    totals = self_time_by_name(spans)
    assert totals == {"core": pytest.approx(3.0), "backend": pytest.approx(1.0)}


def test_child_outside_parent_interval_is_clipped():
    spans = [(1, "p", 0.0, 2.0, None, 1), (2, "c", 1.0, 5.0, 1, 1)]
    assert self_times(spans)[1] == pytest.approx(1.0)


# ---------------------------------------------------------------------- #
# Wrapping.
# ---------------------------------------------------------------------- #


def test_patch_function_rebinds_early_bound_aliases_and_uninstalls():
    def original(x):
        return x + 1

    home = types.ModuleType("fakepkg.home")
    user = types.ModuleType("fakepkg.user")  # as after `from fakepkg.home import original`
    home.original = user.original = original
    sys.modules.update({"fakepkg.home": home, "fakepkg.user": user})
    try:
        tracer = Tracer()
        assert tracer.patch_function("fakepkg.home", "original", "layer.f", prefix="fakepkg") == 2
        assert user.original(1) == 2 and home.original(2) == 3
        assert [span[1] for span in tracer.spans] == ["layer.f", "layer.f"]
        tracer.uninstall()
        assert home.original is original and user.original is original
    finally:
        del sys.modules["fakepkg.home"], sys.modules["fakepkg.user"]


def test_patch_method_nests_spans_and_charges_hooks_to_bookkeeping():
    class Backend:
        def table(self):
            return [1, 2, 3]

    class Concrete(Backend):
        pass

    seen = []
    tracer = Tracer()
    tracer.patch_method(Concrete, "table", "backend.table",
                        after=lambda t, args, kwargs, result: seen.append(len(result)))
    with tracer.span("op"):
        Concrete().table()
    tracer.uninstall()
    assert "table" not in Concrete.__dict__ and seen == [3]
    names = {span[1]: span for span in tracer.spans}
    op_id = names["op"][0]
    assert names["backend.table"][4] == op_id
    assert names["trace.bookkeeping"][4] == op_id
    assert {span[5] for span in tracer.spans} == {op_id}  # a top-level span starts an op


def test_async_wrapper_keeps_one_parent_per_task():
    tracer = Tracer()

    async def handle(delay):
        await asyncio.sleep(delay)
        return delay

    wrapped = tracer.wrap("service.handle", handle)

    async def main():
        return await asyncio.gather(wrapped(0.01), wrapped(0.0))

    assert asyncio.run(main()) == [0.01, 0.0]
    assert [span[4] for span in tracer.spans] == [None, None]


def test_dump_and_load_round_trip(tmp_path):
    tracer = Tracer()
    with tracer.span("x"):
        tracer.count("c", 2)
    tracer.dump(str(tmp_path / "spans.json"))
    loaded = Tracer.load(str(tmp_path / "spans.json"))
    assert loaded.spans == tracer.spans and loaded.counters == {"c": 2.0}


# ---------------------------------------------------------------------- #
# Percentiles and spread.
# ---------------------------------------------------------------------- #


def test_percentile_nearest_rank():
    values = list(range(1, 11))
    assert stats.percentile(values, 50) == 5
    assert stats.percentile(values, 90) == 9
    assert stats.percentile(values, 100) == 10


def test_highest_reportable_percentile_needs_ten_samples_beyond():
    assert stats.highest_reportable(9) is None
    assert stats.highest_reportable(20) == 50.0
    assert stats.highest_reportable(99) == 50.0
    assert stats.highest_reportable(100) == 90.0
    assert stats.highest_reportable(999) == 90.0
    assert stats.highest_reportable(1000) == 99.0


def test_spread_matches_statistics_quantiles():
    values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    out = stats.spread(values)
    assert out["median"] == 5.5
    assert (out["q1"], out["q3"]) == (2.75, 8.25)
    assert out["spread"] == pytest.approx(5.5 / 5.5)


# ---------------------------------------------------------------------- #
# The correctness gate.
# ---------------------------------------------------------------------- #

RESULT = {
    "spec": {"deployment": {"backend": "dense"}},
    "rounds": {"total": 114723},
    "checks": {"completed": True},
    "metrics": {"n": 120.0, "delta_bound": 32.0},
    "details": {"clusters": 17},
    "elapsed": 1.5,
}


def test_gate_accepts_equal_payload_from_another_backend():
    gate = Gate()
    other = dict(RESULT, spec={"deployment": {"backend": "lazy"}}, elapsed=0.7)
    assert gate.result(other, canonical(body(RESULT)), "lazy")
    assert (gate.attempted, gate.failed, gate.error_rate) == (1, 0, 0.0)


def test_gate_catches_a_flipped_payload_byte():
    reference = canonical(body(RESULT))
    raw = bytearray(reference.encode("ascii"))
    position = raw.index(b"114723") + 2
    raw[position] ^= 0x01  # '4' -> '5'
    corrupted = dict(RESULT, **json.loads(raw.decode("ascii")))
    gate = Gate()
    assert not gate.result(corrupted, reference, "corrupted")
    assert gate.result(RESULT, reference, "intact")
    assert (gate.attempted, gate.failed, gate.error_rate) == (2, 1, 0.5)
    assert not gate.correct


def test_monte_carlo_results_may_miss_their_flag_but_not_their_reference():
    missed = dict(RESULT, checks={"completed": False})
    reference = canonical(body(missed))
    gate = Gate()
    assert gate.result(missed, reference, "same outcome on another backend", checks=False)
    other = dict(missed, rounds={"total": 114724})
    assert not gate.result(other, reference, "different outcome", checks=False)
    assert (gate.attempted, gate.failed) == (2, 1)


def test_monte_carlo_misses_beyond_the_tolerance_fail_on_every_backend():
    import workloads

    assert workloads.MISS_TOLERANCE == 1
    mix = workloads.BackendMix(Gate())
    local, flood = workloads.MONTE_CARLO
    for backend in workloads.BACKENDS:  # the first input that misses is tolerated
        assert mix.check(local, backend, dict(RESULT, checks={"completed": False}))
    for backend in workloads.BACKENDS:  # a second one is not, on any backend
        assert not mix.check(flood, backend, dict(RESULT, checks={"reached_all": False}))
    assert (mix.gate.attempted, mix.gate.failed) == (6, 3)
    # A deterministic algorithm gets no tolerance at all.
    assert not workloads.BackendMix(Gate()).check("local-broadcast", "dense",
                                                  dict(RESULT, checks={"completed": False}))


def test_gate_counts_a_429_and_failed_checks():
    gate = Gate()
    assert not gate.http(429, "shed")
    assert gate.http(200, "ok")
    assert not gate.result(dict(RESULT, checks={"completed": False}), None, "unchecked")
    assert (gate.attempted, gate.failed) == (3, 2)
    assert any("HTTP 429" in p for p in gate.problems)


# ---------------------------------------------------------------------- #
# Seeds and load discipline.
# ---------------------------------------------------------------------- #


def _ctx(workload, seed):
    import workloads

    return workloads.Context(workload=workload, seed=seed, seconds=1.0, trace=False,
                             work=ROOT / ".perfbench_work" / "test", started=0.0)


def test_paper_and_wide_inputs_are_fixed_and_only_their_order_is_seeded():
    import workloads

    for make in (workloads.paper_specs, workloads.wide_specs):
        assert [spec.to_json() for spec in make()] == [spec.to_json() for spec in make()]

    def orders(seed):
        rng = _ctx("paper", seed).rng("order")
        return [rng.sample(workloads.BACKENDS, 3) for _ in range(8)]

    assert orders(3) == orders(3)
    assert orders(3) != orders(4)


def test_sweep_grid_is_fixed_and_its_order_is_seeded():
    import workloads

    def dump(seed):
        return [spec.to_json() for spec in workloads.sweep_specs(_ctx("sweep", seed))]

    assert dump(3) == dump(3)
    assert dump(3) != dump(4)
    assert sorted(dump(3)) == sorted(dump(4))


def test_service_streams_are_a_function_of_the_seed():
    ctx_a, ctx_b = _ctx("service", 5), _ctx("service", 5)
    draws = [[ctx.rng("timed:client0").random() for _ in range(5)] for ctx in (ctx_a, ctx_b)]
    assert draws[0] == draws[1]
    assert draws[0] != [_ctx("service", 6).rng("timed:client0").random() for _ in range(5)]


def test_load_discipline_holds_on_two_cores_and_trips_on_one():
    run.check_load_discipline(2)
    with pytest.raises(SystemExit, match="exceed nproc=1"):
        run.check_load_discipline(1)


def test_refuses_to_run_outside_a_checkout(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "paper", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout


MANIFEST = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_result_holds_every_end_to_end_metric_or_the_run_fails():
    measured = {m["name"]: (1.5, m["unit"]) for m in MANIFEST["end_to_end"]}
    metrics, unmeasured = run.manifest_metrics(MANIFEST, measured, trace=False)
    assert (metrics, unmeasured) == (measured, [])
    dropped = dict(measured)
    dropped.pop("pass_s")
    with pytest.raises(SystemExit, match="missing=\\['pass_s'\\]"):
        run.manifest_metrics(MANIFEST, dropped, trace=False)
    with pytest.raises(SystemExit, match="wrong unit"):
        run.manifest_metrics(MANIFEST, dict(measured, pass_s=(1.5, "ms")), trace=False)
    with pytest.raises(SystemExit, match="unknown=\\['run_s.dense'\\]"):
        run.manifest_metrics(MANIFEST, dict(measured, **{"run_s.dense": (1.0, "s")}), trace=False)


def test_traced_result_reports_unmeasured_layers_as_zero():
    first, *rest = MANIFEST["per_layer"]
    metrics, unmeasured = run.manifest_metrics(
        MANIFEST, {first["name"]: (2.0, first["unit"])}, trace=True)
    assert metrics[first["name"]] == (2.0, first["unit"])
    assert unmeasured == sorted(m["name"] for m in rest)
    assert all(metrics[m["name"]] == (0.0, m["unit"]) for m in rest)


def test_service_pass_is_the_time_of_each_block_of_completions():
    import service_load

    block = service_load.PASS_REQUESTS
    # Completions every 10 ms, then twice as fast: one pass of each pace.
    done = [0.01 * k for k in range(block + 1)] + [
        0.01 * block + 0.005 * k for k in range(1, block + 1)]
    records = [service_load.Record("run_warm", t, 0.0, 200, {}) for t in done]
    passes = service_load.pass_times(records)
    assert passes == pytest.approx([0.01 * block, 0.005 * block])
    assert service_load.pass_times(records[:block]) == []
