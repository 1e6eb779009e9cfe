"""The benchmark's layer hooks must keep fitting the program.

bench/run.py wraps layer functions by name from outside the program (a
module global or a class attribute each). A change under src/ that renames
or reshapes one of them breaks traced benchmark runs (`--trace 1`) without
failing any other test, so this runs the benchmark's own LayerTrace over a
small match.
"""

import importlib.util
from pathlib import Path

from torusarena.harness import MatchConfig

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_bench(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))  # run.py imports its sibling modules
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_layer_trace_covers_a_greedy_courier_match(monkeypatch):
    bench = load_bench(monkeypatch)
    m = bench.load_program()
    problems = []
    layers = bench.LayerTrace(m, problems)
    cfg = MatchConfig(dims=(20, 20), team_size=5, steps=30, seed=1, opponent="greedy-courier")
    with layers.tracer.installed(layers.install):
        report, log = m["harness"].run_match(cfg)
    assert problems == []
    assert report.steps == 30
    counts, calls = layers.counts, layers.tracer.calls
    assert counts["world.actions"] == sum('"type":"action"' in line for line in log) > 0
    for name in ("broadcasts", "replies", "identifications", "ambiguous"):
        assert f"identity.{name}" in counts
    assert counts["identity.identifications"] > 0
    assert calls["harness.opponent"] == 30
    assert calls["team.act_self"] == 30
    assert calls["harness.self"] == 1


def test_layer_trace_covers_the_protocol_checker(monkeypatch):
    # The protocol-check workload drives the checker through these names:
    # the rules wrapped on MergeProtocol, chain_model with the benchmark's
    # schedule and faults, and the done states' offsets against positions.
    bench = load_bench(monkeypatch)
    m = bench.load_program()
    mc = m["mergecheck"]
    layers = bench.LayerTrace(m, [])
    with layers.tracer.installed(layers.install):
        model = mc.chain_model(3, 2)
        verdicts = mc.run_standard_checks(model)
        assert layers.counts["mergecheck.states"] == 109
        for sc in mc.builtin_scenarios():
            verdicts.append(mc.check_has_trace(sc.model, mc.explore(sc.model), sc.trace))
    assert all(verdicts), [v.name for v in verdicts if not v]
    calls = layers.tracer.calls
    assert calls["merge_protocol.enabled"] > 0
    assert calls["merge_protocol.apply"] > 0
    for pairs, fault in bench.PROTOCOL_FAULTS:
        assert mc.chain_model(4, pairs=pairs, **fault).schedule
    graph = mc.explore(model)
    for i in graph.done_ids():
        state = graph.states[i]
        bench.check_done_offsets(dict(state.leaders), dict(state.offsets), model.positions)
