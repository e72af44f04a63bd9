"""Monte Carlo oracle: determinism, degenerate exactness, agreement."""

import dataclasses
import importlib
import math
import os
import sys
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import shipfees as sf
from sim_oracle import loop_simulate


MICRO_POLICY = sf.FeeStructure(2, (1.5, 2.5))
simulation = importlib.import_module("shipfees.simulate")


def reports_equal(a, b):
    for field in dataclasses.fields(a.report):
        va, vb = getattr(a.report, field.name), getattr(b.report, field.name)
        if isinstance(va, tuple):
            if va != vb:
                return False
        elif va != vb and not (math.isnan(va) and math.isnan(vb)):
            return False
    return (
        a.halfwidth_backorders == b.halfwidth_backorders
        and a.halfwidth_variable_profit == b.halfwidth_variable_profit
        and a.halfwidth_rejection == b.halfwidth_rejection
    )


def assert_same_as_oracle(scenario, policy, config):
    """Every field of the report equals the period-by-period loop's."""
    got = sf.simulate(scenario, policy, config)
    ref = loop_simulate(scenario, policy, config)
    for field in dataclasses.fields(sf.SimulationReport):
        if field.name != "report":
            assert getattr(got, field.name) == getattr(ref, field.name), field.name
    for field in dataclasses.fields(got.report):
        va, vb = getattr(got.report, field.name), getattr(ref.report, field.name)
        if isinstance(va, float) and math.isnan(va):
            assert math.isnan(vb), field.name
        else:
            assert va == vb, (field.name, va, vb)


class TestConfig:
    def test_zero_measured_cycles_rejected(self):
        with pytest.raises(sf.ParameterError):
            sf.SimConfig(cycles=1000, warmup_cycles=1000)

    def test_negative_values_rejected(self):
        with pytest.raises(sf.ParameterError):
            sf.SimConfig(cycles=100, warmup_cycles=-1)
        with pytest.raises(sf.ParameterError):
            sf.SimConfig(cycles=100, warmup_cycles=10, streams=0)
        with pytest.raises(sf.ParameterError):
            sf.SimConfig(cycles=100, warmup_cycles=10, seed=-1)

    @pytest.mark.parametrize(
        "fields",
        [
            {"cycles": 2000.5},
            {"cycles": math.nan},
            {"streams": 2.5},
            {"seed": 1.5},
            {"bound": 3.5},
            {"bound": True},
            {"warmup_cycles": True},
        ],
        ids=["cycles-float", "cycles-nan", "streams-float", "seed-float",
             "bound-float", "bound-bool", "warmup-bool"],
    )
    def test_non_integer_fields_rejected(self, fields):
        base = {"cycles": 2000, "warmup_cycles": 500, "seed": 1, "streams": 4}
        with pytest.raises(sf.ParameterError, match="must be an integer"):
            sf.SimConfig(**{**base, **fields})

    def test_period_length_must_match(self, micro_scenario):
        wrong = sf.FeeStructure(3, (1.0, 2.0, 3.0))
        with pytest.raises(sf.ParameterError):
            sf.simulate(micro_scenario, wrong, sf.SimConfig(cycles=100, warmup_cycles=10))


    def test_run_beyond_the_period_limit_is_refused_before_drawing(
        self, monkeypatch, micro_scenario
    ):
        # 2**40 cycles of T = 2 on 4 streams: far over SIM_PERIODS_MAX, so the
        # refusal must come at once, before the draw pool exists
        def no_pool(*args):
            raise AssertionError("the draws started")

        monkeypatch.setattr(simulation, "ThreadPoolExecutor", no_pool)
        cfg = sf.SimConfig(cycles=2**40, warmup_cycles=10, bound=8, streams=4)
        start = time.perf_counter()
        with pytest.raises(sf.ParameterError, match=r"^simulate\.cycles: 4 streams of "):
            sf.simulate(micro_scenario, MICRO_POLICY, cfg)
        assert time.perf_counter() - start < 1.0

    def test_run_at_the_period_limit_is_accepted(self, monkeypatch, micro_scenario):
        # 4 streams x (10 warm-up + 90 measured cycles) x T = 2 = 800 periods
        cfg = sf.SimConfig(cycles=370, warmup_cycles=10, bound=8, streams=4)
        monkeypatch.setattr(simulation, "SIM_PERIODS_MAX", 4 * 100 * 2)
        assert sf.simulate(micro_scenario, MICRO_POLICY, cfg).measured_cycles == 360
        monkeypatch.setattr(simulation, "SIM_PERIODS_MAX", 4 * 100 * 2 - 1)
        with pytest.raises(sf.ParameterError, match="800 cycle-periods"):
            sf.simulate(micro_scenario, MICRO_POLICY, cfg)


class TestHalfwidth:
    def test_ordinary_means_keep_the_plain_formula(self):
        rng = np.random.default_rng(5)
        for scale in (1e-3, 1.0, 1e6, 1e150):
            x = rng.normal(3.0, 1.0, size=50) * scale
            plain = 1.96 * float(np.std(x, ddof=1)) / math.sqrt(len(x))
            assert simulation._halfwidth(x) == plain

    def test_huge_penalty_gives_a_finite_profit_halfwidth(self, choice):
        scenario = sf.Scenario.from_utilization(4, 2.0, 0.8, 0.5, 8, choice, 1e300)
        policy = sf.FeeStructure(4, (2.0,) * 4)
        cfg = sf.SimConfig(cycles=3000, warmup_cycles=500, seed=1, streams=8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = sf.simulate(scenario, policy, cfg)
        assert math.isfinite(out.report.variable_profit)
        assert math.isfinite(out.halfwidth_variable_profit)
        assert out.halfwidth_variable_profit > 0.0


class TestDeterminism:
    def test_same_seed_is_bit_identical(self, micro_scenario):
        cfg = sf.SimConfig(cycles=3000, warmup_cycles=500, seed=42, bound=8, streams=10)
        first = sf.simulate(micro_scenario, MICRO_POLICY, cfg)
        second = sf.simulate(micro_scenario, MICRO_POLICY, cfg)
        assert reports_equal(first, second)

    def test_different_seeds_differ(self, micro_scenario):
        base = sf.SimConfig(cycles=3000, warmup_cycles=500, seed=42, bound=8, streams=10)
        other = sf.SimConfig(cycles=3000, warmup_cycles=500, seed=43, bound=8, streams=10)
        a = sf.simulate(micro_scenario, MICRO_POLICY, base)
        b = sf.simulate(micro_scenario, MICRO_POLICY, other)
        assert not reports_equal(a, b)


class TestDegenerate:
    def test_idle_system_is_exact(self, choice):
        scenario = sf.Scenario(2, 0.0, sf.Pmf.point_mass(2), choice, 8.0)
        pol = sf.FeeStructure(2, (2.0, 2.0))
        cfg = sf.SimConfig(cycles=500, warmup_cycles=100, seed=0, bound=1, streams=4)
        out = sf.simulate(scenario, pol, cfg)
        exact = sf.evaluate_policy(scenario, pol, bound=1)
        assert out.report.expected_backorders == exact.expected_backorders == 0.0
        assert out.report.variable_profit == exact.variable_profit == 0.0
        assert out.report.rejection_probability == 0.0
        assert out.halfwidth_backorders == 0.0
        assert out.halfwidth_variable_profit == 0.0


class TestAgreement:
    def test_within_three_halfwidths_of_exact(self, micro_scenario):
        exact = sf.evaluate_policy(micro_scenario, MICRO_POLICY, bound=8)
        cfg = sf.SimConfig(
            cycles=41000, warmup_cycles=1000, seed=11, bound=8, streams=20
        )
        out = sf.simulate(micro_scenario, MICRO_POLICY, cfg)
        assert out.measured_cycles == 40000
        assert out.streams == 20
        pairs = [
            (out.report.expected_backorders, exact.expected_backorders,
             out.halfwidth_backorders),
            (out.report.variable_profit, exact.variable_profit,
             out.halfwidth_variable_profit),
            (out.report.rejection_probability, exact.rejection_probability,
             out.halfwidth_rejection),
        ]
        for sim, ex, halfwidth in pairs:
            assert abs(sim - ex) <= 3.0 * halfwidth

    def test_streams_capped_by_measured_cycles(self, micro_scenario):
        cfg = sf.SimConfig(cycles=1005, warmup_cycles=1000, seed=0, bound=8, streams=200)
        out = sf.simulate(micro_scenario, MICRO_POLICY, cfg)
        assert out.streams == 5
        assert out.measured_cycles == 5

    def test_auto_bound_matches_find_bound(self, micro_scenario):
        cfg = sf.SimConfig(cycles=2000, warmup_cycles=500, seed=3, streams=8)
        out = sf.simulate(micro_scenario, MICRO_POLICY, cfg)
        assert out.report.bound == sf.find_bound(micro_scenario)


class TestLoopOracle:
    """The vectorized chunk body against the period-by-period loop."""

    VECTOR = (0.0, 4.0, 2.5, math.inf, 1.3, 3.9, 0.2, 2.2)

    @pytest.mark.parametrize("seed", [1, 7])
    # 2000, the bound cap, is a bound these workloads never reach
    @pytest.mark.parametrize("bound", [0, 3, 30, 50, 2000])
    @pytest.mark.parametrize("rho", [0.85, 0.90, 0.95])
    def test_presets(self, make_scenario, rho, bound, seed):
        scenario = make_scenario(rho, 8.0)
        policies = [
            sf.build_policy("CSP", 2.0, 8, scenario.choice.u_max),
            sf.build_policy("TSP", (3.0, 3.4, 6, 7), 8, scenario.choice.u_max),
            sf.FeeStructure(8, self.VECTOR),
        ]
        # 1100 cycles per stream: one full chunk and a partial one
        cfg = sf.SimConfig(cycles=3100, warmup_cycles=100, seed=seed,
                           bound=bound, streams=3)
        for policy in policies:
            assert_same_as_oracle(scenario, policy, cfg)

    @pytest.mark.parametrize(
        "T, warmup, per_stream, streams",
        [
            # the warm-up ends 72 cycles past a multiple of 128, so the tally
            # blocks, which start at the first measured cycle, are off that
            # grid and the chunk's last one holds 56 cycles
            (8, 200, 900, 3),
            # the measured range ends 44 cycles into a tally block of the
            # second chunk, 300 cycles into that chunk
            (2, 0, 1324, 2),
            # T = 3 and 7 do not divide the 1024 cycles of a chunk
            (3, 517, 700, 4),
            (7, 1000, 300, 2),
        ],
        ids=["warmup-inside-block", "end-inside-block", "T3", "T7"],
    )
    def test_tally_block_edges(self, make_scenario, T, warmup, per_stream, streams):
        assert (simulation.CHUNK_CYCLES, simulation.TALLY_CYCLES) == (1024, 128)
        base = make_scenario(0.95, 8.0)
        scenario = sf.Scenario(T, base.lam, base.capacity, base.choice, 8.0)
        policy = sf.FeeStructure(T, self.VECTOR[:T])
        cfg = sf.SimConfig(cycles=warmup + per_stream * streams, warmup_cycles=warmup,
                           seed=T, bound=30, streams=streams)
        assert_same_as_oracle(scenario, policy, cfg)

    @settings(max_examples=30, deadline=None)
    @example(T=2, weights=[0, 0, 1], load=0.0, fees=[2.0, 2.0], bound=1,
             warmup=100, measured=400, streams=4, seed=0)
    @example(T=2, weights=[1, 2, 1], load=0.9, fees=[0.0, math.inf], bound=4,
             warmup=1024, measured=2100, streams=2, seed=0)
    @example(T=2, weights=[0, 1], load=0.5, fees=[4.0, 4.0], bound=0,
             warmup=0, measured=1030, streams=1, seed=3)
    @example(T=3, weights=[2, 0, 1], load=0.95, fees=[0.0, 0.0, 0.0], bound=2,
             warmup=517, measured=3, streams=6, seed=5)
    @example(T=8, weights=[1, 1, 1, 1], load=0.7, fees=[2.0] * 8, bound=None,
             warmup=1023, measured=400, streams=3, seed=9)
    @given(
        T=st.sampled_from([2, 3, 8]),
        weights=st.lists(st.integers(0, 3), min_size=2, max_size=6).filter(
            lambda w: sum(k * x for k, x in enumerate(w)) > 0
        ),
        load=st.sampled_from([0.0, 0.5, 0.9, 0.95]),
        fees=st.lists(
            st.one_of(
                st.sampled_from([0.0, 4.0, math.inf]),
                st.floats(0.0, 4.0, allow_nan=False),
            ),
            min_size=8,
            max_size=8,
        ),
        bound=st.one_of(st.none(), st.integers(0, 12)),
        warmup=st.sampled_from([0, 1, 517, 1023, 1024, 1025]),
        measured=st.one_of(st.integers(1, 7), st.integers(8, 2100)),
        streams=st.integers(1, 6),
        seed=st.integers(0, 2**32),
    )
    def test_random_runs(self, choice, T, weights, load, fees, bound, warmup,
                         measured, streams, seed):
        """Warm-ups ending before, inside and at a chunk edge; partial chunks;
        the shortest cycle (a Scenario needs T >= 2) and the presets' T = 8;
        streams capped by the measured cycles; fees at u_min, inside, u_max
        and inf, so no age, some ages or every age pays express; load 0 is
        the idle lambda = 0 system (pinned with a point-mass capacity)."""
        capacity = sf.Pmf(np.array(weights, dtype=float) / sum(weights))
        scenario = sf.Scenario(T, load * capacity.mean(), capacity, choice, 8.0)
        policy = sf.FeeStructure(T, tuple(fees[:T]))
        cfg = sf.SimConfig(cycles=warmup + measured, warmup_cycles=warmup,
                           seed=seed, bound=bound, streams=streams)
        assert_same_as_oracle(scenario, policy, cfg)


class TestChunkMemory:
    """The chunk-memory cap counts the arrays a run holds: per stream, the
    draws E, R, B and the walk X (one more row) in int32 over a chunk, and
    the overflow O, adjusted express counts A (int32) and revenue terms F
    (float) over a tally block."""

    T, STREAMS = 4, 32

    def run(self):
        scenario = sf.Scenario(self.T, 1.5, sf.Pmf([0.1, 0.2, 0.4, 0.3]),
                               sf.ChoiceModel(4.0, 0.0, 4.0), 8.0)
        policy = sf.FeeStructure(self.T, (1.5, 2.5, 3.0, math.inf))
        # 1000 warm-up and 100 measured cycles per stream: one full chunk
        cfg = sf.SimConfig(cycles=1000 + 100 * self.STREAMS, warmup_cycles=1000,
                           seed=2, bound=8, streams=self.STREAMS)
        return sf.simulate(scenario, policy, cfg)

    def estimate(self):
        rows, cols = 1024 * self.T, 128 * self.T
        return self.STREAMS * (3 * 4 * rows + 4 * (rows + 1) + (4 + 4 + 8) * cols)

    def test_the_cap_is_the_estimate(self, monkeypatch):
        monkeypatch.setattr(simulation, "CHUNK_BYTES_MAX", self.estimate())
        self.run()
        monkeypatch.setattr(simulation, "CHUNK_BYTES_MAX", self.estimate() - 1)
        with pytest.raises(sf.ParameterError, match=(
            r"^simulate\.streams: 32 streams need .* GiB of chunk arrays at T = 4, "
            r"over the .* GiB limit; use at most 31 streams$"
        )):
            self.run()

    def test_a_run_allocates_the_estimate(self, monkeypatch):
        """The traced peak (numpy reports its buffers to tracemalloc) lies
        between the estimate and the estimate plus a slack for what a run
        holds only for a moment or that is no array of periods: one
        worker's draws of one stream (the int64 Poisson counts, or the
        uniforms, their scaled copy and their bucket indices), the tally's
        per-block temporaries and reduction buffers, a generator per stream
        and the pool: 269 kB with numpy 2.4 on Linux, against a slack of
        393 kB.  O, A or F held for a whole chunk would add 458 kB or more."""
        monkeypatch.setattr(simulation, "_draw_workers", lambda: 1)
        self.run()  # one-off costs of a first call
        slack = 48 * 1024 * self.T + 4096 * self.STREAMS + 65536
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            self.run()
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert self.estimate() <= peak <= self.estimate() + slack


class TestCapacityDraws:
    """The bucket-table inversion of the capacity draws against
    ``Generator.choice(p=mass)``, which ``sim_oracle`` keeps drawing with."""

    @settings(max_examples=150, deadline=None)
    @example(weights=[1.0], tail=0, tiny=0.0, lengths=[5], seed=0,
             dtype=np.int32)
    @example(weights=[0.0, 0.0, 0.0, 1.0], tail=0, tiny=0.0, lengths=[8191],
             seed=1, dtype=np.int32)
    @example(weights=[0.5, 0.0, 0.5], tail=3, tiny=1e-300, lengths=[1, 8192, 3],
             seed=2, dtype=np.int64)
    @given(
        weights=st.lists(
            st.one_of(st.just(0.0), st.floats(1e-3, 1.0)), min_size=1, max_size=300
        ).filter(lambda w: sum(w) > 0),
        tail=st.integers(0, 4),
        tiny=st.sampled_from([1e-13, 1e-17, 1e-300, 5e-324]),
        lengths=st.lists(st.integers(1, 9000), min_size=1, max_size=3),
        seed=st.integers(0, 2**32),
        dtype=st.sampled_from([np.int32, np.int64]),
    )
    def test_same_draws_and_state_as_choice(self, weights, tail, tiny, lengths,
                                            seed, dtype):
        """Zero masses, point masses and tail masses below 1e-12, supports
        of up to 304 points (from 256 on the table stops growing at 2^14)
        and chunk lengths that need not be multiples of T, drawn one after
        another from one stream."""
        mass = np.array(weights + [tiny] * tail)
        mass /= mass.sum()
        draw = simulation._capacity_sampler(mass, dtype)
        ref = np.random.Generator(np.random.Philox(seed))
        got = np.random.Generator(np.random.Philox(seed))
        for n in lengths:
            want = ref.choice(np.arange(mass.size), size=n, p=mass)
            out = np.empty(n, dtype)
            draw(got, out)
            np.testing.assert_array_equal(out, want)
        assert got.random() == ref.random()


class TestDrawPool:
    """The draws run on a pool of threads, one block of streams each."""

    @staticmethod
    def config(streams, bound):
        # 1100 measured cycles per stream after 100 warm-up cycles: one
        # full 1024-cycle chunk and a partial one
        return sf.SimConfig(cycles=100 + 1100 * streams, warmup_cycles=100,
                            seed=4, bound=bound, streams=streams)

    @pytest.mark.parametrize("bound", [None, 3])
    @pytest.mark.parametrize("streams", [1, 3, 5])
    def test_worker_count_does_not_change_the_report(
        self, monkeypatch, micro_scenario, streams, bound
    ):
        cfg = self.config(streams, bound)
        monkeypatch.setattr(simulation, "_draw_workers", lambda: 1)
        ref = sf.simulate(micro_scenario, MICRO_POLICY, cfg)
        # switch threads often, so workers interleave inside a chunk
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for workers in (2, 3, 7):
                monkeypatch.setattr(simulation, "_draw_workers", lambda: workers)
                got = sf.simulate(micro_scenario, MICRO_POLICY, cfg)
                for field in dataclasses.fields(sf.SimulationReport):
                    name = field.name
                    assert getattr(got, name) == getattr(ref, name), (workers, name)
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("workers", [1, 2, 3, 7])
    def test_draws_run_off_the_main_thread(
        self, monkeypatch, micro_scenario, workers
    ):
        threads = set()

        class Recording(np.random.Generator):
            def poisson(self, *args, **kwargs):
                threads.add(threading.get_ident())
                return super().poisson(*args, **kwargs)

        monkeypatch.setattr(np.random, "Generator", Recording)
        monkeypatch.setattr(simulation, "_draw_workers", lambda: workers)
        sf.simulate(micro_scenario, MICRO_POLICY, self.config(5, 3))
        assert threading.main_thread().ident not in threads
        assert 1 <= len(threads) <= min(workers, 5)

    def test_no_thread_outlives_a_call(self, monkeypatch, micro_scenario):
        monkeypatch.setattr(simulation, "_draw_workers", lambda: 3)
        before = threading.active_count()
        sf.simulate(micro_scenario, MICRO_POLICY, self.config(5, 3))
        assert threading.active_count() == before

    def test_worker_error_reaches_the_caller(self, monkeypatch, micro_scenario):
        """A draw that raises in a worker (the tenth capacity draw, in the
        second chunk) ends the call with its exception and leaves no
        thread behind."""
        calls = []

        class Failing(np.random.Generator):
            def random(self, *args, **kwargs):
                calls.append(None)
                if len(calls) == 5 + 5:
                    raise RuntimeError("draw failed")
                return super().random(*args, **kwargs)

        monkeypatch.setattr(np.random, "Generator", Failing)
        monkeypatch.setattr(simulation, "_draw_workers", lambda: 2)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="draw failed"):
            sf.simulate(micro_scenario, MICRO_POLICY, self.config(5, 3))
        assert threading.active_count() == before

    def test_pool_size_is_the_usable_cpu_count(self, monkeypatch):
        if hasattr(os, "sched_getaffinity"):
            assert simulation._draw_workers() == len(os.sched_getaffinity(0))
            monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert simulation._draw_workers() == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert simulation._draw_workers() == 1
