"""The three benchmark workloads: trace, engine set-up, serve and output checks.

Each workload builds its requests from the seed alone, constructs its
backends and plan cache, warms them, and serves through the public entry
point ``repro.serving.continuous.serve_continuous`` — the program receives
only the generated requests.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from repro.attention.dense import dense_attention
from repro.attention.masks import swat_window_mask
from repro.core.config import SWATConfig
from repro.model.spec import LayerGeometry, ModelSpec
from repro.serving.backends import create_backend
from repro.serving.cache import PlanCache
from repro.serving.continuous import (
    diurnal_arrivals,
    poisson_arrivals,
    serve_continuous,
    swat_request_rate,
)
from repro.serving.request import (
    DecodeRequest,
    ForwardRequest,
    make_decode_request,
    make_forward_request,
    make_request,
    make_requests,
)
from repro.serving.stats import decode_token_intervals, percentile
from repro.telemetry.bus import EventBus
from repro.telemetry.events import RequestDecoded
from repro.telemetry.replay import TraceReplayer

from perfbench import layers as layer_trace

__all__ = ["WORKLOADS", "Prepared", "Served", "Workload"]


@dataclass
class Prepared:
    """A workload after set-up: its requests and warmed engine objects."""

    requests: list
    backends: list
    #: The plan cache the backends share.
    plan_cache: PlanCache
    config: SWATConfig
    #: ``decode_mix`` only: the probed closed-batch requests/sec.
    saturation_req_per_s: float = 0.0


@dataclass
class Served:
    """One timed serve: the engine's result plus what the benchmark observed."""

    result: object
    wall_s: float
    decoded: list = field(default_factory=list)
    replayed: object = None


def _modelled_fields(stats) -> dict:
    """Every ``ServingStats`` field except the host wall clock."""
    return {
        spec.name: getattr(stats, spec.name)
        for spec in fields(stats)
        if spec.name != "wall_seconds"
    }


def _stats_mismatches(left, right) -> "list[str]":
    return [
        name
        for name, value in _modelled_fields(left).items()
        if getattr(right, name) != value
    ]


class Workload:
    """Shared serve loop and checks; subclasses supply the trace and engine.

    Subclasses are frozen dataclasses whose fields are the workload's
    parameters (recorded with every result).
    """

    name = ""
    why = ""
    backend = ""
    #: Whether serves carry an EventBus feeding an in-memory TraceReplayer.
    telemetry = False

    @property
    def params(self) -> dict:
        return asdict(self)

    # -- set-up -------------------------------------------------------- #

    def make_config(self) -> SWATConfig:
        raise NotImplementedError

    def build_requests(self, seed: int, prepared: Prepared) -> list:
        raise NotImplementedError

    def warm(self, prepared: Prepared) -> None:
        """Compile plans and build executors before the timed region."""

    def setup(self, seed: int, tracer=None) -> Prepared:
        config = self.make_config()
        plan_cache = PlanCache()
        backends = [
            create_backend(self.backend, config=config, plan_cache=plan_cache)
            for _ in range(self.shards)
        ]
        if tracer is not None:
            layer_trace.instance_spans(tracer, backends, plan_cache)
        prepared = Prepared(
            requests=[], backends=backends, plan_cache=plan_cache, config=config
        )
        self.warm(prepared)
        prepared.requests = self.build_requests(seed, prepared)
        return prepared

    # -- serving ------------------------------------------------------- #

    def serve_requests(self, prepared: Prepared, requests, bus=None, **overrides):
        kwargs = dict(
            config=prepared.config,
            backend=self.backend,
            num_shards=self.shards,
            max_batch_size=self.slots,
            iteration_rows=self.quantum,
            backends=prepared.backends,
            scheduler="event",
            record_iterations=False,
            bus=bus,
            plan_cache=prepared.plan_cache,
        )
        kwargs.update(overrides)
        return serve_continuous(requests, **kwargs)

    def serve(self, prepared: Prepared, tracer=None) -> Served:
        """One serve of the whole trace, timed around the public call."""
        served = Served(result=None, wall_s=0.0)
        bus = None
        if self.telemetry:
            replayer = TraceReplayer()
            decoded = served.decoded

            def sink(event):
                replayer.feed(event)
                if type(event) is RequestDecoded:
                    decoded.append(event)

            bus = EventBus()
            bus.subscribe(tracer.wrap(layer_trace.SINK, sink) if tracer is not None else sink)
            # A cache built without the bus would drop plan_cache_lookup
            # events and the replayed cache counters would miss them: every
            # serve gets a cache on its bus, shared by the warmed backends.
            prepared.plan_cache = PlanCache(bus=bus)
            for backend in prepared.backends:
                backend.plan_cache = prepared.plan_cache
            if tracer is not None:
                layer_trace.cache_spans(tracer, prepared.plan_cache)
        call = self.serve_requests
        if tracer is not None:
            call = tracer.wrap(layer_trace.SERVE, call)
        start = time.perf_counter()
        served.result = call(prepared, prepared.requests, bus=bus)
        served.wall_s = time.perf_counter() - start
        if self.telemetry:
            served.replayed = replayer.stats()
        return served

    # -- checks -------------------------------------------------------- #

    def check(self, prepared: Prepared, served: Served) -> "tuple[int, list[str]]":
        """Deep output check of one serve: ``(failed requests, notes)``."""
        result = served.result
        total = len(prepared.requests)
        done = [item for item in result.completed if item.finish_time is not None]
        failed, messages = total - len(done), []
        if failed:
            messages.append(f"{failed} of {total} requests did not complete")
        return failed, messages

    def check_repeat(self, first: Served, served: Served) -> "tuple[int, list[str]]":
        """A later serve must repeat the first one's modelled numbers exactly."""
        total = first.result.stats.num_requests
        if len(served.result.completed) != total:
            return total, [f"repeat serve completed {len(served.result.completed)} of {total}"]
        mismatched = _stats_mismatches(first.result.stats, served.result.stats)
        if mismatched:
            return total, [f"repeat serve changed modelled stats: {mismatched}"]
        return 0, []

    # -- metrics ------------------------------------------------------- #

    def model_metrics(self, served: Served) -> dict:
        """The modelled (device-clock) end-to-end metrics of one serve."""
        stats = served.result.stats
        latencies = [item.latency_seconds for item in served.result.completed]
        if served.decoded:
            ttfts = [
                decode_token_intervals(event.block_times, event.block_sizes, event.arrival_time)[0]
                for event in served.decoded
            ]
            tokens_per_s = stats.tokens_per_second
        else:
            # Without decodes every request emits one output, at completion.
            ttfts = latencies
            tokens_per_s = stats.requests_per_second
        return {
            "model_req_per_s": stats.requests_per_second,
            "model_latency_p50_s": percentile(latencies, 50.0),
            "model_latency_p99_s": percentile(latencies, 99.0),
            "model_ttft_p50_s": percentile(ttfts, 50.0),
            "model_ttft_p99_s": percentile(ttfts, 99.0),
            "model_tokens_per_s": tokens_per_s,
            "model_mj_per_req": stats.total_energy_joules * 1e3 / stats.num_requests,
        }


@dataclass(frozen=True)
class Diurnal(Workload):
    name = "diurnal"
    why = (
        "100k plain Longformer attentions on a day/night open-loop trace: "
        "scheduler bookkeeping and closed-form step_burst pricing dominate"
    )
    backend = "analytical"

    requests: int = 100_000
    seq_lens: "tuple[int, ...]" = (8192, 8192, 16384, 16384)
    window: int = 128
    #: Mean arrival rate as a share of the pool's saturation rate.
    load: float = 0.9
    amplitude: float = 0.95
    cycles: int = 10
    shards: int = 1
    slots: int = 4
    quantum: int = 32
    #: Requests the reference-scheduler check replays.
    reference_prefix: int = 1000

    def make_config(self) -> SWATConfig:
        return SWATConfig.longformer(window_tokens=self.window)

    def build_requests(self, seed, prepared):
        count = self.requests
        seq_lens = list(self.seq_lens) * (count // len(self.seq_lens))
        mean_rate = self.load * swat_request_rate(
            prepared.config, seq_lens, num_shards=self.shards, max_batch_size=self.slots
        )
        arrivals = diurnal_arrivals(
            count,
            mean_rate,
            period=count / mean_rate / self.cycles,
            amplitude=self.amplitude,
            seed=seed,
        )
        return make_requests(
            seq_lens, prepared.config.head_dim, functional=False, arrival_times=arrivals
        )

    def check(self, prepared, served):
        failed, messages = super().check(prepared, served)
        # The event scheduler must match the quantum-stepped reference loop
        # in every modelled stat on a prefix of the same trace.
        prefix = prepared.requests[: self.reference_prefix]
        results = {
            scheduler: self.serve_requests(
                prepared, prefix, scheduler=scheduler, backends=None, plan_cache=PlanCache()
            )
            for scheduler in ("reference", "event")
        }
        mismatched = _stats_mismatches(results["reference"].stats, results["event"].stats)
        if mismatched:
            failed += len(prefix)
            messages.append(f"event vs reference scheduler differ on the prefix: {mismatched}")
        return failed, messages


@dataclass(frozen=True)
class DecodeMix(Workload):
    name = "decode_mix"
    why = (
        "KV-resident decodes interleaved with prefill forwards, telemetry on: "
        "positional span_cycles_batch pricing and event emission dominate"
    )
    backend = "analytical"
    telemetry = True

    decodes: int = 2000
    new_tokens: int = 32
    seq_len: int = 256
    layers: int = 4
    #: Layer windows, alternating.
    windows: "tuple[int, ...]" = (8, 16)
    heads: int = 2
    head_dim: int = 16
    #: Poisson arrival rate as a share of the probed saturation rate.
    load: float = 0.5
    #: Decodes in the closed-batch saturation probe.
    probe_decodes: int = 160
    shards: int = 2
    slots: int = 8
    quantum: int = 32

    def make_config(self) -> SWATConfig:
        return SWATConfig(head_dim=self.head_dim, window_tokens=self.windows[0])

    def _trace(self, decodes: int, arrivals=None) -> list:
        """``decodes`` decodes, a prefill forward after every other one."""
        geometries = tuple(LayerGeometry(window_tokens=window) for window in self.windows)
        spec = ModelSpec(
            seq_len=self.seq_len,
            layers=tuple(geometries[index % len(geometries)] for index in range(self.layers)),
            num_heads=self.heads,
            head_dim=self.head_dim,
        )
        requests = []

        def arrival():
            return arrivals[len(requests)] if arrivals is not None else 0.0

        for index in range(decodes):
            requests.append(
                make_decode_request(spec, new_tokens=self.new_tokens, arrival_time=arrival())
            )
            if index % 2 == 0:
                requests.append(make_forward_request(spec, functional=False, arrival_time=arrival()))
        return requests

    def warm(self, prepared):
        # A closed batch at t=0 compiles the model/decode plans and probes
        # the pool's saturation rate, which sets the open-loop arrival rate.
        probe = self.serve_requests(prepared, self._trace(self.probe_decodes))
        prepared.saturation_req_per_s = probe.stats.requests_per_second

    def build_requests(self, seed, prepared):
        total = self.decodes + (self.decodes + 1) // 2
        arrivals = poisson_arrivals(total, self.load * prepared.saturation_req_per_s, seed=seed)
        return self._trace(self.decodes, arrivals)

    def check(self, prepared, served):
        failed, messages = super().check(prepared, served)
        mismatched = _stats_mismatches(served.result.stats, served.replayed)
        if served.result.stats.wall_seconds != served.replayed.wall_seconds:
            mismatched.append("wall_seconds")
        if mismatched:
            failed = len(prepared.requests)
            messages.append(f"in-memory replay differs from live stats: {mismatched}")
        decodes = sum(isinstance(request, DecodeRequest) for request in prepared.requests)
        if len(served.decoded) != decodes:
            failed = len(prepared.requests)
            messages.append(f"{len(served.decoded)} request_decoded events for {decodes} decodes")
        return failed, messages


@dataclass(frozen=True)
class Functional(Workload):
    name = "functional"
    why = (
        "functional forwards and attention heads as one closed batch: the "
        "executor does the work, scheduling and pricing are negligible"
    )
    backend = "simulator"

    #: (forward, attention head) pairs in the batch.
    pairs: int = 48
    layers: int = 4
    forward_seq_len: int = 256
    heads: int = 4
    forward_head_dim: int = 32
    attention_seq_len: int = 512
    window: int = 64
    shards: int = 2
    slots: int = 8
    quantum: int = 128
    attention_tolerance: float = 1e-12

    def make_config(self) -> SWATConfig:
        return SWATConfig.longformer(window_tokens=self.window)

    def _spec(self) -> ModelSpec:
        return ModelSpec.uniform(
            self.layers,
            self.forward_seq_len,
            window_tokens=self.window,
            num_heads=self.heads,
            head_dim=self.forward_head_dim,
        )

    def build_requests(self, seed, prepared):
        # The seed draws the data and orders each (forward, attention) pair of
        # the batch; a full shuffle would spread the modelled latencies
        # across seeds several times wider.
        rng = np.random.default_rng(seed)
        kinds = []
        for _ in range(self.pairs):
            kinds += ["forward", "attention"][:: int(rng.choice((1, -1)))]
        spec = self._spec()
        requests = []
        for index, kind in enumerate(kinds):
            data_seed = seed * len(kinds) + index
            if kind == "forward":
                requests.append(make_forward_request(spec, seed=data_seed))
            else:
                requests.append(
                    make_request(self.attention_seq_len, prepared.config.head_dim, seed=data_seed)
                )
        return requests

    def warm(self, prepared):
        # Build each backend's executor (weights) and compile every plan.
        warmers = [
            make_forward_request(self._spec()),
            make_request(self.attention_seq_len, prepared.config.head_dim),
        ]
        for backend in prepared.backends:
            backend.compute_outputs(warmers)

    def check(self, prepared, served):
        failed, messages = super().check(prepared, served)
        executor = prepared.backends[0].model_executor
        mask = swat_window_mask(self.attention_seq_len, prepared.config.window_tokens)
        worst = 0.0
        for item in served.result.completed:
            request = item.request
            if isinstance(request, ForwardRequest):
                expected = executor(request).reference_forward(request.x)
                ok = np.array_equal(item.output, expected)
            else:
                expected = dense_attention(request.q, request.k, request.v, mask=mask)
                error = float(np.max(np.abs(item.output - expected)))
                worst = max(worst, error)
                ok = error <= self.attention_tolerance
            if not ok:
                failed += 1
        if failed:
            messages.append(f"{failed} outputs failed their reference check")
        messages.append(f"attention heads: max |error| vs dense reference {worst:.3g}")
        return failed, messages

    def check_repeat(self, first, served):
        failed, messages = super().check_repeat(first, served)
        differing = sum(
            not np.array_equal(a.output, b.output)
            for a, b in zip(first.result.completed, served.result.completed)
        )
        if differing:
            messages.append(f"{differing} outputs changed between serves")
        return failed + differing, messages


WORKLOADS = {workload.name: workload for workload in (Diurnal(), DecodeMix(), Functional())}
