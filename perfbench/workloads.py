"""The three workloads, driven through the public ``repro`` API.

Every workload is a sequence of *rounds*.  Round ``i`` of seed ``s``
draws its inputs from ``numpy.random.default_rng([s, i])`` alone, so
the same seed always gives the same inputs, and runs a fresh engine
over them.  A round returns a :class:`RoundResult`: wall samples, the
outputs' digest, the failures its checks found and the layer counters
the traced run reports.

Functions and methods of the library are looked up at call time
(``ServingEngine.tick(engine)``, ``training.collect_training_sequences``)
so that the traced run's wrappers see every call.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.autoscale import Autoscaler, HysteresisPolicy
from repro.drafter import (
    DrafterTrainer,
    DrafterTrainingConfig,
    EagleDrafter,
    EagleDrafterConfig,
    TrainingStrategy,
)
from repro.drafter import training
from repro.fleet import FleetEngine, PrefixHashRouting
from repro.llm import TinyLM, TinyLMConfig, Vocabulary, generate
from repro.llm.pretrain import pretrained_target
from repro.longtail import RolloutScheduler, SchedulerMode
from repro.rl import RlConfig, RlTrainer
from repro.rollout.adaptive import AdaptiveSdConfig, AdaptiveSdManager
from repro.serving import (
    BATCH,
    INTERACTIVE,
    STANDARD,
    LeastLoadedDispatch,
    PrefixAffinityDispatch,
    ServingEngine,
    poisson_trace,
)
from repro.serving.request import RequestState, ServingRequest
from repro.specdec import PrefixAwareAdmission, SdStrategy
from repro.specdec.control import RequestEventKind
from repro.spot.databuffer import OnlineDataBuffer
from repro.spot.trainer import SpotTrainer
from repro.workload import (
    LognormalLengths,
    flash_crowd_trace,
    fleet_trace,
)
from repro.workload.prompts import SuccessorChainTask

from stats import TickClock

# -- substrate -------------------------------------------------------------

#: The target model every workload serves or trains.
MODEL = TinyLMConfig(
    vocab_size=32, hidden_size=32, context_window=4, num_layers=4,
    init_scale=0.8,
)
#: Substrate seed: fixed, so only the workload seed varies the inputs.
SUBSTRATE_SEED = 1234
TEMPERATURE = 0.9


@dataclass
class Substrate:
    """A pretrained target and an EAGLE drafter trained on its rollouts."""

    target: TinyLM
    drafter: EagleDrafter

    def digest(self) -> str:
        """Hash of every weight, to check repeated set-ups agree."""
        h = hashlib.sha256()
        for params in (self.target.params, self.drafter.params):
            for name, array in params.items():
                h.update(name.encode())
                h.update(np.ascontiguousarray(array).tobytes())
        return h.hexdigest()


def build_substrate() -> Substrate:
    """Pretrain the target, sample rollouts, train the drafter on them."""
    target = pretrained_target(
        MODEL, np.random.default_rng(SUBSTRATE_SEED),
        corpus_sequences=32, epochs=80, chain_prob=0.72,
    )
    rng = np.random.default_rng(SUBSTRATE_SEED + 1)
    prompts = [
        list(rng.integers(3, MODEL.vocab_size, size=4)) for _ in range(24)
    ]
    sequences = generate(target, prompts, 60, TEMPERATURE, rng).full_sequences
    drafter = EagleDrafter(
        target, EagleDrafterConfig(),
        np.random.default_rng(SUBSTRATE_SEED + 2),
    )
    batch = training.build_training_batch(
        training.collect_training_sequences(target, sequences),
        unroll_steps=1,
    )
    DrafterTrainer(
        drafter,
        DrafterTrainingConfig(
            strategy=TrainingStrategy.eagle(), learning_rate=5e-3
        ),
    ).train_epochs(batch, 150)
    return Substrate(target, drafter)


# -- round results ---------------------------------------------------------


@dataclass
class RoundResult:
    """What one round measured, produced and found wrong.

    Attributes:
        wall_s: wall seconds of the round's engine work.
        tick_s: wall seconds of every pool/fleet tick.
        step_s: wall seconds per step (RL steps; the round itself for
            the serving workloads).
        latency_ms / ttft_ms: per-request wall latency and time to
            first token, from when the request was due.
        requests: requests submitted (rollouts for the RL workload).
        attempted / failed: units the error rate counts (requests, or
            RL steps) and how many of them failed a check.
        tokens: committed response tokens.
        slo_met: requests meeting their SLO (virtual time).
        worker_cycles: provisioned worker-ticks.
        digest: hash of every output of the round.
        failures: one line per failed check.
        counters: additive layer counters (turned into ratios by the
            runner's ``per_layer``).
        queue_wait: per-request admission wait in ticks.
        rewards: per-step mean reward (RL only).
        responses: committed tokens per request id (serving only).
    """

    wall_s: float
    tick_s: List[float]
    step_s: List[float]
    latency_ms: List[float]
    ttft_ms: List[float]
    requests: int
    attempted: int
    failed: int
    tokens: int
    slo_met: int
    worker_cycles: int
    digest: str
    failures: List[str]
    counters: Counter = field(default_factory=Counter)
    queue_wait: List[float] = field(default_factory=list)
    rewards: List[float] = field(default_factory=list)
    responses: Dict[int, List[int]] = field(default_factory=dict)


_TERMINAL = {
    RequestEventKind.FINISHED,
    RequestEventKind.CANCELLED,
    RequestEventKind.EXPIRED,
}


def _terminal_counter(subscribe: Callable) -> Counter:
    """Count terminal lifecycle events per request id."""
    seen: Counter = Counter()

    def on_event(event) -> None:
        if event.kind in _TERMINAL:
            seen[event.request_id] += 1

    subscribe(on_event)
    return seen


def _engine_counters(engines) -> Counter:
    """Speculative-decoding, drafter and cache counters of some engines."""
    out: Counter = Counter()
    for engine in engines:
        cycles = engine.metrics.cycles
        out["sd_seq_cycles"] += len(cycles)
        out["sd_committed"] += sum(c.committed for c in cycles)
        out["sd_accepted"] += sum(c.accepted for c in cycles)
        out["sd_drafted"] += sum(c.drafted for c in cycles)
        out["sd_verify_rows"] += sum(c.verify_batch for c in cycles)
        for report in engine.cycle_reports:
            out["sd_cycles" if report.sd_active else "vanilla_cycles"] += 1
        out["draft_launches"] += engine.draft_launches
        out["prefill_tokens"] += engine.prefill_tokens
        out["prefill_tokens_saved"] += engine.prefill_tokens_saved
        cache = engine.kv_cache
        if cache is not None:
            out["cache_hits"] += cache.stats.hits
            out["cache_misses"] += cache.stats.misses
            out["cache_evictions"] += cache.stats.evictions
    return out


def _digest(lines: Sequence[str]) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


def _check_records(
    submitted: Sequence[ServingRequest],
    records,
    terminal: Counter,
    clock: TickClock,
) -> Dict[str, object]:
    """Per-request checks plus the wall-mapped latencies of a serving round.

    Every submitted request must appear in exactly one record, finish,
    reach exactly one terminal event and stay within its cap.
    """
    failures: List[str] = []
    bad: set = set()
    by_id: Dict[int, object] = {}
    for record in records:
        rid = record.request.request_id
        if rid in by_id:
            failures.append(f"request {rid} recorded twice")
            bad.add(rid)
        by_id[rid] = record
    latency_ms: List[float] = []
    ttft_ms: List[float] = []
    queue_wait: List[float] = []
    lines: List[str] = []
    responses: Dict[int, List[int]] = {}
    slo_met = tokens = 0
    for request in submitted:
        rid = request.request_id
        record = by_id.pop(rid, None)
        if record is None:
            failures.append(f"request {rid} lost")
            bad.add(rid)
            continue
        if terminal[rid] != 1:
            failures.append(
                f"request {rid} reached {terminal[rid]} terminal states"
            )
            bad.add(rid)
        if record.state is not RequestState.FINISHED:
            failures.append(f"request {rid} ended {record.state.value}")
            bad.add(rid)
            continue
        response = record.response
        if not 1 <= len(response) <= request.max_new_tokens:
            failures.append(
                f"request {rid} committed {len(response)} tokens, cap "
                f"{request.max_new_tokens}"
            )
            bad.add(rid)
        due = clock.due(request.arrival_time)
        finished = clock.completed(record.finish_time)
        first = clock.completed(record.first_token_time)
        if finished is None or first is None:
            failures.append(f"request {rid} finished outside a tick")
            bad.add(rid)
            continue
        latency_ms.append((finished - due) * 1e3)
        ttft_ms.append((first - due) * 1e3)
        queue_wait.append(record.queue_wait)
        slo_met += record.slo_met
        tokens += len(response)
        responses[rid] = list(response)
        lines.append(f"{rid}:{','.join(map(str, response))}")
    for rid in by_id:
        failures.append(f"request {rid} was never submitted")
    return {
        "failures": failures,
        "failed": len(bad) + len(by_id),
        "latency_ms": latency_ms,
        "ttft_ms": ttft_ms,
        "queue_wait": queue_wait,
        "slo_met": slo_met,
        "tokens": tokens,
        "lines": lines,
        "responses": responses,
    }


# -- serve_longtail --------------------------------------------------------

#: Two workers keep a tick (~4.5 ms) well under the slices a busy host
#: takes from a shared vCPU, so tick_ms_p99 measures the pool.
SERVE_WORKERS = 2
SERVE_SLOTS = 8
SERVE_STRATEGY = SdStrategy(draft_depth=4, topk=4, tokens_to_verify=8)
SERVE_REQUESTS = 400
SERVE_INTERARRIVAL = 1.0 / 1.5
SERVE_LENGTHS = LognormalLengths(median=10.0, sigma=1.0, cap=80)
SERVE_SLO_MIX = ((INTERACTIVE, 0.3), (STANDARD, 0.5), (BATCH, 0.2))
#: Small per-worker cache: unshared prompts only insert and evict.
SERVE_KV_TOKENS = 256
#: Requests of round 0 replayed one at a time on a fresh pool.
REPLAY_SAMPLE = 8


def serve_inputs(seed: int, index: int, warmup: bool = False):
    """Poisson arrivals, unshared prompts, lognormal long-tail caps."""
    return poisson_trace(
        np.random.default_rng([seed, index]),
        num_requests=60 if warmup else SERVE_REQUESTS,
        mean_interarrival=SERVE_INTERARRIVAL,
        length_model=SERVE_LENGTHS,
        vocab_size=MODEL.vocab_size,
        slo_mix=SERVE_SLO_MIX,
    )


def _serve_pool(substrate: Substrate, workers: int, slots: int):
    return ServingEngine(
        substrate.target,
        substrate.drafter,
        num_workers=workers,
        strategy=SERVE_STRATEGY,
        temperature=TEMPERATURE,
        max_batch_size=slots,
        dispatch=LeastLoadedDispatch(),
        work_stealing=True,
        kv_cache_tokens=SERVE_KV_TOKENS,
    )


def serve_round(substrate: Substrate, trace) -> RoundResult:
    """One trace through a 4 x 8 pool, ticked until every request ends."""
    engine = _serve_pool(substrate, SERVE_WORKERS, SERVE_SLOTS)
    terminal = _terminal_counter(engine.subscribe)
    for request in trace:
        engine.submit(request)
    clock = TickClock()
    started = time.perf_counter()
    while not engine.drained:
        virtual = engine.clock.now
        tick_start = time.perf_counter()
        ServingEngine.tick(engine)
        clock.add(virtual, tick_start, time.perf_counter())
    wall = time.perf_counter() - started
    report = engine.report()
    checked = _check_records(trace, report.records, terminal, clock)
    counters = _engine_counters(w.engine for w in engine.workers)
    counters["preemptions"] += report.preemptions
    counters["stolen"] += report.stolen
    return RoundResult(
        wall_s=wall,
        tick_s=clock.durations(),
        step_s=[wall],
        latency_ms=checked["latency_ms"],
        ttft_ms=checked["ttft_ms"],
        requests=len(trace),
        attempted=len(trace),
        failed=checked["failed"],
        tokens=checked["tokens"],
        slo_met=checked["slo_met"],
        worker_cycles=SERVE_WORKERS * len(clock),
        digest=_digest(checked["lines"]),
        failures=checked["failures"],
        counters=counters,
        queue_wait=checked["queue_wait"],
        responses=checked["responses"],
    )


def replay_alone(
    pool: Callable[[], ServingEngine],
    trace: Sequence[ServingRequest],
    responses: Dict[int, List[int]],
    seed: int,
) -> List[str]:
    """Replay a fixed sample of a round on a 1-worker, batch-1 pool.

    The byte-identity contract: batch size, placement and scheduling
    order never change a request's tokens.
    """
    rng = np.random.default_rng([seed, 1])
    picks = sorted(
        int(i) for i in rng.choice(len(trace), REPLAY_SAMPLE, replace=False)
    )
    sample = [
        dataclasses.replace(trace[i], arrival_time=0.0) for i in picks
    ]
    alone = pool().run(sample)
    return [
        f"request {record.request.request_id} decoded differently alone"
        for record in alone.records
        if record.response != responses.get(record.request.request_id)
    ]


def serve_replay(substrate: Substrate, trace, responses, seed: int):
    return replay_alone(
        lambda: _serve_pool(substrate, 1, 1), trace, responses, seed
    )


# -- fleet_prefix ----------------------------------------------------------

FLEET_WORKERS = 2
FLEET_SLOTS = 4
FLEET_MAX_REPLICAS = 4
FLEET_STRATEGY = SdStrategy(draft_depth=2, topk=2, tokens_to_verify=4)
FLEET_KV_TOKENS = 4096


def fleet_inputs(seed: int, index: int, warmup: bool = False):
    """Tenant prefix streams + a grouped BATCH floor + a flash crowd."""
    rng = np.random.default_rng([seed, index])
    scale = 4 if warmup else 1
    stream = fleet_trace(
        rng,
        MODEL.vocab_size,
        num_tenants=12,
        requests_per_tenant=30 // scale,
        num_batch=32 // scale,
        batch_group_size=4,
        prefix_len=4,
        mean_interarrival=0.5,
        batch_gap=6.0,
        max_new_tokens=LognormalLengths(median=6.0, sigma=0.5, cap=16),
        batch_lengths=LognormalLengths(median=12.0, sigma=0.6, cap=32),
    )
    burst = flash_crowd_trace(
        rng,
        MODEL.vocab_size,
        num_base=20 // scale,
        num_crowd=150 // scale,
        base_interarrival=4.0,
        crowd_start=0.4 * stream[-1].arrival_time,
        crowd_interarrival=0.1,
        crowd_families=6,
        start_id=len(stream),
    )
    return sorted(
        stream + burst, key=lambda r: (r.arrival_time, r.request_id)
    )


def _fleet_pool(
    substrate: Substrate, workers: int = FLEET_WORKERS,
    slots: int = FLEET_SLOTS,
) -> ServingEngine:
    return ServingEngine(
        substrate.target,
        substrate.drafter,
        num_workers=workers,
        strategy=FLEET_STRATEGY,
        temperature=TEMPERATURE,
        max_batch_size=slots,
        dispatch=PrefixAffinityDispatch(fallback=LeastLoadedDispatch()),
        admission=PrefixAwareAdmission(),
        kv_cache_tokens=FLEET_KV_TOKENS,
    )


def fleet_replay(substrate: Substrate, trace, responses, seed: int):
    return replay_alone(
        lambda: _fleet_pool(substrate, 1, 1), trace, responses, seed
    )


def fleet_round(substrate: Substrate, trace) -> RoundResult:
    """One trace through an autoscaled prefix-routed fleet (1 -> 4)."""

    def pool() -> ServingEngine:
        return _fleet_pool(substrate)

    fleet = FleetEngine(
        [pool()],
        routing=PrefixHashRouting(context_window=MODEL.context_window),
        warmup_ticks=1,
    )
    scaler = Autoscaler(
        fleet,
        replica_factory=pool,
        policy=HysteresisPolicy(
            min_replicas=1,
            max_replicas=FLEET_MAX_REPLICAS,
            high_watermark=1.1,
            low_watermark=0.45,
            out_cooldown=2,
            in_cooldown=12,
            max_step=2,
            surge_factor=1.8,
        ),
    )
    terminal = _terminal_counter(fleet.subscribe)
    for request in trace:
        fleet.submit(request)
    clock = TickClock()
    last = [time.perf_counter()]

    def on_tick(f: FleetEngine) -> None:
        Autoscaler.on_tick(scaler, f)
        now = time.perf_counter()
        clock.add(f.clock.now - 1.0, last[0], now)
        last[0] = now

    started = last[0]
    report = fleet.run((), on_tick=on_tick)
    wall = time.perf_counter() - started
    pooled = report.pooled()
    checked = _check_records(trace, pooled.records, terminal, clock)
    engines = [
        worker.engine
        for replica in fleet.replicas
        for worker in replica.frontend.workers
    ]
    counters = _engine_counters(engines)
    counters["preemptions"] += pooled.preemptions
    counters["stolen"] += pooled.stolen
    counters["spills"] += report.spills
    counters["migrations"] += report.migrations
    counters["ring_moves"] += report.ring_moves
    counters["drains"] += report.drains
    counters["scale_events"] += len(scaler.events)
    return RoundResult(
        wall_s=wall,
        tick_s=clock.durations(),
        step_s=[wall],
        latency_ms=checked["latency_ms"],
        ttft_ms=checked["ttft_ms"],
        requests=len(trace),
        attempted=len(trace),
        failed=checked["failed"],
        tokens=checked["tokens"],
        slo_met=checked["slo_met"],
        worker_cycles=report.worker_cycles,
        digest=_digest(checked["lines"]),
        failures=checked["failures"],
        counters=counters,
        queue_wait=checked["queue_wait"],
        responses=checked["responses"],
    )


# -- rl_tlt_step -----------------------------------------------------------

RL_CONFIG = RlConfig(
    num_prompts=8, group_size=8, max_new_tokens=48,
    temperature=TEMPERATURE, learning_rate=1e-3,
)
RL_STEPS = 8
RL_WORKERS = 2
#: 64 rollouts for 32 slots: tail-first admission order matters, and
#: first tokens are not all committed by one batch-wide tick.
RL_SLOTS = 16
#: Elastic SD: a worker speculates once its live batch is this small.
RL_SD_THRESHOLD = 8
RL_STRATEGIES = (
    SdStrategy(draft_depth=4, topk=4, tokens_to_verify=8),
    SdStrategy(draft_depth=3, topk=2, tokens_to_verify=6),
    SdStrategy(draft_depth=2, topk=2, tokens_to_verify=4),
)
RL_SPOT_UPDATES = 10


@dataclass(frozen=True)
class RlInputs:
    """Seeds of one RL round: the trainer's prompts and the spot buffer."""

    trainer_seed: Sequence[int]
    spot_seed: Sequence[int]
    steps: int


def rl_inputs(seed: int, index: int, warmup: bool = False) -> RlInputs:
    return RlInputs(
        trainer_seed=(seed, index, 0),
        spot_seed=(seed, index, 1),
        steps=1 if warmup else RL_STEPS,
    )


def _finite(*values: float) -> bool:
    return all(math.isfinite(v) for v in values)


def rl_round(substrate: Substrate, inputs: RlInputs) -> RoundResult:
    """RL steps: tail-first rollout -> GRPO update -> spot slice -> swap."""
    config = RL_CONFIG
    policy = substrate.target.clone()
    spot_drafter = EagleDrafter(
        policy, substrate.drafter.config, np.random.default_rng(0)
    )
    spot_drafter.load_state_dict(substrate.drafter.state_dict())
    pool = ServingEngine(
        policy,
        spot_drafter.clone(),
        num_workers=RL_WORKERS,
        sd_managers=[
            AdaptiveSdManager(
                AdaptiveSdConfig(
                    strategies=list(RL_STRATEGIES),
                    activation_threshold=RL_SD_THRESHOLD,
                )
            )
            for _ in range(RL_WORKERS)
        ],
        temperature=config.temperature,
        max_batch_size=RL_SLOTS,
    )
    trainer = RlTrainer(
        policy,
        SuccessorChainTask(Vocabulary(MODEL.vocab_size)),
        config,
        rng=np.random.default_rng(inputs.trainer_seed),
    )
    scheduler = RolloutScheduler(
        pool, mode=SchedulerMode.TAIL_FIRST, group_size=config.group_size
    )
    spot = SpotTrainer(
        DrafterTrainer(
            spot_drafter,
            DrafterTrainingConfig(
                strategy=TrainingStrategy.eagle(), learning_rate=5e-3
            ),
        ),
        OnlineDataBuffer(),
        batch_sequences=16,
        max_positions=1024,
    )
    spot_rng = np.random.default_rng(inputs.spot_seed)
    terminal = _terminal_counter(pool.subscribe)
    clock = TickClock()

    def stamped_tick() -> None:
        virtual = pool.clock.now
        tick_start = time.perf_counter()
        ServingEngine.tick(pool)
        clock.add(virtual, tick_start, time.perf_counter())

    # The scheduler ticks the pool itself; stamp each of its ticks.
    pool.tick = stamped_tick

    step_s: List[float] = []
    latency_ms: List[float] = []
    ttft_ms: List[float] = []
    queue_wait: List[float] = []
    rewards: List[float] = []
    failures: List[str] = []
    lines: List[str] = []
    failed_steps = 0
    tokens = slo_met = requests = 0
    seen: set = set()
    expected = config.num_prompts * config.group_size
    for step in range(inputs.steps):
        step_start = time.perf_counter()
        spot.begin_step(step)
        prompts = trainer.sample_prompts()
        due = time.perf_counter()
        batch_id = scheduler.submit_batch(
            policy, prompts.expanded, config.max_new_tokens,
            config.temperature, trainer.rng,
        )
        rollout = scheduler.collect(batch_id)
        report = trainer.step(rollout=rollout, prompts=prompts)
        spot.ingest(
            training.collect_training_sequences(
                policy, rollout.full_sequences, step
            )
        )
        slice_report = spot.train_slice(RL_SPOT_UPDATES, spot_rng)
        pool.swap_drafter(spot.snapshot_drafter())
        step_s.append(time.perf_counter() - step_start)

        problems: List[str] = []
        if len(rollout.responses) != expected:
            problems.append(
                f"{len(rollout.responses)} rollouts, expected {expected}"
            )
        for group in prompts.group_slices():
            if len({tuple(p) for p in rollout.prompts[group]}) != 1:
                problems.append("a GRPO group mixes prompts")
        if any(
            not 1 <= len(r) <= config.max_new_tokens
            for r in rollout.responses
        ):
            problems.append("a rollout is empty or over its cap")
        if not _finite(report.pg_loss, report.kl_value, report.mean_reward):
            problems.append("non-finite policy loss")
        if slice_report.updates and not _finite(slice_report.ce_loss):
            problems.append("non-finite drafter loss")
        new_ids = sorted(set(pool.records) - seen)
        seen.update(new_ids)
        for rid in new_ids:
            record = pool.records[rid]
            if terminal[rid] != 1:
                problems.append(
                    f"request {rid} reached {terminal[rid]} terminal states"
                )
            finished = clock.completed(record.finish_time)
            first = clock.completed(record.first_token_time)
            if finished is None or first is None:
                problems.append(f"request {rid} finished outside a tick")
                continue
            latency_ms.append((finished - due) * 1e3)
            ttft_ms.append((first - due) * 1e3)
            queue_wait.append(record.queue_wait)
            slo_met += record.slo_met
        if len(new_ids) != expected:
            problems.append(f"{len(new_ids)} pool requests for one batch")
        if problems:
            failed_steps += 1
            failures.extend(f"step {step}: {p}" for p in problems)
        requests += len(new_ids)
        tokens += sum(len(r) for r in rollout.responses)
        rewards.append(report.mean_reward)
        lines.append(
            f"step {step} reward {report.mean_reward!r} loss "
            f"{report.pg_loss!r} kl {report.kl_value!r} drafter "
            f"{slice_report.ce_loss!r}"
        )
        lines.extend(",".join(map(str, r)) for r in rollout.responses)

    counters = _engine_counters(w.engine for w in pool.workers)
    counters["preemptions"] += pool.report().preemptions
    counters["stolen"] += pool.stolen
    calibration = scheduler.predictor.calibration
    counters["predictor_observations"] += calibration.observations
    counters["predictor_within"] += calibration.within_factor
    counters["spot_updates"] += spot.total_updates
    return RoundResult(
        wall_s=sum(step_s),
        tick_s=clock.durations(),
        step_s=step_s,
        latency_ms=latency_ms,
        ttft_ms=ttft_ms,
        requests=requests,
        attempted=inputs.steps,
        failed=failed_steps,
        tokens=tokens,
        slo_met=slo_met,
        worker_cycles=RL_WORKERS * len(clock),
        digest=_digest(lines),
        failures=failures,
        counters=counters,
        queue_wait=queue_wait,
        rewards=rewards,
    )


@dataclass(frozen=True)
class Workload:
    """A workload's input generator, round runner and extra checks."""

    name: str
    inputs: Callable
    run_round: Callable[[Substrate, object], RoundResult]
    replay: Optional[Callable] = None


WORKLOADS: Dict[str, Workload] = {
    "serve_longtail": Workload(
        "serve_longtail", serve_inputs, serve_round, serve_replay
    ),
    "fleet_prefix": Workload(
        "fleet_prefix", fleet_inputs, fleet_round, fleet_replay
    ),
    "rl_tlt_step": Workload("rl_tlt_step", rl_inputs, rl_round),
}
