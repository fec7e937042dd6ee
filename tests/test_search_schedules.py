"""Deterministic schedules for the order-free tree walk.

``run_tree`` reads ``ThreadPoolExecutor`` and ``wait`` from its module.  The
tests below patch in an executor that runs a submitted review only when the
walk waits and a chooser picks which review finishes next; the review then
runs on the calling thread.  A schedule is the sequence of those choices, so
every schedule of a small tree can be run, and a failing one replayed from
its choices.  Every schedule must give the serial run's trace, stats and
provider calls.
"""

from __future__ import annotations

import dataclasses
import functools
import random
from collections import Counter
from concurrent.futures import FIRST_COMPLETED, Future
from typing import Optional

import pytest

from revtree import LlmClient, run_tree, search
from tests.test_search_differential import (
    FaultyPolicyProvider,
    PolicyProvider,
    outputs,
    scenarios,
)


class ScheduledExecutor:
    """Stands in for ``ThreadPoolExecutor``: a submitted call runs, on the
    calling thread, only when its :class:`Schedule` picks it.  Like the
    pool's workers, it runs a call only while the call is among the first
    ``max_workers`` unfinished ones in submission order, and stores any
    ``BaseException`` the call raises on its future."""

    def __init__(self, max_workers: int, schedule: "Schedule"):
        self.max_workers = max_workers
        self.schedule = schedule
        self.work: list[tuple[Future, functools.partial]] = []
        self.closed = False

    def submit(self, fn, *args, **kwargs) -> Future:
        if self.closed:
            raise RuntimeError("cannot schedule new futures after shutdown")
        future = Future()
        self.work.append((future, functools.partial(fn, *args, **kwargs)))
        return future

    def running(self) -> list[tuple[Future, functools.partial]]:
        """The calls a pool of ``max_workers`` would be running."""
        return [item for item in self.work if not item[0].done()][:self.max_workers]

    def finish_one(self) -> None:
        """Run the running call the schedule picks."""
        running = self.running()
        future, call = running[self.schedule.choose(len(running))]
        future.set_running_or_notify_cancel()
        try:
            result = call()
        except BaseException as exc:
            future.set_exception(exc)
        else:
            future.set_result(result)

    def shutdown(self, wait: bool = True, cancel_futures: bool = False) -> None:
        self.closed = True
        if cancel_futures:
            running = {future for future, _call in self.running()}
            for future, _call in self.work:
                if future not in running:
                    future.cancel()
        while wait and self.running():
            self.finish_one()


class Schedule:
    """Picks which running review finishes next: the choices in ``prefix``
    first, then random ones from ``rng``, or else always the first.  Records
    each choice and how many there were to pick from."""

    def __init__(self, prefix=(), rng: Optional[random.Random] = None):
        self.prefix = list(prefix)
        self.rng = rng
        self.taken: list[int] = []
        self.options: list[int] = []
        self.executors: list[ScheduledExecutor] = []

    def executor(self, max_workers: int) -> ScheduledExecutor:
        executor = ScheduledExecutor(max_workers, self)
        self.executors.append(executor)
        return executor

    def choose(self, options: int) -> int:
        step = len(self.taken)
        if step < len(self.prefix):
            choice = self.prefix[step]
        elif self.rng is not None:
            choice = self.rng.randrange(options)
        else:
            choice = 0
        self.taken.append(choice)
        self.options.append(options)
        return choice

    def wait(self, fs, return_when=FIRST_COMPLETED):
        assert return_when == FIRST_COMPLETED
        fs = set(fs)
        if not any(future.done() for future in fs):
            (executor,) = self.executors
            assert {future for future, _call in executor.running()} <= fs
            executor.finish_one()
        done = {future for future in fs if future.done()}
        return done, fs - done

    def left_nothing_running(self) -> bool:
        """Whether every call submitted is finished or cancelled."""
        return all(future.done() for executor in self.executors
                   for future, _call in executor.work)


def every_schedule(run) -> int:
    """Call ``run(schedule)`` once per choice sequence; how many there are."""
    prefixes = [[]]
    count = 0
    while prefixes:
        schedule = Schedule(prefixes.pop())
        run(schedule)
        count += 1
        for step in range(len(schedule.prefix), len(schedule.taken)):
            prefixes.extend(schedule.taken[:step] + [alt]
                            for alt in range(1, schedule.options[step]))
    return count


class Recorded:
    """Wraps a provider: records each request's template and path ids,
    is ``order_free`` when asked to be, and raises
    :class:`KeyboardInterrupt` at the review of ``interrupt``."""

    def __init__(self, inner, order_free: bool, interrupt=None):
        self.inner = inner
        self.order_free = order_free
        self.interrupt = interrupt
        self.calls: list[tuple[str, tuple[str, ...]]] = []

    def generate(self, request, call_index):
        call = (request.tags["template"], tuple(request.tags["path_ids"]))
        self.calls.append(call)
        if call[0] != "mpc" and call[1] == self.interrupt:
            raise KeyboardInterrupt
        return self.inner.generate(request, call_index)


def scheduled(monkeypatch, schedule: Schedule, provider: Recorded, question, config,
              index, embedder):
    """``run_tree`` on ``schedule``'s executor."""
    with monkeypatch.context() as patch:
        patch.setattr(search, "ThreadPoolExecutor", schedule.executor)
        patch.setattr(search, "wait", schedule.wait)
        return run_tree(question, config, index, embedder,
                        LlmClient(provider, sleep=lambda _s: None))


def serial(provider: Recorded, question, config, index, embedder):
    return run_tree(question, config, index, embedder,
                    LlmClient(provider, sleep=lambda _s: None))


def small_trees():
    """Widths (2, 2), with relevance and repetitive pruning each on and off."""
    for context, question, config, index, embedder, policy in scenarios(
            seed=7, count=6, width_options=((2, 2),)):
        for relevance in (False, True):
            for repetitive in (False, True):
                yield ((context, relevance, repetitive), question,
                       dataclasses.replace(config, relevance_pruning=relevance,
                                           repetitive_pruning=repetitive),
                       index, embedder, policy)


def test_every_schedule_of_a_small_tree_equals_the_serial_run(monkeypatch):
    total = branched = 0
    for context, question, config, index, embedder, policy in small_trees():
        reference = Recorded(PolicyProvider(policy), order_free=False)
        expected = outputs(serial(reference, question, config, index, embedder))
        expected_calls = sorted(reference.calls)

        def run(schedule):
            provider = Recorded(PolicyProvider(policy), order_free=True)
            got = outputs(scheduled(monkeypatch, schedule, provider, question,
                                    config, index, embedder))
            assert got == expected, (context, schedule.taken)
            assert sorted(provider.calls) == expected_calls, (context, schedule.taken)
            assert schedule.left_nothing_running(), (context, schedule.taken)
            # at most max(widths) reviews run at once
            assert [e.max_workers for e in schedule.executors] == [max(config.widths)]

        count = every_schedule(run)
        total += count
        branched += count > 1
    # 24 trees; most have more than one schedule
    assert branched >= 12 and total >= 100, (branched, total)


def test_random_schedules_with_faults_equal_the_serial_run(monkeypatch):
    for context, question, config, index, embedder, policy in scenarios():
        reference = Recorded(FaultyPolicyProvider(policy), order_free=False)
        expected = outputs(serial(reference, question, config, index, embedder))
        for seed in range(3):
            schedule = Schedule(rng=random.Random(f"{context[0]}|{seed}"))
            provider = Recorded(FaultyPolicyProvider(policy), order_free=True)
            got = outputs(scheduled(monkeypatch, schedule, provider, question,
                                    config, index, embedder))
            assert got == expected, (context, schedule.taken)
            assert sorted(provider.calls) == sorted(reference.calls), \
                (context, schedule.taken)
            assert schedule.left_nothing_running(), (context, schedule.taken)


def test_nothing_runs_after_an_interrupted_review_raises(monkeypatch):
    interrupted = 0
    for context, question, config, index, embedder, policy in scenarios():
        complete = Recorded(FaultyPolicyProvider(policy), order_free=False)
        serial(complete, question, config, index, embedder)
        rng = random.Random(f"interrupt {context[0]}")
        reviewed = sorted({path for template, path in complete.calls
                           if template != "mpc"})
        interrupt = rng.choice(reviewed)
        with pytest.raises(KeyboardInterrupt):
            serial(Recorded(FaultyPolicyProvider(policy), order_free=False,
                            interrupt=interrupt), question, config, index, embedder)
        schedule = Schedule(rng=rng)
        provider = Recorded(FaultyPolicyProvider(policy), order_free=True,
                            interrupt=interrupt)
        with pytest.raises(KeyboardInterrupt):
            scheduled(monkeypatch, schedule, provider, question, config, index,
                      embedder)
        # every call the run made was one the uninterrupted run makes, and
        # none is left to run once it has raised
        assert not Counter(provider.calls) - Counter(complete.calls), context
        assert schedule.left_nothing_running(), (context, schedule.taken)
        assert all(executor.closed for executor in schedule.executors), context
        interrupted += 1
    assert interrupted == 60
