"""Shared fixtures and scripted-provider helpers."""

from __future__ import annotations

import multiprocessing
import random
import re

import pytest


def pytest_runtest_logreport(report):
    # acceptance tests print their own PASS lines; mirror failures the same way
    if report.when == "call" and report.failed and "test_acceptance" in report.nodeid:
        match = re.search(r"TestCriterion(\d+)", report.nodeid)
        if match:
            print(f"\n[criterion {match.group(1)}] FAIL - {report.nodeid}")

from revtree import (
    HashedEmbedder,
    Paragraph,
    ReviewDecision,
    ScriptedOracle,
    ScriptedRule,
    build_index,
    render_review_output,
)


@pytest.fixture(autouse=True)
def no_process_left_running():
    """Fail a test that leaves a child process running: whatever the program
    starts, it joins before it returns or raises."""
    yield
    assert multiprocessing.active_children() == []


@pytest.fixture
def embedder():
    return HashedEmbedder(dim=64, seed=7)


@pytest.fixture
def small_index(embedder):
    paragraphs = [
        Paragraph("p1", "Boston", "boston is a city with a large population"),
        Paragraph("p2", "Rivers", "the charles river flows through boston"),
        Paragraph("p3", "Census", "the census counts the population of every city"),
        Paragraph("p4", "Weather", "rain and snow fall in winter"),
        Paragraph("p5", "Music", "the orchestra plays on fridays"),
    ]
    return build_index(paragraphs, embedder)


def fresh_corpus(groups: int, group_size: int, embedder, prefix: str = "probe"):
    """Corpus where the query ``probe{n}`` retrieves exactly group n.

    Every paragraph in group n has the single-token text ``probe{n}``, so its
    cosine with that query is exactly 1.0 while cross-group scores stay small;
    ties inside a group resolve by ascending id.  Group 0 seeds layer 1.
    """
    paragraphs = []
    for n in range(groups):
        for j in range(group_size):
            paragraphs.append(
                Paragraph(f"g{n:04d}{chr(97 + j)}", "", f"{prefix}{n}")
            )
    return build_index(paragraphs, embedder)


def always_search_oracle(query: str = "probe{call_index}") -> ScriptedOracle:
    text = render_review_output(ReviewDecision.search("QUERYSLOT"))
    return ScriptedOracle([ScriptedRule(response=text.replace("QUERYSLOT", query))])


def always_accept_oracle(analysis: str = "a settled answer") -> ScriptedOracle:
    return ScriptedOracle(
        [ScriptedRule(response=render_review_output(ReviewDecision.accept(analysis)))]
    )


def always_reject_oracle() -> ScriptedOracle:
    return ScriptedOracle(
        [ScriptedRule(response=render_review_output(ReviewDecision.reject("no use")))]
    )


class RecordingProvider:
    """Wraps a provider, capturing every request for later inspection."""

    def __init__(self, inner):
        self.inner = inner
        self.requests = []

    def generate(self, request, call_index):
        self.requests.append(request)
        return self.inner.generate(request, call_index)


class SeededDecisionProvider:
    """Deterministic pseudo-random reviewer for bound/property runs.

    Decision mix depends only on (seed, call_index), so runs replay exactly.
    Occasionally emits garbage to exercise parse-failure degradation.
    """

    def __init__(self, seed: int, p_search: float = 0.5, p_accept: float = 0.15,
                 p_reject: float = 0.25):
        self.seed = seed
        self.p_search = p_search
        self.p_accept = p_accept
        self.p_reject = p_reject

    def generate(self, request, call_index):
        rng = random.Random(self.seed * 1_000_003 + call_index)
        roll = rng.random()
        if roll < self.p_search:
            return render_review_output(
                ReviewDecision.search(f"q{self.seed}x{call_index}")
            )
        if roll < self.p_search + self.p_accept:
            return render_review_output(
                ReviewDecision.accept(f"answer {self.seed}-{call_index}")
            )
        if roll < self.p_search + self.p_accept + self.p_reject:
            return render_review_output(ReviewDecision.reject("not useful"))
        return "free prose with no bracketed tokens at all"
