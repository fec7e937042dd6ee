"""Seeded synthetic inputs: vocabulary corpora, planted corpora and questions.

Everything here is derived from the ``--seed`` of a run, so the same seed
gives the same corpus, questions and model world.  Generation is the
benchmark's own work and is never timed.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

VOCAB_SIZE = 5000
CORPUS_CHUNK = 1000
_SYLLABLES = ("ka", "lo", "mi", "ne", "ru", "sa", "ti", "vo", "ze", "pa",
              "do", "fi", "gu", "ha", "je", "bo", "cy", "wu", "xe", "qi")


def stable_int(*parts) -> int:
    """A 64-bit integer that depends only on ``parts`` (not on PYTHONHASHSEED)."""
    key = "\x1f".join(str(p) for p in parts).encode("utf-8")
    return int.from_bytes(hashlib.blake2b(key, digest_size=8).digest(), "big")


def stable_unit(*parts) -> float:
    """A float in [0, 1) that depends only on ``parts``."""
    return stable_int(*parts) / 2.0 ** 64


def make_vocab(seed: int) -> list[str]:
    """``VOCAB_SIZE`` distinct lowercase pseudo-words."""
    rng = random.Random(stable_int("vocab", seed))
    words: list[str] = []
    seen: set[str] = set()
    while len(words) < VOCAB_SIZE:
        word = "".join(rng.choice(_SYLLABLES) for _ in range(rng.randint(2, 4)))
        if word not in seen:
            seen.add(word)
            words.append(word)
    return words


def _zipf_weights(n: int) -> np.ndarray:
    weights = 1.0 / np.arange(1, n + 1) ** 0.9
    return weights / weights.sum()


def random_texts(rng: np.random.Generator, vocab: list[str], count: int,
                 min_words: int, max_words: int, zipf: bool = True) -> list[str]:
    """``count`` texts of Zipf-distributed (or uniform) vocabulary words."""
    lengths = rng.integers(min_words, max_words + 1, size=count)
    picks = rng.choice(len(vocab), size=int(lengths.sum()),
                       p=_zipf_weights(len(vocab)) if zipf else None)
    texts = []
    pos = 0
    for n in lengths:
        texts.append(" ".join(vocab[i] for i in picks[pos:pos + n]))
        pos += n
    return texts


@dataclass(frozen=True)
class Question:
    id: str
    text: str
    gold: str


def vocab_records(seed: int, vocab: list[str], count: int, min_words: int = 80,
                  max_words: int = 120) -> Iterator[tuple[str, str, str]]:
    """``count`` (id, title, text) records over ``vocab``, made in chunks so
    that a caller streaming them to a file never holds the whole corpus.

    Titles equal ids so that a paragraph can be recognised inside a rendered
    prompt.
    """
    rng = np.random.default_rng(stable_int("corpus", seed))
    for start in range(0, count, CORPUS_CHUNK):
        texts = random_texts(rng, vocab, min(CORPUS_CHUNK, count - start),
                             min_words, max_words)
        for i, text in enumerate(texts, start):
            yield f"p{i:07d}", f"p{i:07d}", text


def vocab_questions(seed: int, vocab: list[str], count: int) -> list[Question]:
    """Questions of ten vocabulary words plus a unique tag; gold is a fixed
    per-question token."""
    rng = np.random.default_rng(stable_int("questions", seed))
    texts = random_texts(rng, vocab, count, 10, 10)
    return [Question(id=f"q{i:05d}", text=f"{text} tag{i:05d}",
                     gold=f"answer{i:05d}")
            for i, text in enumerate(texts)]


# Planted world for the remote-model workload -------------------------------

SEARCH, ACCEPT, REJECT, MALFORMED = "S", "A", "R", "M"

# types of one retrieval group, per depth; each group is shuffled per
# question, so the tree's shape varies while its call count does not
PLANTED_GROUPS = {
    1: (SEARCH, SEARCH, SEARCH, ACCEPT, MALFORMED),
    2: (SEARCH, ACCEPT, REJECT),
    3: (SEARCH, ACCEPT, REJECT),
}
ANCHOR_REPEAT = 16


@dataclass(frozen=True)
class PlantedCounts:
    """What every planted question must cost: reviewed nodes, MPC search
    verdicts (max depth included), malformed reviews and completions."""

    nodes: int
    searches: int
    malformed: int

    @property
    def completions(self) -> int:
        # one review per node, one MPC call per search verdict, one fusion
        return self.nodes + self.searches + 1


def planted_counts() -> PlantedCounts:
    """The per-question counts implied by :data:`PLANTED_GROUPS`."""
    nodes = searches = malformed = 0
    parents = 1
    for depth in sorted(PLANTED_GROUPS):
        group = PLANTED_GROUPS[depth]
        nodes += parents * len(group)
        malformed += parents * group.count(MALFORMED)
        parents *= group.count(SEARCH)
        searches += parents
    return PlantedCounts(nodes=nodes, searches=searches, malformed=malformed)


@dataclass
class PlantedWorld:
    """Paragraph records plus what the simulated model knows about them.

    ``kind[pid]`` is the review verdict the model gives a path ending at
    ``pid``; ``child_anchor[pid]`` is the token that retrieves the group
    below a searching paragraph; ``flaky`` holds the paragraphs whose first
    review attempt the remote session answers with a 503.
    """

    records: list[tuple[str, str, str]] = field(default_factory=list)
    questions: list[Question] = field(default_factory=list)
    kind: dict[str, str] = field(default_factory=dict)
    child_anchor: dict[str, str] = field(default_factory=dict)
    flaky: set[str] = field(default_factory=set)


def planted_world(seed: int, questions: int) -> PlantedWorld:
    """A small corpus in which every question grows a tree of the same size.

    Each group of paragraphs shares an anchor token repeated often enough,
    among uniformly drawn words, that a query naming the anchor retrieves
    exactly that group; the paragraph types in a group are a seeded
    permutation of :data:`PLANTED_GROUPS`, and the other questions' groups
    are the distractors.  Every question has one flaky paragraph.
    """
    vocab = make_vocab(seed)
    nrng = np.random.default_rng(stable_int("planted", seed))
    rng = random.Random(stable_int("planted-types", seed))
    world = PlantedWorld()
    counter = 0

    def add_group(anchor: str, depth: int, qi: int) -> list[str]:
        nonlocal counter
        types = list(PLANTED_GROUPS[depth])
        rng.shuffle(types)
        fills = random_texts(nrng, vocab, len(types), 14, 18, zipf=False)
        ids = []
        for kind, fill in zip(types, fills):
            pid = f"p{counter:07d}"
            counter += 1
            text = " ".join([anchor] * ANCHOR_REPEAT) + " " + fill
            world.records.append((pid, pid, text))
            world.kind[pid] = kind
            if kind == SEARCH:
                world.child_anchor[pid] = f"anc{qi:04d}x{pid}"
            ids.append(pid)
        return ids

    qtexts = random_texts(nrng, vocab, questions, 6, 6, zipf=False)
    for qi in range(questions):
        anchor = f"anc{qi:04d}root"
        level = add_group(anchor, 1, qi)
        members = list(level)
        for depth in sorted(PLANTED_GROUPS)[1:]:
            nxt = []
            for pid in level:
                if world.kind[pid] == SEARCH:
                    nxt.extend(add_group(world.child_anchor[pid], depth, qi))
            members.extend(nxt)
            level = nxt
        world.flaky.add(rng.choice([m for m in members if world.kind[m] == ACCEPT]))
        world.questions.append(Question(
            id=f"q{qi:05d}",
            text=" ".join([anchor] * 6) + " " + qtexts[qi],
            gold=f"answer{qi:05d}",
        ))
    return world
