"""Work budgets: counts of the work a run does, which, unlike its time, do
not drift with the host."""

from __future__ import annotations

from revtree import HashedEmbedder, Paragraph, build_index
from revtree.corpus import _EMBED_CHUNK, format_documents


class CountingRows(dict):
    """A token -> row mapping that counts every lookup made in it."""

    def __init__(self):
        super().__init__()
        self.lookups = 0

    def get(self, token, default=None):
        self.lookups += 1
        return super().get(token, default)

    def __getitem__(self, token):
        self.lookups += 1
        return super().__getitem__(token)

    def __contains__(self, token):
        self.lookups += 1
        return super().__contains__(token)


def test_an_index_build_looks_each_token_up_once(monkeypatch):
    # three batches over one vocabulary: the first draws most of it, and each
    # text's title is new, so every text of every batch misses a row
    vocab = [f"w{i}" for i in range(40)]
    paragraphs = [Paragraph(f"p{i:03d}", f"title{i}",
                            " ".join(vocab[(i * 7 + j * 3) % len(vocab)] for j in range(10)))
                  for i in range(2 * _EMBED_CHUNK + 44)]
    embedder = HashedEmbedder(dim=8, seed=0)
    embedder._rows = rows = CountingRows()
    given: list[list[str]] = []
    add_tokens = HashedEmbedder._add_tokens

    def spy(self, tokens):
        given.append(list(tokens))
        return add_tokens(self, given[-1])

    monkeypatch.setattr(HashedEmbedder, "_add_tokens", spy)
    build_index(paragraphs, embedder)

    # the budget, batch by batch: one lookup per token occurrence, one more
    # per occurrence that missed, and one check under the lock per distinct
    # token handed to _add_tokens
    known: set[str] = set()
    occurrences = missed = 0
    distinct: list[list[str]] = []
    for start in range(0, len(paragraphs), _EMBED_CHUNK):
        tokens = [token for p in paragraphs[start:start + _EMBED_CHUNK]
                  for token in format_documents([p]).lower().split()]
        new = [token for token in tokens if token not in known]
        occurrences += len(tokens)
        missed += len(new)
        distinct.append(list(dict.fromkeys(new)))
        known.update(new)
    assert given == distinct
    assert rows.lookups == occurrences + missed + sum(map(len, distinct))

    # a query of known tokens: one lookup a token, and nothing to add
    rows.lookups = 0
    embedder.embed_text(" ".join(vocab[:12]))
    assert rows.lookups == 12 and len(given) == len(distinct)
