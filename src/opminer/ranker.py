"""Compression scoring, closed-pattern pruning and recommendation ranking.

A pattern's compression value is (support - 1) * (nodes + edges): how much
the input shrinks when every occurrence but one stored definition is replaced
by a reference. Pruning keeps the closed patterns, those without a strict
supergraph of equal support (which would compress at least as much), as the
miner marked them; ranking sorts survivors by compression (or support, as the
frequency baseline) with a deterministic tie-break.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .miner import Pattern

MODES = ("compression", "frequency")


class RankError(ValueError):
    """Invalid ranking input."""


def compression(p: Pattern) -> int:
    """(support - 1) * (node count + edge count); zero iff support is 1."""
    if p.support < 1:
        raise RankError("pattern support must be at least 1")
    return (p.support - 1) * p.graph.size


@dataclass(frozen=True)
class RankedItem:
    rank: int
    pattern: Pattern
    support: int
    compression: int


@dataclass(frozen=True)
class RankedList:
    mode: str
    items: tuple[RankedItem, ...]

    def __len__(self) -> int:
        return len(self.items)


def prune(patterns: Iterable[Pattern]) -> list[Pattern]:
    """Keep the closed patterns: those no strict supergraph matches in support.

    A strict supergraph with equal support is larger, hence at least as
    compressing, so it dominates. ``mine`` marks each pattern ``closed`` while
    it grows, against the whole database, and pattern documents carry the
    mark, so pruning reads nothing else. Idempotent.
    """
    return [p for p in patterns if p.closed]


def rank(patterns: Iterable[Pattern], mode: str = "compression") -> RankedList:
    """Sorted recommendations over an already-pruned pattern set.

    Descending by compression or by support; ties broken by larger
    node+edge count, then ascending canonical code, so runs are reproducible.
    """
    if mode not in MODES:
        raise RankError(f"unknown ranking mode {mode!r}; expected one of {MODES}")
    plist = list(patterns)
    scored = [(p, compression(p)) for p in plist]

    def key(item):
        p, compr = item
        primary = compr if mode == "compression" else p.support
        return (-primary, -p.graph.size, p.code.sort_key)

    items = tuple(
        RankedItem(rank=i + 1, pattern=p, support=p.support, compression=compr)
        for i, (p, compr) in enumerate(sorted(scored, key=key))
    )
    return RankedList(mode, items)
