"""Teammate identification: broadcast on sighting, thing-list replies,
symmetric-offset matching with a full-context consistency check, and
conservative ambiguity handling with retry.

Matching is requester-side only. A responder's reply is its complete thing
list. The requester takes the responder for the teammate it sees at offset
`off` when the reply, moved by `off` into the requester's frame, holds an
entity of the requester's team on the requester's own cell and every other
thing of the reply that lands in the requester's vision diamond is one of
the requester's own things.

A round tests that rule with one bitmask test per candidate. Each
(kind, detail) pair seen in the round is interned as a code, and a thing
list becomes a Python int with one bit per (cell, code) over a box of
(4R+1)^2 cells, R being VISION_RADIUS, so a round has as many bits per cell
as codes. A reply is laid out around the box cell (R, R) and the
requester's view around the centre (2R, 2R): moving a reply by any offset
in the diamond is one left shift, and it stays inside the box. The
requester's veto mask holds every bit of its diamond except those of its
own things. The candidate matches when the moved reply ANDed with the veto
is exactly the bit of a team entity on the centre cell.

A round moves each reply once per offset: the first requester that sees a
teammate at `off` moves the replies of every responder that sees one at
-off, and every later requester with a sighting at `off` tests those moved
replies against its own veto.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable

from .torus import DIAMOND, VISION_RADIUS, Offset, neg
from .world import Percept, Thing

SIDE = 4 * VISION_RADIUS + 1  # cells per row of the bit box


@dataclass(frozen=True)
class Identification:
    observer: str
    observed: str
    offset: Offset
    step: int


def unknown_team_entities(percept: Percept, team: str) -> list[Offset]:
    return sorted(t.offset for t in percept.things if t.kind == "entity" and t.detail == team)


class ThingBits:
    """The bit layout of one round: `width` bits per box cell, one for each
    (kind, detail) code. Code 0 is an entity of `team`."""

    def __init__(self, team: str, thing_lists: Iterable[Iterable[Thing]]):
        codes = {("entity", team): 0}
        for things in thing_lists:
            for _, kind, detail in things:
                codes.setdefault((kind, detail), len(codes))
        self.codes = codes
        self.width = len(codes)
        self.cell_bits, self.diamond = _layout(self.width)
        # Where the requester's own cell sits relative to a reply's: a
        # requester's view is a reply's layout shifted by this.
        self.home = self.cell_bits[0, 0]
        self.centre = 1 << 2 * self.home

    def mask(self, things: Iterable[Thing]) -> int:
        """A thing list in reply layout."""
        cell_bits, codes = self.cell_bits, self.codes
        m = 0
        for off, kind, detail in things:
            m |= 1 << cell_bits[off] + codes[kind, detail]
        return m

    def veto(self, mask: int) -> int:
        """The requester's diamond less its own things (given as their reply
        mask), in requester layout."""
        return self.diamond & ~(mask << self.home)

    def candidates(self, veto: int, moved: list[tuple[str, int]]) -> list[str]:
        """The responders, in the order of `moved`, that could be the teammate
        a requester with veto mask `veto` sees at offset `off`; `moved` pairs
        each responder with its reply mask moved by `off` (shifted left by
        `cell_bits[off]`)."""
        centre = self.centre
        return [name for name, reply in moved if reply & veto == centre]


@functools.cache
def _layout(width: int) -> tuple[dict[Offset, int], int]:
    """For `width` bits per cell: the first bit of each diamond cell in reply
    layout, and every bit of the diamond in requester layout."""
    cell_bits = {
        (x, y): (x + VISION_RADIUS + (y + VISION_RADIUS) * SIDE) * width for x, y in DIAMOND
    }
    cell = (1 << width) - 1
    diamond = sum(cell << bit for bit in cell_bits.values()) << cell_bits[0, 0]
    return cell_bits, diamond


@dataclass
class RoundStats:
    broadcasts: int = 0
    replies: int = 0
    identifications: int = 0
    ambiguous: int = 0


def identification_round(
    team: str,
    percepts: dict[str, Percept],
    step: int,
) -> tuple[list[Identification], RoundStats]:
    """Simulate one synchronous broadcast/reply exchange for a whole team.

    `percepts` maps every live team member to its percept for this step;
    the per-step mailbox is collapsed into direct dict access, which is safe
    because replies are pure functions of the responder's percept."""
    stats = RoundStats()
    events: list[Identification] = []
    sightings = {name: unknown_team_entities(percepts[name], team) for name in sorted(percepts)}
    # Only an agent that sees a teammate asks, or can answer for one.
    seeing = [name for name, offs in sightings.items() if offs]
    bits = ThingBits(team, (percepts[name].things for name in seeing))
    replies = {name: bits.mask(percepts[name].things) for name in seeing}
    # A responder can be the teammate I see at `off` only if it sees a
    # teammate at -off, so index the responders (in name order) by the
    # offsets at which they see one.
    seen_at: dict[Offset, list[str]] = {}
    for responder in seeing:
        for off in sightings[responder]:
            seen_at.setdefault(off, []).append(responder)
    # Each offset's responders, `seen_at[neg(off)]`, with their replies
    # moved by `off`: built for the first requester with a sighting at
    # `off`, and tested again by every later one.
    moved: dict[Offset, list[tuple[str, int]]] = {}
    for name in seeing:
        stats.broadcasts += 1  # one broadcast per agent per step
        stats.replies += len(percepts) - 1
        veto = bits.veto(replies[name])
        for off in sightings[name]:
            at = moved.get(off)
            if at is None:
                shift = bits.cell_bits[off]
                at = moved[off] = [(r, replies[r] << shift) for r in seen_at.get(neg(off), ())]
            # A responder matching at several offsets stays a candidate at
            # each of them; discarding it could leave a wrong unique
            # candidate standing at the true offset.
            candidates = bits.candidates(veto, at)
            if name in candidates:
                candidates.remove(name)
            if len(candidates) == 1:
                events.append(Identification(name, candidates[0], off, step))
                stats.identifications += 1
            elif candidates:
                stats.ambiguous += 1
    return events, stats


def mutual_pairs(events: list[Identification]) -> list[tuple[Identification, Identification]]:
    """Pairs (a identified b, b identified a) with mirrored offsets."""
    index = {(e.observer, e.observed, e.offset): e for e in events}
    out = []
    for e in events:
        if e.observer < e.observed:
            back = index.get((e.observed, e.observer, neg(e.offset)))
            if back is not None:
                out.append((e, back))
    return out
