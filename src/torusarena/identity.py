"""Teammate identification: broadcast on sighting, thing-list replies,
symmetric-offset matching with a full-context consistency check, and
conservative ambiguity handling with retry.

Matching is requester-side only. A responder's reply always contains its
complete thing list; the requester filters it down to the overlap of the two
vision diamonds before demanding agreement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Container, Optional

from .torus import VISION_RADIUS, Offset, neg
from .world import Percept, Thing


@dataclass(frozen=True)
class IdReply:
    responder: str
    things: tuple[Thing, ...]


@dataclass(frozen=True)
class Identification:
    observer: str
    observed: str
    offset: Offset
    step: int


def build_reply(responder: str, percept: Percept) -> IdReply:
    return IdReply(responder=responder, things=percept.things)


def unknown_team_entities(percept: Percept, team: str) -> list[Offset]:
    return sorted(t.offset for t in percept.things if t.kind == "entity" and t.detail == team)


def matches_at(mine: Container[Thing], reply: IdReply, offset: Offset, team: str) -> bool:
    """True iff the responder could be the entity I see at `offset`.

    `mine` holds my own things; pass a frozenset when testing many offsets.
    Requires the reply to contain me (entity of my team at the mirrored
    offset) and every reply thing that maps into my vision diamond to have an
    exact counterpart in my own things.
    """
    ox, oy = offset
    mx, my = -ox, -oy
    found_me = False
    for (tx, ty), kind, detail in reply.things:
        if tx == mx and ty == my and kind == "entity":
            if detail != team:
                return False
            found_me = True
            continue
        x, y = tx + ox, ty + oy
        if abs(x) + abs(y) <= VISION_RADIUS and ((x, y), kind, detail) not in mine:
            return False
    return found_me


def match_candidate(my_things: tuple[Thing, ...], reply: IdReply, team: str) -> Optional[Offset]:
    """Offset of the responder relative to me, if it is unambiguous.

    None when no observed teammate matches the reply, and also when more than
    one does (the conservative choice: an uncertain match is no match)."""
    offsets = sorted(t.offset for t in my_things if t.kind == "entity" and t.detail == team)
    mine = frozenset(my_things)
    hits = [off for off in offsets if matches_at(mine, reply, off, team)]
    return hits[0] if len(hits) == 1 else None


@dataclass(frozen=True)
class Resolution:
    status: str  # identified | ambiguous | no_match
    responder: Optional[str] = None
    offset: Optional[Offset] = None


def resolve(candidates: list[tuple[str, Offset]]) -> Resolution:
    """Combine all candidate responders for one observed entity."""
    if not candidates:
        return Resolution("no_match")
    if len(candidates) == 1:
        responder, offset = candidates[0]
        return Resolution("identified", responder, offset)
    return Resolution("ambiguous")


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
    replies = {
        name: build_reply(name, percepts[name]) for name in sorted(percepts)
    }
    # A responder can be the teammate I see at `off` only if it sees a
    # teammate at -off, so index the responders (in name order) by the
    # offsets at which they see one.
    seen_at: dict[Offset, list[str]] = {}
    for responder, reply in replies.items():
        for t in reply.things:
            if t.kind == "entity" and t.detail == team:
                seen_at.setdefault(t.offset, []).append(responder)
    for name in sorted(percepts):
        sightings = unknown_team_entities(percepts[name], team)
        if not sightings:
            continue
        stats.broadcasts += 1  # one broadcast per agent per step
        stats.replies += len(percepts) - 1
        mine = frozenset(percepts[name].things)
        for off in sightings:
            # A responder matching at several offsets stays a candidate at
            # each of them; discarding it could leave a wrong unique
            # candidate standing at the true offset.
            candidates = []
            for responder in seen_at.get(neg(off), ()):
                if responder == name:
                    continue
                if matches_at(mine, replies[responder], off, team):
                    candidates.append((responder, off))
            res = resolve(candidates)
            if res.status == "identified":
                events.append(Identification(name, res.responder, off, step))
                stats.identifications += 1
            elif res.status == "ambiguous":
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
