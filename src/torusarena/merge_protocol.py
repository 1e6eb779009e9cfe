"""Leader-based map-merge protocol as an explicit transition system.

The same transition rules drive two very different callers: the mapping
module executes one merge instance to completion with a fixed canonical
event order, while the protocol checker explores every interleaving. The
group table (leader and frame offset per agent) is blackboard state; each
agent additionally holds a local view of its leader that only a notify
message updates, which is exactly the window the checker probes.

Instances are serialized: only the sighting at the head of the FIFO queue
may propose, and the lock it takes is released by its last notify.

States and instances are named tuples, and each transition builds its
successor with one constructor call. `leaders`, `offsets` and `local` stay
(agent, value) pairs sorted by agent, the shape callers read them in; a
model maps each agent to its position once, so a lookup is
`state.leaders[i][1]`. Sightings fire in schedule order and each appends its
instance, so instance k sits at position k of `instances`. A model hands out
one object per distinct event and per distinct part of a state (instance,
queue, table, view): an explored graph holds tens of thousands of states
but only dozens of distinct parts, and every edge shares its event's label.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

from .torus import Offset, add, neg, sub

Vec = tuple[int, int]


@dataclass(frozen=True)
class Sighting:
    """One mutual-identification event: a sees b at `offset`, with both
    agents' own-frame positions recorded at the sighting step."""

    a: str
    b: str
    offset: Offset
    pos_a: Vec = (0, 0)
    pos_b: Vec = (0, 0)


class Instance(NamedTuple):
    phase: str  # queued | proposed | absorbed | finished
    report_a: Optional[str] = None  # leader holding the report; None until sent
    report_b: Optional[str] = None
    addr_a: str = ""
    addr_b: str = ""
    winner: str = ""  # fixed when the propose fires
    notifies: tuple[str, ...] = ()


class ProtocolState(NamedTuple):
    leaders: tuple[tuple[str, str], ...]  # blackboard: agent -> leader
    offsets: tuple[tuple[str, Vec], ...]  # blackboard: agent -> offset to leader
    local: tuple[tuple[str, str], ...]  # each agent's own view of its leader
    sighted: int  # prefix of the schedule already fired
    queue: tuple[int, ...]
    lock: Optional[int]
    instances: tuple[Instance, ...]  # instance k at position k
    done: bool = False


class Event:
    """One transition; its label and sort key are made when it is."""

    __slots__ = ("kind", "k", "agent", "extra", "label", "_key")

    _ORDER = {
        "sight": 0,
        "report": 1,
        "forward": 2,
        "cancel": 3,
        "propose": 4,
        "absorb": 5,
        "notify": 6,
        "done": 7,
    }

    def __init__(self, kind: str, k: int = -1, agent: str = "", extra: str = ""):
        # kind: sight report forward cancel propose absorb notify done
        self.kind, self.k, self.agent, self.extra = kind, k, agent, extra
        self._key = (self._ORDER[kind], k, agent, extra)
        if extra:  # sight, cancel, propose
            self.label = f"{kind} {agent} {extra}"
        else:
            self.label = f"{kind} {agent}" if agent else kind

    def sort_key(self) -> tuple:
        return self._key


@dataclass
class MergeProtocol:
    """Transition rules parameterized by a sighting schedule, the group table
    they start from and optional fault injections (dropped notifies, a broken
    leader-decision rule). With no table every agent leads itself at (0, 0).
    A checker model also records the world positions its agents stand at."""

    agents: tuple[str, ...]
    schedule: tuple[Sighting, ...]
    leaders: Optional[dict[str, str]] = None
    offsets: Optional[dict[str, Vec]] = None
    positions: Optional[dict[str, Vec]] = None
    drop_notify: frozenset[str] = frozenset()
    both_claim_victory: bool = False

    def __post_init__(self) -> None:
        self._table = tuple(sorted((self.leaders or {a: a for a in self.agents}).items()))
        self._at = {a: i for i, (a, _) in enumerate(self._table)}
        self._events: dict[tuple, Event] = {}
        self._share = {}.setdefault  # share(part, part): the model's one equal part

    def initial_state(self) -> ProtocolState:
        offsets = tuple(sorted((self.offsets or {a: (0, 0) for a in self.agents}).items()))
        return ProtocolState(self._table, offsets, self._table, 0, (), None, ())

    def alphabet_ok(self, label: str) -> bool:
        """Is `label` an event name over this system's agents?"""
        parts = label.split()
        return bool(parts) and parts[0] in Event._ORDER and all(p in self.agents for p in parts[1:])

    # ------------------------------------------------------------- decision

    def winner_loser(self, state: ProtocolState, k: int) -> tuple[str, str]:
        """Leader decision rule: larger group wins, ties go to the smaller
        name. Returns (winner, loser)."""
        s, at, leaders = self.schedule[k], self._at, state.leaders
        la, lb = leaders[at[s.a]][1], leaders[at[s.b]][1]
        heads = [l for _, l in leaders]
        ca, cb = heads.count(la), heads.count(lb)
        if ca > cb or (ca == cb and la < lb):
            return la, lb
        return lb, la

    def translation(self, state: ProtocolState, k: int, winner: str) -> Vec:
        """Frame translation applied to every loser-group offset: maps a
        coordinate expressed in the loser leader's frame into the winner's."""
        s, at = self.schedule[k], self._at
        t_a, t_b = state.offsets[at[s.a]][1], state.offsets[at[s.b]][1]
        if winner == state.leaders[at[s.a]][1]:
            # F_b -> F_a translation from the sighting geometry.
            b_in_a = sub(add(s.pos_a, s.offset), s.pos_b)
            return add(sub(t_a, t_b), b_in_a)
        a_in_b = sub(add(s.pos_b, neg(s.offset)), s.pos_a)
        return add(sub(t_b, t_a), a_in_b)

    # ------------------------------------------------------------ transitions

    def _event(self, kind: str, k: int = -1, agent: str = "", extra: str = "") -> Event:
        """The model's one event of each name, built on first use: every edge
        and trace that carries a label shares it."""
        key = (kind, k, agent, extra)
        event = self._events.get(key)
        if event is None:
            event = self._events[key] = Event(kind, k, agent, extra)
        return event

    def enabled(self, state: ProtocolState) -> list[Event]:
        out: list[Event] = []
        leaders, _, _, sighted, queue, lock, insts, done = state
        if done:
            return out
        schedule, at, event = self.schedule, self._at, self._event
        if sighted < len(schedule):
            s = schedule[sighted]
            out.append(event("sight", sighted, s.a, s.b))
        for k, inst in enumerate(insts):
            phase, report_a, report_b, _, _, claimed, notifies = inst
            if phase == "finished":
                continue
            s = schedule[k]
            la, lb = leaders[at[s.a]][1], leaders[at[s.b]][1]
            if report_a is None:
                out.append(event("report", k, s.a))
            elif report_a != la:
                out.append(event("forward", k, s.a))
            if report_b is None:
                out.append(event("report", k, s.b))
            elif report_b != lb:
                out.append(event("forward", k, s.b))
            if phase == "queued" and queue[0] == k and lock is None:
                if report_a is not None and report_b is not None and la == lb:
                    out.append(event("cancel", k, s.a, s.b))
                elif la != lb:
                    winner, loser = self.winner_loser(state, k)
                    # The broken-rule fault lets either side end up the winner;
                    # whichever propose fires first fixes the claim.
                    options = [(loser, winner)]
                    if self.both_claim_victory:
                        options.append((winner, loser))
                    for claimant, target in options:
                        if _holds_report(claimant, la, report_a, lb, report_b):
                            out.append(event("propose", k, claimant, target))
            elif phase == "proposed":
                if _holds_report(claimed, la, report_a, lb, report_b):
                    out.append(event("absorb", k, claimed))
            elif phase == "absorbed":
                out.extend(event("notify", k, m) for m in notifies if m not in self.drop_notify)
        if sighted == len(schedule) and not queue and lock is None:
            heads = {l for _, l in leaders} | {l for _, l in state.local}
            if len(heads) == 1:
                out.append(event("done"))
        out.sort(key=Event.sort_key)
        return out

    def apply(self, state: ProtocolState, event: Event) -> ProtocolState:
        leaders, offsets, local, sighted, queue, lock, insts, done = state
        kind, k, share = event.kind, event.k, self._share
        if kind == "sight":
            s, at = self.schedule[k], self._at
            inst = Instance("queued", None, None, leaders[at[s.a]][1], leaders[at[s.b]][1])
            queue += (k,)
            insts += (share(inst, inst),)
            return ProtocolState(leaders, offsets, local, k + 1, share(queue, queue), lock, insts)
        if kind == "done":
            return ProtocolState(leaders, offsets, local, sighted, queue, lock, insts, True)
        phase, report_a, report_b, addr_a, addr_b, winner, notifies = insts[k]
        if kind == "report":  # to the leader the sighting addressed
            if event.agent == self.schedule[k].a:
                report_a = addr_a
            else:
                report_b = addr_b
        elif kind == "forward":  # on to the agent's leader now
            if event.agent == self.schedule[k].a:
                report_a = leaders[self._at[event.agent]][1]
            else:
                report_b = leaders[self._at[event.agent]][1]
        elif kind == "propose":
            phase, winner, lock = "proposed", event.extra, k
        elif kind == "absorb":
            phase, winner = "absorbed", event.agent
            leaders, offsets, notifies = self._absorb(state, k, winner)
        elif kind == "notify":
            i = self._at[event.agent]
            local = local[:i] + (leaders[i],) + local[i + 1 :]
            local = share(local, local)
            notifies = tuple(m for m in notifies if m != event.agent)
        if kind == "cancel" or (kind == "notify" and not notifies):
            phase, notifies = "finished", ()
            queue = tuple(q for q in queue if q != k)
            queue = share(queue, queue)
            lock = None if lock == k else lock
        inst = Instance(phase, report_a, report_b, addr_a, addr_b, winner, notifies)
        insts = insts[:k] + (share(inst, inst),) + insts[k + 1 :]
        return ProtocolState(leaders, offsets, local, sighted, queue, lock, insts, done)

    def _absorb(self, state: ProtocolState, k: int, winner: str) -> tuple:
        """The loser's group moves to the winner at translated offsets, in
        one pass over the sorted table; members that stay keep their pairs.
        Returns (leaders, offsets, members moved)."""
        s = self.schedule[k]
        la = state.leaders[self._at[s.a]][1]
        loser = state.leaders[self._at[s.b]][1] if winner == la else la
        dx, dy = self.translation(state, k, winner)
        leaders, offsets, moved = [], [], []
        for pair, kept in zip(state.leaders, state.offsets):
            if pair[1] == loser:
                m, (x, y) = kept
                pair, kept = (m, winner), (m, (x + dx, y + dy))
                moved.append(m)
            leaders.append(pair)
            offsets.append(kept)
        leaders, offsets = tuple(leaders), tuple(offsets)
        return self._share(leaders, leaders), self._share(offsets, offsets), tuple(moved)

    # --------------------------------------------------------------- running

    def run_to_quiescence(self, state: ProtocolState) -> tuple[ProtocolState, list[str]]:
        """Execute with the canonical deterministic policy (first enabled
        event wins) until nothing but `done` remains. Returns the transcript."""
        transcript: list[str] = []
        while True:
            events = [e for e in self.enabled(state) if e.kind != "done"]
            if not events:
                return state, transcript
            state = self.apply(state, events[0])
            transcript.append(events[0].label)


def _holds_report(
    leader: str, la: str, report_a: Optional[str], lb: str, report_b: Optional[str]
) -> bool:
    """Does `leader` hold the report of its own sighting member? `la` and
    `lb` lead the sighting's two agents, whose reports went to `report_a`
    and `report_b`."""
    return (la == leader and report_a == la) or (lb == leader and report_b == lb)
