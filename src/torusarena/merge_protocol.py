"""Leader-based map-merge protocol as an explicit transition system.

The same transition rules drive two very different callers: the mapping
module executes one merge instance to completion with a fixed canonical
event order, while the protocol checker explores every interleaving. The
group table (leader and frame offset per agent) is blackboard state; each
agent additionally holds a local view of its leader that only a notify
message updates, which is exactly the window the checker probes.

Instances are serialized: only the sighting at the head of the FIFO queue
may propose, and the lock it takes is released by its last notify.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator, Optional

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


@dataclass(frozen=True)
class Instance:
    phase: str  # queued | proposed | absorbed | finished
    report_a: Optional[str] = None  # leader holding the report; None until sent
    report_b: Optional[str] = None
    addr_a: str = ""
    addr_b: str = ""
    winner: str = ""  # fixed when the propose fires
    notifies: tuple[str, ...] = ()


@dataclass(frozen=True)
class ProtocolState:
    leaders: tuple[tuple[str, str], ...]  # blackboard: agent -> leader
    offsets: tuple[tuple[str, Vec], ...]  # blackboard: agent -> offset to leader
    local: tuple[tuple[str, str], ...]  # each agent's own view of its leader
    sighted: int  # prefix of the schedule already fired
    queue: tuple[int, ...]
    lock: Optional[int]
    instances: tuple[tuple[int, Instance], ...]
    done: bool = False

    def leader_of(self, agent: str) -> str:
        return dict(self.leaders)[agent]

    def offset_of(self, agent: str) -> Vec:
        return dict(self.offsets)[agent]

    def group_of(self, leader: str) -> list[str]:
        return sorted(a for a, l in self.leaders if l == leader)

    def instance(self, k: int) -> Instance:
        return dict(self.instances)[k]

    def unified(self) -> bool:
        table = dict(self.leaders)
        views = dict(self.local)
        heads = {table[a] for a in table} | {views[a] for a in views}
        return len(heads) == 1


@dataclass(frozen=True)
class Event:
    kind: str  # sight report forward cancel propose absorb notify done
    k: int = -1
    agent: str = ""
    extra: str = ""

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

    def sort_key(self) -> tuple:
        return (self._ORDER[self.kind], self.k, self.agent, self.extra)

    @property
    def label(self) -> str:
        if self.kind == "sight":
            return f"sight {self.agent} {self.extra}"
        if self.kind in ("report", "forward", "absorb", "notify"):
            return f"{self.kind} {self.agent}"
        if self.kind == "cancel":
            return f"cancel {self.agent} {self.extra}"
        if self.kind == "propose":
            return f"propose {self.agent} {self.extra}"
        return self.kind


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

    def initial_state(self) -> ProtocolState:
        leaders = self.leaders or {a: a for a in self.agents}
        offsets = self.offsets or {a: (0, 0) for a in self.agents}
        return ProtocolState(
            leaders=tuple(sorted(leaders.items())),
            offsets=tuple(sorted(offsets.items())),
            local=tuple(sorted(leaders.items())),
            sighted=0,
            queue=(),
            lock=None,
            instances=(),
        )

    def alphabet_ok(self, label: str) -> bool:
        """Is `label` an event name over this system's agents?"""
        parts = label.split()
        return bool(parts) and parts[0] in Event._ORDER and all(p in self.agents for p in parts[1:])

    # ------------------------------------------------------------- decision

    def winner_loser(self, state: ProtocolState, k: int) -> tuple[str, str]:
        """Leader decision rule: larger group wins, ties go to the smaller
        name. Returns (winner, loser)."""
        s = self.schedule[k]
        la, lb = state.leader_of(s.a), state.leader_of(s.b)
        ca, cb = len(state.group_of(la)), len(state.group_of(lb))
        if ca > cb or (ca == cb and la < lb):
            return la, lb
        return lb, la

    def translation(self, state: ProtocolState, k: int, winner: str) -> Vec:
        """Frame translation applied to every loser-group offset: maps a
        coordinate expressed in the loser leader's frame into the winner's."""
        s = self.schedule[k]
        t_a, t_b = state.offset_of(s.a), state.offset_of(s.b)
        if winner == state.leader_of(s.a):
            # F_b -> F_a translation from the sighting geometry.
            b_in_a = sub(add(s.pos_a, s.offset), s.pos_b)
            return add(sub(t_a, t_b), b_in_a)
        a_in_b = sub(add(s.pos_b, neg(s.offset)), s.pos_a)
        return add(sub(t_b, t_a), a_in_b)

    # ------------------------------------------------------------ transitions

    def enabled(self, state: ProtocolState) -> list[Event]:
        out = list(self._enabled_iter(state))
        out.sort(key=Event.sort_key)
        return out

    def _enabled_iter(self, state: ProtocolState) -> Iterator[Event]:
        if state.done:
            return
        if state.sighted < len(self.schedule):
            s = self.schedule[state.sighted]
            yield Event("sight", state.sighted, s.a, s.b)
        insts = dict(state.instances)
        for k, inst in insts.items():
            if inst.phase == "finished":
                continue
            s = self.schedule[k]
            if inst.phase in ("queued", "proposed", "absorbed"):
                if inst.report_a is None:
                    yield Event("report", k, s.a)
                elif inst.report_a != state.leader_of(s.a):
                    yield Event("forward", k, s.a)
                if inst.report_b is None:
                    yield Event("report", k, s.b)
                elif inst.report_b != state.leader_of(s.b):
                    yield Event("forward", k, s.b)
            if inst.phase == "queued" and state.queue and state.queue[0] == k and state.lock is None:
                la, lb = state.leader_of(s.a), state.leader_of(s.b)
                if inst.report_a is not None and inst.report_b is not None and la == lb:
                    yield Event("cancel", k, s.a, s.b)
                elif la != lb:
                    winner, loser = self.winner_loser(state, k)
                    # The broken-rule fault lets either side end up the winner;
                    # whichever propose fires first fixes the claim.
                    options = [(loser, winner)]
                    if self.both_claim_victory:
                        options.append((winner, loser))
                    for claimant, target in options:
                        if self._report_at(state, k, claimant):
                            yield Event("propose", k, claimant, target)
            if inst.phase == "proposed":
                if self._report_at(state, k, inst.winner):
                    yield Event("absorb", k, inst.winner)
            if inst.phase == "absorbed":
                for m in inst.notifies:
                    if m not in self.drop_notify:
                        yield Event("notify", k, m)
        if (
            state.sighted == len(self.schedule)
            and not state.queue
            and state.lock is None
            and state.unified()
        ):
            yield Event("done")

    def _report_at(self, state: ProtocolState, k: int, leader: str) -> bool:
        """Does `leader` hold the report of its own sighting member?"""
        inst = state.instance(k)
        s = self.schedule[k]
        if state.leader_of(s.a) == leader and inst.report_a == leader:
            return True
        if state.leader_of(s.b) == leader and inst.report_b == leader:
            return True
        return False

    def apply(self, state: ProtocolState, event: Event) -> ProtocolState:
        if event.kind == "sight":
            return self._apply_sight(state, event.k)
        if event.kind == "report":
            return self._apply_report(state, event.k, event.agent)
        if event.kind == "forward":
            return self._apply_forward(state, event.k, event.agent)
        if event.kind == "cancel":
            return self._finish_instance(state, event.k)
        if event.kind == "propose":
            return self._apply_propose(state, event.k, event.extra)
        if event.kind == "absorb":
            return self._apply_absorb(state, event.k, event.agent)
        if event.kind == "notify":
            return self._apply_notify(state, event.k, event.agent)
        if event.kind == "done":
            return replace(state, done=True)
        raise ValueError(f"unknown event {event!r}")

    def _with_instance(self, state: ProtocolState, k: int, inst: Instance) -> ProtocolState:
        insts = dict(state.instances)
        insts[k] = inst
        return replace(state, instances=tuple(sorted(insts.items())))

    def _apply_sight(self, state: ProtocolState, k: int) -> ProtocolState:
        s = self.schedule[k]
        inst = Instance(
            phase="queued",
            addr_a=state.leader_of(s.a),
            addr_b=state.leader_of(s.b),
        )
        state = replace(state, sighted=state.sighted + 1, queue=state.queue + (k,))
        return self._with_instance(state, k, inst)

    def _apply_report(self, state: ProtocolState, k: int, agent: str) -> ProtocolState:
        inst = state.instance(k)
        if agent == self.schedule[k].a:
            inst = replace(inst, report_a=inst.addr_a)
        else:
            inst = replace(inst, report_b=inst.addr_b)
        return self._with_instance(state, k, inst)

    def _apply_forward(self, state: ProtocolState, k: int, agent: str) -> ProtocolState:
        inst = state.instance(k)
        if agent == self.schedule[k].a:
            inst = replace(inst, report_a=state.leader_of(agent))
        else:
            inst = replace(inst, report_b=state.leader_of(agent))
        return self._with_instance(state, k, inst)

    def _apply_propose(self, state: ProtocolState, k: int, target: str) -> ProtocolState:
        inst = replace(state.instance(k), phase="proposed", winner=target)
        return self._with_instance(replace(state, lock=k), k, inst)

    def _apply_absorb(self, state: ProtocolState, k: int, winner: str) -> ProtocolState:
        s = self.schedule[k]
        la, lb = state.leader_of(s.a), state.leader_of(s.b)
        loser = lb if winner == la else la
        shift = self.translation(state, k, winner)
        absorbed = state.group_of(loser)
        leaders = dict(state.leaders)
        offsets = dict(state.offsets)
        for m in absorbed:
            leaders[m] = winner
            offsets[m] = add(offsets[m], shift)
        inst = replace(state.instance(k), phase="absorbed", notifies=tuple(absorbed))
        state = replace(
            state,
            leaders=tuple(sorted(leaders.items())),
            offsets=tuple(sorted(offsets.items())),
        )
        return self._with_instance(state, k, inst)

    def _apply_notify(self, state: ProtocolState, k: int, member: str) -> ProtocolState:
        inst = state.instance(k)
        local = dict(state.local)
        local[member] = dict(state.leaders)[member]
        state = replace(state, local=tuple(sorted(local.items())))
        remaining = tuple(m for m in inst.notifies if m != member)
        inst = replace(inst, notifies=remaining)
        state = self._with_instance(state, k, inst)
        if not remaining:
            return self._finish_instance(state, k)
        return state

    def _finish_instance(self, state: ProtocolState, k: int) -> ProtocolState:
        inst = replace(state.instance(k), phase="finished", notifies=())
        queue = tuple(q for q in state.queue if q != k)
        lock = None if state.lock == k else state.lock
        return self._with_instance(replace(state, queue=queue, lock=lock), k, inst)

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
