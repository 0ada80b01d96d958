"""The serving pool's books as a state machine, with no processes.

A Hypothesis ``RuleBasedStateMachine`` drives one :class:`Ledger`
through every transition — admit or shed, resubmit after shed, resubmit
while outstanding, deliver, deliver twice, expire, write off a shard, a
straggler after write-off, and a result for an id never submitted — and
mirrors each id's state and every counter in a plain model. After every
step the books must balance
(``submitted = completed + shed + expired + declared_lost +
outstanding``), each id's current submission must be in exactly one
state, and the ledger must agree with the model counter for counter.
"""

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.errors import ConfigError
from repro.obs.metrics import MetricsRegistry, set_registry
from repro.serve.ledger import (
    COMPLETED,
    EXPIRED,
    OUTSTANDING,
    SHED,
    WRITTEN_OFF,
    Ledger,
)
from repro.serve.protocol import result_message

SHARDS = 2
MAX_DEPTH = 1
IDS = [f"t{i}" for i in range(6)]
STATES = (OUTSTANDING, COMPLETED, EXPIRED, SHED, WRITTEN_OFF)


def _result(shard, traj_id, expired=False):
    extra = {"expired": True} if expired else {}
    return result_message(shard, 1, traj_id, 0.0, trace_id="trace", **extra)


class LedgerMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.registry = MetricsRegistry()
        self.previous_registry = set_registry(self.registry)
        self.ledger = Ledger(SHARDS, max_queue_depth=MAX_DEPTH)
        self.state = {}  # id -> (state, shard) of its current submission
        self.expected = dict.fromkeys(
            ["submitted", "completed", "shed", "expired", "declared_lost",
             "duplicates", "unsolicited", "reversed_write_offs"], 0,
        )
        self.ghosts = 0

    def teardown(self):
        set_registry(self.previous_registry)

    def _ids_in(self, *states):
        return sorted(i for i, (s, _) in self.state.items() if s in states)

    def _submittable(self):
        """Ids never submitted, and ids whose submission has ended."""
        fresh = [i for i in IDS if i not in self.state]
        return fresh + self._ids_in(COMPLETED, EXPIRED, WRITTEN_OFF)

    def _outstanding_on(self, shard):
        return [
            i for i, (s, sh) in self.state.items() if s == OUTSTANDING and sh == shard
        ]

    def _depth(self, shard):
        return len(self._outstanding_on(shard))

    def _submit(self, traj_id, shard):
        admitted = self.ledger.submit(traj_id, shard) is not None
        assert admitted == (self._depth(shard) < MAX_DEPTH)
        self.expected["submitted"] += 1
        if admitted:
            self.state[traj_id] = (OUTSTANDING, shard)
        else:
            self.expected["shed"] += 1
            self.state[traj_id] = (SHED, shard)
            shed = self.ledger.results()[traj_id]
            assert shed["error_type"] == "OverloadError" and shed["shed"] is True

    def _deliver(self, traj_id, expired=False):
        before, shard = self.state[traj_id]
        accepted = self.ledger.deliver(_result(shard, traj_id, expired))
        if before in (OUTSTANDING, WRITTEN_OFF):
            assert accepted is not None and accepted.state == before
            if before == WRITTEN_OFF:
                self.expected["declared_lost"] -= 1
                self.expected["reversed_write_offs"] += 1
            self.expected["expired" if expired else "completed"] += 1
            self.state[traj_id] = (EXPIRED if expired else COMPLETED, shard)
            assert self.ledger.results()[traj_id].get("expired", False) == expired
        else:
            assert accepted is None
            self.expected["duplicates"] += 1

    # -- admit or shed ------------------------------------------------------

    @precondition(lambda self: self._submittable())
    @rule(data=st.data(), shard=st.integers(0, SHARDS - 1))
    def submit(self, data, shard):
        self._submit(data.draw(st.sampled_from(self._submittable())), shard)

    @precondition(lambda self: self._ids_in(SHED))
    @rule(data=st.data(), shard=st.integers(0, SHARDS - 1))
    def resubmit_after_shed(self, data, shard):
        self._submit(data.draw(st.sampled_from(self._ids_in(SHED))), shard)

    @precondition(lambda self: self._ids_in(OUTSTANDING))
    @rule(data=st.data(), shard=st.integers(0, SHARDS - 1))
    def resubmit_while_outstanding(self, data, shard):
        traj_id = data.draw(st.sampled_from(self._ids_in(OUTSTANDING)))
        books = (vars(self.ledger.stats).copy(), list(self.ledger.depths))
        with pytest.raises(ConfigError):
            self.ledger.submit(traj_id, shard)
        assert (vars(self.ledger.stats), self.ledger.depths) == books

    # -- deliver and expire ---------------------------------------------------

    @precondition(lambda self: self._ids_in(OUTSTANDING))
    @rule(data=st.data())
    def deliver(self, data):
        self._deliver(data.draw(st.sampled_from(self._ids_in(OUTSTANDING))))

    @precondition(lambda self: self._ids_in(OUTSTANDING))
    @rule(data=st.data())
    def expire(self, data):
        self._deliver(data.draw(st.sampled_from(self._ids_in(OUTSTANDING))), True)

    @precondition(lambda self: self._ids_in(COMPLETED, EXPIRED))
    @rule(data=st.data(), expired=st.booleans())
    def deliver_twice(self, data, expired):
        settled = self._ids_in(COMPLETED, EXPIRED)
        self._deliver(data.draw(st.sampled_from(settled)), expired)

    @rule()
    def result_for_an_id_never_submitted(self):
        self.ghosts += 1
        assert self.ledger.deliver(_result(0, f"ghost{self.ghosts}")) is None
        self.expected["unsolicited"] += 1

    # -- write-off --------------------------------------------------------------

    @rule(shard=st.integers(0, SHARDS - 1))
    def write_off(self, shard):
        doomed = self._outstanding_on(shard)
        assert self.ledger.write_off(shard) == len(doomed)
        for traj_id in doomed:
            self.state[traj_id] = (WRITTEN_OFF, shard)
        self.expected["declared_lost"] += len(doomed)

    @precondition(lambda self: self._ids_in(WRITTEN_OFF))
    @rule(data=st.data(), expired=st.booleans())
    def straggler_after_write_off(self, data, expired):
        self._deliver(data.draw(st.sampled_from(self._ids_in(WRITTEN_OFF))), expired)

    # -- after every step -------------------------------------------------------

    @invariant()
    def books_balance(self):
        s, ledger = self.ledger.stats, self.ledger
        assert s.submitted == (
            s.completed + s.shed + s.expired + s.declared_lost + ledger.outstanding
        )
        assert s.lost == ledger.outstanding + s.declared_lost
        assert {k: getattr(s, k) for k in self.expected} == self.expected
        lost_total = self.registry.counter("repro.serve.lost_total").value
        assert lost_total == s.declared_lost + s.reversed_write_offs

    @invariant()
    def one_state_per_id(self):
        listed = [i for state in STATES for i in self.ledger.ids(state)]
        assert sorted(listed) == sorted(self.state)  # each id exactly once
        for state in STATES:
            assert sorted(self.ledger.ids(state)) == self._ids_in(state)
        for shard in range(SHARDS):
            assert self.ledger.depths[shard] == self._depth(shard) <= MAX_DEPTH
        assert sorted(self.ledger.results()) == self._ids_in(COMPLETED, EXPIRED, SHED)


LedgerMachine.TestCase.settings = settings(
    derandomize=True,
    max_examples=60,
    stateful_step_count=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
TestLedgerMachine = LedgerMachine.TestCase
