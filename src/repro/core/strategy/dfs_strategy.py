"""Bounded exhaustive depth-first search over the choice tree.

Each nondeterministic decision (scheduling, boolean, integer) is a node in a
choice tree.  The DFS strategy enumerates that tree systematically, one branch
per iteration, so that small harnesses can be explored *exhaustively* rather
than probabilistically.  The search is bounded by the engine's ``max_steps``
and by the iteration budget; :attr:`DFSStrategy.exhausted` reports whether the
full tree was covered.

Stateful search
---------------

With ``stateful=True`` (``TestingConfig.stateful``) the search additionally
prunes schedules that revisit an already fully-explored *global state*: at
each scheduling point the strategy reads the runtime's execution fingerprint
(:mod:`repro.core.fingerprint`) and, when that exact fingerprint was
previously explored with at least as many remaining steps, collapses the
choice point to a single forced branch instead of fanning out over every
enabled machine.  Different schedule prefixes routinely *commute* into the
same global state, so this removes whole families of redundant schedules
while still visiting every distinct bounded behaviour.

Soundness discipline:

* **Post-order recording.**  A fingerprint enters the visited set only when
  its choice point pops off the DFS stack as exhausted (every branch below
  it fully explored) — never when it is first reached — so a state can
  never suppress the exploration of its own subtree.
* **Remaining-steps guard.**  The visited set stores the number of steps
  that remained below the bound when the state was explored; a revisit is
  pruned only when it has *at most* that many steps remaining, so a revisit
  closer to the root (which could reach deeper behaviours) still fans out.
* **Exactness.**  Only fingerprints the tracker reports as *exact* (no
  paused coroutine, no unencodable value anywhere) participate; anything
  else degrades to plain DFS at that node.
* **Forced nodes occupy a stack slot.**  A pruned node records a one-option
  choice point, so replayed prefixes stay aligned across iterations.  A node
  never changes from branching to forced while it is on the stack (see
  *Replaying the prefix blind*), so a prefix replays the decisions it
  recorded, always.

Replaying the prefix blind
--------------------------

Every execution starts from the root, so all but the last of its decisions
are ones the search has taken before, from the same states (README, *The
determinism contract*).  Nothing that is a function of the decision prefix
is derived twice.  A scheduling node remembers what its first visit
computed — the branch-ordered options (sorted and, under ``dpor-lite``,
sleep-filtered), the size of the enabled set they came from, whether the
node was pruned, the sleep set on entry and the one that follows the branch
last played, and a snapshot of the fingerprint tracker — and
:meth:`DFSStrategy.next_machine` at a node that has been *played* returns
``options[index]``: no sort, no observation, no covered check, no footprint
resolution.  Only the *bumped* node (last on the stack, new index) does any
work: it restores the tracker snapshot, so the one new step of the execution
is maintained incrementally, and derives the sleep set that follows its new
branch from the recorded sleep set on entry.  While the next choice is a
played node the strategy says so to the runtime (the one property its loop
reads per step), which then does not observe the state either; its
fingerprint went into the coverage set when the node was first played.

The recorded answer is used only when the enabled set has the recorded size;
otherwise the full path below runs, as for a node never played, and
``_choose`` deals with the divergence: a frozen claim decision raises, any
other restarts its subtree and counts a :attr:`DFSStrategy.prefix_restarts`
— which stays 0 unless the harness breaks the determinism contract.  Frozen
claim decisions have nothing recorded until their first execution, which
therefore observes them and tests them against the seeded visited entries.

Why a played node's covered status is not checked again: it cannot have
changed.  A fingerprint enters the visited map only when a node pops, or
through :meth:`DFSStrategy.seed_visited`, which runs before the first
execution.  Every pop between a node's creation and its own pop is of a node
in its subtree, reached at least one step later, so the entry it writes has
strictly fewer remaining steps than the node has and can never satisfy
``visited[fingerprint] >= remaining`` for it.  A node found uncovered
therefore stays uncovered for as long as it is on the stack (and a covered
one stays covered: entries only grow).

Sleep sets
----------

The search threads a *sleep set* along every execution: machines whose
subtree an earlier sibling already explored and that nothing chosen since
conflicts with (Godefroid).  Sleepers are left out of a node's options, the
set is part of the state key of stateful search, a covered state drops it,
and each choice point keeps the set it was entered with and the one that
follows its current branch.  Plain DFS knows no independence, so for it the
set is always empty and none of this does anything;
:mod:`repro.core.strategy.dpor_lite` overrides the one method that puts
machines to sleep.

Subtree claims (parallel search)
--------------------------------

The parallel driver (:mod:`repro.core.parallel`) partitions the choice tree
by decision prefix.  :meth:`DFSStrategy.set_claim` pre-seeds the stack with
*frozen* choice points — decisions the search replays on every iteration but
never bumps — so the strategy exhausts exactly the subtree rooted at that
prefix: the advance loop stops popping at the frozen boundary, and an empty
non-frozen suffix means the claim (not the whole space) is exhausted.
:meth:`DFSStrategy.export_frontier` splits the unexplored remainder of a
claim into disjoint sub-claims (the current path plus every unvisited right
sibling along it), which is what makes dynamic work stealing possible.

Cross-process dedupe composes through :meth:`DFSStrategy.seed_visited` (merge
another worker's visited entries in) and :attr:`DFSStrategy.visited_delta`
(the novel entries this search recorded, for gossip back out).  When a
*frozen* node's state turns out covered by a seeded entry, the entire claim
is provably redundant — some other worker fully explored this state with at
least as many steps remaining — so the strategy raises
:attr:`DFSStrategy.claim_covered` and walks the remaining executions out
through forced branches; the driver abandons the claim.

This strategy is an extension beyond the paper's evaluation (which used the
random and priority-based schedulers) and is used by the ablation benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..fingerprint import merge_visited, stable_hash, tracker_for
from ..ids import MachineId
from .base import SchedulingStrategy
from .registry import register_strategy

_by_value = attrgetter("value")


@dataclass(slots=True)
class _ChoicePoint:
    num_options: int
    index: int
    #: ``(fingerprint, remaining steps)`` of the global state at this node,
    #: captured when the node was created; ``None`` for value choices,
    #: forced nodes and inexact states.  Recorded into the visited set when
    #: the node pops as exhausted.
    state: Optional[Tuple[int, int]] = None
    #: claim-prefix decisions are replayed every iteration but never bumped
    #: or popped; their subtree (beyond the claimed branch) belongs to other
    #: claims, so their state is never recorded either.
    frozen: bool = False
    # -- what the full path computed at a scheduling node, for replay ------
    #: the index last played here; -1 until a scheduling choice has taken the
    #: full path at this node (value choices never do), and none of the
    #: fields below means anything before
    played: int = -1
    #: the candidates in branch order: sorted by id, minus the sleepers
    options: Sequence[MachineId] = ()
    #: size of the enabled set ``options`` was derived from
    enabled: int = 0
    #: the state was covered: one forced option, and the schedule is pruned
    pruned: bool = False
    #: sleep set on entry (emptied when it covered every enabled machine) ...
    sleep_in: Optional[Dict[int, Any]] = None
    #: ... and the one in force after branch ``played``
    sleep_out: Optional[Dict[int, Any]] = None
    #: ``FingerprintTracker.snapshot()`` taken when the node was observed;
    #: ``None`` without a tracker and on nodes that are never bumped
    snapshot: Optional[tuple] = None


@register_strategy("dfs")
class DFSStrategy(SchedulingStrategy):
    """Systematic enumeration of every bounded schedule."""

    name = "dfs"
    supports_claims = True

    def __init__(self, seed: int = 0, stateful: bool = False) -> None:
        super().__init__(seed)
        self._stack: List[_ChoicePoint] = []
        self._depth = 0
        self.exhausted = False
        self._stateful = stateful
        self._runtime = None
        self._tracker = None
        self._max_steps = 0
        #: fingerprint -> most remaining steps it has been fully explored
        #: with; persists across iterations (the whole point).
        self._visited: Dict[int, int] = {}
        #: entries recorded (or improved) by *this* search, as opposed to
        #: ones merged in through :meth:`seed_visited`; the parallel driver
        #: gossips these to other workers.
        self.visited_delta: Dict[int, int] = {}
        #: machine-id value -> footprint of the machines *asleep* at this
        #: point of the current execution (sleep sets, Godefroid): their
        #: subtrees were explored from an earlier sibling and nothing chosen
        #: since conflicts with them.  Plain DFS knows no independence, so
        #: nothing ever falls asleep; ``dpor-lite`` fills it in
        #: (:meth:`_sleep_after`).  Never mutated in place: choice points
        #: keep references.
        self._sleep: Dict[int, Any] = {}
        #: schedules that hit at least one covered state (observability)
        self.pruned_schedules = 0
        self._pruned_this_iteration = False
        #: scheduling choices answered from what the node recorded, against
        #: those that took the full path (sort, observe, covered check, sleep
        #: set); a search is fast when nearly all are replayed
        self.replayed_choices = 0
        self.observed_choices = 0
        #: subtrees restarted because a replayed prefix reached a choice
        #: with a different number of options: the harness is not a function
        #: of the scheduler's decisions (README, determinism contract)
        self.prefix_restarts = 0
        #: number of frozen claim-prefix decisions at the bottom of the stack
        self._frozen_depth = 0
        #: set when a frozen decision's state is covered by a (seeded)
        #: visited entry: the whole claim is provably redundant, remaining
        #: executions walk out through forced branches, and
        #: ``prepare_iteration`` reports the claim exhausted.
        self.claim_covered = False

    @property
    def wants_fingerprints(self) -> bool:
        """Stateful search needs the runtime to maintain fingerprints."""
        return self._stateful

    @property
    def state_known(self) -> bool:
        """The next scheduling choice replays a node played before."""
        return self._cached() is not None

    @classmethod
    def from_config(cls, config, options: Optional[Mapping] = None) -> "DFSStrategy":
        options = dict(options or {})
        stateful = bool(options.get("stateful", getattr(config, "stateful", False)))
        return cls(seed=config.seed, stateful=stateful)

    def attach_runtime(self, runtime) -> None:
        self._runtime = runtime
        self._tracker = tracker_for(runtime)
        self._max_steps = runtime.config.max_steps
        # The execution about to start replays the stack and turns new at
        # its last node; if that node holds a snapshot, it is restored there.
        if self._stack and self._stack[-1].snapshot is not None:
            self._tracker.expect_restore()

    # ------------------------------------------------------------------
    # subtree claims (parallel search)
    # ------------------------------------------------------------------
    def set_claim(self, path: Sequence[Tuple[int, int]]) -> None:
        """Restrict the search to the subtree rooted at a decision prefix.

        ``path`` is a sequence of ``(num_options, index)`` pairs from the
        root of the choice tree.  Must be called before the first iteration;
        the prefix decisions are replayed on every execution and never
        advanced, so :attr:`exhausted` now means "this subtree is done".
        """
        if self._stack:
            raise ValueError("set_claim must be called before the search starts")
        for num_options, index in path:
            if not 0 <= index < num_options:
                raise ValueError(f"invalid claim decision ({num_options}, {index})")
            self._stack.append(_ChoicePoint(num_options, index, frozen=True))
        self._frozen_depth = len(self._stack)

    def seed_visited(self, entries: Mapping[int, int]) -> None:
        """Merge another search's visited entries (max remaining steps wins).

        Seeded entries do not enter :attr:`visited_delta`: the delta carries
        only what *this* search proved, so gossip never echoes."""
        merge_visited(self._visited, entries)

    def export_frontier(self) -> List[Tuple[Tuple[int, int], ...]]:
        """Split the unexplored remainder of the claim into disjoint claims.

        Call after :meth:`prepare_iteration` has advanced the stack to the
        next unexplored branch (and :attr:`exhausted` is still False).  The
        result lists, in depth-first order, the current path plus one claim
        per unvisited right sibling along it; their subtrees partition
        everything this search has not explored yet.
        """
        if self.exhausted:
            return []
        path = [(point.num_options, point.index) for point in self._stack]
        claims = [tuple(path)]
        for level in range(len(self._stack) - 1, self._frozen_depth - 1, -1):
            point = self._stack[level]
            for sibling in range(point.index + 1, point.num_options):
                claims.append((*path[:level], (point.num_options, sibling)))
        return claims

    # ------------------------------------------------------------------
    def prepare_iteration(self, iteration: int) -> None:
        self._depth = 0
        self._sleep = {}
        if self._pruned_this_iteration:
            self.pruned_schedules += 1
            self._pruned_this_iteration = False
        if self.claim_covered:
            # Another worker fully explored a state on the claim prefix; the
            # whole subtree is redundant, so the claim is (vacuously) done.
            self.exhausted = True
            return
        if iteration == 0:
            return
        # Advance to the next unexplored branch: drop exhausted suffix, then
        # bump the deepest remaining choice.  A popped point's subtree is
        # fully explored, which is exactly when its state becomes safe to
        # record as visited (post-order).  Frozen claim decisions are never
        # popped: hitting the frozen boundary means the claim is exhausted.
        visited = self._visited
        delta = self.visited_delta
        while self._stack and not self._stack[-1].frozen and (
            self._stack[-1].index + 1 >= self._stack[-1].num_options
        ):
            point = self._stack.pop()
            state = point.state
            if state is not None:
                fingerprint, remaining = state
                if remaining > visited.get(fingerprint, -1):
                    visited[fingerprint] = remaining
                    delta[fingerprint] = remaining
        if not self._stack or self._stack[-1].frozen:
            self.exhausted = True
            return
        self._stack[-1].index += 1

    def _choose(self, num_options: int, state: Optional[Tuple[int, int]] = None) -> int:
        if self.claim_covered:
            return 0  # walking out of an abandoned claim: any branch will do
        if self._depth < len(self._stack):
            point = self._stack[self._depth]
            if point.num_options != num_options:
                if point.frozen:
                    # Frozen decisions replay deterministically and a covered
                    # one abandons the claim in next_machine, so a mismatch
                    # here means the program under test is nondeterministic
                    # beyond runtime control.  Abandoning silently would
                    # drop an unexplored subtree — fail loudly instead.
                    raise RuntimeError(
                        f"claim prefix diverged at depth {self._depth}: "
                        f"recorded {point.num_options} options, found {num_options}"
                    )
                # The prefix diverged: the program is not purely determined
                # by earlier choices.  Restart the subtree from this point.
                self.prefix_restarts += 1
                del self._stack[self._depth:]
                self._stack.append(_ChoicePoint(num_options, 0, state))
        else:
            self._stack.append(_ChoicePoint(num_options, 0, state))
        index = self._stack[self._depth].index
        self._depth += 1
        return index

    def _observe_state(self, step: int) -> Optional[Tuple[int, int]]:
        """``(fingerprint, remaining steps)`` of the current global state.

        ``None`` when stateful search is off, the runtime maintains no
        tracker, or the fingerprint is inexact (dedupe would be unsound).
        """
        if not self._stateful or self._tracker is None:
            return None
        current = self._tracker.current()
        if not current.exact:
            return None
        return (current.value, self._max_steps - step)

    def _is_covered(self, state: Optional[Tuple[int, int]]) -> bool:
        """Whether the state was already fully explored this deep or deeper."""
        return (
            state is not None
            and self._visited.get(state[0], -1) >= state[1]
        )

    def _cached(self) -> Optional[_ChoicePoint]:
        """The node the next scheduling choice replays, if it was played before.

        The one place that decides between replay and the full path (the
        differential tests override it to say "never played")."""
        if self._depth < len(self._stack) and not self.claim_covered:
            point = self._stack[self._depth]
            if point.played >= 0:
                return point
        return None

    def next_machine(self, enabled: Sequence[MachineId], step: int) -> MachineId:
        point = self._cached()
        if point is not None and point.enabled == len(enabled):
            self.replayed_choices += 1
            self._depth += 1
            if point.pruned:
                self._pruned_this_iteration = True
            if point.played != point.index:
                # The bumped node, where this execution turns new.  The
                # program is back in the state the node was observed in.
                if point.snapshot is not None:
                    self._tracker.restore(point.snapshot)
                point.sleep_out = self._sleep_after(point)
                point.played = point.index
            self._sleep = point.sleep_out
            return point.options[point.index]
        ordered = sorted(enabled, key=_by_value)
        if self.claim_covered:
            return ordered[0]
        self.observed_choices += 1
        sleep = self._sleep
        state = self._observe_state(step)
        if state is not None and sleep:
            # The sleep set is part of the state's identity (Godefroid): the
            # same global state entered with a different sleep set explores
            # a different pruned subtree, so only identical (state, sleep)
            # revisits are provably redundant.
            state = (state[0] ^ stable_hash(tuple(sorted(sleep)))[0], state[1])
        pruned = self._is_covered(state)
        if pruned:
            if self._depth < self._frozen_depth:
                # A *frozen* decision's state is covered (necessarily by a
                # seeded entry — post-order recording means this search
                # cannot have recorded an ancestor of its own prefix): every
                # behaviour in the claim was explored by another worker.
                self.claim_covered = True
                return ordered[0]
            # Every behaviour below this point was explored from a previous
            # visit with at least as many remaining steps: walk out through
            # a single forced branch instead of fanning out.  The forced
            # node still occupies a stack slot so replay stays aligned; the
            # branch may run a sleeping machine, so the sleep set is dropped
            # for the remainder of this (provably covered) suffix.
            self._pruned_this_iteration = True
            options = ordered[:1]
            sleep = {}
            self._choose(1)
        else:
            options = ordered
            if sleep:
                options = [mid for mid in ordered if mid.value not in sleep]
                if not options:
                    # Every enabled machine is asleep.  Classical sleep sets
                    # would cut the execution here (the state is fully
                    # covered); this strategy cannot abort mid-execution, so
                    # it re-opens the full set — sound, merely exploring a
                    # covered branch.
                    options = ordered
                    sleep = {}
            self._choose(len(options), state)
        point = self._stack[self._depth - 1]
        point.played = point.index
        point.options = options
        point.enabled = len(enabled)
        point.pruned = pruned
        point.sleep_in = sleep
        point.sleep_out = self._sleep = {} if pruned else self._sleep_after(point)
        # Only a node that can be bumped is ever restored to.
        point.snapshot = (
            self._tracker.snapshot()
            if self._tracker is not None and point.num_options > 1 and not point.frozen
            else None
        )
        return options[point.index]

    def _sleep_after(self, point: _ChoicePoint) -> Dict[int, Any]:
        """The sleep set in force once ``point.options[point.index]`` has run.

        Called with the program at ``point``; plain DFS has no independence
        facts, so nothing sleeps."""
        return {}

    def next_boolean(self, requester: MachineId, step: int) -> bool:
        return bool(self._choose(2))

    def next_integer(self, requester: MachineId, max_value: int, step: int) -> int:
        return self._choose(max_value)

    def is_fair(self) -> bool:
        return False
