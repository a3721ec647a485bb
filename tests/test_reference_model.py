"""A literal reference model of the protocol, compared with the package.

The model is written straight from the paper's definitions, with
``IdSpace.between`` as its one order test: no masks, packed keys or
memos. A network is a dict from each member to its ``[prdc, succ_list]``,
a dict from each member with a stabilize in flight to its captured
candidate, and a set of pending ``(target, new_prdc)`` notifications. It
covers the five steps, the enabled steps (in the package's canonical
order) and the invariant, and each is compared with the package on every
state of an exploration that reaches continuations and notifications,
and on random states, including ones that violate the invariant.
"""

from hypothesis import given, settings

from chordcheck import (
    ExploreConfig,
    IdSpace,
    Step,
    StepKind,
    apply_step,
    check_all,
    enabled_steps,
    explore,
    ideal_ring,
    invariant_holds,
    make_state,
)
from chordcheck.properties import invariant_with

from conftest import global_states


class Net:
    """A network: ``nodes`` maps each member to ``[prdc, succ_list]``,
    ``stabilizing`` each member with a stabilize in flight to its
    candidate, and ``notify`` holds the pending notifications."""

    def __init__(self, space, r, nodes, stabilizing, notify):
        self.space = space
        self.r = r
        self.nodes = nodes
        self.stabilizing = stabilizing
        self.notify = notify

    @classmethod
    def of(cls, state):
        return cls(state.space, state.r,
                   {n.ident: [n.prdc, list(n.succ_list)] for n in state.members},
                   dict(state.pending_stabilize), set(state.pending_notify))

    def copy(self):
        return Net(self.space, self.r, {x: [p, list(sl)] for x, (p, sl) in self.nodes.items()},
                   dict(self.stabilizing), set(self.notify))

    def value(self):
        return ({x: (p, tuple(sl)) for x, (p, sl) in self.nodes.items()},
                self.stabilizing, self.notify)

    def live(self, x):
        return x in self.nodes


# -- the invariant -------------------------------------------------------------


def one_live_successor(net):
    """Every member has a live entry in its successor list."""
    return all(any(net.live(e) for e in sl) for _, sl in net.nodes.values())


def principals(net):
    """The members p that no member's extended successor list (its
    identifier, then its successor list) skips: no contiguous pair (x, y)
    of any of them has between(x, p, y)."""
    pairs = []
    for ident, (_, sl) in net.nodes.items():
        esl = [ident] + sl
        pairs += zip(esl, esl[1:])
    between = net.space.between
    return [p for p in net.nodes if not any(between(x, p, y) for x, y in pairs)]


def invariant(net):
    """OneLiveSuccessor and at least r + 1 principal members."""
    return one_live_successor(net) and len(principals(net)) >= net.r + 1


# -- the steps -----------------------------------------------------------------


def join_predecessor(net, joiner):
    """The lowest member p with between(p, joiner, head of p's list)."""
    for p in sorted(net.nodes):
        if net.space.between(p, joiner, net.nodes[p][1][0]):
            return p
    return None


def fail(net, x):
    """x's state is gone, with its continuation and the notifications to it."""
    after = net.copy()
    del after.nodes[x]
    after.stabilizing.pop(x, None)
    after.notify = {(t, n) for t, n in after.notify if t != x}
    return after


def apply(net, step):
    """The network after ``step``, by the paper's definitions."""
    kind, x, arg = step.kind, step.actor, step.arg
    between = net.space.between
    if kind == StepKind.FAIL:
        return fail(net, x)
    after = net.copy()
    if kind == StepKind.JOIN:
        if net.live(arg):  # a join through a dead predecessor aborts
            after.nodes[x] = [arg, list(net.nodes[arg][1])]
    elif kind == StepKind.STABILIZE_FROM_SUCCESSOR:
        sl = net.nodes[x][1]
        head = sl[0]
        if not net.live(head):
            # drop the dead head and pad with one past the last entry
            after.nodes[x][1] = sl[1:] + [(sl[-1] + 1) % net.space.size]
        else:
            head_prdc, head_sl = net.nodes[head]
            after.nodes[x][1] = [head] + head_sl[:-1]
            if between(x, head_prdc, head):
                after.stabilizing[x] = head_prdc
            else:
                after.notify.add((head, x))
    elif kind == StepKind.STABILIZE_FROM_PREDECESSOR:
        candidate = after.stabilizing.pop(x)
        if net.live(candidate):
            after.nodes[x][1] = [candidate] + net.nodes[candidate][1][:-1]
        after.notify.add((after.nodes[x][1][0], x))
    elif kind == StepKind.RECTIFY:
        after.notify.remove((x, arg))
        if net.live(x):
            prdc = net.nodes[x][0]
            if between(prdc, arg, x) or not net.live(prdc):
                after.nodes[x][0] = arg
    return after


def enabled(net):
    """Every step of full churn whose preconditions hold: joins by
    identifier, fails that leave the invariant among the survivors, then
    stabilizes, continuations and deliveries by member."""
    steps = []
    for joiner in range(net.space.size):
        if not net.live(joiner):
            p = join_predecessor(net, joiner)
            if p is not None:
                steps.append(Step(StepKind.JOIN, joiner, p))
    steps += [Step(StepKind.FAIL, x) for x in sorted(net.nodes) if invariant(fail(net, x))]
    steps += [Step(StepKind.STABILIZE_FROM_SUCCESSOR, x)
              for x in sorted(net.nodes) if x not in net.stabilizing]
    steps += [Step(StepKind.STABILIZE_FROM_PREDECESSOR, x, c)
              for x, c in sorted(net.stabilizing.items()) if net.live(x)]
    steps += [Step(StepKind.RECTIFY, t, n) for t, n in sorted(net.notify) if net.live(t)]
    return steps


# -- the comparison ------------------------------------------------------------


def assert_agrees(state, forced=False):
    """The package and the model agree on ``state``'s invariant, its
    enabled steps, and every post-state with its invariant; for each
    non-fail step, also on the verdict read from the rows of ``state``'s
    members. With ``forced``, every member's forced fail is applied too,
    whatever the invariant says."""
    net = Net.of(state)
    holds = invariant(net)
    assert invariant_holds(state) == holds == check_all(state).flags["invariant"]
    steps = enabled_steps(state, churn="full")
    assert steps == enabled(net)
    if forced:
        steps += [Step(StepKind.FAIL, x, forced=True) for x in state.idents()]
    for step in steps:
        post = apply_step(state, step)
        model = apply(net, step)
        assert Net.of(post).value() == model.value(), step
        assert invariant_holds(post) == invariant(model), step
        if step.kind != StepKind.FAIL:
            assert invariant_with(state, post.node(step.actor)) == invariant(model), step


def test_model_agrees_on_every_explored_state():
    result = explore(ideal_ring(IdSpace(3), 2, [0, 2, 5]),
                     ExploreConfig(max_depth=6, churn="full", collect_states=True))
    assert result.ok
    assert any(s.pending_stabilize for s in result.states)
    assert any(s.pending_notify for s in result.states)
    for state in result.states:
        assert_agrees(state)


@settings(max_examples=300, deadline=None)
@given(global_states(m=3, r=2, with_pending=True))
def test_model_agrees_on_random_states(state):
    assert_agrees(state, forced=True)


def test_model_agrees_where_a_join_unstrands_a_member():
    # 12 lists only the dead 2, so the invariant fails; 2 joins through 0,
    # and every member then has a live entry with 4, 8 and 12 principal
    state = make_state(IdSpace(4), 1, [(0, 12, (4,)), (4, 0, (8,)), (8, 4, (12,)),
                                       (12, 8, (2,))])
    assert not invariant_holds(state)
    join = Step(StepKind.JOIN, 2, 0)
    assert join in enabled_steps(state)
    assert invariant_holds(apply_step(state, join))
    assert_agrees(state, forced=True)
