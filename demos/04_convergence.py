#!/usr/bin/env python3
"""Churn, then quiet: the repair steps drive the pointer error to zero.

A five-member ring is battered with seeded random churn; once the churn
stops, a fair schedule provably reaches the ideal network. The per-round
error metric shows the three repair phases: leading dead entries vanish,
then first successors and predecessors become exact, then list tails
propagate backward.
"""

from chordcheck import IdSpace, Schedule, converge, error_metric, ideal_ring, replay, simulate

space = IdSpace(3)
initial = ideal_ring(space, 2, [0, 2, 3, 5, 7])

print("phase 0: 40 rounds of full churn (seed 11)")
churned = simulate(initial, Schedule(seed=11), steps=40, churn="full")
state = churned.final_state()
print(f"  members now: {[n.ident for n in state.members]}")
print(f"  invariant held after every one of the {len(churned.records)} rounds: "
      f"{all(r.flags['invariant'] for r in churned.records)}")

print()
print("churn stops; converging under a fair schedule (seed 12)")
trace = converge(state, Schedule(seed=12), step_cap=200)
print(f"  in-flight messages drained first: {len(trace.prelude)}")
print(f"  verdict: {trace.verdict} after {trace.meta['steps_to_ideal']} steps"
      f" (then held ideal for {trace.meta['fairness_window']} more rounds)")

print()
print("  round | cumulative pointer error | list errors outstanding")
# replay re-derives every round's report from the trace's steps
metrics = [error_metric(trace.initial)] + [report.metric for report in replay(trace)]
for i, metric in enumerate(metrics):
    bar = "#" * metric.cumulative
    lists = sum(metric.list_error.values())
    print(f"  {i:>5} | {metric.cumulative:>3} {bar:<24} | {lists}")
    if metric.cumulative == 0 and lists == 0 and i >= (trace.meta["steps_to_ideal"] or 0):
        break

print()
print("once every first successor is live, the cumulative error never rises;")
print("after it reaches zero, one more stabilize sweep fixes the list tails.")
