"""Applying a probabilistic action to the part of a belief that satisfies a
condition.

An action overwrites a fixed set of variables with one of several outcomes.
When a condition selects only part of the belief, the graph is rewritten so
the selected part receives the action while the rest passes through
unchanged, and the total mass stays 1.
"""
from aobs import (
    Action,
    Condition,
    Store,
    apply_action,
    enumerate_states,
    from_tabular,
    probability,
    size_metric,
)
from aobs.cli import to_dot


def show(label, state):
    print(label)
    rows = sorted(enumerate_states(state.root, merge=True), key=lambda r: r[1])
    for p, assignment in rows:
        pretty = ", ".join(f"{state.name_of(v)}={u}" for v, u in assignment)
        print(f"  {p:.2f}  {pretty}")


store = Store()
state = from_tabular(
    store,
    [(0.2, {0: 0, 1: 0}), (0.3, {0: 0, 1: 1}), (0.5, {0: 1, 1: 1})],
    (0, 1),
    ("a", "b"),
)
show("initial belief:", state)

# "If b is 1, set it to 2."  The condition holds with probability 0.8,
# so only that slice of the belief is rewritten.
condition = Condition.of({1: [1]})
action = Action(vars=(1,), outcomes=((1.0, (2,)),))
print("\nP(condition) =", probability(state, condition))

result = apply_action(state, condition, action)
print("mass the condition selected:", result.selected_mass)
show("\nafter acting:", result.state)

# A noisy action: the outcome itself is uncertain.
noisy = Action(vars=(0, 1), outcomes=((0.9, (0, 0)), (0.1, (1, 0))))
result = apply_action(result.state, Condition.of({}), noisy)
show("\nafter an unconditional noisy reset:", result.state)
print("size metric:", size_metric(result.state))

print("\nGraphviz rendering of the final state:\n")
print(to_dot(result.state))
