"""Building a belief state by hand and asking it questions.

A belief state is a probability distribution over total assignments of
values to variables.  Instead of storing one row per physical state, the
library factors the distribution into an And-Or DAG: AND nodes take
Cartesian products over disjoint variable sets, OR nodes take weighted
unions over the same variable set.
"""
from aobs import (
    Aobs,
    Condition,
    Store,
    count_states,
    enumerate_states,
    probability,
    select_substate,
    size_metric,
    union_roots,
)

store = Store()

# Three variables: a is known to be 0, b and c are independent coin-ish
# uncertainties.  The whole 4-state distribution needs one AND node.
root = store.make_and([
    store.make_lit(0, 0),
    store.make_or([(0.4, store.make_lit(1, 0)), (0.6, store.make_lit(1, 1))]),
    store.make_or([(0.7, store.make_lit(2, 0)), (0.3, store.make_lit(2, 1))]),
])
state = Aobs(root, store, (0, 1, 2), ("a", "b", "c"))

print("graph size metric:", size_metric(state))
print("physical states:", count_states(state.root))

print("\nfull expansion:")
for p, assignment in sorted(enumerate_states(state.root), key=lambda r: r[1]):
    pretty = ", ".join(f"{state.name_of(v)}={u}" for v, u in assignment)
    print(f"  {p:.2f}  {pretty}")

# Conjunctive conditions are maps variable -> allowed values.
c = Condition({1: [1], 2: [0]})
print("\nP(b=1 and c=0) =", probability(state, c))

print("states satisfying b=0, with their masses:")
for p, assignment in select_substate(state, Condition({1: [0]})):
    print(f"  {p:.2f}  {dict(assignment)}")

# Uncertainty about the belief itself: a weighted union of two beliefs.
# Interning means the shared structure is stored once.
merged = union_roots(state, state, 0.5)
print("\nself-union keeps the distribution:",
      abs(probability(merged, c) - probability(state, c)) < 1e-12)
