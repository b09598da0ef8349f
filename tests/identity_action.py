"""Test fixture: the trivial action, every generator the identity at
every stage, with a stationary rule of shift 0 once the ranks stabilise
on a stationary system."""

from k0mf.dimgroup import InductiveSystem
from k0mf.exactlinalg import IntMatrix
from k0mf.kaction import K0Action, StageMap, StationaryRule


def identity_action(system: InductiveSystem, generators: int = 1) -> K0Action:
    declared = len(system.stage_ranks)
    n_steps = declared - 1 if system.is_stationary else declared
    steps = tuple(StageMap(k, k, IntMatrix.identity(system.stage_ranks[k])) for k in range(n_steps))
    rule = None
    if system.is_stationary:
        ident = IntMatrix.identity(system.stage_ranks[-1])
        rule = tuple(StationaryRule(0, ident, ident) for _ in range(generators))
    return K0Action(generators, (steps,) * generators, (steps,) * generators, rule)
