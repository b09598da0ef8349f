"""Reference oracle: ``verify_action`` as it was before it stopped at the
repeat stage.

This verifier caps the checked stages at one past the longest declared
prefix (stage ranks or action family) and resolves and shape-checks every
map again in each block that uses it. ``k0mf.kaction.verify_action``
must give the same ``ok`` on every input and exactly these items with
``stage <= min(horizon, repeat_stage)``.
"""

from k0mf.dimgroup import InductiveSystem, StageRangeError
from k0mf.kaction import ActionReport, CheckItem, K0Action, StageMap


def _interesting_horizon(action: K0Action, system: InductiveSystem, horizon: int) -> int:
    """Stationary data repeats, so cap the verified stages past the prefixes."""
    prefix = max(
        [len(system.stage_ranks)]
        + [len(f) for f in action.forward]
        + [len(f) for f in action.inverse]
    )
    return min(horizon, prefix + 1)


def verify_action(action: K0Action, system: InductiveSystem, horizon: int) -> ActionReport:
    """Itemised pass/fail for the order-automorphism laws up to a horizon.

    Checks, per generator and stage: nonnegativity of each stage map,
    shape agreement with the stage ranks (a map into an undeclared stage
    fails it), unit preservation, commuting
    squares with the connecting maps, and both inverse laws (forward
    then inverse, and inverse then forward, each equal to the plain
    pushforward), each posed at some stage or a failed item at stage 0.
    Failures are report items, never exceptions.
    """
    items: list[CheckItem] = []
    top = _interesting_horizon(action, system, horizon)

    def resolve(j: int, k: int, inv: bool) -> StageMap | None:
        try:
            sm = action.letter_map(-(j + 1) if inv else j + 1, k)
        except StageRangeError:
            return None
        return sm if system.has_stage(sm.to_stage) else None

    for j in range(action.generators):
        gen = j + 1
        checked = {"forward-then-inverse": False, "inverse-then-forward": False}
        for k in range(top + 1):
            if not system.has_stage(k):
                break
            for inv, tag in ((False, "forward"), (True, "inverse")):
                try:
                    sm = action.letter_map(-(j + 1) if inv else j + 1, k)
                except StageRangeError:
                    continue
                if not system.has_stage(sm.to_stage):
                    items.append(CheckItem("shape", gen, k, False, f"{tag} map lands at undeclared stage {sm.to_stage}"))
                    continue
                expected = (system.rank_at(sm.to_stage), system.rank_at(k))
                if (sm.matrix.rows, sm.matrix.cols) != expected:
                    items.append(
                        CheckItem(
                            "shape", gen, k, False,
                            f"{tag} map is {sm.matrix.rows}x{sm.matrix.cols}, expected {expected[0]}x{expected[1]}",
                        )
                    )
                    continue
                items.append(CheckItem("shape", gen, k, True, tag))
                bad = next(
                    (
                        (r, c)
                        for r in range(sm.matrix.rows)
                        for c in range(sm.matrix.cols)
                        if sm.matrix.at(r, c) < 0
                    ),
                    None,
                )
                if bad is not None:
                    items.append(
                        CheckItem(
                            "positivity", gen, k, False,
                            f"{tag} map entry {bad} = {sm.matrix.at(*bad)} is negative",
                        )
                    )
                else:
                    items.append(CheckItem("positivity", gen, k, True, tag))
                got = sm.matrix.apply(system.unit_at(k))
                want = system.unit_at(sm.to_stage)
                items.append(
                    CheckItem(
                        "unit_preserved", gen, k, got == want,
                        "" if got == want else f"{tag} map sends the stage-{k} unit to {got}, expected {want}",
                    )
                )
            # commuting squares per direction
            for inv, tag in ((False, "forward"), (True, "inverse")):
                sm_k = resolve(j, k, inv)
                sm_k1 = resolve(j, k + 1, inv)
                if sm_k is None or sm_k1 is None or not system.has_stage(k + 1):
                    continue
                if (sm_k.matrix.rows, sm_k.matrix.cols) != (system.rank_at(sm_k.to_stage), system.rank_at(k)):
                    continue
                if (sm_k1.matrix.rows, sm_k1.matrix.cols) != (system.rank_at(sm_k1.to_stage), system.rank_at(k + 1)):
                    continue
                lhs = sm_k1.matrix @ system.transfer(k, k + 1)
                rhs = system.transfer(sm_k.to_stage, sm_k1.to_stage) @ sm_k.matrix
                items.append(
                    CheckItem(
                        "commuting_square", gen, k, lhs == rhs,
                        "" if lhs == rhs else f"{tag} map does not commute with the connecting map at stage {k}",
                    )
                )
            # inverse laws: each composite must equal the pushforward
            for first_inv, tag in ((False, "forward-then-inverse"), (True, "inverse-then-forward")):
                sm1 = resolve(j, k, first_inv)
                if sm1 is None:
                    continue
                sm2 = resolve(j, sm1.to_stage, not first_inv)
                if sm2 is None:
                    continue
                shapes_ok = (
                    (sm1.matrix.rows, sm1.matrix.cols) == (system.rank_at(sm1.to_stage), system.rank_at(k))
                    and (sm2.matrix.rows, sm2.matrix.cols) == (system.rank_at(sm2.to_stage), system.rank_at(sm1.to_stage))
                )
                if not shapes_ok:
                    continue
                lhs = sm2.matrix @ sm1.matrix
                rhs = system.transfer(k, sm2.to_stage)
                checked[tag] = True
                items.append(
                    CheckItem(
                        "inverse_law", gen, k, lhs == rhs,
                        "" if lhs == rhs else f"{tag} composite differs from the pushforward at stage {k}",
                    )
                )
        for tag, seen in checked.items():
            if not seen:
                detail = f"no {tag} composite can be checked up to stage {horizon}"
                items.append(CheckItem("inverse_law", gen, 0, False, detail))
    return ActionReport(tuple(items))
