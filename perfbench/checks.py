"""Correctness checks run after every benchmark repetition.

Each check returns a list of failure messages; an empty list means the
run's outputs are correct.  Any failure makes the benchmark exit
nonzero without printing a result.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List

from workloads import OK, UNDELIVERED, Deployment


def check_generator(dep: Deployment) -> List[str]:
    """Every request was submitted at exactly its due time."""
    failures = []
    if dep.outcomes.max_lateness != 0.0:
        failures.append(
            f"generator ran late: max lateness {dep.outcomes.max_lateness!r} s"
        )
    if dep.outcomes.attempted == 0:
        failures.append("no request was attempted")
    return failures


def check_exactly_once(dep: Deployment) -> List[str]:
    """Every attempted request ended exactly once: completed, or counted
    as failed -- never silently dropped, never reported twice."""
    outcomes = dep.outcomes
    failures = []
    if outcomes.duplicates:
        failures.append(f"{outcomes.duplicates} request(s) completed more than once")
    open_requests = sum(1 for o in outcomes.outcome if o is None)
    if open_requests:
        failures.append(f"{open_requests} request(s) ended with no outcome")
    counted = sum(Counter(outcomes.outcome).values())
    if counted != outcomes.attempted:
        failures.append(
            f"outcomes ({counted}) do not add up to attempted ({outcomes.attempted})"
        )
    return failures


def check_frontends_agree(dep: Deployment, skip: List[int]) -> List[str]:
    """All frontends delivered the same blocks with the same envelopes,
    and no envelope was delivered twice (``skip[i]`` leading envelopes
    of frontend ``i`` belong to the set-up phase and are ignored)."""
    failures = []
    digests = dep.service.ledger_digests()
    if len(set(digests.values())) != 1:
        failures.append(f"frontend ledger digests disagree: {sorted(digests)}")
    sequences = [ids[start:] for ids, start in zip(dep.delivered_ids, skip)]
    for index, ids in enumerate(sequences):
        if ids != sequences[0]:
            failures.append(f"frontend {index} delivered other envelopes than frontend 0")
        repeated = len(ids) - len(set(ids))
        if repeated:
            failures.append(f"frontend {index} delivered {repeated} envelope(s) twice")
    return failures


def check_ordering_delivery(dep: Deployment, home: Dict[int, tuple]) -> List[str]:
    """The program's deliveries reconcile with the request ledger: every
    delivered envelope was attempted, and every completed request's
    envelope is in the delivered stream."""
    failures = []
    delivered = dep.delivered_ids[0] if dep.delivered_ids else []
    phantom = sum(1 for eid in delivered if eid not in home)
    if phantom:
        failures.append(f"{phantom} delivered envelope(s) were never submitted")
    delivered_set = set(delivered)
    outcome = dep.outcomes.outcome
    for eid, (request, _frontend) in home.items():
        was_delivered = eid in delivered_set
        if (outcome[request] == OK) != was_delivered:
            failures.append(
                f"request {request}: outcome {outcome[request]!r} but "
                f"delivered={was_delivered}"
            )
            break
    return failures


def check_replica_logs(dep: Deployment, excluded: List[int]) -> List[str]:
    """Surviving replicas decided the same batch for every common slot."""
    logs = {
        rid: log
        for rid, log in dep.service.replica_log_digests().items()
        if rid not in excluded
    }
    failures = []
    reference_id = min(logs)
    reference = logs[reference_id]
    for rid, log in sorted(logs.items()):
        common = reference.keys() & log.keys()
        if not common:
            failures.append(f"replicas {reference_id} and {rid} share no decided slot")
        elif any(reference[cid] != log[cid] for cid in common):
            failures.append(f"replicas {reference_id} and {rid} decided different batches")
    return failures


def _ledger_view(peer, start: int):
    return [
        (
            block.header.digest(),
            tuple(e.envelope_id for e in block.envelopes),
            tuple(code.value for code in record.codes),
        )
        for block, record in zip(list(peer.ledger)[start:], peer.commits[start:])
    ]


def check_peers(dep: Deployment, accounts: int, balance: int) -> List[str]:
    """Committing peers hold identical, hash-linked ledgers whose
    validation codes reconcile with the client outcomes, and SmallBank's
    total balance is conserved."""
    failures = []
    start = dep.setup_height
    views = [_ledger_view(peer, start) for peer in dep.peers]
    for index, view in enumerate(views):
        if view != views[0]:
            failures.append(f"peer {index}'s ledger differs from peer 0's")
    for peer in dep.peers:
        if not peer.ledger.verify_chain():
            failures.append(f"{peer.name}: hash chain does not verify")
        if peer.ledger.height != len(peer.commits):
            failures.append(f"{peer.name}: ledger height != commit records")
        total = sum(
            peer.state.get_value(f"acct/a{a}") or 0 for a in range(accounts)
        )
        if total != accounts * balance:
            failures.append(
                f"{peer.name}: total balance {total} != {accounts * balance}"
            )
    # reconcile codes with outcomes on peer 0
    committed: Dict[int, str] = {}
    repeated = 0
    for record in dep.peers[0].commits[start:]:
        for envelope, code in zip(record.block.envelopes, record.codes):
            tx = envelope.transaction
            if tx is None:
                continue
            if tx.tx_id in committed:
                repeated += 1
            committed[tx.tx_id] = code.value
    if repeated:
        failures.append(f"{repeated} transaction(s) committed twice")
    tx_of = dep.tx_of
    outcome = dep.outcomes.outcome
    for request, tx_id in tx_of.items():
        expected = "VALID" if outcome[request] == OK else outcome[request]
        if committed.get(tx_id) != expected:
            failures.append(
                f"request {request}: client saw {expected!r}, "
                f"ledger holds {committed.get(tx_id)!r}"
            )
            break
    reported = set(tx_of.values())
    unreported = [tx_id for tx_id in committed if tx_id not in reported]
    # a transaction may commit without reaching its client only when its
    # request is counted undelivered
    undelivered = sum(1 for o in outcome if o == UNDELIVERED)
    if len(unreported) > undelivered:
        failures.append(
            f"{len(unreported)} committed transaction(s) have no client outcome"
        )
    return failures
