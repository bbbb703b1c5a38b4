"""Hash each Fabric structure once.

The proposal and the read/write sets are immutable once built and cache
their digest; transactions, proposal responses and envelopes hash those
cached leaf digests.  These tests pin the digest *values* (hex constants
computed before the caches existed, so signatures, block hashes and
goldens are unchanged), check that a hashed structure cannot be mutated
behind its cache, and gate the number of ``sha256`` calls one committed
transaction costs exactly -- a change that re-hashes a structure fails
here deterministically.
"""

import dataclasses
import sys
from collections import Counter

import pytest

from repro.crypto import hashing
from repro.crypto.keys import KeyRegistry
from repro.crypto.signatures import SimulatedECDSA
from repro.fabric import (
    ChannelConfig,
    CommittingPeer,
    EndorsingPeer,
    FabricClient,
    KVChaincode,
    Or,
    SignedBy,
)
from repro.fabric.envelope import (
    ChaincodeProposal,
    Endorsement,
    Envelope,
    ProposalResponse,
    ReadSet,
    Transaction,
    WriteSet,
)
from repro.fabric.orderers import SoloOrderer
from repro.fabric.statedb import VersionedKVStore
from repro.sim import ConstantLatency, Network, Simulator

PINNED = {
    "proposal": "746a847d0b42c183899de2c3a7436c6cf520da186ce199bb502f12bf678a429e",
    "read_set": "333bc1de8f63685dbabe68b16fb0e19bfce307079e7b52085de7a6ab424ad121",
    "write_set": "91fcc48198755c7c0b521c0e5f47dc915d386c270d2c73ae90519e73973488d4",
    "signed_payload": "b87b6e58e32c5d8ad470944d71577376826b77a427a854105e9cf58a9ec92a67",
    "transaction": "de1f6b8ee43efaa1a311350c23e77a5af204d696de611271168bb3bd3868a6e8",
    "envelope": "1644432b829f484aaa9079da3bc09be1f79fcecfa73cf0890accd0098a730470",
    "raw_envelope": "8f13ae4b170653f61d4d64c7bb01d213ed29ee0cc7756d0b4915baa2fbffa6e4",
    "empty_read_set": "ae3f7d6554f95d751c2022059724091a64ad5bd42927a18e090d05400a666852",
    "empty_write_set": "2a4ea2ef951ada72056bc89e5d053d80c405db9ccb3dc5d5680cfc728fbdb687",
}


def fixed_structures():
    proposal = ChaincodeProposal(
        channel_id="ch0",
        chaincode_id="smallbank",
        function="transfer",
        args=("a1", "a2", 5),
        client="client0",
        nonce=7,
        timestamp=1.5,
    )
    read_set = ReadSet({"acct/a1": (3, 0), "acct/a2": (4, 1), "acct/new": None})
    write_set = WriteSet({"acct/a1": 95, "acct/a2": 105, "acct/gone": None})
    result = {"a1": 95, "a2": 105}
    response = ProposalResponse(
        proposal_digest=proposal.digest(),
        endorser="endorser0",
        org="org1",
        read_set=read_set,
        write_set=write_set,
        result=result,
        success=True,
    )
    tx = Transaction(
        proposal=proposal,
        read_set=read_set,
        write_set=write_set,
        result=result,
        endorsements=[Endorsement("endorser0", "org1", b"\x01" * 64)],
        tx_id=42,
    )
    envelope = Envelope(
        channel_id="ch0",
        transaction=tx,
        payload_size=1024,
        submitter="client0",
        envelope_id=43,
    )
    raw = Envelope(channel_id="ch0", transaction=None, payload_size=40, envelope_id=44)
    return proposal, read_set, write_set, response, tx, envelope, raw


class TestPinnedDigests:
    def test_values_match_the_uncached_encoding(self):
        proposal, read_set, write_set, response, tx, envelope, raw = fixed_structures()
        digests = {
            "proposal": proposal.digest,
            "read_set": read_set.digest,
            "write_set": write_set.digest,
            "signed_payload": response.signed_payload,
            "transaction": tx.digest,
            "envelope": envelope.digest,
            "raw_envelope": raw.digest,
            "empty_read_set": ReadSet().digest,
            "empty_write_set": WriteSet().digest,
        }
        for name, digest in digests.items():
            first = digest()
            assert first.hex() == PINNED[name], name
            assert digest() == first, name
        # a successful response signs exactly what VSCC re-derives
        assert tx.response_payload().hex() == PINNED["signed_payload"]
        assert tx.response_payload() == tx.response_payload()

    def test_immutable_structures_hash_once(self):
        proposal, read_set, write_set, _response, _tx, envelope, _raw = fixed_structures()
        for structure in (proposal, read_set, write_set, envelope):
            assert structure.digest() is structure.digest()

    def test_cache_stays_out_of_equality_and_repr(self):
        proposal, read_set, write_set, *_ = fixed_structures()
        twin = dataclasses.replace(proposal)
        proposal.digest()
        assert twin == proposal and hash(twin) == hash(proposal)
        assert read_set == ReadSet(dict(read_set.reads))
        assert write_set == WriteSet(dict(write_set.writes))
        assert "_digest" not in repr(proposal) + repr(read_set) + repr(write_set)


def endorse_transfer():
    state = VersionedKVStore()
    state.apply_write_set({"k": 1}, (0, 0))
    registry = KeyRegistry(scheme=SimulatedECDSA())
    sim = Simulator()
    endorser = EndorsingPeer(
        Network(sim, ConstantLatency(0.0005)),
        "endorser0",
        registry.enroll("endorser0", org="org1"),
        state_provider=lambda _channel: state,
        chaincodes={"kv": KVChaincode()},
    )
    proposal = ChaincodeProposal(
        channel_id="ch0",
        chaincode_id="kv",
        function="increment",
        args=("k", 2),
        client="alice",
        nonce=0,
    )
    response = endorser.endorse(proposal)
    assert response.success
    return response


class TestMutationAfterHashing:
    def test_returned_rwsets_reject_item_assignment(self):
        response = endorse_transfer()
        assert dict(response.read_set.reads) == {"k": (0, 0)}
        assert dict(response.write_set.writes) == {"k": 3}
        response.signed_payload()
        with pytest.raises(TypeError):
            response.write_set.writes["k"] = 1_000_000
        with pytest.raises(TypeError):
            response.read_set.reads["k"] = (9, 9)
        with pytest.raises(TypeError):
            del response.write_set.writes["k"]

    def test_returned_rwsets_reject_field_reassignment(self):
        response = endorse_transfer()
        with pytest.raises(dataclasses.FrozenInstanceError):
            response.write_set.writes = {"k": 1_000_000}
        with pytest.raises(dataclasses.FrozenInstanceError):
            response.read_set.reads = {}

    def test_frozen_proposal_rejects_field_reassignment(self):
        proposal, *_ = fixed_structures()
        proposal.digest()
        with pytest.raises(dataclasses.FrozenInstanceError):
            proposal.args = ("a1", "a2", 5_000)

    def test_swapped_rwset_is_rehashed_not_read_stale(self):
        """Transaction digests stay uncached: swapping a field changes
        them on the next call."""
        _proposal, _reads, _writes, _response, tx, _envelope, _raw = fixed_structures()
        before = tx.digest(), tx.response_payload()
        tx.write_set = WriteSet({"acct/a1": 1_000_000})
        assert tx.digest() != before[0]
        assert tx.response_payload() != before[1]


# ----------------------------------------------------------------------
# the exact work-counter gate
# ----------------------------------------------------------------------
TRANSACTIONS = 4

#: ``sha256`` calls per committed transaction, by domain tag, for one
#: block of TRANSACTIONS kv puts through client -> two endorsers -> solo
#: -> two committing peers.
EXPECTED_PER_TX = {
    "proposal": 1,  # once, at the client; endorsers and peers reuse it
    "readset": 2,  # once per endorser's stub
    "writeset": 2,
    "response": 6,  # 2 endorser signs + 2 client verifies + 2 VSCC checks
    "transaction": 2,  # the client signature, then the envelope digest
    "envelope": 1,
}
#: per block: the orderer's data hash plus each peer's re-check of it,
#: and one header digest (both peers get the same, cached, header)
EXPECTED_PER_BLOCK = {"block-data": 3, "block-header": 1}


@pytest.fixture
def sha256_calls(monkeypatch):
    """Count every ``repro.crypto.hashing.sha256`` call by its tag,
    however the calling module imported it."""
    original = hashing.sha256
    calls = Counter()

    def counting(*values):
        calls[values[0]] += 1
        return original(*values)

    for name, module in list(sys.modules.items()):
        if name.startswith("repro") and getattr(module, "sha256", None) is original:
            monkeypatch.setattr(module, "sha256", counting)
    return calls


def solo_pipeline():
    sim = Simulator()
    network = Network(sim, ConstantLatency(0.0005))
    registry = KeyRegistry(scheme=SimulatedECDSA())
    policy = Or(SignedBy("org1"), SignedBy("org2"))
    channel = ChannelConfig(
        "ch0",
        max_message_count=TRANSACTIONS,
        batch_timeout=1.0,
        endorsement_policy=policy,
    )
    orderer = SoloOrderer(
        sim, network, "solo", registry.enroll("solo", org="orderers"), channel
    )
    network.register("solo", orderer)
    peers, endorsers = [], []
    for org in ("org1", "org2"):
        peer = CommittingPeer(
            sim,
            network,
            f"peer-{org}",
            channel,
            registry=registry,
            orderer_names={"solo"},
            required_block_signatures=1,
        )
        network.register(peer.name, peer)
        orderer.attach_receiver(peer.name)
        peers.append(peer)
        endorser = EndorsingPeer(
            network,
            f"endorser-{org}",
            registry.enroll(f"endorser-{org}", org=org),
            state_provider=lambda _channel, peer=peer: peer.state,
            chaincodes={"kv": KVChaincode()},
        )
        network.register(endorser.name, endorser)
        endorsers.append(endorser.name)
    client = FabricClient(
        sim,
        network,
        registry.enroll("client0", org="clients"),
        registry,
        endorsers=endorsers,
        orderer_endpoint="solo",
        default_policy=policy,
    )
    return sim, peers, client


class TestWorkCounter:
    def test_sha256_calls_per_committed_transaction(self, sha256_calls):
        sim, peers, client = solo_pipeline()
        futures = [
            client.submit_transaction("ch0", "kv", "put", (f"k{i}", i))
            for i in range(TRANSACTIONS)
        ]
        assert sim.drain(futures, sim.now + 10.0)
        assert [f.value.validation_code for f in futures] == ["VALID"] * TRANSACTIONS
        assert [peer.ledger.height for peer in peers] == [1, 1]
        expected = Counter(
            {tag: count * TRANSACTIONS for tag, count in EXPECTED_PER_TX.items()}
        )
        expected.update(EXPECTED_PER_BLOCK)
        assert dict(sha256_calls) == dict(expected)
        assert sum(EXPECTED_PER_TX.values()) == 14
