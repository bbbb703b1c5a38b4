"""Chaincode: HLF's smart contracts, and a stub that records rw-sets.

Chaincode runs only at *endorsement* time (paper section 3, step 2):
the :class:`ChaincodeStub` executes reads against the peer's current
state, records the versions it saw into the read set, and buffers
writes into the write set -- nothing touches the state DB until the
transaction commits after ordering and validation.

Three sample chaincodes cover the example applications:

- :class:`KVChaincode` -- generic put/get/delete;
- :class:`AssetTransferChaincode` -- the canonical Fabric sample
  (create/read/transfer assets with ownership checks);
- :class:`SmallBankChaincode` -- a bank-account workload generating
  contended read-modify-write transactions (exercises MVCC conflicts).
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from repro.fabric.envelope import ReadSet, Version, WriteSet
from repro.fabric.statedb import VersionedKVStore


class ChaincodeError(Exception):
    """Raised by chaincode to reject a proposal at endorsement time."""


class ChaincodeStub:
    """The API surface chaincode uses during simulation.

    The stub records into its own dicts; ``read_set``/``write_set`` are
    read-only views of them (no copy), which the endorser hands on once
    the chaincode returns and the stub is dropped.
    """

    def __init__(self, state: VersionedKVStore):
        self._state = state
        self._reads: Dict[str, Optional[Version]] = {}
        self._writes: Dict[str, Optional[Any]] = {}
        self.read_set = ReadSet(self._reads)
        self.write_set = WriteSet(self._writes)

    def get_state(self, key: str) -> Optional[Any]:
        """Read a key, recording its version (read-your-own-writes)."""
        if key in self._writes:
            return self._writes[key]
        entry = self._state.get(key)
        self._reads.setdefault(key, entry.version if entry else None)
        return entry.value if entry else None

    def put_state(self, key: str, value: Any) -> None:
        if value is None:
            raise ChaincodeError("use del_state to delete keys")
        self._writes[key] = value

    def del_state(self, key: str) -> None:
        self._writes[key] = None

    def get_range(self, start: str, end: str) -> Dict[str, Any]:
        """Range read; records every returned key's version."""
        result: Dict[str, Any] = {}
        for key, entry in self._state.range(start, end):
            self._reads.setdefault(key, entry.version)
            result[key] = entry.value
        for key, value in sorted(self._writes.items()):
            if start <= key < end:
                if value is None:
                    result.pop(key, None)
                else:
                    result[key] = value
        return result


class Chaincode:
    """Base class for deployed contracts."""

    chaincode_id = "base"

    def invoke(self, stub: ChaincodeStub, function: str, args: Tuple[Any, ...]) -> Any:
        handler = getattr(self, f"fn_{function}", None)
        if handler is None:
            raise ChaincodeError(f"{self.chaincode_id}: unknown function {function!r}")
        return handler(stub, *args)


class KVChaincode(Chaincode):
    """Generic key/value chaincode."""

    chaincode_id = "kv"

    def fn_put(self, stub: ChaincodeStub, key: str, value: Any) -> str:
        stub.put_state(key, value)
        return "OK"

    def fn_get(self, stub: ChaincodeStub, key: str) -> Any:
        return stub.get_state(key)

    def fn_delete(self, stub: ChaincodeStub, key: str) -> str:
        if stub.get_state(key) is None:
            raise ChaincodeError(f"no such key {key!r}")
        stub.del_state(key)
        return "OK"

    def fn_increment(self, stub: ChaincodeStub, key: str, amount: int = 1) -> int:
        current = stub.get_state(key) or 0
        updated = current + amount
        stub.put_state(key, updated)
        return updated


class AssetTransferChaincode(Chaincode):
    """The canonical asset-transfer sample."""

    chaincode_id = "asset-transfer"

    @staticmethod
    def _asset_key(asset_id: str) -> str:
        return f"asset/{asset_id}"

    def fn_create(
        self, stub: ChaincodeStub, asset_id: str, owner: str, value: int
    ) -> Dict[str, Any]:
        key = self._asset_key(asset_id)
        if stub.get_state(key) is not None:
            raise ChaincodeError(f"asset {asset_id!r} already exists")
        asset = {"id": asset_id, "owner": owner, "value": value}
        stub.put_state(key, asset)
        return asset

    def fn_read(self, stub: ChaincodeStub, asset_id: str) -> Dict[str, Any]:
        asset = stub.get_state(self._asset_key(asset_id))
        if asset is None:
            raise ChaincodeError(f"asset {asset_id!r} does not exist")
        return asset

    def fn_transfer(
        self, stub: ChaincodeStub, asset_id: str, current_owner: str, new_owner: str
    ) -> Dict[str, Any]:
        key = self._asset_key(asset_id)
        asset = stub.get_state(key)
        if asset is None:
            raise ChaincodeError(f"asset {asset_id!r} does not exist")
        if asset["owner"] != current_owner:
            raise ChaincodeError(
                f"asset {asset_id!r} is owned by {asset['owner']!r}, not {current_owner!r}"
            )
        updated = dict(asset, owner=new_owner)
        stub.put_state(key, updated)
        return updated

    def fn_list(self, stub: ChaincodeStub) -> Dict[str, Any]:
        return stub.get_range("asset/", "asset/￿")


class SmallBankChaincode(Chaincode):
    """Bank accounts with transfers; produces MVCC contention."""

    chaincode_id = "smallbank"

    @staticmethod
    def _account_key(account: str) -> str:
        return f"acct/{account}"

    def fn_open(self, stub: ChaincodeStub, account: str, balance: int) -> int:
        key = self._account_key(account)
        if stub.get_state(key) is not None:
            raise ChaincodeError(f"account {account!r} already exists")
        stub.put_state(key, balance)
        return balance

    def fn_balance(self, stub: ChaincodeStub, account: str) -> int:
        balance = stub.get_state(self._account_key(account))
        if balance is None:
            raise ChaincodeError(f"account {account!r} does not exist")
        return balance

    def fn_deposit(self, stub: ChaincodeStub, account: str, amount: int) -> int:
        balance = self.fn_balance(stub, account)
        updated = balance + amount
        stub.put_state(self._account_key(account), updated)
        return updated

    def fn_transfer(
        self, stub: ChaincodeStub, src: str, dst: str, amount: int
    ) -> Dict[str, int]:
        src_balance = self.fn_balance(stub, src)
        dst_balance = self.fn_balance(stub, dst)
        if src_balance < amount:
            raise ChaincodeError(
                f"insufficient funds in {src!r}: {src_balance} < {amount}"
            )
        stub.put_state(self._account_key(src), src_balance - amount)
        stub.put_state(self._account_key(dst), dst_balance + amount)
        return {src: src_balance - amount, dst: dst_balance + amount}
