"""ARP-Path (FastPath) bridging — the paper's primary contribution.

The public surface is :class:`ArpPathBridge` plus its configuration; the
supporting pieces (locked table, repair manager, ARP proxy) are exported
for tests and experiments that inspect protocol state.
"""

from repro.core.bridge import ArpPathBridge, ArpPathCounters
from repro.core.config import ArpPathConfig, DEFAULT_CONFIG
from repro.core.proxy import ArpProxy, ProxyBinding, ProxyCounters
from repro.core.repair import RepairCounters, RepairManager, RepairState
from repro.core.table import (EntryState, Lock, LockedAddressTable,
                              PathEntry, TableCounters)

__all__ = [
    "ArpPathBridge", "ArpPathCounters",
    "ArpPathConfig", "DEFAULT_CONFIG",
    "ArpProxy", "ProxyBinding", "ProxyCounters",
    "RepairCounters", "RepairManager", "RepairState",
    "EntryState", "Lock", "LockedAddressTable", "PathEntry",
    "TableCounters",
]
