"""Pod-level management services (§3.3–§3.5).

Two services keep the fabric alive: the **Mapping Manager** configures
FPGAs with the correct application images when a service starts and
relocates roles after failures; the **Health Monitor** investigates
suspected failures, walking each machine through the soft-reboot /
hard-reboot / manual-service escalation ladder and collecting the
error vector the paper describes.
"""

from repro.services.failures import FailureKind
from repro.services.health_monitor import (
    ErrorFlags,
    HealthMonitor,
    HealthReport,
    MachineDiagnosis,
)
from repro.services.mapping_manager import (
    InsufficientRingCapacity,
    MappingManager,
    RingAssignment,
    RoleSpec,
    ServiceDefinition,
)

__all__ = [
    "ErrorFlags",
    "FailureKind",
    "HealthMonitor",
    "HealthReport",
    "InsufficientRingCapacity",
    "MachineDiagnosis",
    "MappingManager",
    "RingAssignment",
    "RoleSpec",
    "ServiceDefinition",
]
