"""Pre-alert mechanism (Sec. III-B and IV).

Hosts monitor their VMs' workload profiles, forecast ``T`` seconds ahead
with the model pool, and emit ``ALERT = max(W)`` when any predicted
component crosses the THRESHOLD.  Switches signal congestion through a
QCN-style queue-length feedback, and shims watch their ToR uplink.
"""

from repro.alerts.threshold import AlertConfig
from repro.alerts.alert import Alert, AlertKind, compute_alert, compute_alerts
from repro.alerts.monitor import VMMonitor, default_model_pool, fleet_alert_values
from repro.alerts.qcn import SwitchQueue, ToRUplinkMonitor

__all__ = [
    "AlertConfig",
    "Alert",
    "AlertKind",
    "compute_alert",
    "compute_alerts",
    "VMMonitor",
    "default_model_pool",
    "fleet_alert_values",
    "SwitchQueue",
    "ToRUplinkMonitor",
]
