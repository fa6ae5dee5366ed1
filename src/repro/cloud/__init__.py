"""Cloud testbed models (§5.1)."""

from repro.cloud.instances import CloudSite, EC2, GCE, LOCAL_CLUSTER

__all__ = ["CloudSite", "EC2", "GCE", "LOCAL_CLUSTER"]
