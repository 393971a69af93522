"""One rack's row of the cluster's region table, for the scalar oracles."""


def region(cluster, rack):
    """``(hosts, cols)`` of *rack*: the hosts of its one-hop neighbor racks,
    ascending, and each one's rack column in ``rack_regions()[0][rack]`` —
    views of :meth:`repro.cluster.cluster.Cluster.region_hosts`."""
    hosts, cols, widths = cluster.region_hosts()
    width = widths[rack]
    return hosts[rack, :width], cols[rack, :width]
