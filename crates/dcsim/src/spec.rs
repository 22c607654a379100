//! Cluster hardware description.
//!
//! [`ClusterSpec::paper_testbed`] reproduces Table 2 of the paper: 8 nodes,
//! each with two Xeon E5620 sockets (4 cores / 8 threads each), 16 GB DDR3,
//! one SATA disk with ~150 GB free, interconnected by a non-blocking
//! 1-Gigabit Ethernet switch.

use dmpi_common::units::{GB, MB};

/// Identifies one node of the simulated cluster.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u16);

impl NodeId {
    /// Zero-based index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "node{}", self.0)
    }
}

/// Hardware description of a homogeneous cluster.
#[derive(Clone, Debug)]
pub struct ClusterSpec {
    /// Number of nodes behind the switch.
    pub nodes: u16,
    /// Effective parallel core-seconds per second per node. Physical cores
    /// plus a hyper-threading bonus (the paper's nodes run 8 cores / 16
    /// threads; HT yields roughly 1.2× a core's throughput).
    pub cpu_capacity: f64,
    /// Sequential disk bandwidth in bytes/second. Reads and writes share the
    /// spindle, so this is a combined budget.
    pub disk_bw: f64,
    /// NIC bandwidth per direction in bytes/second (full duplex 1 GbE ≈
    /// 117 MB/s payload).
    pub net_bw: f64,
    /// Physical memory per node, in bytes.
    pub mem_bytes: u64,
}

impl ClusterSpec {
    /// The paper's 8-node testbed (Table 2).
    pub fn paper_testbed() -> Self {
        ClusterSpec {
            nodes: 8,
            // 2 sockets x 4 cores x ~1.2 HT factor ≈ 9.6 core-equivalents.
            cpu_capacity: 9.6,
            // One 7.2k SATA disk: ~100 MB/s effective combined budget
            // (sequential peak degraded by concurrent streams, HDFS
            // checksumming and filesystem overhead).
            disk_bw: 100.0 * MB as f64,
            // 1 GbE: ~117 MB/s payload per direction.
            net_bw: 117.0 * MB as f64,
            mem_bytes: 16 * GB,
        }
    }

    /// A small cluster for fast unit tests (2 nodes, weak resources).
    pub fn tiny() -> Self {
        ClusterSpec {
            nodes: 2,
            cpu_capacity: 2.0,
            disk_bw: 100.0 * MB as f64,
            net_bw: 100.0 * MB as f64,
            mem_bytes: 4 * GB,
        }
    }

    /// Iterates over all node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.nodes).map(NodeId)
    }

    /// Validates that all capacities are positive.
    pub fn validate(&self) -> dmpi_common::Result<()> {
        if self.nodes == 0 {
            return Err(dmpi_common::Error::Config("cluster needs >= 1 node".into()));
        }
        if self.cpu_capacity <= 0.0 || self.disk_bw <= 0.0 || self.net_bw <= 0.0 {
            return Err(dmpi_common::Error::Config(
                "cpu/disk/net capacities must be positive".into(),
            ));
        }
        if self.mem_bytes == 0 {
            return Err(dmpi_common::Error::Config("memory must be positive".into()));
        }
        Ok(())
    }
}

impl Default for ClusterSpec {
    fn default() -> Self {
        ClusterSpec::paper_testbed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_testbed_matches_table2() {
        let spec = ClusterSpec::paper_testbed();
        assert_eq!(spec.nodes, 8);
        assert_eq!(spec.mem_bytes, 16 * GB);
        assert!(spec.cpu_capacity > 8.0 && spec.cpu_capacity <= 16.0);
        // 1GbE payload must be under line rate (125 MB/s).
        assert!(spec.net_bw < 125.0 * MB as f64);
        spec.validate().unwrap();
    }

    #[test]
    fn node_ids_enumerate_all() {
        let spec = ClusterSpec::tiny();
        let ids: Vec<NodeId> = spec.node_ids().collect();
        assert_eq!(ids, vec![NodeId(0), NodeId(1)]);
        assert_eq!(NodeId(1).index(), 1);
        assert_eq!(NodeId(3).to_string(), "node3");
    }

    #[test]
    fn invalid_specs_rejected() {
        let mut s = ClusterSpec::tiny();
        s.nodes = 0;
        assert!(s.validate().is_err());
        let mut s = ClusterSpec::tiny();
        s.disk_bw = 0.0;
        assert!(s.validate().is_err());
        let mut s = ClusterSpec::tiny();
        s.mem_bytes = 0;
        assert!(s.validate().is_err());
    }
}
