//! The combined metadata + data plane used by the executing runtimes.
//!
//! `MiniDfs` is thread-safe: the DataMPI / MapReduce / RDD runtimes run
//! tasks on worker threads that concurrently read input splits and write
//! output partitions.

use std::collections::HashMap;
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::RwLock;

use dmpi_common::{Error, Result};
use dmpi_dcsim::NodeId;

use crate::config::DfsConfig;
use crate::meta::{BlockId, FileMeta, InputSplit};
use crate::namenode::NameNode;

/// An in-memory DFS instance shared by all tasks of a job.
///
/// # Examples
/// ```
/// use dmpi_dfs::{DfsConfig, MiniDfs};
/// use dmpi_dcsim::NodeId;
///
/// let dfs = MiniDfs::new(4, DfsConfig::test_small()).unwrap();
/// dfs.write_file("/data", NodeId(1), b"hello blocks").unwrap();
/// assert_eq!(dfs.read_file("/data").unwrap(), b"hello blocks");
/// // Every block's primary replica sits on the writing node.
/// for split in dfs.splits("/data").unwrap() {
///     assert!(split.block.is_local_to(NodeId(1)));
/// }
/// ```
pub struct MiniDfs {
    namenode: RwLock<NameNode>,
    blocks: RwLock<HashMap<BlockId, Bytes>>,
    /// CRC-32C per stored block (HDFS-style integrity metadata).
    checksums: RwLock<HashMap<BlockId, u32>>,
}

impl MiniDfs {
    /// Creates a DFS over `nodes` datanodes.
    pub fn new(nodes: u16, config: DfsConfig) -> Result<Arc<Self>> {
        Ok(Arc::new(MiniDfs {
            namenode: RwLock::new(NameNode::new(nodes, config)?),
            blocks: RwLock::new(HashMap::new()),
            checksums: RwLock::new(HashMap::new()),
        }))
    }

    /// The configured block size.
    pub fn block_size(&self) -> u64 {
        self.namenode.read().config().block_size
    }

    /// Number of datanodes.
    pub fn num_nodes(&self) -> u16 {
        self.namenode.read().num_nodes()
    }

    /// Writes a real file: splits `data` into blocks, places replicas, and
    /// stores the bytes. Returns the file metadata.
    pub fn write_file(&self, path: &str, writer: NodeId, data: &[u8]) -> Result<FileMeta> {
        let meta = {
            let mut nn = self.namenode.write();
            nn.create_file(path, writer, data.len() as u64, false)?
                .clone()
        };
        let mut store = self.blocks.write();
        let mut checksums = self.checksums.write();
        let mut offset = 0usize;
        for b in &meta.blocks {
            let end = offset + b.len as usize;
            let chunk = &data[offset..end];
            checksums.insert(b.id, dmpi_common::crc::crc32(chunk));
            store.insert(b.id, Bytes::copy_from_slice(chunk));
            offset = end;
        }
        Ok(meta)
    }

    /// Declares a metadata-only file of `len` bytes (no stored data). Used
    /// to describe paper-scale inputs to the plan compilers.
    pub fn create_virtual(&self, path: &str, writer: NodeId, len: u64) -> Result<FileMeta> {
        let mut nn = self.namenode.write();
        Ok(nn.create_file(path, writer, len, true)?.clone())
    }

    /// Reads a whole real file back.
    pub fn read_file(&self, path: &str) -> Result<Vec<u8>> {
        let meta = self.meta(path)?;
        if meta.virtual_only {
            return Err(Error::InvalidState(format!(
                "cannot read data of virtual file {path}"
            )));
        }
        let mut out = Vec::with_capacity(meta.len as usize);
        for b in &meta.blocks {
            let data = self.read_block(b.id).map_err(|e| match e {
                Error::NotFound(_) => Error::NotFound(format!("block {:?} of {path}", b.id)),
                other => other,
            })?;
            out.extend_from_slice(&data);
        }
        Ok(out)
    }

    /// Reads one block's bytes, verifying its stored checksum (HDFS-style
    /// read-path integrity).
    pub fn read_block(&self, id: BlockId) -> Result<Bytes> {
        let data = self
            .blocks
            .read()
            .get(&id)
            .cloned()
            .ok_or_else(|| Error::NotFound(format!("block {id:?}")))?;
        if let Some(&expected) = self.checksums.read().get(&id) {
            let actual = dmpi_common::crc::crc32(&data);
            if actual != expected {
                return Err(Error::Corrupt(format!(
                    "block {id:?} checksum mismatch: stored {expected:#010x}, computed {actual:#010x}"
                )));
            }
        }
        Ok(data)
    }

    /// Flips one byte inside a stored block — corruption injection for the
    /// integrity tests.
    pub fn corrupt_block(&self, id: BlockId, offset: usize) -> Result<()> {
        let mut store = self.blocks.write();
        let data = store
            .get(&id)
            .ok_or_else(|| Error::NotFound(format!("block {id:?}")))?;
        if offset >= data.len() {
            return Err(Error::Config(format!(
                "corruption offset {offset} beyond block of {} bytes",
                data.len()
            )));
        }
        let mut bytes = data.to_vec();
        bytes[offset] ^= 0xFF;
        store.insert(id, Bytes::from(bytes));
        Ok(())
    }

    /// File metadata.
    pub fn meta(&self, path: &str) -> Result<FileMeta> {
        Ok(self.namenode.read().lookup(path)?.clone())
    }

    /// True if `path` exists.
    pub fn exists(&self, path: &str) -> bool {
        self.namenode.read().exists(path)
    }

    /// Deletes a file and its block data.
    pub fn delete(&self, path: &str) -> Result<()> {
        let meta = self.namenode.write().delete(path)?;
        let mut store = self.blocks.write();
        let mut checksums = self.checksums.write();
        for b in &meta.blocks {
            store.remove(&b.id);
            checksums.remove(&b.id);
        }
        Ok(())
    }

    /// Paths under a prefix, sorted.
    pub fn list_prefix(&self, prefix: &str) -> Vec<String> {
        self.namenode.read().list_prefix(prefix)
    }

    /// Input splits of a file: one per block, in order.
    pub fn splits(&self, path: &str) -> Result<Vec<InputSplit>> {
        let meta = self.meta(path)?;
        Ok(meta
            .blocks
            .iter()
            .enumerate()
            .map(|(i, b)| InputSplit {
                path: path.to_string(),
                block_index: i,
                block: b.clone(),
            })
            .collect())
    }

    /// Splits for every file under a prefix, concatenated in path order.
    pub fn splits_for_prefix(&self, prefix: &str) -> Result<Vec<InputSplit>> {
        let mut out = Vec::new();
        for p in self.list_prefix(prefix) {
            out.extend(self.splits(&p)?);
        }
        Ok(out)
    }

    /// Kills a datanode (metadata-level: replicas become unavailable).
    pub fn kill_node(&self, node: NodeId) {
        self.namenode.write().kill_node(node);
    }

    /// Under-replicated block ids.
    pub fn under_replicated(&self) -> Vec<BlockId> {
        self.namenode.read().under_replicated()
    }

    /// Heals under-replication; returns `(block, src, dst)` copies made.
    pub fn re_replicate(&self) -> Vec<(BlockId, NodeId, NodeId)> {
        self.namenode.write().re_replicate()
    }

    /// Total bytes stored in the data plane (real files only).
    pub fn stored_bytes(&self) -> u64 {
        self.blocks.read().values().map(|b| b.len() as u64).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dfs() -> Arc<MiniDfs> {
        MiniDfs::new(4, DfsConfig::test_small()).unwrap()
    }

    #[test]
    fn write_read_round_trip() {
        let d = dfs();
        let data: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        let meta = d.write_file("/f", NodeId(0), &data).unwrap();
        assert_eq!(meta.len, 1000);
        assert_eq!(meta.num_blocks(), 16); // ceil(1000/64)
        assert_eq!(d.read_file("/f").unwrap(), data);
        assert_eq!(d.stored_bytes(), 1000);
    }

    #[test]
    fn splits_cover_file_in_order() {
        let d = dfs();
        let data = vec![7u8; 200];
        d.write_file("/f", NodeId(1), &data).unwrap();
        let splits = d.splits("/f").unwrap();
        assert_eq!(splits.len(), 4);
        assert_eq!(splits.iter().map(|s| s.len()).sum::<u64>(), 200);
        for (i, s) in splits.iter().enumerate() {
            assert_eq!(s.block_index, i);
            assert!(s.block.is_local_to(NodeId(1)), "writer-local primary");
        }
    }

    #[test]
    fn virtual_files_have_metadata_but_no_data() {
        let d = dfs();
        let meta = d.create_virtual("/big", NodeId(0), 64 * 100).unwrap();
        assert_eq!(meta.num_blocks(), 100);
        assert!(meta.virtual_only);
        assert!(d.read_file("/big").is_err());
        assert_eq!(d.stored_bytes(), 0);
        // But splits still work for plan compilation.
        assert_eq!(d.splits("/big").unwrap().len(), 100);
    }

    #[test]
    fn delete_removes_data() {
        let d = dfs();
        d.write_file("/f", NodeId(0), &[1, 2, 3]).unwrap();
        assert!(d.exists("/f"));
        d.delete("/f").unwrap();
        assert!(!d.exists("/f"));
        assert_eq!(d.stored_bytes(), 0);
    }

    #[test]
    fn prefix_splits_concatenate() {
        let d = dfs();
        d.write_file("/in/part-0", NodeId(0), &[0u8; 64]).unwrap();
        d.write_file("/in/part-1", NodeId(1), &[0u8; 128]).unwrap();
        let splits = d.splits_for_prefix("/in/").unwrap();
        assert_eq!(splits.len(), 3);
        assert_eq!(splits[0].path, "/in/part-0");
    }

    #[test]
    fn concurrent_writers_do_not_collide() {
        let d = dfs();
        let handles: Vec<_> = (0..8)
            .map(|i| {
                let d = Arc::clone(&d);
                std::thread::spawn(move || {
                    let data = vec![i as u8; 100];
                    d.write_file(&format!("/t/{i}"), NodeId(i % 4), &data)
                        .unwrap();
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(d.list_prefix("/t/").len(), 8);
        assert_eq!(d.stored_bytes(), 800);
        for i in 0..8 {
            assert_eq!(d.read_file(&format!("/t/{i}")).unwrap(), vec![i as u8; 100]);
        }
    }

    #[test]
    fn corruption_is_detected_on_read() {
        let d = dfs();
        let data = vec![42u8; 300];
        let meta = d.write_file("/f", NodeId(0), &data).unwrap();
        // Clean reads pass.
        assert_eq!(d.read_file("/f").unwrap(), data);
        // Flip a byte in the middle block: reads must now fail loudly.
        let victim = meta.blocks[2].id;
        d.corrupt_block(victim, 10).unwrap();
        let err = d.read_file("/f").unwrap_err();
        assert!(matches!(err, Error::Corrupt(_)), "got {err:?}");
        assert!(d.read_block(victim).is_err());
        // Other blocks still verify.
        assert!(d.read_block(meta.blocks[0].id).is_ok());
    }

    #[test]
    fn corrupting_out_of_range_is_an_error() {
        let d = dfs();
        let meta = d.write_file("/f", NodeId(0), &[1, 2, 3]).unwrap();
        assert!(d.corrupt_block(meta.blocks[0].id, 100).is_err());
    }

    #[test]
    fn failure_and_heal_cycle() {
        let d = dfs();
        d.write_file("/f", NodeId(2), &vec![0u8; 640]).unwrap();
        d.kill_node(NodeId(2));
        assert!(!d.under_replicated().is_empty());
        let plan = d.re_replicate();
        assert!(!plan.is_empty());
        assert!(d.under_replicated().is_empty());
    }
}
