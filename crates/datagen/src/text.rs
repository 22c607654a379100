//! The Text Generator: produces line-oriented corpora from a seed model.
//!
//! This is BigDataBench's *Text Generator* — it produced the inputs for
//! Text Sort, WordCount and Grep in the paper (seed model `lda_wiki1w`) and
//! the document sets for K-means and Naive Bayes (`amazon1`–`amazon5`).

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use dmpi_common::scan::find_byte;
use dmpi_common::Result;
use dmpi_dcsim::NodeId;
use dmpi_dfs::MiniDfs;

use crate::seedmodel::{SeedModel, SLOT};

/// Line-length bounds (words per line), loosely matching sentence lengths
/// in the wiki corpus.
const MIN_WORDS_PER_LINE: usize = 5;
const MAX_WORDS_PER_LINE: usize = 15;
/// The most room writing one line can need: a whole arena slot per word.
const LINE_ROOM: usize = MAX_WORDS_PER_LINE * SLOT;

/// A deterministic, seedable text stream.
///
/// # Examples
/// ```
/// use dmpi_datagen::{SeedModel, TextGenerator};
///
/// let mut a = TextGenerator::new(SeedModel::lda_wiki1w(), 7);
/// let mut b = TextGenerator::new(SeedModel::lda_wiki1w(), 7);
/// assert_eq!(a.line(), b.line()); // same model + seed => same text
/// ```
pub struct TextGenerator {
    model: SeedModel,
    rng: StdRng,
}

impl TextGenerator {
    /// Creates a generator over `model` with an independent `seed` (two
    /// generators with the same model and seed produce identical text).
    pub fn new(model: SeedModel, seed: u64) -> Self {
        TextGenerator {
            model,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// The underlying seed model.
    pub fn model(&self) -> &SeedModel {
        &self.model
    }

    /// Appends one line of space-separated words (no newline) to `out`:
    /// one draw for the line's word count, then one per word. Every
    /// public generator writes through this.
    fn write_line(&mut self, out: &mut String) {
        let words = self.rng.gen_range(MIN_WORDS_PER_LINE..=MAX_WORDS_PER_LINE);
        for _ in 0..words {
            self.model.push_sample(&mut self.rng, out);
        }
        out.pop(); // the last word's space
    }

    /// Generates one line of space-separated words (no trailing newline).
    pub fn line(&mut self) -> String {
        let mut line = String::with_capacity(LINE_ROOM);
        self.write_line(&mut line);
        line
    }

    /// Generates a document of `lines` newline-terminated lines.
    pub fn document(&mut self, lines: usize) -> String {
        let mut doc = String::with_capacity(lines * 64);
        for _ in 0..lines {
            self.write_line(&mut doc);
            doc.push('\n');
        }
        doc
    }

    /// Generates at least `min_bytes` of newline-terminated text (stops at
    /// the first line boundary past the target).
    pub fn generate_bytes(&mut self, min_bytes: usize) -> Vec<u8> {
        let mut out = String::with_capacity(min_bytes + LINE_ROOM);
        while out.len() < min_bytes {
            self.write_line(&mut out);
            out.push('\n');
        }
        out.into_bytes()
    }

    /// Generates a corpus of `total_bytes` spread over `files` DFS files
    /// under `prefix`, writers rotating over the cluster nodes (this is how
    /// BigDataBench's generator runs: one generator task per node). Returns
    /// the created paths.
    pub fn write_corpus(
        &mut self,
        dfs: &Arc<MiniDfs>,
        prefix: &str,
        total_bytes: usize,
        files: usize,
    ) -> Result<Vec<String>> {
        assert!(files > 0, "need at least one file");
        let per_file = total_bytes / files;
        let nodes = dfs.num_nodes();
        let mut paths = Vec::with_capacity(files);
        for i in 0..files {
            let path = format!("{prefix}/part-{i:05}");
            let data = self.generate_bytes(per_file);
            dfs.write_file(&path, NodeId((i % nodes as usize) as u16), &data)?;
            paths.push(path);
        }
        Ok(paths)
    }
}

/// Splits raw corpus bytes into lines (without allocating per line);
/// shared helper for engines tokenizing input splits.
pub fn lines(data: &[u8]) -> Pieces<'_> {
    Pieces {
        rest: data,
        sep: b'\n',
    }
}

/// Splits a line into words.
pub fn words(line: &[u8]) -> Pieces<'_> {
    Pieces {
        rest: line,
        sep: b' ',
    }
}

/// The non-empty pieces of a byte slice between `sep` bytes — what
/// `split(|&b| b == sep).filter(|p| !p.is_empty())` yields — found by
/// jumping from separator to separator with [`find_byte`].
#[derive(Clone, Debug)]
pub struct Pieces<'a> {
    rest: &'a [u8],
    sep: u8,
}

impl<'a> Iterator for Pieces<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        let start = self.rest.iter().position(|&b| b != self.sep)?;
        let rest = &self.rest[start..];
        let end = find_byte(self.sep, rest).unwrap_or(rest.len());
        self.rest = rest.get(end + 1..).unwrap_or_default();
        Some(&rest[..end])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmpi_dfs::DfsConfig;

    #[test]
    fn lines_have_sane_shape() {
        let mut g = TextGenerator::new(SeedModel::lda_wiki1w(), 1);
        for _ in 0..50 {
            let l = g.line();
            let n = l.split(' ').count();
            assert!((MIN_WORDS_PER_LINE..=MAX_WORDS_PER_LINE).contains(&n));
            assert!(!l.ends_with('\n'));
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let mut a = TextGenerator::new(SeedModel::lda_wiki1w(), 9);
        let mut b = TextGenerator::new(SeedModel::lda_wiki1w(), 9);
        assert_eq!(a.document(10), b.document(10));
        let mut c = TextGenerator::new(SeedModel::lda_wiki1w(), 10);
        assert_ne!(a.document(10), c.document(10));
    }

    #[test]
    fn generate_bytes_hits_target_and_ends_on_line() {
        let mut g = TextGenerator::new(SeedModel::lda_wiki1w(), 2);
        let data = g.generate_bytes(10_000);
        assert!(data.len() >= 10_000);
        assert!(data.len() < 10_000 + 200, "overshoot bounded by one line");
        assert_eq!(*data.last().unwrap(), b'\n');
    }

    #[test]
    fn corpus_lands_in_dfs() {
        let dfs = MiniDfs::new(4, DfsConfig::test_small().with_block_size(1024)).unwrap();
        let mut g = TextGenerator::new(SeedModel::lda_wiki1w(), 3);
        let paths = g.write_corpus(&dfs, "/text", 8_000, 4).unwrap();
        assert_eq!(paths.len(), 4);
        let all = dfs.list_prefix("/text/");
        assert_eq!(all.len(), 4);
        let data = dfs.read_file(&paths[0]).unwrap();
        assert!(data.len() >= 2000);
    }

    #[test]
    fn line_and_word_helpers() {
        let data = b"alpha beta\n\ngamma  delta \n";
        let ls: Vec<&[u8]> = lines(data).collect();
        assert_eq!(ls.len(), 2);
        let ws: Vec<&[u8]> = words(ls[1]).collect();
        assert_eq!(ws, vec![b"gamma".as_slice(), b"delta".as_slice()]);
    }

    #[test]
    fn text_is_compressible_like_natural_language() {
        let mut g = TextGenerator::new(SeedModel::lda_wiki1w(), 4);
        let data = g.generate_bytes(100_000);
        let ratio = dmpi_common::codec::ratio(&data);
        // Zipfian text compresses well but not absurdly.
        assert!(ratio > 1.5 && ratio < 10.0, "ratio {ratio}");
    }
}
