//! EXPERIMENTS.md generation: paper-reported values vs measured values
//! for every table and figure.

use dmpi_common::Result;

use crate::figures;
use crate::table::Table;

/// One experiment entry: the regenerated table plus what the paper
/// reports for it.
pub struct Entry {
    /// The regenerated table.
    pub table: Table,
    /// What the paper reports (prose summary of the original numbers).
    pub paper: &'static str,
    /// What to compare (the shape claim this reproduction must satisfy).
    pub claim: &'static str,
}

/// Generates every experiment entry (runs all simulations).
pub fn all_entries() -> Result<Vec<Entry>> {
    Ok(vec![
        Entry {
            table: figures::table1(),
            paper: "Five workloads: Sort, WordCount, Grep (micro), Naive Bayes (social network), K-means (e-commerce).",
            claim: "Catalogue matches Table 1 exactly.",
        },
        Entry {
            table: figures::table2(),
            paper: "8 nodes, 2x Xeon E5620, 16 GB DDR3, 150 GB free SATA disk, 1 GbE.",
            claim: "Simulated testbed mirrors the hardware table.",
        },
        Entry {
            table: figures::fig2a()?,
            paper: "DFSIO write throughput peaks at 256 MB blocks (roughly 15-30 MB/s across 5-20 GB files).",
            claim: "256 MB outperforms 64 MB; absolute band ~10-35 MB/s.",
        },
        Entry {
            table: figures::fig2b()?,
            paper: "All systems peak at 4 tasks/workers per node (50-200 MB/s Text Sort throughput).",
            claim: "Throughput at 4 tasks/node >= 2 and >= 6 for Hadoop and DataMPI.",
        },
        Entry {
            table: figures::fig3a()?,
            paper: "Normal Sort 4-32 GB: DataMPI improves on Hadoop by 29-33%; Spark OOMs at every size.",
            claim: "DataMPI/Hadoop ratio in the 0.62-0.75 band; no Spark column.",
        },
        Entry {
            table: figures::fig3b()?,
            paper: "Text Sort 8-64 GB: DataMPI 34-42% over Hadoop; 8 GB: DataMPI 69 s vs Hadoop 117 s vs Spark 114 s; Spark OOMs past 8 GB.",
            claim: "Ordering DataMPI < Spark <= Hadoop at 8 GB; Spark OOM at 16+ GB; 34-42% band.",
        },
        Entry {
            table: figures::fig3c()?,
            paper: "WordCount 8-64 GB: DataMPI ~ Spark, both 47-55% over Hadoop (32 GB: 130/130/275 s).",
            claim: "DataMPI within 20% of Spark; 47-55% improvement vs Hadoop.",
        },
        Entry {
            table: figures::fig3d()?,
            paper: "Grep 8-64 GB: DataMPI 33-42% over Hadoop and 19-29% over Spark.",
            claim: "DataMPI < Spark < Hadoop at every size.",
        },
        Entry {
            table: figures::fig4_averages(figures::Fig4Case::Sort)?,
            paper: "8 GB Text Sort averages (0-117 s): CPU 24/38/37 % (DataMPI/Spark/Hadoop), wait-IO 6/12/15 %, disk read ~50, write ~67-69 MB/s, net 62 vs 39-40 MB/s, memory 5/9/5 GB.",
            claim: "DataMPI: highest network throughput, lowest CPU and wait-IO; disk rates comparable across engines.",
        },
        Entry {
            table: figures::fig4_averages(figures::Fig4Case::WordCount)?,
            paper: "32 GB WordCount averages (0-275 s): CPU 47/30/80 %, disk read 44/44/20 MB/s, net ~0 for DataMPI & Hadoop vs 25 MB/s Spark, memory 5/5/9 GB.",
            claim: "Hadoop: highest CPU and memory; Spark: visible network traffic from non-local reads.",
        },
        Entry {
            table: figures::fig5()?,
            paper: "128 MB small jobs: DataMPI ~ Spark, averaging 54% faster than Hadoop.",
            claim: "DataMPI and Spark within a few seconds; both well under Hadoop.",
        },
        Entry {
            table: figures::fig6a()?,
            paper: "K-means first iteration 8-64 GB: DataMPI up to 39% over Hadoop, 33% over Spark; Spark sits between.",
            claim: "DataMPI fastest; Spark between DataMPI and Hadoop.",
        },
        Entry {
            table: figures::fig6b()?,
            paper: "Naive Bayes 8-64 GB: DataMPI ~33% over Hadoop on average (no Spark implementation in BigDataBench 2.1).",
            claim: "~33% improvement; two-engine table.",
        },
        Entry {
            table: figures::fig_ext_iterations(16, 5)?,
            paper: "Deferred to future work: 'we will give a detail performance comparison between Spark and DataMPI in the iterative applications' (§4.6).",
            claim: "Extension experiment: Hadoop pays a full job per iteration; Spark's cache and DataMPI's Iteration mode flatten the marginal cost; DataMPI leads at every cumulative point.",
        },
        Entry {
            table: crate::recovery::fig_ext_recovery(8)?,
            paper: "Not measured: the paper's testbed never loses a node. Fault tolerance is the standard argument for Hadoop's materialize-to-disk design; DataMPI's library answers with checkpointed key-value state.",
            claim: "Extension experiment: a mid-job node failure costs nonzero recovery time under both disciplines; on the same DAG, Hadoop-style re-execution of lost map output wastes at least as much as checkpoint/restart.",
        },
        Entry {
            table: figures::section_4_7_summary()?,
            paper: "§4.7's aggregates: 40%/54%/36% over Hadoop (micro/small/apps), 14%/33% over Spark, CPU 35/34/59%, network +55%/+59%.",
            claim: "Every aggregate lands within a few points of the paper's figure.",
        },
        Entry {
            table: figures::fig7()?,
            paper: "Seven-pronged summary: DataMPI leads every performance dimension; DataMPI & Spark use CPU ~40% and memory more efficiently than Hadoop; DataMPI has 55-59% higher network throughput.",
            claim: "DataMPI = 1.00 on all three performance dimensions; Hadoop trails on CPU/memory efficiency.",
        },
    ])
}

/// Renders the full EXPERIMENTS.md content.
pub fn render_markdown(entries: &[Entry]) -> String {
    let mut out = String::from(
        "# EXPERIMENTS — paper vs. reproduction\n\n\
         Every table and figure of *Performance Benefits of DataMPI: A Case\n\
         Study with BigDataBench*, regenerated by `cargo run -p dmpi-bench\n\
         --bin figures -- all --write EXPERIMENTS.md`. Absolute times come\n\
         from the calibrated cluster simulation (see DESIGN.md §1); the\n\
         reproduction targets the paper's *shapes* — orderings, improvement\n\
         bands, crossovers and failure modes — not its exact seconds.\n\n",
    );
    for e in entries {
        out.push_str(&e.table.render_markdown());
        out.push_str(&format!("**Paper reports:** {}\n\n", e.paper));
        out.push_str(&format!("**Reproduction claim:** {}\n\n---\n\n", e.claim));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn markdown_rendering_of_static_entries() {
        // Render only the cheap static tables to keep the test fast.
        let entries = vec![Entry {
            table: figures::table1(),
            paper: "five workloads",
            claim: "exact match",
        }];
        let md = render_markdown(&entries);
        assert!(md.contains("# EXPERIMENTS"));
        assert!(md.contains("### table1"));
        assert!(md.contains("**Paper reports:** five workloads"));
    }
}
