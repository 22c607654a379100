//! `figures` — regenerate the paper's tables and figures.
//!
//! ```text
//! figures all                 # print every table/figure
//! figures all --markdown      # print EXPERIMENTS.md content
//! figures all --write PATH    # write EXPERIMENTS.md to PATH
//! figures table1|table2|fig2a|fig2b|fig3a|fig3b|fig3c|fig3d|
//!         fig4sort|fig4wordcount|fig5|fig6a|fig6b|fig7
//! figures fig4sort --series cpu     # 10s-sampled time series
//! figures fig3b --csv               # CSV for plotting tools
//! figures ext-iter                  # extension: iterative K-means
//! figures ext-recovery              # extension: node-failure recovery
//! ```

use dmpi_bench::experiments;
use dmpi_bench::figures::{self, Fig4Case};

fn usage() -> ! {
    eprintln!(
        "usage: figures <all|table1|table2|fig2a|fig2b|fig3a|fig3b|fig3c|fig3d|\
         fig4sort|fig4wordcount|fig5|fig6a|fig6b|fig7|ext-iter|ext-recovery|summary> \
         [--markdown] [--write PATH] [--csv] \
         [--series cpu|waitio|disk_read|disk_write|net|mem]"
    );
    std::process::exit(2);
}

fn render(table: dmpi_bench::Table, csv: bool) -> String {
    if csv {
        table.render_csv()
    } else {
        table.render_text()
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(which) = args.first() else { usage() };
    let markdown = args.iter().any(|a| a == "--markdown");
    let csv = args.iter().any(|a| a == "--csv");
    let write_path = args
        .iter()
        .position(|a| a == "--write")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let series_metric = args
        .iter()
        .position(|a| a == "--series")
        .and_then(|i| args.get(i + 1))
        .cloned();

    let result = (|| -> dmpi_common::Result<()> {
        match which.as_str() {
            "all" => {
                let entries = experiments::all_entries()?;
                if markdown || write_path.is_some() {
                    let md = experiments::render_markdown(&entries);
                    match &write_path {
                        Some(path) => {
                            std::fs::write(path, &md).map_err(|e| {
                                dmpi_common::Error::InvalidState(format!(
                                    "cannot write {path}: {e}"
                                ))
                            })?;
                            println!("wrote {path}");
                        }
                        None => println!("{md}"),
                    }
                } else {
                    for e in &entries {
                        println!("{}", e.table.render_text());
                        println!("paper: {}\n", e.paper);
                    }
                }
            }
            "table1" => println!("{}", render(figures::table1(), csv)),
            "table2" => println!("{}", render(figures::table2(), csv)),
            "fig2a" => println!("{}", render(figures::fig2a()?, csv)),
            "fig2b" => println!("{}", render(figures::fig2b()?, csv)),
            "fig3a" => println!("{}", render(figures::fig3a()?, csv)),
            "fig3b" => println!("{}", render(figures::fig3b()?, csv)),
            "fig3c" => println!("{}", render(figures::fig3c()?, csv)),
            "fig3d" => println!("{}", render(figures::fig3d()?, csv)),
            "fig4sort" | "fig4wordcount" => {
                let case = if which == "fig4sort" {
                    Fig4Case::Sort
                } else {
                    Fig4Case::WordCount
                };
                match series_metric {
                    Some(metric) => {
                        println!("{}", render(figures::fig4_series(case, &metric, 10)?, csv))
                    }
                    None => println!("{}", render(figures::fig4_averages(case)?, csv)),
                }
            }
            "fig5" => println!("{}", render(figures::fig5()?, csv)),
            "fig6a" => println!("{}", render(figures::fig6a()?, csv)),
            "fig6b" => println!("{}", render(figures::fig6b()?, csv)),
            "fig7" => println!("{}", render(figures::fig7()?, csv)),
            "ext-iter" => println!("{}", render(figures::fig_ext_iterations(16, 5)?, csv)),
            "ext-recovery" => println!(
                "{}",
                render(dmpi_bench::recovery::fig_ext_recovery(8)?, csv)
            ),
            "summary" => println!("{}", render(figures::section_4_7_summary()?, csv)),
            _ => usage(),
        }
        Ok(())
    })();

    if let Err(e) = result {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
