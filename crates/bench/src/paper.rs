//! The paper's evaluation section as text: Tables I–V, Figures 2–5 and the
//! evaluation-function ablation, each a [`Report`] that returns exactly what
//! `paper <name>` prints.
//!
//! One [`Experiments`] runs each experiment at most once and every report
//! renders from it: the datasets are generated once, and each application
//! runs once per (dataset, workers) under each paper partitioner, whichever
//! report asks first. Tables III–V read the CC sweep at the paper's
//! per-graph worker counts, Table II and Figure 4 the CC sweep on
//! livejournal-like with 4 workers, which runs beside Figure 2's PR and
//! SSSP there on the same builds and is also Figure 2's CC row;
//! the ablation's full-EBV and DBH rows are cells of the Tables III–V
//! sweep. A figure panel partitions and distributes each (dataset,
//! partitioner, workers) once for all the applications it still lacks.
//! `crates/bench/golden/` holds each report's exact small-scale output.

use std::cell::{OnceCell, RefCell};
use std::collections::HashMap;
use std::error::Error;

use ebv_graph::{Graph, GraphStats};
use ebv_partition::{paper_partitioners, EbvPartitioner, EdgeOrder, Partitioner};

use crate::datasets::{Dataset, Scale};
use crate::report::{scientific, TextTable};
use crate::runner::{run_experiment, Application, ExperimentResult};

type Result<T> = std::result::Result<T, Box<dyn Error>>;

/// A report: renders one table or figure from the shared experiments.
pub type Report = fn(&Experiments) -> std::result::Result<String, Box<dyn Error>>;

/// Every report by the name `paper` takes, in the order `paper all` prints
/// them.
pub const REPORTS: [(&str, Report); 10] = [
    ("table1", table1),
    ("table2", table2),
    ("table3", table3),
    ("table4", table4),
    ("table5", table5),
    ("fig2", fig2),
    ("fig3", fig3),
    ("fig4", fig4),
    ("fig5", fig5),
    ("ablation", ablation),
];

/// Dataset name, workers and application of one sweep.
type SweepKey = (&'static str, usize, Application);

/// The experiments of one invocation at one [`Scale`], each run the first
/// time a report asks for it.
pub struct Experiments {
    scale: Scale,
    /// One graph per dataset, in [`Dataset::ALL`] order.
    graphs: [OnceCell<Graph>; 4],
    /// Every application run so far: one result per paper partitioner, in
    /// roster order.
    sweeps: RefCell<HashMap<SweepKey, Vec<ExperimentResult>>>,
}

impl Experiments {
    /// No experiment has run yet.
    pub fn new(scale: Scale) -> Self {
        Experiments {
            scale,
            graphs: Default::default(),
            sweeps: RefCell::default(),
        }
    }

    /// Renders the report called `name`, or every report in order for
    /// `all`.
    ///
    /// # Errors
    ///
    /// An unknown name, or any error of the experiments the report needs.
    pub fn render(&self, name: &str) -> Result<String> {
        if name == "all" {
            return REPORTS.iter().map(|(_, report)| report(self)).collect();
        }
        match REPORTS.iter().find(|(known, _)| *known == name) {
            Some((_, report)) => report(self),
            None => Err(format!("unknown report {name:?}; expected {}", usage()).into()),
        }
    }

    fn graph(&self, dataset: &Dataset) -> Result<&Graph> {
        let index = Dataset::ALL.iter().position(|d| d == dataset);
        let cell = &self.graphs[index.expect("every dataset is in the registry")];
        cached(cell, || Ok(dataset.generate(self.scale)?))
    }

    /// Each of `applications` on `dataset` with `workers` workers under
    /// each paper partitioner: `[application][partitioner]`. Only the
    /// applications no earlier call ran are run, all on one build per
    /// partitioner.
    fn sweep(
        &self,
        dataset: &Dataset,
        workers: usize,
        applications: &[Application],
    ) -> Result<Vec<Vec<ExperimentResult>>> {
        let key = |application: &Application| (dataset.name, workers, *application);
        let missing: Vec<Application> = applications
            .iter()
            .filter(|a| !self.sweeps.borrow().contains_key(&key(a)))
            .copied()
            .collect();
        if !missing.is_empty() {
            let graph = self.graph(dataset)?;
            let mut fresh = vec![Vec::new(); missing.len()];
            for partitioner in paper_partitioners() {
                let results = run_experiment(graph, partitioner.as_ref(), workers, &missing)?;
                for (column, result) in fresh.iter_mut().zip(results) {
                    column.push(result);
                }
            }
            let mut sweeps = self.sweeps.borrow_mut();
            for (application, results) in missing.iter().zip(fresh) {
                sweeps.insert(key(application), results);
            }
        }
        let sweeps = self.sweeps.borrow();
        Ok(applications
            .iter()
            .map(|a| sweeps[&key(a)].clone())
            .collect())
    }

    /// CC on `dataset` with `workers` workers under each paper partitioner.
    fn cc_sweep(&self, dataset: &Dataset, workers: usize) -> Result<Vec<ExperimentResult>> {
        let mut sweep = self.sweep(dataset, workers, &[Application::ConnectedComponents])?;
        Ok(sweep.remove(0))
    }

    /// A Tables III–V page: one row per dataset, one `cell` per paper
    /// partitioner.
    fn sweep_page(
        &self,
        title: &str,
        cell: impl Fn(&ExperimentResult) -> String,
        note: &str,
    ) -> Result<String> {
        let mut table = TextTable::new(title);
        table.headers(partitioner_headers(&["Graph", "workers"]));
        for dataset in Dataset::ALL {
            let results = self.cc_sweep(&dataset, dataset.table_workers)?;
            let head = [dataset.name.to_string(), dataset.table_workers.to_string()];
            table.row(head.into_iter().chain(results.iter().map(&cell)));
        }
        page([&table], note)
    }

    /// Table II and Figure 4: CC on livejournal-like with 4 workers. Figure
    /// 2's livejournal-like panels sweep that cell at every scale, so it
    /// runs with Figure 2's applications: one build per partitioner serves
    /// all of them, whichever report comes first.
    fn breakdown_sweep(&self) -> Result<Vec<ExperimentResult>> {
        let applications = Application::figure2_set();
        let cc = (applications.iter())
            .position(|a| *a == Application::ConnectedComponents)
            .expect("Figure 2 runs CC");
        let mut sweep = self.sweep(&Dataset::LIVEJOURNAL, 4, &applications)?;
        Ok(sweep.swap_remove(cc))
    }

    /// One Figure 2/3 panel per application on `dataset`: modeled execution
    /// time per (workers, partitioner).
    fn panels(
        &self,
        figure: &str,
        dataset: &Dataset,
        applications: &[Application],
    ) -> Result<Vec<TextTable>> {
        // At the small scale a reduced sweep keeps the run short; the full
        // scale uses the paper's own per-graph worker counts.
        let sweep: &[usize] = match self.scale {
            Scale::Small => &[4, 8, 16],
            Scale::Full => dataset.figure_workers,
        };
        let mut panels: Vec<TextTable> = applications
            .iter()
            .map(|application| {
                let mut table = TextTable::new(&format!(
                    "{figure} panel: {} - {} (modeled seconds)",
                    application.name(),
                    dataset.name
                ));
                table.headers(partitioner_headers(&["workers"]));
                table
            })
            .collect();
        for &workers in sweep {
            let results = self.sweep(dataset, workers, applications)?;
            for (panel, results) in panels.iter_mut().zip(results) {
                let times = results
                    .iter()
                    .map(|result| format!("{:.4}", result.breakdown.execution_time));
                panel.row([workers.to_string()].into_iter().chain(times));
            }
        }
        Ok(panels)
    }
}

/// CC on `graph` with `workers` workers.
fn cc(graph: &Graph, partitioner: &dyn Partitioner, workers: usize) -> Result<ExperimentResult> {
    let applications = [Application::ConnectedComponents];
    Ok(run_experiment(graph, partitioner, workers, &applications)?.remove(0))
}

/// `OnceCell::get_or_init` for a fallible initialiser.
fn cached<T>(cell: &OnceCell<T>, init: impl FnOnce() -> Result<T>) -> Result<&T> {
    if let Some(value) = cell.get() {
        return Ok(value);
    }
    let value = init()?;
    Ok(cell.get_or_init(|| value))
}

/// `all|table1|...|ablation`, the names `paper` takes.
pub fn usage() -> String {
    let names: Vec<&str> = REPORTS.iter().map(|(name, _)| *name).collect();
    format!("all|{}", names.join("|"))
}

/// The `leading` column headers, then one per paper partitioner.
fn partitioner_headers(leading: &[&str]) -> Vec<String> {
    let names = paper_partitioners().into_iter().map(|p| p.name());
    leading.iter().map(|h| h.to_string()).chain(names).collect()
}

/// The printed page: each table followed by a blank line, then the note.
fn page<'a>(tables: impl IntoIterator<Item = &'a TextTable>, note: &str) -> Result<String> {
    let tables = tables.into_iter().map(|table| format!("{table}\n"));
    Ok(tables.chain([format!("{note}\n")]).collect())
}

fn table1(x: &Experiments) -> Result<String> {
    let mut table = TextTable::new("Table I: Statistics of tested graphs (synthetic substitutes)");
    table.headers([
        "Graph",
        "Substitutes for",
        "Type",
        "V",
        "E",
        "AvgDeg",
        "eta",
        "power-law",
    ]);
    for dataset in Dataset::ALL {
        let stats = GraphStats::compute(dataset.name, x.graph(&dataset)?)?;
        table.row([
            dataset.name.to_string(),
            dataset.substitutes_for.to_string(),
            stats.kind.to_string(),
            stats.num_vertices.to_string(),
            stats.num_input_edges.to_string(),
            format!("{:.2}", stats.average_degree),
            format!("{:.2}", stats.eta),
            stats.is_power_law.to_string(),
        ]);
    }
    page(
        [&table],
        "Paper reference: USARoad eta=6.30 (non-power-law), LiveJournal eta=2.64, \
         Friendster eta=2.43, Twitter eta=1.87 (all power-law).",
    )
}

/// Table II: comp, comm, ΔC and the modeled execution time per partitioner.
/// The seconds come from the deterministic cost model, so only the ordering
/// is meaningful.
fn table2(x: &Experiments) -> Result<String> {
    let mut table = TextTable::new(
        "Table II: breakdown (modeled seconds) of CC with 4 workers, LiveJournal-like",
    );
    table.headers([
        "Partitioner",
        "comp",
        "comm",
        "deltaC",
        "Execution time",
        "supersteps",
    ]);
    for result in &x.breakdown_sweep()? {
        table.row([
            result.partitioner.clone(),
            format!("{:.4}", result.breakdown.comp),
            format!("{:.4}", result.breakdown.comm),
            format!("{:.4}", result.breakdown.delta_c),
            format!("{:.4}", result.breakdown.execution_time),
            result.stats.num_supersteps().to_string(),
        ]);
    }
    page(
        [&table],
        "Expected shape (paper, Table II): EBV has the shortest execution time; NE and METIS \
         have small comp/comm but a much larger deltaC (workload imbalance), which makes them \
         slower overall.",
    )
}

fn table3(x: &Experiments) -> Result<String> {
    x.sweep_page(
        "Table III: edge imbalance / vertex imbalance / replication factor per partitioner",
        |r| {
            format!(
                "{:.2}/{:.2} rf={:.2}",
                r.metrics.edge_imbalance, r.metrics.vertex_imbalance, r.metrics.replication_factor
            )
        },
        "Expected shape (paper): EBV/Ginger/DBH/CVC stay near 1.00/1.00 on both imbalance \
         factors; NE's vertex imbalance and METIS's edge imbalance grow as eta decreases; \
         EBV's replication factor is the lowest of the self-based (hash/greedy) family.",
    )
}

fn table4(x: &Experiments) -> Result<String> {
    x.sweep_page(
        "Table IV: total communication messages for CC (replication factor)",
        |r| {
            format!(
                "{} ({:.2})",
                scientific(r.stats.total_messages()),
                r.metrics.replication_factor
            )
        },
        "Expected shape (paper, Table IV): message totals track the replication factor; \
         EBV sends fewer messages than Ginger/DBH/CVC on every graph, while NE and METIS \
         send the fewest on the non-power-law road graph.",
    )
}

fn table5(x: &Experiments) -> Result<String> {
    x.sweep_page(
        "Table V: max/mean ratio of per-worker CC messages (edge/vertex imbalance factors)",
        |r| {
            format!(
                "{:.3} ({:.2}/{:.2})",
                r.stats.message_max_mean_ratio(),
                r.metrics.edge_imbalance,
                r.metrics.vertex_imbalance
            )
        },
        "Expected shape (paper, Table V): EBV/Ginger/DBH/CVC stay near 1.0 on every graph; \
         NE and METIS have clearly larger ratios that grow with the corresponding imbalance \
         factor as the graphs get more skewed.",
    )
}

/// Figure 2: one panel per (application, power-law dataset), printed
/// application-major.
fn fig2(x: &Experiments) -> Result<String> {
    let applications = Application::figure2_set();
    let panels = Dataset::POWER_LAW
        .iter()
        .map(|dataset| x.panels("Figure 2", dataset, &applications))
        .collect::<Result<Vec<_>>>()?;
    page(
        (0..applications.len()).flat_map(|a| panels.iter().map(move |per_app| &per_app[a])),
        "Expected shape (paper, Figure 2): EBV has the lowest execution time in most panels; \
         METIS and NE are the slowest on the skewed graphs because of workload imbalance.",
    )
}

/// Figure 3: the road-graph control, where NE and METIS should be
/// competitive.
fn fig3(x: &Experiments) -> Result<String> {
    let panels = x.panels(
        "Figure 3",
        &Dataset::ROAD,
        &[Application::ConnectedComponents, Application::Sssp],
    )?;
    page(
        &panels,
        "Expected shape (paper, Figure 3): on the road graph NE achieves the best time, METIS \
         is comparable to EBV/Ginger/CVC, and the gap between partitioners is much smaller \
         than on the power-law graphs.",
    )
}

/// Figure 4: each worker's modeled computation, communication and
/// synchronization time, with an ASCII rendering of the Gantt chart.
fn fig4(x: &Experiments) -> Result<String> {
    let mut tables = Vec::new();
    for result in &x.breakdown_sweep()? {
        let mut table = TextTable::new(&format!(
            "Figure 4 panel: {} (C = computation, N = network, S = synchronization)",
            result.partitioner
        ));
        table.headers(["Worker", "comp (s)", "comm (s)", "sync (s)", "timeline"]);
        for (worker, spans) in result.breakdown.timelines.iter().enumerate() {
            let comp: f64 = spans.iter().map(|s| s.comp).sum();
            let comm: f64 = spans.iter().map(|s| s.comm).sum();
            let sync: f64 = spans.iter().map(|s| s.sync).sum();
            table.row([
                worker.to_string(),
                format!("{comp:.4}"),
                format!("{comm:.4}"),
                format!("{sync:.4}"),
                bar(comp, comm, sync, 40),
            ]);
        }
        tables.push(table);
    }
    page(
        &tables,
        "Expected shape (paper, Figure 4): the four EBV/Ginger/DBH/CVC workers finish almost \
         simultaneously (tiny S spans), while NE and METIS leave some workers waiting for a \
         long time (large S spans on the underloaded workers).",
    )
}

fn bar(comp: f64, comm: f64, sync: f64, width: usize) -> String {
    let total = (comp + comm + sync).max(f64::EPSILON);
    let comp_cells = ((comp / total) * width as f64).round() as usize;
    let comm_cells = ((comm / total) * width as f64).round() as usize;
    let sync_cells = width.saturating_sub(comp_cells + comm_cells);
    format!(
        "{}{}{}",
        "C".repeat(comp_cells),
        "N".repeat(comm_cells),
        "S".repeat(sync_cells)
    )
}

/// Figure 5: the replication factor after every ~10% of the edges, for
/// EBV-sort and EBV-unsort at 4, 8, 16 and 32 subgraphs.
fn fig5(x: &Experiments) -> Result<String> {
    let mut tables = Vec::new();
    for dataset in Dataset::POWER_LAW {
        let graph = x.graph(&dataset)?;
        let mut table = TextTable::new(&format!(
            "Figure 5 panel: {} — replication factor vs edges processed",
            dataset.name
        ));
        let percents = (1..=10).map(|tenth| format!("{}%", tenth * 10));
        table.headers(
            ["variant".to_string(), "subgraphs".to_string()]
                .into_iter()
                .chain(percents),
        );
        for p in [4, 8, 16, 32] {
            for (label, partitioner) in [
                ("EBV-sort", EbvPartitioner::new().with_trace_samples(10)),
                (
                    "EBV-unsort",
                    EbvPartitioner::new().unsorted().with_trace_samples(10),
                ),
            ] {
                let (_, trace) = partitioner.partition_with_trace(graph, p)?;
                let mut row = vec![label.to_string(), p.to_string()];
                for point in trace.points().iter().take(10) {
                    row.push(format!("{:.3}", point.replication_factor));
                }
                while row.len() < 12 {
                    row.push(format!("{:.3}", trace.final_replication_factor()));
                }
                table.row(row);
            }
        }
        tables.push(table);
    }
    page(
        &tables,
        "Expected shape (paper, Figure 5): EBV-sort ends with a lower replication factor than \
         EBV-unsort on every power-law graph, the gap widens as the number of subgraphs grows, \
         and the sorted curves rise sharply at the beginning before flattening (low-degree \
         edges create almost all vertices early).",
    )
}

/// The evaluation-function ablation (an extension beyond the paper): EBV
/// with the full evaluation function, replication terms only, balance terms
/// dominating, and without or with a reversed sort, against DBH. The full
/// EBV and DBH rows are the Tables III–V sweep's livejournal-like cells.
fn ablation(x: &Experiments) -> Result<String> {
    let dataset = Dataset::LIVEJOURNAL;
    let graph = x.graph(&dataset)?;
    let workers = dataset.table_workers;
    let swept = x.cc_sweep(&dataset, workers)?;
    let from_sweep = |name: &str| {
        let cell = swept.iter().find(|result| result.partitioner == name);
        cell.cloned()
            .ok_or_else(|| format!("the paper roster has no {name}"))
    };
    let variant = |partitioner: EbvPartitioner| cc(graph, &partitioner, workers);
    let variants = [
        ("full (alpha=beta=1, sorted)", from_sweep("EBV")?),
        (
            "replication-only (alpha=beta=0)",
            variant(EbvPartitioner::new().with_alpha(0.0).with_beta(0.0))?,
        ),
        (
            "balance-dominated (alpha=beta=100)",
            variant(EbvPartitioner::new().with_alpha(100.0).with_beta(100.0))?,
        ),
        ("full, unsorted", variant(EbvPartitioner::new().unsorted())?),
        (
            "full, descending sort",
            variant(EbvPartitioner::new().with_order(EdgeOrder::DegreeSumDescending))?,
        ),
        ("DBH (reference)", from_sweep("DBH")?),
    ];
    let mut table = TextTable::new(&format!(
        "Evaluation-function ablation on {} ({} workers)",
        dataset.name, workers
    ));
    table.headers([
        "variant",
        "edge imbalance",
        "vertex imbalance",
        "replication factor",
        "CC messages",
        "modeled time (s)",
    ]);
    for (label, result) in variants {
        table.row([
            label.to_string(),
            format!("{:.3}", result.metrics.edge_imbalance),
            format!("{:.3}", result.metrics.vertex_imbalance),
            format!("{:.3}", result.metrics.replication_factor),
            result.stats.total_messages().to_string(),
            format!("{:.4}", result.breakdown.execution_time),
        ]);
    }
    page(
        [&table],
        "Reading: dropping the balance terms wrecks the imbalance factors; drowning the \
         indicator terms raises the replication factor and the message count; dropping the \
         sort raises the replication factor — the full evaluation function needs all parts.",
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_unknown_report_names_the_known_ones() {
        let error = Experiments::new(Scale::Small)
            .render("table6")
            .unwrap_err()
            .to_string();
        assert!(error.contains("\"table6\""), "{error}");
        assert!(error.contains("all|table1|"), "{error}");
        assert!(error.ends_with("|ablation"), "{error}");
    }
}
