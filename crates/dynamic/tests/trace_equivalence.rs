//! Property tests for the telemetry plane (PR 6 tentpole): instrumentation
//! must be **invisible to execution**. A run with a live [`Telemetry`]
//! recorder (spans into the bounded ring, phase histograms, counters)
//! must produce bit-identical per-vertex values *and* an identical
//! [`ExecutionStats`](ebv_bsp::ExecutionStats) counter structure to the
//! same run with the no-op recorder — for CC and SSSP, cold and warm,
//! sequential, threaded and pooled, across churned mutation epochs (where
//! the mutation-apply and routing-patch spans fire too).
//!
//! Pool threads are reused across workers and supersteps, so these suites
//! also prove per-worker attribution keys on the logical worker id (the
//! `SpanCtx`), never on the OS thread.
//!
//! Wall-clock fields (`MutationStats::apply_seconds`) are the only
//! sanctioned nondeterminism and are deliberately excluded: they live
//! outside `ExecutionStats`.

use proptest::prelude::*;

use ebv_algorithms::{
    ConnectedComponents, IncrementalConnectedComponents, IncrementalSssp, SingleSourceShortestPath,
};
use ebv_bsp::{BspEngine, BspOutcome, DistributedGraph, RunOptions, SubgraphProgram};
use ebv_dynamic::{ChurnStream, EpochOptions, EventPipeline, InsertEvents};
use ebv_graph::{RmatEdgeStream, VertexId};
use ebv_obs::{NoopRecorder, ObsServer, ObsServerConfig, Recorder, Telemetry};
use ebv_partition::{EbvPartitioner, StreamConfig};

/// Runs `program` (named `what` in failures) cold with and without the
/// live recorder, in every execution mode, and asserts bit-equality of
/// values and counters.
fn assert_tracing_invisible<P>(
    distributed: &DistributedGraph,
    what: &str,
    program: &P,
    telemetry: &Telemetry,
) -> BspOutcome<P::Value>
where
    P: SubgraphProgram,
    P::Value: PartialEq,
{
    let mut witness = None;
    for engine in [
        BspEngine::sequential(),
        BspEngine::threaded(),
        BspEngine::pooled(3),
    ] {
        let plain = engine.run(distributed, program).unwrap();
        let traced = engine
            .run_opts(distributed, program, RunOptions::new().recorder(telemetry))
            .unwrap();
        assert!(
            plain.values == traced.values,
            "{what}: tracing changed the values"
        );
        assert_eq!(
            plain.stats, traced.stats,
            "{what}: tracing changed the counters"
        );
        assert_eq!(plain.supersteps, traced.supersteps);
        witness.get_or_insert(plain);
    }
    witness.expect("both modes ran")
}

/// Same for a warm start from `prior`.
fn assert_tracing_invisible_warm<P>(
    distributed: &DistributedGraph,
    what: &str,
    program: &P,
    prior: &[P::Value],
    telemetry: &Telemetry,
) -> BspOutcome<P::Value>
where
    P: SubgraphProgram,
    P::Value: PartialEq,
{
    let mut witness = None;
    for engine in [
        BspEngine::sequential(),
        BspEngine::threaded(),
        BspEngine::pooled(3),
    ] {
        let plain = engine
            .run_opts(distributed, program, RunOptions::new().warm_seed(prior))
            .unwrap();
        let traced = engine
            .run_opts(
                distributed,
                program,
                RunOptions::new().warm_seed(prior).recorder(telemetry),
            )
            .unwrap();
        assert!(
            plain.values == traced.values,
            "{what}: tracing changed the warm values"
        );
        assert_eq!(
            plain.stats, traced.stats,
            "{what}: tracing changed the warm counters"
        );
        assert_eq!(plain.supersteps, traced.supersteps);
        witness.get_or_insert(plain);
    }
    witness.expect("both modes ran")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Traced and untraced runs of CC and SSSP are bit-identical — values
    /// and `ExecutionStats` — cold and warm, sequential, threaded and
    /// pooled, over churned mutation epochs whose applies also run
    /// instrumented (mutation-apply, routing-patch and epoch-apply spans
    /// fire).
    #[test]
    fn tracing_is_invisible_to_execution(
        scale in 5u32..8,
        num_edges in 80usize..400,
        seed in 0u64..500,
        churn in 1u32..6,
        p in 2usize..6,
        batch_size in 32usize..160,
    ) {
        let source = VertexId::new(0);
        let stream = RmatEdgeStream::new(scale, num_edges).with_seed(seed);
        let mut partitioner = EbvPartitioner::new()
            .dynamic(StreamConfig::for_source(&stream, p))
            .unwrap();
        let mut distributed =
            DistributedGraph::build_streaming(p, Some(1 << scale), Vec::new()).unwrap();
        let telemetry = Telemetry::isolated();

        // Prior outcomes carried warm across the churned epochs.
        let mut labels =
            assert_tracing_invisible(&distributed, "CC", &ConnectedComponents::new(), &telemetry)
                .values;
        let mut distances = assert_tracing_invisible(
            &distributed,
            "SSSP",
            &SingleSourceShortestPath::new(source),
            &telemetry,
        )
        .values;

        let churned = ChurnStream::new(stream, churn as f64 / 10.0)
            .unwrap()
            .with_seed(seed + 1);
        let mut epochs = 0usize;
        EventPipeline::new(batch_size)
            .run_applied_opts(
                churned,
                &mut partitioner,
                &mut distributed,
                |dg, batch, _, _| {
                    // Cold equivalence on the mutated distribution (the
                    // instrumented apply patched the routing table).
                    assert_tracing_invisible(dg, "CC", &ConnectedComponents::new(), &telemetry);
                    // Warm equivalence for both warm-capable programs under
                    // test, carrying the traced distribution forward.
                    let cc = IncrementalConnectedComponents::from_batch(&labels, batch);
                    labels =
                        assert_tracing_invisible_warm(dg, "CC", &cc, &labels, &telemetry).values;
                    let sssp = IncrementalSssp::from_distributed(source, dg, &distances, batch);
                    distances =
                        assert_tracing_invisible_warm(dg, "SSSP", &sssp, &distances, &telemetry)
                            .values;
                    epochs += 1;
                    Ok(())
                },
                EpochOptions::new().recorder(&telemetry),
            )
            .unwrap();
        prop_assert!(epochs >= 1, "the churned stream produced no epoch");

        // The recorder really was live: the traced runs left spans behind.
        prop_assert!(!telemetry.spans().is_empty(), "no spans were recorded");
    }
}

/// Attribution survives pool-thread reuse: on a single-lane pool every
/// worker's compute spans run on the *same* OS thread, yet the per-worker
/// phase attribution still shows one populated track per logical worker —
/// the recorder keys on `SpanCtx::worker`, not on the executing thread.
#[test]
fn attribution_survives_pool_thread_reuse() {
    use ebv_obs::Phase;

    let p = 4usize;
    let stream = RmatEdgeStream::new(6, 600).with_seed(11);
    let mut partitioner = EbvPartitioner::new()
        .dynamic(StreamConfig::for_source(&stream, p))
        .unwrap();
    let mut distributed = DistributedGraph::build_streaming(p, Some(1 << 6), Vec::new()).unwrap();
    EventPipeline::new(200)
        .run_applied(
            InsertEvents::new(stream),
            &mut partitioner,
            &mut distributed,
            |_, _, _, _| Ok(()),
        )
        .unwrap();

    let telemetry = Telemetry::isolated();
    BspEngine::pooled(1)
        .run_opts(
            &distributed,
            &ConnectedComponents::new(),
            RunOptions::new().recorder(&telemetry),
        )
        .unwrap();

    let tracks = telemetry.worker_phase_seconds();
    assert!(
        tracks.len() >= p,
        "expected a track per worker, got {}",
        tracks.len()
    );
    for (worker, track) in tracks.iter().take(p).enumerate() {
        assert!(
            track[Phase::Compute.index()] > 0.0,
            "worker {worker} has no attributed compute time despite \
             running on a shared pool thread"
        );
    }
    // The spans themselves carry distinct logical worker ids.
    let workers: std::collections::BTreeSet<u32> = telemetry
        .spans()
        .iter()
        .filter(|span| span.phase == Phase::Compute)
        .map(|span| span.ctx.worker)
        .collect();
    assert_eq!(
        workers,
        (0..p as u32).collect(),
        "compute spans must cover every logical worker"
    );
}

/// One fixed churn scenario: cold CC, then warm CC carried across every
/// applied epoch, everything reporting through `recorder`. Returns the
/// final labels, the per-epoch warm counters and the applied-epoch count —
/// every deterministic observable of the run.
fn run_scenario<R: Recorder>(recorder: &R) -> (Vec<u64>, Vec<ebv_bsp::ExecutionStats>, usize) {
    let stream = RmatEdgeStream::new(7, 2_000).with_seed(99);
    let mut partitioner = EbvPartitioner::new()
        .dynamic(StreamConfig::for_source(&stream, 4))
        .unwrap();
    let mut distributed = DistributedGraph::build_streaming(4, Some(1 << 7), Vec::new()).unwrap();
    let engine = BspEngine::threaded();
    let mut labels = engine
        .run_opts(
            &distributed,
            &ConnectedComponents::new(),
            RunOptions::new().recorder(recorder),
        )
        .unwrap()
        .values;
    let mut stats_log = Vec::new();
    let mut applied = 0usize;
    let churned = ChurnStream::new(stream, 0.2).unwrap().with_seed(100);
    EventPipeline::new(256)
        .run_applied_opts(
            churned,
            &mut partitioner,
            &mut distributed,
            |dg, batch, _, _| {
                if !batch.is_empty() {
                    applied += 1;
                }
                let cc = IncrementalConnectedComponents::from_batch(&labels, batch);
                let outcome = engine
                    .run_opts(
                        dg,
                        &cc,
                        RunOptions::new().warm_seed(&labels).recorder(recorder),
                    )
                    .unwrap();
                labels = outcome.values;
                stats_log.push(outcome.stats);
                Ok(())
            },
            EpochOptions::new().recorder(recorder),
        )
        .unwrap();
    (labels, stats_log, applied)
}

/// The tentpole integration property: attaching the live HTTP server —
/// with four scraper threads hammering every route *while the churn run
/// executes* — changes no program value and no counter versus the no-op
/// recorder, and the journal holds one snapshot per applied epoch.
#[test]
fn serving_is_invisible_to_execution() {
    use std::io::{Read as _, Write as _};
    use std::net::{SocketAddr, TcpStream};
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    fn scrape(addr: SocketAddr, path: &str) -> String {
        let mut stream = TcpStream::connect(addr).expect("connect to obs server");
        stream
            .write_all(format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n").as_bytes())
            .expect("send scrape");
        let mut out = String::new();
        stream.read_to_string(&mut out).expect("read scrape");
        out
    }

    let (noop_labels, noop_stats, noop_applied) = run_scenario(&NoopRecorder);
    assert!(noop_applied >= 1, "the scenario produced no applied epoch");

    let telemetry = Arc::new(Telemetry::isolated());
    let server = ObsServer::bind(
        "127.0.0.1:0",
        Arc::clone(&telemetry),
        ObsServerConfig::default(),
    )
    .expect("bind an ephemeral port");
    let addr = server.local_addr();
    let stop = Arc::new(AtomicBool::new(false));
    let answered = Arc::new(AtomicUsize::new(0));
    let scrapers: Vec<_> = ["/metrics", "/healthz", "/trace.json", "/epochs.json"]
        .into_iter()
        .map(|path| {
            let stop = Arc::clone(&stop);
            let answered = Arc::clone(&answered);
            std::thread::spawn(move || {
                let mut scrapes = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let response = scrape(addr, path);
                    assert!(
                        response.starts_with("HTTP/1.1 200"),
                        "{path} scrape failed mid-run: {}",
                        response.lines().next().unwrap_or_default(),
                    );
                    if scrapes == 0 {
                        answered.fetch_add(1, Ordering::Relaxed);
                    }
                    scrapes += 1;
                    std::thread::sleep(Duration::from_millis(5));
                }
                scrapes
            })
        })
        .collect();
    // The run takes tens of milliseconds, so a scraper not yet scheduled
    // when it ends would scrape nothing: start it once every route has
    // answered (or a scraper has died, which the join below reports).
    while answered.load(Ordering::Relaxed) < 4 && !scrapers.iter().any(|h| h.is_finished()) {
        std::thread::sleep(Duration::from_millis(1));
    }

    let (labels, stats_log, applied) = run_scenario(&*telemetry);
    stop.store(true, Ordering::Relaxed);
    let total_scrapes: u64 = scrapers
        .into_iter()
        .map(|handle| handle.join().expect("scraper thread"))
        .sum();

    assert!(total_scrapes >= 4, "each route must have been scraped");
    assert_eq!(labels, noop_labels, "serving changed the values");
    assert_eq!(stats_log, noop_stats, "serving changed the counters");
    assert_eq!(applied, noop_applied);
    // One journal snapshot per applied epoch, none lost to the scrapes.
    assert_eq!(telemetry.journal().recorded_total(), applied as u64);
    server.shutdown();
}
