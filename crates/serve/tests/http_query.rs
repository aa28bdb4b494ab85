//! Over-the-wire integration: the query routes mounted on the *existing*
//! [`ObsServer`] listener — one ephemeral port serves the telemetry plane
//! (`/metrics`, `/healthz`, …) and the query plane (`/query/*`, `/topk`,
//! `/neighbors/*`) side by side, exactly as the `evolving_graph` example
//! wires them. Asserts the ISSUE's HTTP acceptance surface: correct `200`
//! bodies from a real committed distribution, `404` for unknown
//! series/vertices, `400` for malformed queries, `503` before the first
//! commit, and a `404` listing that now advertises the query routes.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;

use ebv_algorithms::ConnectedComponents;
use ebv_bsp::{BspEngine, DistributedGraph, RunOptions};
use ebv_dynamic::{EventPipeline, InsertEvents};
use ebv_graph::RmatEdgeStream;
use ebv_obs::{ObsServer, ObsServerConfig, Telemetry};
use ebv_partition::{EbvPartitioner, StreamConfig};
use ebv_serve::{register_query_routes, SnapshotStore};

/// Sends one GET and returns the full raw response.
fn get(addr: SocketAddr, path: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .write_all(format!("GET {path} HTTP/1.1\r\nHost: test\r\n\r\n").as_bytes())
        .expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    response
}

fn body_of(response: &str) -> &str {
    response
        .split_once("\r\n\r\n")
        .map(|(_, body)| body)
        .unwrap_or("")
}

/// Partitions a small deterministic graph, runs CC, stages + commits it
/// (with adjacency), and mounts both planes on one listener.
fn serve_committed_store() -> (ObsServer, SnapshotStore, DistributedGraph) {
    let stream = RmatEdgeStream::new(7, 600).with_seed(9);
    let mut partitioner = EbvPartitioner::new()
        .dynamic(StreamConfig::for_source(&stream, 4))
        .expect("dynamic partitioner");
    let mut distributed = DistributedGraph::build_streaming(4, None, Vec::new()).expect("seed");
    EventPipeline::new(200)
        .run_applied(
            InsertEvents::new(stream),
            &mut partitioner,
            &mut distributed,
            |_, _, _, _| Ok(()),
        )
        .expect("stream the edges in");

    let registry = ebv_obs::MetricsRegistry::new();
    let store = SnapshotStore::with_registry(&registry);
    BspEngine::sequential()
        .run_opts(
            &distributed,
            &ConnectedComponents::new(),
            RunOptions::new().publish_to(&store.series_sink::<u64>("cc")),
        )
        .expect("cc run");
    store.commit(
        1,
        distributed.num_vertices(),
        Some(ebv_serve::Adjacency::from_distributed(&distributed)),
    );

    let config = ObsServerConfig::default();
    let mut router = ebv_obs::telemetry_router(Arc::new(Telemetry::new()), &config);
    register_query_routes(&mut router, store.handle());
    let server =
        ObsServer::bind_with_router("127.0.0.1:0", router, config).expect("bind ephemeral port");
    (server, store, distributed)
}

#[test]
fn query_routes_serve_the_committed_epoch_over_http() {
    let (server, store, distributed) = serve_committed_store();
    let addr = server.local_addr();

    // The index names the epoch and the staged series.
    let index = get(addr, "/query");
    assert!(index.starts_with("HTTP/1.1 200 OK"), "{index}");
    assert_eq!(
        body_of(&index),
        format!(
            "{{\"epoch\": 1, \"num_vertices\": {}, \"series\": [\"cc\"]}}\n",
            distributed.num_vertices()
        )
    );

    // A point lookup agrees byte-for-byte with the in-process handle.
    let handle = store.handle();
    let ebv_serve::QueryValue::U64(expected) = handle.lookup("cc", 3).expect("lookup") else {
        panic!("cc is a u64 series");
    };
    let lookup = get(addr, "/query/cc/3");
    assert!(lookup.starts_with("HTTP/1.1 200 OK"), "{lookup}");
    assert_eq!(
        body_of(&lookup),
        format!("{{\"epoch\": 1, \"series\": \"cc\", \"vertex\": 3, \"value\": {expected}}}\n")
    );

    // Top-k over the wire equals top-k in process.
    let top = handle.topk("cc", 3, true).expect("topk");
    let topk = get(addr, "/topk?series=cc&k=3");
    assert!(topk.starts_with("HTTP/1.1 200 OK"), "{topk}");
    for (vertex, _) in &top {
        assert!(
            body_of(&topk).contains(&format!("\"vertex\": {vertex}")),
            "{topk}"
        );
    }

    // Neighborhoods come from the committed adjacency.
    let neighbors = handle.neighbors(0).expect("neighbors");
    let response = get(addr, "/neighbors/0");
    assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
    let want = neighbors
        .iter()
        .map(|n| n.to_string())
        .collect::<Vec<_>>()
        .join(", ");
    assert_eq!(
        body_of(&response),
        format!("{{\"epoch\": 1, \"vertex\": 0, \"neighbors\": [{want}]}}\n")
    );

    // The telemetry plane still answers on the same listener.
    assert!(get(addr, "/metrics").starts_with("HTTP/1.1 200 OK"));
    assert!(get(addr, "/healthz").starts_with("HTTP/1.1 200 OK"));

    server.shutdown();
}

#[test]
fn topk_with_the_largest_k_serves_every_vertex_over_http() {
    let (server, store, distributed) = serve_committed_store();
    let addr = server.local_addr();

    // A `k` nothing could be sized from: the answer is the whole series,
    // ranked, exactly as the in-process read gives it.
    let k = usize::MAX;
    let response = get(addr, &format!("/topk?series=cc&k={k}"));
    assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
    let top = store.handle().topk("cc", k, true).expect("topk");
    assert_eq!(
        top.len(),
        distributed.num_vertices(),
        "cc has no absent vertex"
    );
    let results = top
        .iter()
        .map(|(vertex, value)| format!("{{\"vertex\": {vertex}, \"value\": {}}}", value.to_json()))
        .collect::<Vec<_>>()
        .join(", ");
    assert_eq!(
        body_of(&response),
        format!(
            "{{\"epoch\": 1, \"series\": \"cc\", \"k\": {k}, \"order\": \"desc\", \
             \"results\": [{results}]}}\n"
        )
    );

    server.shutdown();
}

#[test]
fn unknown_vertices_and_series_are_404_over_http() {
    let (server, _store, distributed) = serve_committed_store();
    let addr = server.local_addr();

    let beyond = distributed.num_vertices() as u64 + 10;
    let unknown_vertex = get(addr, &format!("/query/cc/{beyond}"));
    assert!(
        unknown_vertex.starts_with("HTTP/1.1 404 Not Found"),
        "{unknown_vertex}"
    );
    assert_eq!(body_of(&unknown_vertex), "unknown vertex\n");

    let unknown_series = get(addr, "/query/nope/0");
    assert!(
        unknown_series.starts_with("HTTP/1.1 404 Not Found"),
        "{unknown_series}"
    );
    assert_eq!(body_of(&unknown_series), "unknown series\n");

    // An unknown route's 404 now advertises the mounted query plane.
    let unknown_route = get(addr, "/nope");
    assert!(unknown_route.starts_with("HTTP/1.1 404 Not Found"));
    let listing = body_of(&unknown_route);
    for route in ["/metrics", "/healthz", "/query", "/topk", "/neighbors/*"] {
        assert!(listing.contains(route), "{listing}");
    }

    server.shutdown();
}

#[test]
fn malformed_queries_are_400_over_http() {
    let (server, _store, _distributed) = serve_committed_store();
    let addr = server.local_addr();

    for (path, body) in [
        (
            "/query/cc",
            "malformed query; use /query/<series>/<vertex>\n",
        ),
        ("/query/cc/abc", "vertex must be a non-negative integer\n"),
        (
            "/topk",
            "missing series parameter; use /topk?series=<name>&k=<n>\n",
        ),
        (
            "/topk?series=cc&k=abc",
            "k must be a non-negative integer\n",
        ),
        (
            "/topk?series=cc&order=sideways",
            "order must be `asc` or `desc`\n",
        ),
        ("/neighbors/abc", "vertex must be a non-negative integer\n"),
    ] {
        let response = get(addr, path);
        assert!(
            response.starts_with("HTTP/1.1 400 Bad Request"),
            "{path}: {response}"
        );
        assert_eq!(body_of(&response), body, "{path}");
    }

    server.shutdown();
}

#[test]
fn reads_before_the_first_commit_are_503_over_http() {
    let registry = ebv_obs::MetricsRegistry::new();
    let store = SnapshotStore::with_registry(&registry);
    let config = ObsServerConfig::default();
    let mut router = ebv_obs::telemetry_router(Arc::new(Telemetry::new()), &config);
    register_query_routes(&mut router, store.handle());
    let server =
        ObsServer::bind_with_router("127.0.0.1:0", router, config).expect("bind ephemeral port");
    let addr = server.local_addr();

    for path in ["/query", "/query/cc/0", "/topk?series=cc", "/neighbors/0"] {
        let response = get(addr, path);
        assert!(
            response.starts_with("HTTP/1.1 503 Service Unavailable"),
            "{path}: {response}"
        );
        assert_eq!(body_of(&response), "no epoch published yet\n");
    }

    server.shutdown();
}
