//! The HTTP face of the query plane: four routes registered on the
//! existing [`ObsServer`](ebv_obs::ObsServer) listener through the PR 9
//! [`Router`] seam — no second listener, no server edits.
//!
//! | route                       | payload                                |
//! |-----------------------------|----------------------------------------|
//! | `/query`                    | snapshot index: epoch, series, size    |
//! | `/query/<series>/<vertex>`  | one vertex's value in one series       |
//! | `/topk?series=&k=&order=`   | the k best vertices of a series        |
//! | `/neighbors/<vertex>`       | a vertex's sorted out-neighbors        |
//!
//! Every response carries the epoch it was served from, and each response
//! is built against a single pinned snapshot — the epoch tag and the
//! values can never disagree. Malformed parameters are `400`; unknown
//! series/vertices are `404`; before the first commit every route answers
//! `503 no epoch published yet`.

use ebv_obs::{Request, Response, Router};

use crate::handle::QueryHandle;
use crate::store::QueryError;

/// Registers the query plane's routes on `router`, answering from
/// `handle`'s store.
pub fn register_query_routes(router: &mut Router, handle: QueryHandle) {
    let h = handle.clone();
    router.route("/query", move |_req: &Request<'_>| index(&h));
    let h = handle.clone();
    router.route_prefix("/query/", move |req: &Request<'_>| point_lookup(&h, req));
    let h = handle.clone();
    router.route("/topk", move |req: &Request<'_>| topk(&h, req));
    router.route_prefix("/neighbors/", move |req: &Request<'_>| {
        neighbors(&handle, req)
    });
}

/// Maps a read failure to its HTTP response.
fn error_response(err: QueryError) -> Response {
    match err {
        QueryError::NotReady => Response::unavailable("no epoch published yet\n"),
        QueryError::UnknownSeries => Response::not_found("unknown series\n"),
        QueryError::UnknownVertex => Response::not_found("unknown vertex\n"),
        QueryError::NoAdjacency => Response::not_found("snapshot has no adjacency\n"),
    }
}

fn json_or_error(result: Result<String, QueryError>) -> Response {
    match result {
        Ok(body) => Response::json(body),
        Err(err) => error_response(err),
    }
}

/// `GET /query` — the snapshot index.
fn index(handle: &QueryHandle) -> Response {
    json_or_error(handle.timed(|snapshot| {
        let series = snapshot
            .series_names()
            .iter()
            .map(|name| format!("\"{name}\""))
            .collect::<Vec<_>>()
            .join(", ");
        Ok(format!(
            "{{\"epoch\": {}, \"num_vertices\": {}, \"series\": [{series}]}}\n",
            snapshot.epoch, snapshot.num_vertices,
        ))
    }))
}

/// `GET /query/<series>/<vertex>` — a point lookup.
fn point_lookup(handle: &QueryHandle, req: &Request<'_>) -> Response {
    let rest = req.path_after("/query/");
    let Some((series, vertex)) = rest.split_once('/') else {
        return Response::bad_request("malformed query; use /query/<series>/<vertex>\n");
    };
    let Ok(vertex) = vertex.parse::<u64>() else {
        return Response::bad_request("vertex must be a non-negative integer\n");
    };
    json_or_error(handle.timed(|snapshot| {
        let value = snapshot.lookup(series, vertex)?;
        Ok(format!(
            "{{\"epoch\": {}, \"series\": \"{series}\", \"vertex\": {vertex}, \"value\": {}}}\n",
            snapshot.epoch,
            value.to_json(),
        ))
    }))
}

/// `GET /topk?series=<name>&k=<n>&order=desc|asc` — the k best vertices
/// (`k` defaults to 10, `order` to `desc`).
fn topk(handle: &QueryHandle, req: &Request<'_>) -> Response {
    let Some(series) = req.query_param("series") else {
        return Response::bad_request("missing series parameter; use /topk?series=<name>&k=<n>\n");
    };
    let k = match req.query_param("k") {
        None => 10,
        Some(raw) => match raw.parse::<usize>() {
            Ok(k) => k,
            Err(_) => return Response::bad_request("k must be a non-negative integer\n"),
        },
    };
    let descending = match req.query_param("order") {
        None | Some("desc") => true,
        Some("asc") => false,
        Some(_) => return Response::bad_request("order must be `asc` or `desc`\n"),
    };
    json_or_error(handle.timed(|snapshot| {
        let results = snapshot
            .topk(series, k, descending)?
            .into_iter()
            .map(|(vertex, value)| {
                format!("{{\"vertex\": {vertex}, \"value\": {}}}", value.to_json())
            })
            .collect::<Vec<_>>()
            .join(", ");
        Ok(format!(
            "{{\"epoch\": {}, \"series\": \"{series}\", \"k\": {k}, \"order\": \"{}\", \
             \"results\": [{results}]}}\n",
            snapshot.epoch,
            if descending { "desc" } else { "asc" },
        ))
    }))
}

/// `GET /neighbors/<vertex>` — the vertex's sorted out-neighbors.
fn neighbors(handle: &QueryHandle, req: &Request<'_>) -> Response {
    let rest = req.path_after("/neighbors/");
    let Ok(vertex) = rest.parse::<u64>() else {
        return Response::bad_request("vertex must be a non-negative integer\n");
    };
    json_or_error(handle.timed(|snapshot| {
        let neighbors = snapshot
            .neighbors(vertex)?
            .iter()
            .map(|n| n.to_string())
            .collect::<Vec<_>>()
            .join(", ");
        Ok(format!(
            "{{\"epoch\": {}, \"vertex\": {vertex}, \"neighbors\": [{neighbors}]}}\n",
            snapshot.epoch,
        ))
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{Series, SeriesData, SnapshotStore};
    use ebv_obs::MetricsRegistry;

    fn router_with_committed_store() -> (SnapshotStore, Router) {
        let registry = MetricsRegistry::new();
        let store = SnapshotStore::with_registry(&registry);
        store.stage(Series {
            name: "cc".to_string(),
            data: SeriesData::U64 {
                values: vec![0, 0, 0, 3, 3, 3],
                absent: None,
            },
        });
        store.commit(1, 6, None);
        let mut router = Router::new();
        register_query_routes(&mut router, store.handle());
        (store, router)
    }

    fn dispatch(router: &Router, target: &str) -> Response {
        router.dispatch(&Request::parse("GET", target))
    }

    #[test]
    fn index_lists_epoch_and_series() {
        let (_store, router) = router_with_committed_store();
        let response = dispatch(&router, "/query");
        assert_eq!(response.status, "200 OK");
        assert_eq!(
            response.body,
            "{\"epoch\": 1, \"num_vertices\": 6, \"series\": [\"cc\"]}\n"
        );
    }

    #[test]
    fn point_lookup_serves_the_exact_value() {
        let (_store, router) = router_with_committed_store();
        let response = dispatch(&router, "/query/cc/4");
        assert_eq!(response.status, "200 OK");
        assert_eq!(
            response.body,
            "{\"epoch\": 1, \"series\": \"cc\", \"vertex\": 4, \"value\": 3}\n"
        );
    }

    #[test]
    fn unknown_series_and_vertices_are_404() {
        let (_store, router) = router_with_committed_store();
        assert_eq!(dispatch(&router, "/query/nope/0").status, "404 Not Found");
        assert_eq!(dispatch(&router, "/query/cc/999").status, "404 Not Found");
        assert_eq!(
            dispatch(&router, "/topk?series=nope").status,
            "404 Not Found"
        );
        // No adjacency was committed.
        assert_eq!(dispatch(&router, "/neighbors/0").status, "404 Not Found");
    }

    #[test]
    fn malformed_queries_are_400() {
        let (_store, router) = router_with_committed_store();
        for target in [
            "/query/cc",            // missing vertex
            "/query/cc/notanumber", // non-numeric vertex
            "/query/cc/-1",         // negative vertex
            "/topk",                // missing series
            "/topk?series=cc&k=x",  // malformed k
            "/topk?series=cc&order=sideways",
            "/neighbors/notanumber",
        ] {
            assert_eq!(
                dispatch(&router, target).status,
                "400 Bad Request",
                "{target}"
            );
        }
    }

    #[test]
    fn topk_serves_ordered_results() {
        let (_store, router) = router_with_committed_store();
        let response = dispatch(&router, "/topk?series=cc&k=2");
        assert_eq!(response.status, "200 OK");
        assert_eq!(
            response.body,
            "{\"epoch\": 1, \"series\": \"cc\", \"k\": 2, \"order\": \"desc\", \
             \"results\": [{\"vertex\": 3, \"value\": 3}, {\"vertex\": 4, \"value\": 3}]}\n"
        );
        let asc = dispatch(&router, "/topk?series=cc&k=1&order=asc");
        assert!(asc
            .body
            .contains("\"results\": [{\"vertex\": 0, \"value\": 0}]"));
    }

    #[test]
    fn every_route_is_503_before_the_first_commit() {
        let registry = MetricsRegistry::new();
        let store = SnapshotStore::with_registry(&registry);
        let mut router = Router::new();
        register_query_routes(&mut router, store.handle());
        for target in ["/query", "/query/cc/0", "/topk?series=cc", "/neighbors/0"] {
            let response = dispatch(&router, target);
            assert_eq!(response.status, "503 Service Unavailable", "{target}");
            assert_eq!(response.body, "no epoch published yet\n");
        }
    }
}
