//! Rider-response validation: what counts as an answer.
//!
//! A `200` must carry a well-formed, non-empty JSON body of the
//! endpoint's shape, rendered from a snapshot no older than the one read
//! just before the query. A `404` is an answer only when the snapshot
//! read just before the query lacks the target — or when a newer
//! snapshot was published meanwhile and lacks it too. Anything else is
//! a failed query.

use wilocator_core::{BusKey, QuerySnapshot};
use wilocator_serve::Response;
use wilocator_sim::QueryOp;
use wilocator_tracedump::{parse_json, Json};

/// The endpoint a query addresses, as used in per-layer metric names.
pub fn endpoint(op: &QueryOp) -> &'static str {
    match op {
        QueryOp::Arrivals { .. } => "arrivals",
        QueryOp::Position { .. } => "position",
        QueryOp::Traffic { .. } => "traffic",
    }
}

/// Raw request bytes for a rider query, as a phone would send them.
pub fn request_bytes(op: &QueryOp) -> Vec<u8> {
    format!(
        "GET {} HTTP/1.1\r\nHost: wilocator\r\nAccept: application/json\r\n\r\n",
        op.target()
    )
    .into_bytes()
}

fn present(op: &QueryOp, snap: &QuerySnapshot) -> bool {
    match *op {
        QueryOp::Arrivals { route, stop } => snap.arrivals(route, stop).is_some(),
        QueryOp::Position { bus } => snap.position(BusKey(bus)).is_some(),
        QueryOp::Traffic { route } => snap.traffic(route).is_some(),
    }
}

/// Whether `response` is a valid answer to `op`, given the snapshot read
/// just before the query and a way to read the current one.
pub fn is_answer(
    op: &QueryOp,
    before: &QuerySnapshot,
    response: &Response,
    now: impl FnOnce() -> std::sync::Arc<QuerySnapshot>,
) -> bool {
    match response.status {
        200 => {
            let key = match op {
                QueryOp::Arrivals { .. } => "routes",
                QueryOp::Position { .. } => "fix",
                QueryOp::Traffic { .. } => "segments",
            };
            parse_json(&response.body).is_ok_and(|body| {
                body.get(key).is_some()
                    && body
                        .get("epoch")
                        .and_then(Json::as_u64)
                        .is_some_and(|e| e >= before.epoch)
            })
        }
        404 => {
            if !present(op, before) {
                return true;
            }
            let after = now();
            after.epoch > before.epoch && !present(op, &after)
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use wilocator_road::{RouteId, StopId};

    fn json(status: u16, body: &str) -> Response {
        Response {
            status,
            content_type: "application/json",
            body: body.to_string(),
        }
    }

    #[test]
    fn not_found_counts_only_when_the_target_is_absent() {
        let empty = Arc::new(QuerySnapshot::empty());
        let op = QueryOp::Position { bus: 4 };
        let missing = json(404, r#"{"status":404,"error":"unknown bus"}"#);
        assert!(is_answer(&op, &empty, &missing, || empty.clone()));

        let mut with_route = QuerySnapshot::stamped(3, 10.0);
        with_route.traffic.insert(RouteId(0), Vec::new());
        let with_route = Arc::new(with_route);
        let traffic = QueryOp::Traffic { route: RouteId(0) };
        // The route was in the snapshot read just before, and nothing
        // newer was published: a 404 is a wrong answer.
        assert!(!is_answer(&traffic, &with_route, &missing, || with_route.clone()));
        // A newer snapshot that lacks it explains the 404.
        let newer = Arc::new(QuerySnapshot::stamped(4, 11.0));
        assert!(is_answer(&traffic, &with_route, &missing, || newer.clone()));
    }

    #[test]
    fn ok_needs_shape_and_a_fresh_epoch() {
        let snap = Arc::new(QuerySnapshot::stamped(5, 1.0));
        let op = QueryOp::Arrivals {
            route: RouteId(1),
            stop: StopId(2),
        };
        let fresh = json(200, r#"{"stop":"s2","epoch":5,"routes":[]}"#);
        assert!(is_answer(&op, &snap, &fresh, || snap.clone()));
        let stale = json(200, r#"{"stop":"s2","epoch":4,"routes":[]}"#);
        assert!(!is_answer(&op, &snap, &stale, || snap.clone()));
        let torn = json(200, r#"{"stop":"s2","epoch":5,"routes":["#);
        assert!(!is_answer(&op, &snap, &torn, || snap.clone()));
        let wrong_shape = json(200, r#"{"epoch":5,"segments":[]}"#);
        assert!(!is_answer(&op, &snap, &wrong_shape, || snap.clone()));
        assert!(!is_answer(&op, &snap, &json(500, "{}"), || snap.clone()));
    }

    #[test]
    fn requests_are_raw_http_bytes() {
        let bytes = request_bytes(&QueryOp::Traffic { route: RouteId(2) });
        assert!(bytes.starts_with(b"GET /traffic/2 HTTP/1.1\r\n"));
        assert!(bytes.ends_with(b"\r\n\r\n"));
    }
}
