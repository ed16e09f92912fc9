//! One repetition of a workload: build a server in the shipped default
//! configuration, ingest the warm day, train where the workload trains,
//! then replay the timed day in batches — closed-loop, or open-loop
//! beside a rider-query thread — measuring what a rider would see.
//!
//! The traced variant makes the same calls with one change: automatic
//! publication is off and the benchmark calls `publish_snapshot` itself,
//! with the stream time auto-publication would use, so ingest and
//! publication can be timed apart. Spans around each public call, plus
//! side calls into the lower layers (ranking, tracking, prediction,
//! traffic maps, snapshot reads, request parsing), feed the per-layer
//! table.

use std::collections::HashMap;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use wilocator_core::{BusKey, BusTracker, IngestResult, QuerySnapshot, WiLocator, WiLocatorConfig};
use wilocator_road::{RouteId, StopId};
use wilocator_serve::{parse_request, respond, HttpLimits};
use wilocator_sim::{QueryOp, RiderLoad, DEFAULT_QUERY_RATIO};

use crate::digest::Digest;
use crate::openloop::{Pacer, WallTime};
use crate::scene::{Replay, Scene};
use crate::spans::Spans;
use crate::stats::median;
use crate::validate::{endpoint, is_answer, request_bytes};

/// Rider queries issued after each closed-loop batch. They are probes of
/// the snapshot the batch published, not a traffic model: they run
/// between batches, outside the timed ingest, so their number moves no
/// write metric. 16 take 3% (`metro-day`) to 7% (`street-burst`) of a
/// batch's time and give each repetition at least 460 query samples.
const QUERIES_PER_BATCH: usize = 16;
/// One scored arrival entry in this many is re-predicted in the traced
/// run (selected by a seeded hash, so the sample is fixed per seed).
const PROBE_SAMPLE_EVERY: u64 = 16;
/// Sampled arrival entries per batch re-predicted in the traced run.
const PREDICT_PROBES_PER_BATCH: usize = 4;
/// Distinct rider requests materialised per run.
const QUERY_POOL: u64 = 1 << 15;

/// Rider requests, built from the seed before any timing starts.
#[derive(Debug)]
pub struct QueryPool {
    queries: Vec<(QueryOp, Vec<u8>)>,
}

impl QueryPool {
    /// The `RiderLoad` 70/20/10 arrivals/position/traffic mix over the
    /// timed day's buses and stops, rendered as raw GET bytes.
    pub fn build(scene: &Scene, seed: u64) -> QueryPool {
        let load = RiderLoad::new(&scene.timed_plan, &scene.routes, DEFAULT_QUERY_RATIO, seed);
        let n = QUERY_POOL.min(load.len());
        QueryPool {
            queries: (0..n)
                .map(|i| {
                    let op = load.op(i);
                    (op, request_bytes(&op))
                })
                .collect(),
        }
    }

    fn get(&self, i: usize) -> &(QueryOp, Vec<u8>) {
        &self.queries[i % self.queries.len()]
    }
}

/// What one repetition measured.
#[derive(Debug, Default)]
pub struct Rep {
    /// `WiLocator::new`, seconds.
    pub new_s: f64,
    /// `train()`, seconds (0 when the workload does not train).
    pub train_s: f64,
    /// Reports replayed in the timed day.
    pub reports: usize,
    /// Time inside lifecycle, ingest and publication calls, seconds.
    pub busy_s: f64,
    /// Per batch: from ingest entry (or due time) to a readable snapshot
    /// holding the batch, µs.
    pub visible_us: Vec<f64>,
    /// Per rider query: from issue (or due time) to a rendered response, µs.
    pub query_us: Vec<f64>,
    /// Operations attempted: reports, lifecycle calls, rider queries.
    pub attempted: u64,
    /// Failed operations: ingest or lifecycle errors, invalid answers.
    pub failed: u64,
    /// Batches after which no snapshot holding them could be read.
    pub invisible: u64,
    /// Digest of every ingest result and the final snapshot.
    pub digest: u64,
    /// Returned fixes.
    pub fixes: usize,
    /// Median |fix − truth| along the road over every returned fix, metres.
    pub fix_err_p50_m: Option<f64>,
    /// Published arrival entries scored against ground truth.
    pub etas_scored: usize,
    /// Median |published ETA − true arrival| over them, seconds.
    pub eta_err_p50_s: Option<f64>,
    /// Open-loop start lateness of every batch and query, µs.
    pub late_us: Vec<f64>,
    /// Per publication: buses, arrival entries, traffic segments.
    pub snapshot_sizes: Vec<[usize; 3]>,
    /// Response body bytes by endpoint.
    pub body_bytes: HashMap<&'static str, Vec<f64>>,
    /// Travel-time records held after the replay (traced run only).
    pub history_records: usize,
}

impl Rep {
    /// Timed reports per second of lifecycle + ingest + publication time.
    pub fn reports_per_s(&self) -> f64 {
        self.reports as f64 / self.busy_s
    }
}

fn ns_since(origin: Instant) -> u64 {
    origin.elapsed().as_nanos() as u64
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Runs `f` inside a span when tracing.
fn traced<R>(
    spans: &mut Option<&mut Spans>,
    name: &'static str,
    parent: Option<usize>,
    items: impl FnOnce(&R) -> u64,
    f: impl FnOnce() -> R,
) -> R {
    match spans {
        Some(rec) => {
            let id = rec.open(name, parent);
            let out = f();
            rec.close(id, items(&out));
            out
        }
        None => f(),
    }
}

/// The writer side of a repetition: replays batches and scores them.
struct Writer<'a> {
    scene: &'a Scene,
    server: &'a WiLocator,
    seed: u64,
    traced: bool,
    digest: Digest,
    /// Side trackers for the traced `tracker.ingest` probe, by bus.
    trackers: HashMap<BusKey, BusTracker>,
    batch_index: u64,
    /// |fix − truth| along the road for every returned fix, metres.
    fix_err_m: Vec<f64>,
    /// |published ETA − true arrival| for every published entry, seconds.
    eta_err_s: Vec<f64>,
}

impl Writer<'_> {
    /// Ingests one batch with its lifecycle calls. `due_ns` is the
    /// open-loop due time (ns since `origin`); closed-loop batches are
    /// due when they enter `ingest_batch`.
    fn batch(
        &mut self,
        batch: Range<usize>,
        origin: Instant,
        due_ns: Option<u64>,
        mut spans: Option<&mut Spans>,
        rep: &mut Rep,
    ) {
        let replay = &self.scene.timed;
        let server = self.server;
        let newest = replay.newest(batch.clone());
        let epoch_before = server.snapshot_epoch();
        let n = batch.len() as u64;

        let root = spans.as_mut().map(|s| s.open("batch", None));
        let t0 = ns_since(origin);
        let registered = traced(&mut spans, "server.register", root, count_calls, || {
            replay.register(server, batch.clone())
        });
        let t_in = ns_since(origin);
        let results: Vec<IngestResult> = traced(
            &mut spans,
            "server.ingest_batch",
            root,
            |_| n,
            || server.ingest_batch(&replay.reports[batch.clone()]),
        );
        if self.traced {
            traced(
                &mut spans,
                "server.publish",
                root,
                |_| 1,
                || server.publish_snapshot(newest),
            );
        }
        let t_out = ns_since(origin);
        let snap = server.query_snapshot();
        let visible = snap.epoch > epoch_before && snap.published_at_s >= newest;
        let t_vis = ns_since(origin);
        let finished = traced(&mut spans, "server.finish", root, count_calls, || {
            replay.finish(server, batch.clone())
        });
        let t1 = ns_since(origin);
        if let (Some(rec), Some(root)) = (spans.as_mut(), root) {
            rec.close(root, n);
        }

        rep.busy_s += (t_out - t0 + t1 - t_vis) as f64 / 1e9;
        rep.reports += batch.len();
        rep.visible_us.push(us(t_vis - due_ns.unwrap_or(t_in)));
        rep.invisible += u64::from(!visible);
        for lifecycle in [&registered, &finished] {
            match lifecycle {
                Ok(calls) => rep.attempted += *calls as u64,
                Err(_) => {
                    rep.attempted += 1;
                    rep.failed += 1;
                }
            }
        }
        rep.attempted += n;
        for (i, result) in batch.clone().zip(&results) {
            self.digest.result(result);
            match result {
                Ok(Some(fix)) => self.fix_err_m.push((fix.s - replay.true_s[i]).abs()),
                Ok(None) => {}
                Err(_) => rep.failed += 1,
            }
        }
        let probes = self.score_etas(&snap);
        if self.traced {
            rep.snapshot_sizes.push([
                snap.buses.len(),
                snap.arrivals.values().map(Vec::len).sum(),
                snap.traffic.values().map(Vec::len).sum(),
            ]);
            if let Some(rec) = spans.as_mut() {
                self.probe_layers(rec, batch, newest, &snap, &probes);
            }
        }
        self.batch_index += 1;
    }

    /// Scores every arrival entry of this publication against the true
    /// arrival time; returns a seed-fixed 1-in-16 sample of the scored
    /// `(route, stop, bus)` triples for the traced prediction probe.
    fn score_etas(&mut self, snap: &QuerySnapshot) -> Vec<(RouteId, StopId, BusKey)> {
        let mut sampled = Vec::new();
        let salt = splitmix64(self.seed ^ self.batch_index.wrapping_mul(0xA24B_AED4_963E_E407));
        for (&(route, stop), entries) in &snap.arrivals {
            let Some(&stop_s) = self.scene.stop_s.get(&(route, stop)) else {
                continue;
            };
            for entry in entries {
                let Some(truth) = self.scene.truth.get(&entry.bus) else {
                    continue;
                };
                self.eta_err_s
                    .push((entry.eta_s - truth.time_at_s(stop_s)).abs());
                let key =
                    salt ^ (u64::from(route.0) << 48) ^ (u64::from(stop.0) << 32) ^ entry.bus.0;
                if splitmix64(key).is_multiple_of(PROBE_SAMPLE_EVERY) {
                    sampled.push((route, stop, entry.bus));
                }
            }
        }
        sampled
    }

    /// Traced run only: side calls into the layers under the server,
    /// over the same batch.
    fn probe_layers(
        &mut self,
        rec: &mut Spans,
        batch: Range<usize>,
        newest: f64,
        snap: &QuerySnapshot,
        sampled: &[(RouteId, StopId, BusKey)],
    ) {
        let replay = &self.scene.timed;
        let reports = &replay.reports[batch.clone()];
        let n = reports.len() as u64;
        let id = rec.open("svd.rank", None);
        for r in reports {
            std::hint::black_box(r.positioning_ranks(1));
        }
        rec.close(id, n);

        for i in batch.clone().filter(|&i| replay.starts_trip(i)) {
            if let Some(positioner) = self.server.positioner(replay.route_of(i)) {
                self.trackers
                    .insert(replay.reports[i].bus, BusTracker::new(positioner.clone()));
            }
        }
        let id = rec.open("tracker.ingest", None);
        for r in reports {
            if let Some(tracker) = self.trackers.get_mut(&r.bus) {
                std::hint::black_box(tracker.ingest(r));
            }
        }
        rec.close(id, n);
        for i in batch.filter(|&i| replay.ends_trip(i)) {
            self.trackers.remove(&replay.reports[i].bus);
        }

        for &(route, stop, bus) in sampled.iter().take(PREDICT_PROBES_PER_BATCH) {
            let (Some(view), Some(&stop_s)) =
                (snap.buses.get(&bus), self.scene.stop_s.get(&(route, stop)))
            else {
                continue;
            };
            rec.time("predict.eta", None, || {
                std::hint::black_box(self.server.predict_arrival_at(
                    route,
                    view.fix.s,
                    view.fix.time_s,
                    stop_s,
                ))
                .expect("sampled route is served")
            });
        }
        let routes = &self.scene.routes;
        let route = routes[(self.batch_index as usize) % routes.len()].id();
        rec.time("traffic.route_map", None, || {
            std::hint::black_box(self.server.traffic_map(route, newest))
                .expect("scene route is served")
        });
    }
}

fn count_calls(r: &Result<usize, wilocator_core::CoreError>) -> u64 {
    r.as_ref().map_or(1, |&c| c as u64)
}

/// Issues rider query `i` of the pool: reads the snapshot (for answer
/// validation), waits until due in open loop, then parses the raw
/// request and renders the response. Records latency from the due time.
fn query(
    server: &WiLocator,
    pool: &QueryPool,
    i: usize,
    origin: Instant,
    pacer: Option<&mut Pacer<WallTime>>,
    mut spans: Option<&mut Spans>,
    rep: &mut Rep,
) {
    let (op, bytes) = pool.get(i);
    let before = traced(
        &mut spans,
        "snapshot.read",
        None,
        |_| 1,
        || server.query_snapshot(),
    );
    let due = match pacer {
        Some(p) => p.wait_for(i as u64),
        None => ns_since(origin),
    };
    let root = spans.as_mut().map(|s| s.open("query", None));
    let parsed = traced(
        &mut spans,
        "serve.parse",
        root,
        |_| 1,
        || parse_request(bytes, &HttpLimits::default()),
    );
    let response = match parsed {
        Ok(Some((request, _))) => {
            let name = match endpoint(op) {
                "arrivals" => "serve.respond.arrivals",
                "position" => "serve.respond.position",
                _ => "serve.respond.traffic",
            };
            Some(traced(
                &mut spans,
                name,
                root,
                |_| 1,
                || respond(server, &request),
            ))
        }
        _ => None,
    };
    let end = ns_since(origin);
    if let (Some(rec), Some(root)) = (spans.as_mut(), root) {
        rec.close(root, 1);
    }
    rep.query_us.push(us(end - due));
    rep.attempted += 1;
    let ok = response.as_ref().is_some_and(|resp| {
        rep.body_bytes
            .entry(endpoint(op))
            .or_default()
            .push(resp.body.len() as f64);
        is_answer(op, &before, resp, || server.query_snapshot())
    });
    rep.failed += u64::from(!ok);
}

/// Runs one repetition. Returns the measurements and the server (whose
/// metric families the traced run reads).
pub fn run_rep(
    scene: &Scene,
    pool: &QueryPool,
    seed: u64,
    mut spans: Option<&mut Spans>,
) -> (Rep, WiLocator) {
    let mut rep = Rep::default();
    let is_traced = spans.is_some();
    let (server, new_s, train_s) = set_up(scene, &mut spans);
    rep.new_s = new_s;
    rep.train_s = train_s;

    let mut writer = Writer {
        scene,
        server: &server,
        seed,
        traced: is_traced,
        digest: Digest::default(),
        trackers: HashMap::new(),
        batch_index: 0,
        fix_err_m: Vec::new(),
        eta_err_s: Vec::new(),
    };
    let origin = Instant::now();
    match scene.spec.open_loop {
        None => {
            let mut next_query = 0usize;
            for batch in scene.timed.batches(scene.spec.batch) {
                writer.batch(batch, origin, None, spans.as_deref_mut(), &mut rep);
                for _ in 0..QUERIES_PER_BATCH {
                    query(
                        &server,
                        pool,
                        next_query,
                        origin,
                        None,
                        spans.as_deref_mut(),
                        &mut rep,
                    );
                    next_query += 1;
                }
            }
        }
        Some(rates) => {
            // Set by the writer after its last batch; the reader only
            // stops on it. The reader's results come back through the
            // scope's join, not through this flag.
            let done = AtomicBool::new(false);
            let mut reader_rep = Rep::default();
            let mut reader_spans = spans.as_ref().map(|s| Spans::new(s.origin()));
            std::thread::scope(|scope| {
                let server = &server;
                let done = &done;
                let reader_rep = &mut reader_rep;
                let reader_spans = &mut reader_spans;
                scope.spawn(move || {
                    let mut pacer = Pacer::new(WallTime::at(origin), rates.queries_per_s);
                    let mut i = 0usize;
                    while !done.load(Ordering::Relaxed) {
                        query(
                            server,
                            pool,
                            i,
                            origin,
                            Some(&mut pacer),
                            reader_spans.as_mut(),
                            reader_rep,
                        );
                        i += 1;
                    }
                    reader_rep
                        .late_us
                        .extend(pacer.lateness_ns().iter().map(|&ns| us(ns)));
                });
                let per_s = rates.reports_per_s / scene.spec.batch as f64;
                let mut pacer = Pacer::new(WallTime::at(origin), per_s);
                for (k, batch) in scene.timed.batches(scene.spec.batch).enumerate() {
                    let due = pacer.wait_for(k as u64);
                    writer.batch(batch, origin, Some(due), spans.as_deref_mut(), &mut rep);
                }
                done.store(true, Ordering::Relaxed);
                rep.late_us
                    .extend(pacer.lateness_ns().iter().map(|&ns| us(ns)));
            });
            rep.query_us = reader_rep.query_us;
            rep.attempted += reader_rep.attempted;
            rep.failed += reader_rep.failed;
            rep.late_us.extend(reader_rep.late_us);
            rep.body_bytes = reader_rep.body_bytes;
            if let (Some(rec), Some(reader)) = (spans.as_mut(), reader_spans) {
                rec.merge(reader);
            }
        }
    }
    writer.digest.snapshot(&server.query_snapshot());
    rep.digest = writer.digest.value();
    rep.fixes = writer.fix_err_m.len();
    rep.fix_err_p50_m = median(&writer.fix_err_m);
    rep.etas_scored = writer.eta_err_s.len();
    rep.eta_err_p50_s = median(&writer.eta_err_s);
    if let Some(rec) = spans.as_mut() {
        rep.history_records = rec.time("history.len", None, || server.with_store(|s| s.len()));
    }
    (rep, server)
}

/// Builds a default-config server, ingests the warm day and trains
/// where the workload trains. Returns the server and the seconds spent
/// in `WiLocator::new` and in `train()`: the workload's set-up time.
///
/// When tracing, automatic publication is off; the snapshot the default
/// configuration publishes inside `train()` is published explicitly.
pub fn set_up(scene: &Scene, spans: &mut Option<&mut Spans>) -> (WiLocator, f64, f64) {
    let is_traced = spans.is_some();
    let mut config = WiLocatorConfig::default();
    config.query.publish_on_ingest = !is_traced;
    let t = Instant::now();
    let server = traced(
        spans,
        "server.new",
        None,
        |_| 1,
        || WiLocator::new(&scene.server_field, scene.routes.clone(), config),
    );
    let new_s = t.elapsed().as_secs_f64();
    warm(&server, &scene.warm);
    let mut train_s = 0.0;
    if scene.spec.train {
        let t = Instant::now();
        traced(
            spans,
            "server.train",
            None,
            |_| 1,
            || server.train(scene.train_as_of()),
        );
        train_s = t.elapsed().as_secs_f64();
        if is_traced {
            server.publish_snapshot(scene.train_as_of());
        }
    }
    (server, new_s, train_s)
}

/// Ingests the warm day report by report, with the trip lifecycle.
/// Single-report `ingest` never publishes, so this only builds state.
fn warm(server: &WiLocator, replay: &Replay) {
    for batch in replay.batches(1) {
        replay
            .register(server, batch.clone())
            .expect("warm routes are served");
        for report in &replay.reports[batch.clone()] {
            server.ingest(report).expect("warm bus is registered");
        }
        replay
            .finish(server, batch)
            .expect("warm bus is registered");
    }
}
