//! WiLocator end-to-end benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload metro-day --seed 1 --seconds 25 --trace 0
//! ```
//!
//! Replays one seeded workload through the public API of a default-config
//! server for `--seconds`, checks every output, prints each metric by
//! name and unit, and ends with one JSON line:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.
//! `--trace 0` reports the end-to-end metrics; `--trace 1` replays the same
//! inputs with a span around every layer call and reports the per-layer
//! table instead. See `perfbench/README.md`.

mod bench;
mod digest;
mod openloop;
mod scene;
mod spans;
mod stats;
mod validate;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use bench::{run_rep, set_up, QueryPool, Rep};
use scene::{Scene, Spec};
use spans::Spans;
use stats::{mean, median, percentile, ratio};

/// Set-ups every run times at least, so set-up time is a median: runs
/// whose repetitions are too long to make this many set up again alone.
const MIN_SETUPS: usize = 3;
/// Digests recorded for known `(workload, seed)` pairs.
const REFERENCE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/reference.txt");

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    record: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        record: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--record" {
            args.record = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if Spec::named(&args.workload).is_none() {
        let names: Vec<&str> = Spec::all().iter().map(|s| s.name).collect();
        return Err(format!("--workload must be one of {}", names.join(", ")));
    }
    Ok(args)
}

/// One printed metric. `None` means the run could not measure it, which
/// fails the run unless the metric does not apply to the workload.
struct Metric {
    name: String,
    value: Option<f64>,
    unit: &'static str,
    applies: bool,
}

fn metric(name: impl Into<String>, value: Option<f64>, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
        applies: true,
    }
}

/// A per-layer metric the workload has nothing to measure for, such as
/// open-loop lateness in a closed loop. The output must still name every
/// per-layer metric, so it prints as `n/a` and reads 0 in the JSON line.
fn not_applicable(name: impl Into<String>, unit: &'static str) -> Metric {
    Metric {
        applies: false,
        ..metric(name, None, unit)
    }
}

/// What a run reports.
struct Outcome {
    metrics: Vec<Metric>,
    digests: Vec<u64>,
    attempted: u64,
    failed: u64,
    invisible: u64,
}

impl Outcome {
    fn from_reps<'a>(reps: impl IntoIterator<Item = &'a Rep>, metrics: Vec<Metric>) -> Outcome {
        let mut out = Outcome {
            metrics,
            digests: Vec::new(),
            attempted: 0,
            failed: 0,
            invisible: 0,
        };
        for rep in reps {
            out.digests.push(rep.digest);
            out.attempted += rep.attempted;
            out.failed += rep.failed;
            out.invisible += rep.invisible;
        }
        out
    }
}

fn pooled(reps: &[Rep], field: impl Fn(&Rep) -> &[f64]) -> Vec<f64> {
    reps.iter().flat_map(|r| field(r).iter().copied()).collect()
}

/// Peak resident set of this process, MB.
fn rss_peak_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Which way a figure improves.
#[derive(Clone, Copy)]
enum Better {
    Higher,
    Lower,
}

/// Share of repetitions that meet or beat a reported speed figure.
const MET_BY: f64 = 0.75;

/// A speed figure as `MET_BY` of the repetitions meet or beat it: the
/// upper quartile across repetitions of a time, the lower quartile of a
/// rate. Each repetition replays the same inputs, so their figures differ
/// only by the host's speed. On a shared VM that speed can alternate
/// between states about 1.6× apart every few seconds; a median across
/// repetitions then jumps between the states, while the quartile stays
/// with the slow one whenever it holds a quarter of the run. On recorded
/// repetitions it matched the median overall, beating it while the host
/// alternated (README, "Host speed"). A 90th percentile is the slowest
/// repetition of a run of fewer than ten, so it lands on the occasional
/// slow repetition a calm host still has.
fn slow_reps(reps: &[Rep], better: Better, figure: impl Fn(&Rep) -> Option<f64>) -> Option<f64> {
    // Nearest rank on the "worse" side: negate rates so that both kinds
    // take the `MET_BY` quantile of how bad a repetition was.
    let sign = match better {
        Better::Higher => -1.0,
        Better::Lower => 1.0,
    };
    let worse: Vec<f64> = reps.iter().filter_map(figure).map(|v| sign * v).collect();
    percentile(&worse, MET_BY).map(|v| sign * v)
}

/// The untraced run: repetitions until `seconds` have passed. Set-up time
/// is the median of the run's set-ups; speed figures are per repetition,
/// as most repetitions meet them.
fn run_untraced(scene: &Scene, pool: &QueryPool, seed: u64, seconds: f64) -> Outcome {
    let start = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    while reps.is_empty() || start.elapsed().as_secs_f64() < seconds {
        reps.push(run_rep(scene, pool, seed, None).0);
    }
    let mut setup: Vec<f64> = reps.iter().map(|r| r.new_s + r.train_s).collect();
    while setup.len() < MIN_SETUPS {
        let (_, new_s, train_s) = set_up(scene, &mut None);
        setup.push(new_s + train_s);
    }
    let attempted: u64 = reps.iter().map(|r| r.attempted).sum();
    let failed: u64 = reps.iter().map(|r| r.failed).sum();
    println!(
        "reps {} ({} set-ups) | per rep: {} reports, {} batches, {} rider queries, {} fixes, {} ETAs scored",
        reps.len(),
        setup.len(),
        reps[0].reports,
        reps[0].visible_us.len(),
        reps[0].query_us.len(),
        reps[0].fixes,
        reps[0].etas_scored,
    );
    let metrics = vec![
        metric("setup_s", median(&setup), "s"),
        metric(
            "ingest_reports_per_s",
            slow_reps(&reps, Better::Higher, |r| Some(r.reports_per_s())),
            "reports/s",
        ),
        metric(
            "visible_p50_us",
            slow_reps(&reps, Better::Lower, |r| percentile(&r.visible_us, 0.5)),
            "us",
        ),
        // Tails are of one repetition: with 29 batches (`street-burst`) a
        // p99 is the slowest batch, and 464 queries leave 5 beyond a p99
        // but 23 beyond a p95. Not p90 for queries: traffic maps are
        // exactly 10% of the rider mix and the slowest kind, so p90 falls
        // on the edge between two modes.
        metric(
            "visible_p90_us",
            slow_reps(&reps, Better::Lower, |r| percentile(&r.visible_us, 0.9)),
            "us",
        ),
        metric(
            "query_p50_us",
            slow_reps(&reps, Better::Lower, |r| percentile(&r.query_us, 0.5)),
            "us",
        ),
        metric(
            "query_p95_us",
            slow_reps(&reps, Better::Lower, |r| percentile(&r.query_us, 0.95)),
            "us",
        ),
        metric(
            "answered_ratio",
            ratio((attempted - failed) as f64, attempted as f64),
            "ratio",
        ),
        // Every repetition replays the same inputs (their digests are
        // checked equal), so accuracy comes from the first.
        metric("fix_err_p50_m", reps[0].fix_err_p50_m, "m"),
        metric("eta_err_p50_s", reps[0].eta_err_p50_s, "s"),
        metric("rss_peak_mb", rss_peak_mb(), "MB"),
    ];
    Outcome::from_reps(&reps, metrics)
}

/// Which layer (repository module) a span name belongs to.
fn layer_of(span: &str) -> &'static str {
    match span.split('.').next() {
        Some("server") => "server",
        Some("svd") => "svd",
        Some("tracker") => "tracker",
        Some("predict") => "predict",
        Some("traffic") => "traffic_map",
        Some("history") => "history",
        Some("snapshot") => "snapshot",
        _ if span == "serve.parse" => "serve_http",
        _ if span.starts_with("serve.") => "serve_service",
        _ => "bench",
    }
}

/// The traced run: one untraced repetition (the overhead baseline and
/// digest), then traced repetitions until `seconds` have passed.
fn run_traced(scene: &Scene, pool: &QueryPool, seed: u64, seconds: f64) -> Outcome {
    let start = Instant::now();
    let (base, _) = run_rep(scene, pool, seed, None);
    let mut rec = Spans::new(Instant::now());
    let mut reps: Vec<Rep> = Vec::new();
    let server = loop {
        let (rep, server) = run_rep(scene, pool, seed, Some(&mut rec));
        reps.push(rep);
        if start.elapsed().as_secs_f64() >= seconds {
            break server;
        }
    };

    let table = rec.table();
    // Shares are of the replay's traced time; set-up is reported apart
    // as `server.new_s` and `server.train_s`.
    let is_setup = |name: &str| matches!(name, "server.new" | "server.train");
    let total_self: u64 = table
        .iter()
        .filter(|(name, _)| !is_setup(name))
        .map(|(_, r)| r.self_ns)
        .sum();
    println!(
        "\nper-layer table ({} traced reps; self time excludes child spans)",
        reps.len()
    );
    println!(
        "{:<26} {:<14} {:>8} {:>9} {:>11} {:>7} {:>10}",
        "span", "layer", "calls", "items", "self ms", "share", "us/item"
    );
    let mut shares: BTreeMap<&'static str, u64> = BTreeMap::new();
    for (name, row) in &table {
        let share = if is_setup(name) {
            0.0
        } else {
            *shares.entry(layer_of(name)).or_default() += row.self_ns;
            100.0 * row.self_ns as f64 / total_self.max(1) as f64
        };
        println!(
            "{:<26} {:<14} {:>8} {:>9} {:>11.2} {:>6.1}% {:>10.2}",
            name,
            layer_of(name),
            row.calls,
            row.items,
            row.self_ns as f64 / 1e6,
            share,
            row.total_ns as f64 / 1e3 / row.items.max(1) as f64,
        );
    }

    let per_item = |name: &str| {
        let (ns, items) = rec.total(name);
        ratio(ns as f64 / 1e3, items as f64)
    };
    let p = |name: &str, q: f64| percentile(&rec.per_item_us(name), q);
    let m = server.metrics();
    let family = |f: &str| m.counter_family_total(f) as f64;
    let mut lock_hold = wilocator_obs::HistogramSnapshot::default();
    for (key, h) in m.histograms() {
        if key.starts_with("wilocator_shard_lock_hold_us") {
            lock_hold.merge(h);
        }
    }
    let lock_hold_p99 = (lock_hold.count > 0).then(|| lock_hold.quantile(0.99) as f64);
    let fixes = [
        "exact",
        "tie_boundary",
        "nearest_signature",
        "dead_reckoned",
    ]
    .iter()
    .map(|k| family(&format!("svd_fix_{k}_total")))
    .sum::<f64>();
    let sizes: Vec<[usize; 3]> = reps.iter().flat_map(|r| r.snapshot_sizes.clone()).collect();
    let size = |k: usize| mean(&sizes.iter().map(|s| s[k] as f64).collect::<Vec<_>>());
    let traced_rate = median(&reps.iter().map(Rep::reports_per_s).collect::<Vec<_>>());
    let batch_ns = rec.total("batch").0 as f64;
    let batch_children: u64 = [
        "server.register",
        "server.ingest_batch",
        "server.publish",
        "server.finish",
    ]
    .iter()
    .map(|n| rec.total(n).0)
    .sum();

    let mut metrics = vec![
        metric("server.ingest_us", per_item("server.ingest_batch"), "us"),
        metric("server.publish_us_p50", p("server.publish", 0.5), "us"),
        metric("server.publish_us_p99", p("server.publish", 0.99), "us"),
        metric("server.register_us", p("server.register", 0.5), "us"),
        metric("server.finish_us", p("server.finish", 0.5), "us"),
        metric(
            "server.new_s",
            median(&reps.iter().map(|r| r.new_s).collect::<Vec<_>>()),
            "s",
        ),
        if scene.spec.train {
            metric(
                "server.train_s",
                median(&reps.iter().map(|r| r.train_s).collect::<Vec<_>>()),
                "s",
            )
        } else {
            not_applicable("server.train_s", "s")
        },
        metric("svd.rank_us", per_item("svd.rank"), "us"),
        metric("tracker.ingest_us", per_item("tracker.ingest"), "us"),
        metric(
            "tracker.fix_ratio",
            ratio(
                family("wilocator_fixes_total"),
                family("wilocator_reports_total"),
            ),
            "ratio",
        ),
        metric(
            "svd.exact_fix_ratio",
            ratio(family("svd_fix_exact_total"), fixes),
            "ratio",
        ),
        metric("predict.eta_us", p("predict.eta", 0.5), "us"),
        metric("traffic.route_map_us", p("traffic.route_map", 0.5), "us"),
        metric(
            "history.records",
            reps.last().map(|r| r.history_records as f64),
            "count",
        ),
        metric("snapshot.buses", size(0), "count"),
        metric("snapshot.arrival_entries", size(1), "count"),
        metric("snapshot.traffic_segments", size(2), "count"),
        metric("snapshot.read_us", p("snapshot.read", 0.5), "us"),
        metric("serve.parse_us", p("serve.parse", 0.5), "us"),
    ];
    for ep in ["arrivals", "position", "traffic"] {
        let span = format!("serve.respond.{ep}");
        metrics.push(metric(
            format!("serve.respond_us.{ep}.p50"),
            p(&span, 0.5),
            "us",
        ));
        metrics.push(metric(
            format!("serve.respond_us.{ep}.p99"),
            p(&span, 0.99),
            "us",
        ));
        let bytes: Vec<f64> = reps
            .iter()
            .flat_map(|r| r.body_bytes.get(ep).cloned().unwrap_or_default())
            .collect();
        metrics.push(metric(
            format!("serve.body_bytes.{ep}"),
            mean(&bytes),
            "bytes",
        ));
    }
    let late = pooled(&reps, |r| &r.late_us);
    metrics.extend([
        metric("server.lock_hold_us_p99", lock_hold_p99, "us"),
        // Closed-loop workloads have no schedule to fall behind.
        if scene.spec.open_loop.is_some() {
            metric("loadgen.late_p99_us", percentile(&late, 0.99), "us")
        } else {
            not_applicable("loadgen.late_p99_us", "us")
        },
        metric(
            "trace.overhead_ratio",
            traced_rate.and_then(|t| ratio(base.reports_per_s(), t)),
            "ratio",
        ),
        metric(
            "trace.batch_accounted_ratio",
            ratio(batch_children as f64, batch_ns),
            "ratio",
        ),
    ]);
    for layer in [
        "server",
        "svd",
        "tracker",
        "predict",
        "traffic_map",
        "history",
        "snapshot",
        "serve_http",
        "serve_service",
        "bench",
    ] {
        // A layer with no span at all was never timed: `None`, not 0.
        let ns = shares.get(layer).map(|&ns| ns as f64);
        metrics.push(metric(
            format!("share.{layer}"),
            ns.and_then(|ns| ratio(ns, total_self as f64)),
            "ratio",
        ));
    }
    Outcome::from_reps(std::iter::once(&base).chain(&reps), metrics)
}

/// `(workload, seed) → digest` pairs recorded in the reference file.
fn load_reference() -> BTreeMap<(String, u64), u64> {
    let text = std::fs::read_to_string(REFERENCE).unwrap_or_default();
    text.lines()
        .filter(|l| !l.trim_start().starts_with('#'))
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let workload = f.next()?.to_string();
            let seed = f.next()?.parse().ok()?;
            let digest = u64::from_str_radix(f.next()?, 16).ok()?;
            Some(((workload, seed), digest))
        })
        .collect()
}

/// Checks a run's digests: every repetition must agree, and agree with
/// the reference recorded for this workload and seed, if there is one.
fn check_digests(digests: &[u64], reference: Option<u64>) -> Result<u64, String> {
    let first = *digests.first().ok_or("no repetition ran")?;
    if let Some(other) = digests.iter().find(|&&d| d != first) {
        return Err(format!(
            "repetitions disagree: {first:016x} vs {other:016x}"
        ));
    }
    match reference {
        Some(want) if want != first => Err(format!(
            "digest {first:016x} differs from the reference {want:016x}"
        )),
        _ => Ok(first),
    }
}

/// Host details recorded beside every result.
fn host_line() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let commit = std::env::var("WILOCATOR_COMMIT").ok().or_else(git_head);
    format!(
        "host nproc={nproc} cpu=\"{cpu}\" commit={}",
        commit.as_deref().unwrap_or("unknown")
    )
}

/// The checked-out commit, read from `.git` without running git.
fn git_head() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .ok()
            .map(|s| s.trim().to_string()),
        None => Some(head.to_string()),
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\nusage: --workload NAME --seed N --seconds S --trace 0|1 [--record]");
            std::process::exit(2);
        }
    };
    let spec = Spec::named(&args.workload).expect("checked in parse_args");
    println!("{}", host_line());
    let t = Instant::now();
    let scene = Scene::build(&spec, args.seed);
    let pool = QueryPool::build(&scene, args.seed);
    println!(
        "workload {} seed {} | scene built in {:.2} s: {} routes, {} warm reports, {} timed reports in batches of {}",
        spec.name,
        args.seed,
        t.elapsed().as_secs_f64(),
        scene.routes.len(),
        scene.warm.reports.len(),
        scene.timed.reports.len(),
        spec.batch
    );

    let outcome = if args.trace {
        run_traced(&scene, &pool, args.seed, args.seconds)
    } else {
        run_untraced(&scene, &pool, args.seed, args.seconds)
    };

    let mut reference = load_reference();
    let key = (spec.name.to_string(), args.seed);
    let mut problems: Vec<String> = Vec::new();
    match check_digests(&outcome.digests, reference.get(&key).copied()) {
        Ok(digest) => {
            println!(
                "digest {digest:016x} ({} reps agree)",
                outcome.digests.len()
            );
            if args.record && !reference.contains_key(&key) {
                reference.insert(key, digest);
                let mut text = String::from("# workload seed digest\n");
                for ((w, s), d) in &reference {
                    let _ = writeln!(text, "{w} {s} {d:016x}");
                }
                if let Err(e) = std::fs::write(REFERENCE, text) {
                    problems.push(format!("cannot record the reference: {e}"));
                }
            }
        }
        Err(e) => problems.push(e),
    }
    if outcome.invisible > 0 {
        problems.push(format!(
            "{} batches were not visible in the snapshot after ingest",
            outcome.invisible
        ));
    }
    if outcome.attempted == 0 {
        problems.push("no operation was attempted".into());
    }
    if outcome.failed > 0 {
        problems.push(format!(
            "{} of {} operations failed",
            outcome.failed, outcome.attempted
        ));
    }
    // Every metric that applies to the workload must be measured: a span
    // that never fired (say, after a rename) fails the run.
    for m in &outcome.metrics {
        if m.applies && m.value.is_none_or(|v| !v.is_finite()) {
            problems.push(format!("{} was not measured", m.name));
        }
    }

    let mut json = String::new();
    for m in &outcome.metrics {
        let value = m.value.filter(|v| v.is_finite()).unwrap_or(0.0);
        let shown = if m.applies {
            format!("{value:.3}")
        } else {
            "n/a".to_string()
        };
        println!("metric {:<32} {:>16} {}", m.name, shown, m.unit);
        if !json.is_empty() {
            json.push_str(", ");
        }
        let _ = write!(
            json,
            "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    for p in &problems {
        println!("FAIL {p}");
    }
    let correct = problems.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        outcome.attempted, outcome.failed
    );
    std::process::exit(if correct { 0 } else { 1 });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_check_needs_agreement_and_the_reference() {
        assert_eq!(check_digests(&[7, 7, 7], None), Ok(7));
        assert_eq!(check_digests(&[7, 7], Some(7)), Ok(7));
        assert!(check_digests(&[7, 8], None).is_err());
        assert!(check_digests(&[7], Some(9)).is_err());
        assert!(check_digests(&[], None).is_err());
    }

    #[test]
    fn speed_figures_are_the_ones_most_repetitions_meet() {
        let reps: Vec<Rep> = (1..=10)
            .map(|i| Rep {
                reports: 100 * i,
                busy_s: 1.0,
                visible_us: vec![f64::from(i as u32)],
                ..Rep::default()
            })
            .collect();
        // Rates 100..1000 reports/s: three in four repetitions (8 of 10)
        // reach 300.
        assert_eq!(
            slow_reps(&reps, Better::Higher, |r| Some(r.reports_per_s())),
            Some(300.0)
        );
        // Latencies 1..10 µs: 8 of 10 repetitions stay within 8.
        assert_eq!(
            slow_reps(&reps, Better::Lower, |r| percentile(&r.visible_us, 0.5)),
            Some(8.0)
        );
        assert_eq!(slow_reps(&[], Better::Lower, |_| Some(1.0)), None);
    }

    #[test]
    fn spans_map_to_repository_layers() {
        assert_eq!(layer_of("server.publish"), "server");
        assert_eq!(layer_of("serve.parse"), "serve_http");
        assert_eq!(layer_of("serve.respond.arrivals"), "serve_service");
        assert_eq!(layer_of("traffic.route_map"), "traffic_map");
        assert_eq!(layer_of("batch"), "bench");
    }
}
