//! Workload scenes: a simulated city, two service days of crowd-sensed
//! scan reports, and the ground truth to score them against. Everything
//! here is built from the seed before any timing starts; the server only
//! ever sees the generated reports and queries.

use std::collections::HashMap;
use std::ops::Range;

use wilocator_core::{BusKey, CoreError, ScanReport, WiLocator};
use wilocator_rf::HomogeneousField;
use wilocator_road::{Route, RouteId, Schedule, StopId};
use wilocator_sim::{
    simple_street, simulate, vancouver_like, CityConfig, LoadPlan, SimulationConfig, TrafficConfig,
    TrafficModel, Trajectory, DAY_S,
};

/// Seed of every workload's city layout and traffic field.
const CITY_SEED: u64 = 42;

/// The simulated city a workload runs in.
#[derive(Debug, Clone, Copy)]
pub enum CityKind {
    /// The paper's Table-I city: four routes, 249 stops, a shared main
    /// street.
    Metro,
    /// One straight street carrying one route.
    Street {
        /// Street length, metres.
        len_m: f64,
        /// Stops on the route.
        stops: usize,
    },
}

/// Rates of an open-loop workload.
#[derive(Debug, Clone, Copy)]
pub struct OpenLoop {
    /// Reports per second the writer offers (in whole batches).
    pub reports_per_s: f64,
    /// Rider queries per second the reader offers.
    pub queries_per_s: f64,
}

/// A workload's shape.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Workload name, as passed to `--workload`.
    pub name: &'static str,
    /// The city.
    pub city: CityKind,
    /// Departure headway on every route, seconds.
    pub headway_s: f64,
    /// Departure window of the warm day (day 0), hours of day.
    pub warm_h: (f64, f64),
    /// Departure window of the timed day (day 1), hours of day.
    pub timed_h: (f64, f64),
    /// Reports per `ingest_batch` call.
    pub batch: usize,
    /// Whether the server is trained on the warm day before the timed one.
    pub train: bool,
    /// Open-loop rates; `None` replays closed-loop.
    pub open_loop: Option<OpenLoop>,
}

impl Spec {
    /// Every benchmark workload, in `BENCHMARK.json` order.
    pub fn all() -> [Spec; 4] {
        let metro = Spec {
            name: "metro-day",
            city: CityKind::Metro,
            headway_s: 900.0,
            warm_h: (7.0, 10.0),
            timed_h: (8.0, 9.0),
            batch: 64,
            train: true,
            open_loop: None,
        };
        let street = CityKind::Street {
            len_m: 2_400.0,
            stops: 4,
        };
        [
            metro,
            Spec {
                name: "street-burst",
                city: street,
                headway_s: 30.0,
                warm_h: (7.0, 10.0),
                timed_h: (7.0, 10.0),
                batch: 1_024,
                train: true,
                open_loop: None,
            },
            Spec {
                name: "cold-start",
                city: street,
                headway_s: 60.0,
                warm_h: (6.0, 12.0),
                timed_h: (8.0, 10.0),
                batch: 64,
                train: false,
                open_loop: None,
            },
            // Each thread is offered a fixed share of its own measured
            // capacity on a 2-core Xeon VM, not `DEFAULT_QUERY_RATIO`'s
            // 1000 queries per report (see README, "Offered load"):
            // - writer: closed-loop `metro-day` ingests 6600 to 12400
            //   reports/s as the host's speed varies; 1200 is at most 18%
            //   of that, so no backlog grows even in a slow spell;
            // - reader: one query costs 8 to 17 µs (58k to 120k queries/s);
            //   5000 queries/s is 4–9% of that, and the highest rate whose
            //   200 µs period covers a query, the 100 µs yielding tail of a
            //   wait and a sleep's 50–100 µs overshoot, so the reader
            //   sleeps between queries and leaves the writer both cores.
            // At 1000:1, the reader's capacity would hold the writer to
            // 58–120 reports/s: at most two publications a second, too few
            // for a freshness percentile, with the writer idle 98–99% of
            // the time.
            Spec {
                name: "rider-read",
                open_loop: Some(OpenLoop {
                    reports_per_s: 1_200.0,
                    queries_per_s: 5_000.0,
                }),
                ..metro
            },
        ]
    }

    /// The workload called `name`.
    pub fn named(name: &str) -> Option<Spec> {
        Spec::all().into_iter().find(|s| s.name == name)
    }

    /// A scene small enough for unit tests.
    #[cfg(test)]
    pub fn tiny() -> Spec {
        Spec {
            name: "tiny",
            city: CityKind::Street {
                len_m: 600.0,
                stops: 3,
            },
            headway_s: 300.0,
            warm_h: (8.0, 8.5),
            timed_h: (8.0, 8.5),
            batch: 16,
            train: true,
            open_loop: None,
        }
    }
}

/// A time-ordered report stream with its trip lifecycle: each trip's bus
/// is registered just before its first report and finished after its
/// last, as a deployment sees buses start and end service.
#[derive(Debug, Clone)]
pub struct Replay {
    /// The reports, in global time order.
    pub reports: Vec<ScanReport>,
    /// Ground-truth arc length of the bus at each report.
    pub true_s: Vec<f64>,
    route: Vec<RouteId>,
    first: Vec<bool>,
    last: Vec<bool>,
}

impl Replay {
    fn from_plan(plan: &LoadPlan) -> Replay {
        let n = plan.events.len();
        let mut first = vec![false; n];
        let mut last = vec![false; n];
        let mut seen: HashMap<usize, usize> = HashMap::new();
        for (i, e) in plan.events.iter().enumerate() {
            if let Some(prev) = seen.insert(e.trip_id, i) {
                last[prev] = false;
            } else {
                first[i] = true;
            }
            last[i] = true;
        }
        Replay {
            reports: plan
                .events
                .iter()
                .map(|e| ScanReport {
                    bus: BusKey(e.trip_id as u64),
                    time_s: e.time_s,
                    scans: e.scans.clone(),
                })
                .collect(),
            true_s: plan.events.iter().map(|e| e.true_s).collect(),
            route: plan.events.iter().map(|e| e.route).collect(),
            first,
            last,
        }
    }

    /// Consecutive index ranges of at most `size` reports.
    pub fn batches(&self, size: usize) -> impl Iterator<Item = Range<usize>> + '_ {
        (0..self.reports.len())
            .step_by(size)
            .map(move |start| start..(start + size).min(self.reports.len()))
    }

    /// Registers every bus whose trip starts inside `batch`; returns the
    /// number of calls made.
    pub fn register(&self, server: &WiLocator, batch: Range<usize>) -> Result<usize, CoreError> {
        let mut calls = 0;
        for i in batch.filter(|&i| self.first[i]) {
            server.register_bus(self.reports[i].bus, self.route[i])?;
            calls += 1;
        }
        Ok(calls)
    }

    /// Finishes every bus whose trip ends inside `batch`; returns the
    /// number of calls made.
    pub fn finish(&self, server: &WiLocator, batch: Range<usize>) -> Result<usize, CoreError> {
        let mut calls = 0;
        for i in batch.filter(|&i| self.last[i]) {
            server.finish_bus(self.reports[i].bus)?;
            calls += 1;
        }
        Ok(calls)
    }

    /// The route of the trip behind report `i`.
    pub fn route_of(&self, i: usize) -> RouteId {
        self.route[i]
    }

    /// Whether report `i` is its trip's first.
    pub fn starts_trip(&self, i: usize) -> bool {
        self.first[i]
    }

    /// Whether report `i` is its trip's last.
    pub fn ends_trip(&self, i: usize) -> bool {
        self.last[i]
    }

    /// The newest report time inside `batch`.
    pub fn newest(&self, batch: Range<usize>) -> f64 {
        self.reports[batch]
            .iter()
            .map(|r| r.time_s)
            .fold(f64::NEG_INFINITY, f64::max)
    }
}

/// Everything a workload replays, built once per run from the seed.
#[derive(Debug)]
pub struct Scene {
    /// The workload's shape.
    pub spec: Spec,
    /// The served routes.
    pub routes: Vec<Route>,
    /// The server's geo-tag field.
    pub server_field: HomogeneousField,
    /// Day 0: ingested report by report before the timed replay (and
    /// trained on, when the workload trains).
    pub warm: Replay,
    /// Day 1: the timed replay.
    pub timed: Replay,
    /// Ground-truth motion of every timed trip, by bus key.
    pub truth: HashMap<BusKey, Trajectory>,
    /// Arc length of every stop, by route and stop.
    pub stop_s: HashMap<(RouteId, StopId), f64>,
    /// The timed day's plan (rider queries address its buses and stops).
    pub timed_plan: LoadPlan,
}

impl Scene {
    /// Simulates the workload's city and both service days. The city and
    /// its traffic field are fixed, as in one deployment; `seed` draws
    /// the days on them: every trip's dwells, signal waits and rider
    /// scans.
    pub fn build(spec: &Spec, seed: u64) -> Scene {
        let config = CityConfig::default();
        let (city, factors): (_, &[(u32, f64, f64)]) = match spec.city {
            // Route factors and congestion sensitivities of the paper's
            // scenario: the Rapid Line runs faster and feels less traffic.
            CityKind::Metro => (
                vancouver_like(CITY_SEED, &config),
                &[(0, 1.3, 0.25), (1, 1.0, 1.0), (2, 0.95, 1.0), (3, 0.9, 1.0)],
            ),
            CityKind::Street { len_m, stops } => {
                (simple_street(len_m, stops, CITY_SEED, &config), &[])
            }
        };
        let mut traffic = TrafficModel::new(
            &city.network,
            TrafficConfig::default(),
            CITY_SEED ^ 0x7_ABCD,
        );
        for &(route, factor, sensitivity) in factors {
            traffic.set_route_factor(RouteId(route), factor);
            traffic.set_congestion_sensitivity(RouteId(route), sensitivity);
        }
        let from_h = spec.warm_h.0.min(spec.timed_h.0);
        let to_h = spec.warm_h.1.max(spec.timed_h.1);
        let mut schedule = Schedule::new();
        for route in &city.routes {
            schedule.add_headway_service(
                route.id(),
                from_h * 3_600.0,
                to_h * 3_600.0,
                spec.headway_s,
            );
        }
        let sim = SimulationConfig {
            days: 2,
            seed: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x5EED,
            ..SimulationConfig::default()
        };
        let dataset = simulate(&city, &schedule, &traffic, &sim);
        let in_window = |departure_s: f64, day: u32, (a, b): (f64, f64)| {
            let tod_h = (departure_s - f64::from(day) * DAY_S) / 3_600.0;
            tod_h >= a && tod_h < b
        };
        let warm_plan = LoadPlan::from_trips(&dataset, |t| {
            t.day == 0 && in_window(t.departure_s, 0, spec.warm_h)
        });
        let timed_plan = LoadPlan::from_trips(&dataset, |t| {
            t.day == 1 && in_window(t.departure_s, 1, spec.timed_h)
        });
        let truth = dataset
            .trips
            .iter()
            .filter(|t| t.day == 1 && in_window(t.departure_s, 1, spec.timed_h))
            .map(|t| (BusKey(t.trip_id as u64), t.trajectory.clone()))
            .collect();
        let stop_s = city
            .routes
            .iter()
            .flat_map(|r| r.stops().iter().map(move |s| ((r.id(), s.id()), s.s())))
            .collect();
        Scene {
            spec: *spec,
            routes: city.routes,
            server_field: city.server_field,
            warm: Replay::from_plan(&warm_plan),
            timed: Replay::from_plan(&timed_plan),
            truth,
            stop_s,
            timed_plan,
        }
    }

    /// Stream time the server trains at: the start of the timed day,
    /// after every warm traversal has been recorded.
    pub fn train_as_of(&self) -> f64 {
        DAY_S
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifecycle_marks_each_trips_first_and_last_report() {
        let scene = Scene::build(&Spec::tiny(), 3);
        let replay = &scene.timed;
        assert!(!replay.reports.is_empty());
        let mut open: HashMap<BusKey, usize> = HashMap::new();
        for (i, r) in replay.reports.iter().enumerate() {
            if replay.first[i] {
                assert!(open.insert(r.bus, i).is_none(), "registered twice");
            }
            assert!(open.contains_key(&r.bus), "report before registration");
            if replay.last[i] {
                open.remove(&r.bus);
            }
        }
        assert!(open.is_empty(), "every trip is finished");
        assert_eq!(scene.truth.len(), scene.timed_plan.trip_ids().len());
    }

    #[test]
    fn scenes_are_reproducible_from_the_seed() {
        let a = Scene::build(&Spec::tiny(), 11);
        let b = Scene::build(&Spec::tiny(), 11);
        assert_eq!(a.timed.reports, b.timed.reports);
        assert_eq!(a.warm.reports, b.warm.reports);
        let c = Scene::build(&Spec::tiny(), 12);
        assert_ne!(a.timed.reports, c.timed.reports);
    }

    #[test]
    fn workload_names_resolve() {
        for spec in Spec::all() {
            assert_eq!(Spec::named(spec.name).map(|s| s.name), Some(spec.name));
        }
        assert!(Spec::named("nope").is_none());
    }
}
