//! Output digests: a 64-bit FNV-1a fold of every ingest result and of
//! the final published snapshot's rider-visible sections. Two replays
//! of the same inputs must produce the same digest; a digest that moves
//! means the program's answers moved.

use wilocator_core::{IngestResult, QuerySnapshot};

/// Running FNV-1a digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Folds one ingest result: the fix (position, time, method), the
    /// absence of one, or the error.
    pub fn result(&mut self, result: &IngestResult) {
        match result {
            Ok(Some(fix)) => {
                self.u64(1);
                self.f64(fix.s);
                self.f64(fix.time_s);
                self.f64(fix.point.x);
                self.f64(fix.point.y);
                self.bytes(fix.method.label().as_bytes());
            }
            Ok(None) => self.u64(2),
            Err(e) => {
                self.u64(3);
                self.bytes(e.to_string().as_bytes());
            }
        }
    }

    /// Folds the rider-visible sections of a snapshot: epoch, stamp, bus
    /// views, arrival tables and traffic maps. The quality sections carry
    /// wall-clock staleness and are left out.
    pub fn snapshot(&mut self, snap: &QuerySnapshot) {
        self.u64(snap.epoch);
        self.f64(snap.published_at_s);
        for (bus, view) in &snap.buses {
            self.u64(bus.0);
            self.u64(u64::from(view.route.0));
            self.f64(view.fix.s);
            self.f64(view.fix.time_s);
        }
        for ((route, stop), entries) in &snap.arrivals {
            self.u64(u64::from(route.0));
            self.u64(u64::from(stop.0));
            for entry in entries {
                self.u64(entry.bus.0);
                self.f64(entry.eta_s);
                self.f64(entry.from_fix_time_s);
            }
        }
        for (route, segments) in &snap.traffic {
            self.u64(u64::from(route.0));
            for segment in segments {
                self.u64(u64::from(segment.edge.0));
                self.bytes(segment.state.to_string().as_bytes());
                self.f64(segment.z);
            }
        }
    }

    /// The digest value.
    pub fn value(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scene::{Replay, Scene, Spec};
    use wilocator_core::{WiLocator, WiLocatorConfig};

    /// Replays `replay` through a fresh default-config server with the
    /// trip lifecycle, returning the digest of results plus final snapshot.
    fn digest_of(scene: &Scene, replay: &Replay) -> u64 {
        let server = WiLocator::new(
            &scene.server_field,
            scene.routes.clone(),
            WiLocatorConfig::default(),
        );
        let mut digest = Digest::default();
        for batch in replay.batches(16) {
            replay
                .register(&server, batch.clone())
                .expect("served route");
            for result in server.ingest_batch(&replay.reports[batch.clone()]) {
                digest.result(&result);
            }
            replay.finish(&server, batch).expect("registered bus");
        }
        digest.snapshot(&server.query_snapshot());
        digest.value()
    }

    #[test]
    fn replay_digest_is_stable_and_sensitive_to_one_report() {
        let scene = Scene::build(&Spec::tiny(), 7);
        let clean = digest_of(&scene, &scene.timed);
        assert_eq!(clean, digest_of(&scene, &scene.timed), "replays agree");

        // Perturb one reading of one report mid-stream: the strongest AP
        // heard drops out of the report, which moves that report's fix.
        let mut perturbed = scene.timed.clone();
        let victim = perturbed.reports.len() / 2;
        let scan = &mut perturbed.reports[victim].scans[0];
        let strongest = (0..scan.readings.len())
            .max_by_key(|&i| scan.readings[i].rss_dbm)
            .expect("scan hears an AP");
        scan.readings[strongest].rss_dbm -= 40;
        assert_ne!(clean, digest_of(&scene, &perturbed));
    }

    #[test]
    fn result_kinds_fold_differently() {
        let mut a = Digest::default();
        a.result(&Ok(None));
        let mut b = Digest::default();
        b.result(&Err(wilocator_core::CoreError::UnknownBus(
            wilocator_core::BusKey(1),
        )));
        assert_ne!(a, b);
        assert_ne!(a, Digest::default());
    }
}
