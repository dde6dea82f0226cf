//! The threads a query runs equal its admission worker grant, and none
//! outlive the stream. Only scan leaves run threads; the plan's operators
//! (limit, sort, aggregate, set ops) run on the consumer's thread.
//!
//! Linux only: counts threads through `/proc/self/task`. This file holds
//! a single test so no sibling test threads run beside it.
#![cfg(target_os = "linux")]

use sdss_catalog::SkyModel;
use sdss_query::{AdmissionConfig, Archive, ArchiveConfig};
use sdss_storage::{ObjectStore, StoreConfig, TagStore};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn live_threads() -> usize {
    std::fs::read_dir("/proc/self/task").unwrap().count()
}

/// The thread count once it has held still for 200 ms (bounded wait).
fn settled_threads() -> usize {
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut last = live_threads();
    let mut still_since = Instant::now();
    while still_since.elapsed() < Duration::from_millis(200) && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
        let now = live_threads();
        if now != last {
            last = now;
            still_since = Instant::now();
        }
    }
    last
}

#[test]
fn open_stream_runs_at_most_its_grant_and_leaks_no_threads() {
    let model = SkyModel {
        n_galaxies: 12000,
        n_stars: 4000,
        n_quasars: 1000,
        ..SkyModel::small(61)
    };
    let mut store = ObjectStore::new(StoreConfig::default()).unwrap();
    store.insert_batch(&model.generate().unwrap()).unwrap();
    let tags = TagStore::from_store(&store);
    let archive = Archive::with_config(
        Arc::new(store),
        Some(Arc::new(tags)),
        ArchiveConfig {
            admission: AdmissionConfig {
                max_workers_per_query: 1,
                ..AdmissionConfig::default()
            },
            ..ArchiveConfig::default()
        },
    );
    let prepared = archive
        .prepare("SELECT objid, r FROM photoobj ORDER BY r LIMIT 5000")
        .unwrap();

    let baseline = settled_threads();
    // Open the stream and never pull it: whatever runs now runs without
    // the consumer's help.
    let stream = prepared.stream().unwrap();
    let open = settled_threads();
    let stats = stream.finish();
    assert_eq!(stats.workers_granted, 1);
    assert!(
        open <= baseline + stats.workers_granted,
        "{} threads beside the baseline of {baseline} for a grant of {}",
        open - baseline,
        stats.workers_granted
    );

    // Finishing the stream releases every thread it started.
    let deadline = Instant::now() + Duration::from_secs(5);
    while live_threads() > baseline {
        assert!(
            Instant::now() < deadline,
            "{} threads still alive after finish()",
            live_threads() - baseline
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}
