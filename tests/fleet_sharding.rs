//! The fleet orchestrator's contract:
//!
//! * a fleet report is bit-identical (timestamps ignored) to a single
//!   `DseDriver` run of the same spec, whatever the worker count;
//! * killing a worker mid-run still completes with every point exactly
//!   once (straggler reassignment + worker retirement);
//! * the snapshot directory holds one journal, `merged.json`: duplicate and
//!   torn records resume cleanly, whatever the worker count; a malformed
//!   journal, a journal answering a different spec and an earlier
//!   release's shard journals are refused, and the files are left as they
//!   were.

use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::Duration;

use db_pim::prelude::*;
use dbpim_fleet::{FleetConfig, FleetDriver, FleetError, FleetEvent, WorkerSpec};
use dbpim_serve::{ServeConfig, Server};

fn small_config() -> PipelineConfig {
    let mut config = PipelineConfig::fast().without_fidelity();
    config.width_mult = 0.25;
    config.calibration_images = 1;
    config.classes = 10;
    config
}

fn small_spec() -> DseSpec {
    DseSpec::new(
        ArchGrid::around(ArchConfig::paper()).with_macros(vec![2, 4]).with_rows(vec![32, 64]),
        vec![ModelKind::AlexNet, ModelKind::MobileNetV2],
    )
    .with_sparsity(vec![SparsityConfig::DenseBaseline, SparsityConfig::HybridSparsity])
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dbpim-fleet-test-{}-{name}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// The names of the files in `dir`, sorted.
fn file_names(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .expect("dir readable")
        .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    names
}

/// The headline bit-identity contract: a fleet of local workers produces a
/// report whose results match a single-driver run exactly, for one, two
/// and three workers.
#[test]
fn fleet_merge_is_bit_identical_to_a_single_driver_run() {
    let config = small_config();
    let spec = small_spec();
    let single = DseDriver::new(config).expect("valid config").run(&spec).expect("single run");
    assert!(single.is_complete());

    for workers in 1..=3 {
        let fleet_config = FleetConfig::new(config, vec![WorkerSpec::Local; workers]);
        let outcome = FleetDriver::new(fleet_config).run(&spec).expect("fleet run");
        assert!(outcome.report.is_complete(), "{workers} workers: incomplete report");
        assert!(
            outcome.report.results_match(&single),
            "{workers} workers: fleet report diverges from the single-driver run"
        );
        // Exactly-once: no duplicate points survived.
        let points: HashSet<String> =
            outcome.report.entries.iter().map(|e| e.point().label()).collect();
        assert_eq!(points.len(), outcome.report.entries.len(), "{workers} workers: duplicates");
        assert_eq!(outcome.stats.fresh_points, single.entries.len());
        assert_eq!(outcome.stats.resumed_points, 0);
        let worked: usize = outcome.stats.workers.iter().map(|w| w.points).sum();
        assert_eq!(worked, single.entries.len(), "{workers} workers: worker counters disagree");
    }
}

/// How long the kill test's observer waits for the event it orders on
/// before failing the test.
const ORDERING_TIMEOUT: Duration = Duration::from_secs(120);

/// A flag one thread raises and others wait on, for a bounded time.
#[derive(Default)]
struct Latch {
    raised: Mutex<bool>,
    cv: Condvar,
}

impl Latch {
    fn raise(&self) {
        *self.raised.lock().expect("latch lock") = true;
        self.cv.notify_all();
    }

    /// Blocks until the latch is raised; panics after [`ORDERING_TIMEOUT`].
    fn wait(&self, what: &str) {
        let raised = self.raised.lock().expect("latch lock");
        let (raised, _) = self
            .cv
            .wait_timeout_while(raised, ORDERING_TIMEOUT, |raised| !*raised)
            .expect("latch lock");
        assert!(*raised, "waited {ORDERING_TIMEOUT:?} for {what}");
    }
}

/// Killing a serve daemon mid-run retires its remote worker; the local
/// worker steals the unfinished points and the merged report still covers
/// every point exactly once, bit-identical to a single-driver run.
///
/// The observer runs on the worker threads, so blocking in it orders the
/// run: the remote worker claims nothing after its first point until its
/// daemon is shutting down, and the local worker steals nothing until the
/// remote one has retired. Without that, either side's cold model
/// preparation could win the race and let the local worker drain the
/// remote shard before the remote worker ever met the dead daemon.
#[test]
fn killing_a_worker_mid_run_reassigns_its_points() {
    let config = small_config();
    let spec = DseSpec::new(
        ArchGrid::around(ArchConfig::paper()).with_macros(vec![2, 4, 8]).with_rows(vec![32, 64]),
        vec![ModelKind::AlexNet, ModelKind::MobileNetV2],
    )
    .with_sparsity(vec![SparsityConfig::DenseBaseline, SparsityConfig::HybridSparsity]);
    let total = spec.points(config.operand_width, config.pruning).expect("feasible").len();
    assert_eq!(total, 12);

    // The daemon requires auth, so this test also proves remote workers
    // authenticate on every (re)connect before claiming points.
    let handle = Server::spawn(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 2,
        poll_interval: Duration::from_millis(50),
        pipeline: config,
        auth_token: Some("fleet-secret".to_string()),
        ..ServeConfig::default()
    })
    .expect("server spawns");
    let addr = handle.addr().to_string();

    // Kill the daemon as soon as the remote worker (index 0) completes its
    // first point — "mid-run" because its contiguous shard holds half the
    // grid.
    let shutdown_requested = Arc::new(Latch::default());
    let remote_retired = Latch::default();
    let (kill_tx, kill_rx) = mpsc::channel::<()>();
    let killer = {
        let shutdown_requested = Arc::clone(&shutdown_requested);
        std::thread::spawn(move || {
            // Even if the signal never arrives (remote worker dead on
            // arrival), shut the daemon down so the test cannot leak it.
            let _ = kill_rx.recv_timeout(ORDERING_TIMEOUT);
            handle.request_shutdown();
            shutdown_requested.raise();
            handle.join()
        })
    };

    let fleet_config = FleetConfig::new(config, vec![WorkerSpec::Remote(addr), WorkerSpec::Local])
        .with_point_timeout(Duration::from_secs(30))
        .with_fleet_id("kill-test")
        .with_auth_token("fleet-secret");
    let driver = FleetDriver::new(fleet_config).with_observer(move |event| match event {
        FleetEvent::PointDone { worker: 0, .. } => {
            let _ = kill_tx.send(());
            shutdown_requested.wait("the daemon's shutdown request");
        }
        FleetEvent::PointDone { worker: 1, .. } => {
            remote_retired.wait("the remote worker's retirement");
        }
        FleetEvent::WorkerRetired { worker: 0, .. } => remote_retired.raise(),
        _ => {}
    });
    let outcome = driver.run(&spec).expect("fleet survives the worker kill");
    killer.join().expect("killer thread").expect("daemon exits cleanly");

    assert!(outcome.report.is_complete(), "killed worker left gaps");
    let points: HashSet<String> =
        outcome.report.entries.iter().map(|e| e.point().label()).collect();
    assert_eq!(points.len(), total, "a point ran twice into the report");

    // The remote worker died before finishing its 6-point shard, so the
    // local worker must have stolen work; the run records both.
    let remote = &outcome.stats.workers[0];
    let local = &outcome.stats.workers[1];
    assert!(remote.points < 6, "remote finished its whole shard before the kill: {remote:?}");
    assert!(remote.retired.is_some(), "remote worker never retired: {remote:?}");
    assert!(local.points > 6, "local worker stole nothing: {local:?}");
    assert!(outcome.stats.reassigned_points >= 1, "{:?}", outcome.stats);
    assert!(outcome.stats.retried_attempts >= 1, "{:?}", outcome.stats);

    // And none of it changed the numbers.
    let single = DseDriver::new(config).expect("valid config").run(&spec).expect("single run");
    assert!(outcome.report.results_match(&single), "kill/reassign changed results");
}

/// Duplicate journal records dedupe on adoption, a half-written final
/// record is dropped with a diagnostic (and its point recomputed), and the
/// resumed fleet recomputes only the genuinely missing points.
#[test]
fn overlapping_and_half_written_shard_snapshots_resume_cleanly() {
    let config = small_config();
    let spec = small_spec();
    let single = DseDriver::new(config).expect("valid config").run(&spec).expect("single run");
    let total = single.entries.len();
    assert_eq!(total, 8);

    let dir = temp_dir("adversarial");
    let path = dir.join("merged.json");
    // Entries 0..3, then 2..5 appended: entry 2 twice, together 0..5.
    let mut adopted = DseReport::empty(spec.clone(), total);
    adopted.entries = single.entries[0..3].to_vec();
    let journal = DseJournal::create(&path, &adopted).expect("journal writes");
    for entry in &single.entries[2..5] {
        journal.append(entry).expect("record appends");
    }
    drop(journal);
    // A half-written record, as a kill mid-append leaves: valid prefix, no
    // newline.
    let record = serde_json::to_string(&single.entries[5]).expect("serializes");
    let mut text = std::fs::read_to_string(&path).expect("journal readable");
    text.push_str(&record[..record.len() / 2]);
    std::fs::write(&path, text).expect("torn record writes");

    let fleet_config = FleetConfig::new(config, vec![WorkerSpec::Local]).with_snapshot_dir(&dir);
    let outcome = FleetDriver::new(fleet_config).run(&spec).expect("resume runs");

    assert!(outcome.report.results_match(&single), "resumed fleet diverges");
    assert_eq!(outcome.stats.resumed_points, 5, "overlap was not deduped: {:?}", outcome.stats);
    assert_eq!(outcome.stats.fresh_points, total - 5, "resume recomputed adopted points");
    assert!(
        outcome.stats.diagnostics.iter().any(|d| d.contains("torn") && d.contains("merged.json")),
        "torn record was not diagnosed: {:?}",
        outcome.stats.diagnostics
    );

    // The run left a valid journal behind: each point once.
    let merged = DseReport::load(&path).expect("merged snapshot loads");
    assert!(merged.results_match(&single));
    let text = std::fs::read_to_string(&path).expect("journal readable");
    assert_eq!(text.lines().count(), 1 + total, "a header and one line per point");
    std::fs::remove_dir_all(&dir).ok();
}

/// A snapshot recorded under a different spec refuses to resume — a
/// structured error, never a silent partial mix — and is left untouched.
#[test]
fn mismatched_spec_shards_are_refused() {
    let config = small_config();
    let spec = small_spec();
    let foreign_spec = small_spec().with_sparsity(vec![SparsityConfig::HybridSparsity]);
    let dir = temp_dir("mismatch");
    let path = dir.join("merged.json");
    DseReport::empty(foreign_spec, 4).save(&path).expect("foreign saves");
    let before = std::fs::read(&path).expect("readable");

    let fleet_config = FleetConfig::new(config, vec![WorkerSpec::Local]).with_snapshot_dir(&dir);
    let err = FleetDriver::new(fleet_config).run(&spec).expect_err("foreign journal must refuse");
    assert!(matches!(err, FleetError::SnapshotSpecMismatch { .. }), "{err}");
    assert!(err.to_string().contains("different spec"), "{err}");
    assert_eq!(std::fs::read(&path).expect("readable"), before, "the refusal rewrote the file");
    std::fs::remove_dir_all(&dir).ok();
}

/// A journal whose header answers another spec is refused like a whole
/// foreign report.
#[test]
fn foreign_spec_journal_headers_are_refused() {
    let config = small_config();
    let foreign_spec = small_spec().with_sparsity(vec![SparsityConfig::HybridSparsity]);
    let dir = temp_dir("foreign-journal");
    DseJournal::create(dir.join("merged.json"), &DseReport::empty(foreign_spec, 4))
        .expect("foreign journal writes");

    let fleet_config = FleetConfig::new(config, vec![WorkerSpec::Local]).with_snapshot_dir(&dir);
    let err = FleetDriver::new(fleet_config).run(&small_spec()).expect_err("must refuse");
    assert!(matches!(err, FleetError::SnapshotSpecMismatch { .. }), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

/// The snapshot is a journal: a finished run leaves a header plus one line
/// per point. Cutting the last record short, as a kill mid-append would,
/// costs exactly that point on resume, and the diagnostics name the file.
#[test]
fn a_torn_shard_journal_record_recomputes_only_that_point() {
    let config = small_config();
    let spec = small_spec();
    let single = DseDriver::new(config).expect("valid config").run(&spec).expect("single run");
    let dir = temp_dir("torn-journal");
    let fleet = || {
        let fleet_config =
            FleetConfig::new(config, vec![WorkerSpec::Local]).with_snapshot_dir(&dir);
        FleetDriver::new(fleet_config).run(&spec).expect("fleet runs")
    };
    fleet();
    let path = dir.join("merged.json");
    let text = std::fs::read_to_string(&path).expect("journal readable");
    assert_eq!(text.lines().count(), 1 + 8, "a header and one line per point");

    let file = std::fs::OpenOptions::new().write(true).open(&path).expect("opens");
    file.set_len(text.len() as u64 - 20).expect("cuts the last record");
    drop(file);

    let outcome = fleet();
    assert_eq!(outcome.stats.resumed_points, 7, "{:?}", outcome.stats);
    assert_eq!(outcome.stats.fresh_points, 1, "only the torn point is recomputed");
    assert!(outcome.report.results_match(&single), "resumed fleet diverges");
    let diagnostics = &outcome.stats.diagnostics;
    assert!(
        diagnostics.iter().any(|d| d.contains("torn") && d.contains("merged.json")),
        "{diagnostics:?}"
    );
    // The resume rewrote the journal without the torn tail.
    assert_eq!(DseReport::load_journal(&path).expect("loads").1, None);
    std::fs::remove_dir_all(&dir).ok();
}

/// A journal with a malformed line before its last is not a kill's torn
/// record: the run fails with an error naming the file and leaves it byte
/// for byte as it was, instead of recomputing every point over it.
#[test]
fn a_malformed_middle_journal_line_fails_the_run_and_leaves_the_file() {
    let config = small_config();
    let spec = small_spec();
    let dir = temp_dir("malformed-journal");
    let fleet_config = FleetConfig::new(config, vec![WorkerSpec::Local]).with_snapshot_dir(&dir);
    FleetDriver::new(fleet_config.clone()).run(&spec).expect("cold run");
    let path = dir.join("merged.json");
    let text = std::fs::read_to_string(&path).expect("journal readable");
    let mut lines: Vec<&str> = text.lines().collect();
    lines[3] = "{\"kind\"";
    let malformed = format!("{}\n", lines.join("\n"));
    std::fs::write(&path, &malformed).expect("malformed journal writes");

    let err = FleetDriver::new(fleet_config).run(&spec).expect_err("malformed journal must fail");
    assert!(matches!(err, FleetError::BadConfig { .. }), "{err}");
    assert!(err.to_string().contains(&path.display().to_string()), "{err}");
    assert_eq!(std::fs::read_to_string(&path).expect("readable"), malformed, "file rewritten");
    std::fs::remove_dir_all(&dir).ok();
}

/// A directory holding an earlier release's per-shard journals is refused
/// with an error naming them, before anything is written there.
#[test]
fn earlier_release_shard_journals_are_refused() {
    let config = small_config();
    let spec = small_spec();
    let dir = temp_dir("legacy-shards");
    for name in ["shard-000.json", "shard-001.json"] {
        DseJournal::create(dir.join(name), &DseReport::empty(spec.clone(), 8))
            .expect("shard journal writes");
    }

    let fleet_config = FleetConfig::new(config, vec![WorkerSpec::Local]).with_snapshot_dir(&dir);
    let err = FleetDriver::new(fleet_config).run(&spec).expect_err("shard journals must refuse");
    match &err {
        FleetError::LegacyShardJournals { files } => {
            assert_eq!(files, &[dir.join("shard-000.json"), dir.join("shard-001.json")]);
        }
        other => panic!("expected LegacyShardJournals, got {other}"),
    }
    let message = err.to_string();
    assert!(message.contains("shard-000.json") && message.contains("shard-001.json"), "{message}");
    assert_eq!(file_names(&dir), ["shard-000.json", "shard-001.json"], "the refusal wrote a file");
    std::fs::remove_dir_all(&dir).ok();
}

/// Snapshots written before journals existed — one whole report on one
/// line, as `DseReport::save` writes and the fleet's closing merge once
/// wrote `merged.json` — are adopted.
#[test]
fn legacy_one_line_shard_snapshots_resume() {
    let config = small_config();
    let spec = small_spec();
    let single = DseDriver::new(config).expect("valid config").run(&spec).expect("single run");
    let dir = temp_dir("legacy-merged");
    let mut legacy = single.clone();
    legacy.entries.truncate(3);
    let json = serde_json::to_string(&legacy).expect("serializes");
    assert!(!json.contains('\n'));
    std::fs::write(dir.join("merged.json"), json).expect("legacy snapshot writes");

    let fleet_config = FleetConfig::new(config, vec![WorkerSpec::Local, WorkerSpec::Local])
        .with_snapshot_dir(&dir);
    let outcome = FleetDriver::new(fleet_config).run(&spec).expect("fleet resumes");
    assert_eq!(outcome.stats.resumed_points, 3);
    assert_eq!(outcome.stats.fresh_points, 5);
    assert!(outcome.report.results_match(&single));
    std::fs::remove_dir_all(&dir).ok();
}

/// One journal serves every worker count: a two-worker run, resumed with
/// one worker and then three, computes nothing on either resume, and the
/// directory holds only `merged.json`, a header and one line per point.
#[test]
fn resuming_with_any_worker_count_adopts_every_journaled_point() {
    let config = small_config();
    let spec = small_spec();
    let single = DseDriver::new(config).expect("valid config").run(&spec).expect("single run");
    let dir = temp_dir("any-worker-count");
    let fleet = |workers: usize| {
        let fleet_config =
            FleetConfig::new(config, vec![WorkerSpec::Local; workers]).with_snapshot_dir(&dir);
        FleetDriver::new(fleet_config).run(&spec).expect("fleet runs")
    };
    let cold = fleet(2);
    assert_eq!((cold.stats.resumed_points, cold.stats.fresh_points), (0, 8));

    for workers in [1, 3] {
        let resumed = fleet(workers);
        assert_eq!(
            (resumed.stats.resumed_points, resumed.stats.fresh_points),
            (8, 0),
            "{workers} workers"
        );
        assert!(resumed.stats.diagnostics.is_empty(), "{:?}", resumed.stats.diagnostics);
        assert!(resumed.report.results_match(&single), "{workers} workers: resume diverges");
        assert_eq!(file_names(&dir), ["merged.json"]);
        let journal = std::fs::read_to_string(dir.join("merged.json")).expect("readable");
        assert_eq!(journal.lines().count(), 1 + 8, "a header and one line per point");
        let merged = DseReport::load(dir.join("merged.json")).expect("merged loads");
        assert!(merged.results_match(&single), "merged.json diverges");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Two local workers appending to the one journal leave only whole,
/// parseable lines, also when both append points of one block. Points 4..8
/// are resumed, so each worker's block holds 2 of the 4 missing points.
/// Worker 1 waits before its first claim until worker 0 has drained its own
/// block and stolen the front of worker 1's, and worker 0 then waits until
/// worker 1 has finished the other.
#[test]
fn workers_sharing_a_shard_append_only_parseable_lines() {
    let config = small_config();
    let spec = small_spec();
    let single = DseDriver::new(config).expect("valid config").run(&spec).expect("single run");
    let dir = temp_dir("shared-journal");
    // The canonical entry order is the point order.
    let mut resumed = single.clone();
    resumed.entries = single.entries[4..].to_vec();
    resumed.save(dir.join("merged.json")).expect("the snapshot saves");

    let (drained, finished) = (Latch::default(), Latch::default());
    let fleet_config = FleetConfig::new(config, vec![WorkerSpec::Local, WorkerSpec::Local])
        .with_snapshot_dir(&dir);
    let driver = FleetDriver::new(fleet_config).with_observer(move |event| match event {
        FleetEvent::WorkerReady { worker: 1, .. } => drained.wait("worker 0 stealing from block 1"),
        FleetEvent::PointDone { worker: 0, stolen: true, .. } => {
            drained.raise();
            finished.wait("worker 1 finishing its own point");
        }
        FleetEvent::PointDone { worker: 1, .. } => finished.raise(),
        _ => {}
    });
    let outcome = driver.run(&spec).expect("fleet runs");
    assert!(outcome.report.results_match(&single));
    assert_eq!((outcome.stats.resumed_points, outcome.stats.fresh_points), (4, 4));
    let worked: Vec<usize> = outcome.stats.workers.iter().map(|w| w.points).collect();
    assert_eq!(worked, [3, 1], "{:?}", outcome.stats);
    assert_eq!(outcome.stats.reassigned_points, 1, "{:?}", outcome.stats);

    let text = std::fs::read_to_string(dir.join("merged.json")).expect("journal readable");
    let mut lines = text.lines();
    let header: DseReport = serde_json::from_str(lines.next().expect("header")).expect("parses");
    assert_eq!(header.spec, spec);
    let records: Vec<DseEntry> =
        lines.map(|line| serde_json::from_str(line).expect("every record parses")).collect();
    assert_eq!(records.len(), 8, "the 4 adopted entries, then one line per fresh point");
    std::fs::remove_dir_all(&dir).ok();
}

/// Every roster worker starts, also when the run computes fewer points
/// than the roster has workers: a dead endpoint listed before a local
/// worker retires, and the local worker steals the run's one point.
#[test]
fn a_local_worker_after_a_dead_endpoint_finishes_a_one_point_run() {
    let config = small_config();
    let spec = DseSpec::new(ArchGrid::around(ArchConfig::paper()), vec![ModelKind::AlexNet])
        .with_sparsity(vec![SparsityConfig::HybridSparsity]);
    let single = DseDriver::new(config).expect("valid config").run(&spec).expect("single run");
    // Port 9 (discard) on loopback: nothing is listening.
    let roster = vec![WorkerSpec::Remote("127.0.0.1:9".to_string()), WorkerSpec::Local];
    let fleet_config =
        FleetConfig::new(config, roster).with_point_timeout(Duration::from_millis(300));
    let outcome = FleetDriver::new(fleet_config).run(&spec).expect("the local worker finishes");
    assert!(outcome.report.results_match(&single), "the fleet diverges");
    let stats = &outcome.stats;
    assert_eq!((stats.workers[1].points, stats.reassigned_points), (1, 1), "{stats:?}");
    assert_eq!(stats.workers[0].label, "remote(127.0.0.1:9)");
    assert!(stats.workers[0].retired.is_some(), "{stats:?}");
    // A retirement is reported once, by its worker, and not as a note.
    assert!(stats.diagnostics.iter().all(|d| !d.contains("retired")), "{stats:?}");
}

/// A fleet whose only worker is a dead endpoint stalls with a structured
/// error naming the diagnostics instead of hanging or panicking.
#[test]
fn a_fleet_of_only_dead_endpoints_stalls_with_diagnostics() {
    let config = small_config();
    let spec = DseSpec::new(ArchGrid::around(ArchConfig::paper()), vec![ModelKind::AlexNet])
        .with_sparsity(vec![SparsityConfig::HybridSparsity]);
    // Port 9 (discard) on loopback: nothing is listening.
    let fleet_config =
        FleetConfig::new(config, vec![WorkerSpec::Remote("127.0.0.1:9".to_string())])
            .with_point_timeout(Duration::from_millis(300));
    let err = FleetDriver::new(fleet_config).run(&spec).expect_err("dead fleet must stall");
    match &err {
        FleetError::Stalled { completed, total, diagnostics } => {
            assert_eq!(*completed, 0);
            assert_eq!(*total, 1);
            assert!(
                diagnostics.iter().any(|d| d.contains("127.0.0.1:9")),
                "diagnostics do not name the dead endpoint: {diagnostics:?}"
            );
        }
        other => panic!("expected Stalled, got {other}"),
    }
}
