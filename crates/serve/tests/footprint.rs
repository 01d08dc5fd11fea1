//! The daemon's process footprint: threads and memory must track live
//! connections, not every connection ever accepted.  Both tests read
//! process-wide `/proc/self` figures, so they hold one lock and skip
//! where `/proc` is absent.

mod common;

use std::sync::Mutex;
use std::time::{Duration, Instant};

use common::{start, TestConn};
use mdes_machines::Machine;
use mdes_serve::ServeConfig;

/// Serializes the tests in this file: each owns the process's figures
/// while it runs.
static PROCESS: Mutex<()> = Mutex::new(());

const V1_SCHEDULE: &str =
    "{\"verb\": \"schedule\", \"regions\": 1, \"mean_ops\": 4, \"seed\": 7, \"jobs\": 1}";
const V2_SCHEDULE: &str =
    "{\"id\": 9, \"verb\": \"schedule\", \"regions\": 1, \"mean_ops\": 4, \"seed\": 7, \"jobs\": 1}";

fn have_proc() -> bool {
    let present = std::path::Path::new("/proc/self/status").exists();
    if !present {
        eprintln!("skipped: /proc is not mounted");
    }
    present
}

/// A `kB`- or count-valued field of `/proc/self/status`.
fn status_field(name: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|line| line.strip_prefix(name)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
        .unwrap_or_else(|| panic!("/proc/self/status has no {name}"))
}

fn mappings() -> u64 {
    let maps = std::fs::read_to_string("/proc/self/maps").expect("read /proc/self/maps");
    maps.lines().count() as u64
}

/// The thread count once it has stopped moving (a thread that just ran
/// another test may still be exiting).
fn settled_threads() -> u64 {
    let mut last = status_field("Threads");
    loop {
        std::thread::sleep(Duration::from_millis(50));
        let now = status_field("Threads");
        if now == last {
            return now;
        }
        last = now;
    }
}

/// Waits (up to 5 s) for the thread count to reach `want`, then checks
/// it stays there.
fn expect_threads(want: u64, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while status_field("Threads") != want && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(settled_threads(), want, "{what}");
}

#[test]
fn connection_churn_leaves_no_threads_or_memory_behind() {
    let _process = PROCESS.lock().unwrap_or_else(|poison| poison.into_inner());
    if !have_proc() {
        return;
    }
    let (handle, addr) = start(Machine::K5, "churn", ServeConfig::default());
    let cycle = || {
        let mut conn = TestConn::open(&addr);
        let reply = conn.round_trip(V1_SCHEDULE);
        assert!(reply.ok, "{:?}", reply.body);
    };

    // Warm up: allocator arenas, stack caches and the daemon's own
    // buffers reach their working size.
    for _ in 0..300 {
        cycle();
    }
    let (maps, rss_kb, threads) = (mappings(), status_field("VmRSS"), settled_threads());
    for _ in 0..3_000 {
        cycle();
    }
    let (maps_after, rss_after, threads_after) =
        (mappings(), status_field("VmRSS"), settled_threads());

    // An unreaped connection thread keeps its stack and guard page (two
    // mappings, ~12 KiB resident) for the daemon's lifetime: 3 000 of
    // them would add ~6 000 mappings and ~37 MiB.
    assert!(
        maps_after <= maps + 64,
        "mappings grew from {maps} to {maps_after} over 3000 connections"
    );
    assert!(
        rss_after <= rss_kb + 4 * 1024,
        "VmRSS grew from {rss_kb} kB to {rss_after} kB over 3000 connections"
    );
    assert!(
        threads_after <= threads + 2,
        "threads grew from {threads} to {threads_after} over 3000 connections"
    );

    handle.shutdown();
    handle.join();
}

#[test]
fn only_pipelining_connections_start_a_writer_thread() {
    let _process = PROCESS.lock().unwrap_or_else(|poison| poison.into_inner());
    if !have_proc() {
        return;
    }
    let (handle, addr) = start(Machine::K5, "threads", ServeConfig::default());
    let idle = settled_threads();

    // A v1 connection costs its reader thread and nothing else: the
    // reader writes v1 replies itself.
    let mut conn = TestConn::open(&addr);
    for _ in 0..3 {
        assert!(conn.round_trip(V1_SCHEDULE).ok);
    }
    expect_threads(idle + 1, "an open v1 connection runs exactly one thread");

    // The first id-tagged request starts the connection's writer.
    let reply = conn.round_trip(V2_SCHEDULE);
    assert!(reply.ok && reply.id == 9, "{:?}", reply.body);
    expect_threads(idle + 2, "pipelining adds exactly one writer thread");
    assert!(conn.round_trip(V1_SCHEDULE).ok);
    assert!(conn.round_trip(V2_SCHEDULE).ok);
    expect_threads(idle + 2, "the writer is started once per connection");

    // Closing the connection ends both; the next accept reaps them.
    drop(conn);
    let mut next = TestConn::open(&addr);
    assert!(next.round_trip(V1_SCHEDULE).ok);
    expect_threads(idle + 1, "a closed connection's threads are gone");

    drop(next);
    handle.shutdown();
    handle.join();
}
