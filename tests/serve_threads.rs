//! The deck service's thread bound: connections never add threads.
//!
//! A thread count is process-wide, so this file holds one test and no
//! other test's server shares its process.

#![cfg(target_os = "linux")]

use std::io::Read;
use std::net::TcpStream;
use std::time::Duration;

use cafemio::batch::BatchOptions;
use cafemio_serve::{ServeOptions, Server};

/// The threads of this process.
fn threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs lists this process's threads")
        .count()
}

/// The status code of a raw response, and how many responses it holds.
fn status_and_count(response: &[u8]) -> (u16, usize) {
    let text = String::from_utf8_lossy(response);
    let status = text
        .split_whitespace()
        .nth(1)
        .and_then(|code| code.parse().ok())
        .unwrap_or(0);
    (status, text.matches("HTTP/1.1 ").count())
}

#[test]
fn idle_connections_past_the_pool_add_no_threads_and_each_gets_one_answer() {
    let batch = BatchOptions::new().workers(1).max_in_flight(1);
    // `max_in_flight + 1` connection workers, behind a queue as deep.
    let pool = batch.in_flight_bound() + 1;
    let server = Server::start(
        ServeOptions::new()
            .batch(batch)
            .read_timeout(Duration::from_millis(300)),
    )
    .expect("start");
    let bound = threads();

    // Connections that never send a byte: the workers wait out the read
    // timeout on the first ones, and the accept loop refuses the rest.
    let mut idle: Vec<TcpStream> = (0..4 * pool)
        .map(|_| TcpStream::connect(server.local_addr()).expect("connect"))
        .collect();
    // The accept loop takes connections in order, and more than a pool and
    // a queue come before the last one, so its answer is an immediate 503.
    // Until it arrives, no sample may exceed the bound.
    let last = idle.last_mut().expect("connections");
    last.set_read_timeout(Some(Duration::from_millis(5)))
        .expect("set timeout");
    let mut peak = threads();
    let mut first = [0u8; 1];
    while last.peek(&mut first).is_err() {
        peak = peak.max(threads());
    }
    assert!(
        peak <= bound,
        "{peak} threads with idle connections, {bound} at start"
    );

    let mut refused = 0u64;
    for stream in &mut idle {
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .expect("set timeout");
        let mut response = Vec::new();
        stream.read_to_end(&mut response).expect("read response");
        let (status, responses) = status_and_count(&response);
        assert_eq!(responses, 1, "{}", String::from_utf8_lossy(&response));
        match status {
            408 => {}
            503 => {
                assert!(String::from_utf8_lossy(&response).contains("\"kind\": \"saturated\""));
                refused += 1;
            }
            other => panic!("idle connection answered {other}"),
        }
    }
    // At most the workers and the queue hold a connection; the rest are
    // refused, and each refusal is counted.
    assert!(
        refused >= 2 * pool as u64,
        "{refused} of {} refused",
        idle.len()
    );
    assert!(threads() <= bound);
    let report = server.shutdown();
    assert_eq!(report.counter("serve.rejected"), Some(refused));
    // Only the connections the workers served were requests.
    assert_eq!(
        report.counter("serve.requests"),
        Some(idle.len() as u64 - refused)
    );
}
