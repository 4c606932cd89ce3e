//! Connection churn must not grow the server's address space: a finished
//! connection thread is reaped at the next accept instead of keeping its
//! stack mapped until shutdown. Alone in its own test binary, so no other
//! test's threads move the process's `VmSize`.

#![cfg(target_os = "linux")]

use krr_redis::client::Client;
use krr_redis::server::Server;
use krr_redis::MiniRedis;

/// The process's virtual memory size in bytes, from `/proc/self/status`.
fn vm_size() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: u64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmSize:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmSize line");
    kib * 1024
}

#[test]
fn sequential_connections_do_not_accumulate_thread_stacks() {
    let mut server = Server::start(MiniRedis::new(10_000, 5, 1)).unwrap();
    let addr = server.addr();
    // Warm up: the first connections map allocator arenas and the like.
    for _ in 0..50 {
        assert!(Client::connect(addr).unwrap().ping().unwrap());
    }
    let before = vm_size();
    // One connection open at a time; each is served (PING answered) and
    // then closed, so its thread exits.
    for _ in 0..2_000 {
        assert!(Client::connect(addr).unwrap().ping().unwrap());
    }
    let grown = vm_size().saturating_sub(before);
    server.shutdown();
    // Each unreaped thread keeps a 2 MiB stack mapping: 2,000 of them
    // add about 4 GiB. A closed connection's flight-recorder and profiler
    // rings (about 265 KiB) pass to the next connection, so they do not
    // add up either.
    assert!(
        grown < 256 << 20,
        "VmSize grew {} MiB over 2,000 connections",
        grown >> 20
    );
}
