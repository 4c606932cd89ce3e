//! The in-band KRR profiler runs behind the GET replies: a GET is queued
//! in the store and profiled after the connection writes its reply, and
//! every reader of profiler state applies the queue first. What the
//! profiler ends up with must be what an inline profile of the same GET
//! stream gives.

use krr_core::json::{self, Json};
use krr_core::metrics::MetricsRegistry;
use krr_core::obs::Phase;
use krr_core::{KrrConfig, Mrc, ShardedKrr};
use krr_redis::client::Client;
use krr_redis::resp::{read_value, write_value, Value};
use krr_redis::server::Server;
use krr_redis::MiniRedis;
use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

const SHARDS: usize = 2;

fn krr() -> KrrConfig {
    KrrConfig::new(5.0).seed(7)
}

/// A profiled server and its metrics registry.
fn start(seed: u64, path: Option<&std::path::Path>) -> (Server, Arc<MetricsRegistry>) {
    let mut store = MiniRedis::new(1 << 20, 5, seed);
    store.enable_mrc_profiling(&krr(), SHARDS);
    if let Some(p) = path {
        store.set_checkpoint_path(p);
    }
    let reg = Arc::clone(store.metrics());
    (Server::start(store).unwrap(), reg)
}

/// The `MRC` reply body for `mrc`, as the server renders it.
fn render(mrc: &Mrc) -> String {
    let mut body = String::from("cache_size,miss_ratio\n");
    for &(x, y) in mrc.points().iter().filter(|&&(x, _)| x > 0.0) {
        body.push_str(&format!("{x:.0},{y:.5}\n"));
    }
    body
}

/// GETs applied to the profiler so far, summed over shards.
fn profiled(reg: &MetricsRegistry) -> u64 {
    reg.snapshot().shard_accesses.iter().sum()
}

fn raw_conn(server: &Server) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(server.addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let reader = BufReader::new(stream.try_clone().unwrap());
    (stream, reader)
}

fn get_cmd(key: u64) -> Value {
    Value::command(&[b"GET", key.to_string().as_bytes()])
}

/// Key of GET `i`: a skewed walk over 0..300, of which keys below 200
/// were stored (sizes 10..60), the rest miss.
fn key(i: u64) -> u64 {
    (i * i + 7 * i) % 300
}

fn value_size(key: u64) -> u32 {
    10 + (key % 50) as u32
}

fn prefill(client: &mut Client) {
    for k in 0..200u64 {
        client.set(k, value_size(k)).unwrap();
    }
}

/// An offline profile of `(key, hit)` GETs fed the sizes the store feeds:
/// the stored size on a hit, 1 on a miss.
fn offline(gets: &[(u64, bool)]) -> ShardedKrr {
    let mut bank = ShardedKrr::new(&krr(), SHARDS);
    for &(k, hit) in gets {
        bank.access(k, if hit { value_size(k) } else { 1 });
    }
    bank
}

#[test]
fn interleaved_connections_profile_gets_in_execution_order() {
    let (mut server, reg) = start(1, None);
    let mut a = Client::connect(server.addr()).unwrap();
    let mut b = Client::connect(server.addr()).unwrap();
    prefill(&mut a);
    let mut gets = Vec::new();
    for i in 0..600u64 {
        // Alternate connections, each waiting for its reply, so the
        // execution order is the order issued here.
        let c = if i % 2 == 0 { &mut a } else { &mut b };
        let k = key(i);
        gets.push((k, c.get(k).unwrap()));
    }
    // A PING's reply follows the drain of the GET before it on the same
    // connection, so every answered GET is profiled without any reader.
    assert!(a.ping().unwrap() && b.ping().unwrap());
    assert_eq!(profiled(&reg), gets.len() as u64, "GETs profiled at flush");
    assert_eq!(a.mrc().unwrap(), render(&offline(&gets).mrc()));

    // A burst whose GETs are still queued when its MRC runs: the MRC
    // command applies them before it reads the curve.
    let (mut stream, mut reader) = raw_conn(&server);
    let mut burst = Vec::new();
    for i in 600..660u64 {
        write_value(&mut burst, &get_cmd(key(i))).unwrap();
    }
    write_value(&mut burst, &Value::command(&[b"MRC"])).unwrap();
    stream.write_all(&burst).unwrap();
    for i in 600..660u64 {
        let hit = match read_value(&mut reader).unwrap() {
            Value::Bulk(Some(_)) => true,
            Value::Bulk(None) => false,
            other => panic!("GET {i}: {other:?}"),
        };
        gets.push((key(i), hit));
    }
    let Value::Bulk(Some(csv)) = read_value(&mut reader).unwrap() else {
        panic!("MRC reply is not a bulk string")
    };
    assert_eq!(
        String::from_utf8(csv).unwrap(),
        render(&offline(&gets).mrc()),
        "MRC after a pipelined burst"
    );
    server.shutdown();
}

#[test]
fn pipelined_gets_show_in_info_metrics_and_a_bgsave() {
    let dir = std::env::temp_dir().join(format!("krr-deferred-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("dump.ckpt");
    let (mut server, _reg) = start(2, Some(&path));
    let mut client = Client::connect(server.addr()).unwrap();
    prefill(&mut client);
    let (mut stream, mut reader) = raw_conn(&server);
    let mut sent = 0u64;
    for (n, tail) in [(120u64, &b"INFO"[..]), (90, b"METRICS"), (70, b"BGSAVE")] {
        let mut burst = Vec::new();
        for i in sent..sent + n {
            write_value(&mut burst, &get_cmd(key(i))).unwrap();
        }
        write_value(&mut burst, &Value::command(&[tail])).unwrap();
        stream.write_all(&burst).unwrap();
        sent += n;
        for _ in 0..n {
            assert!(matches!(read_value(&mut reader).unwrap(), Value::Bulk(_)));
        }
        let reply = read_value(&mut reader).unwrap();
        match tail {
            b"INFO" => {
                let Value::Bulk(Some(body)) = reply else {
                    panic!("INFO: {reply:?}")
                };
                let body = String::from_utf8(body).unwrap();
                let line = body
                    .lines()
                    .find_map(|l| l.strip_prefix("shard_accesses:"))
                    .unwrap_or_else(|| panic!("no shard_accesses in INFO: {body}"));
                let total: u64 = line.split(',').map(|v| v.parse::<u64>().unwrap()).sum();
                assert_eq!(total, sent, "INFO shard accesses after {sent} GETs");
            }
            b"METRICS" => {
                let Value::Bulk(Some(body)) = reply else {
                    panic!("METRICS: {reply:?}")
                };
                let doc = json::parse(std::str::from_utf8(&body).unwrap()).unwrap();
                let total: f64 = doc
                    .path(&["shards", "accesses"])
                    .and_then(Json::as_arr)
                    .expect("shards.accesses")
                    .iter()
                    .filter_map(Json::as_num)
                    .sum();
                assert_eq!(total as u64, sent, "METRICS shard accesses");
            }
            _ => assert!(matches!(&reply, Value::Simple(s) if s == "OK"), "{reply:?}"),
        }
    }
    let live = client.mrc().unwrap();
    server.shutdown();
    let mut restored = MiniRedis::restore_from(&path).unwrap();
    assert_eq!(
        render(&restored.mrc_profile().unwrap()),
        live,
        "restored profiler equals the live MRC"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn shutdown_mid_burst_leaves_every_answered_get_profiled() {
    let (mut server, reg) = start(3, None);
    let (mut stream, mut reader) = raw_conn(&server);
    let mut burst = Vec::new();
    for i in 0..50u64 {
        write_value(&mut burst, &get_cmd(key(i))).unwrap();
    }
    write_value(&mut burst, &Value::command(&[b"SHUTDOWN"])).unwrap();
    for i in 50..60u64 {
        write_value(&mut burst, &get_cmd(key(i))).unwrap();
    }
    stream.write_all(&burst).unwrap();
    for i in 0..50u64 {
        assert_eq!(read_value(&mut reader).unwrap(), Value::null(), "GET {i}");
    }
    let ok = read_value(&mut reader).unwrap();
    assert!(matches!(&ok, Value::Simple(s) if s == "OK"), "{ok:?}");
    server.shutdown();
    let stats = server.stats();
    assert_eq!(
        stats.hits + stats.misses,
        50,
        "GETs after SHUTDOWN never ran"
    );
    assert_eq!(profiled(&reg), 50, "every answered GET is profiled");
}

#[test]
fn no_get_command_span_contains_a_stack_update() {
    let (mut server, _reg) = start(4, None);
    let mut client = Client::connect(server.addr()).unwrap();
    prefill(&mut client);
    for i in 0..400u64 {
        let _ = client.get(key(i)).unwrap();
    }
    assert!(client.ping().unwrap());
    let (events, _) = server.recorder().collect_events();
    let updates: Vec<_> = events
        .iter()
        .filter(|e| e.phase == Phase::StackUpdate)
        .collect();
    assert!(!updates.is_empty(), "the profiler recorded stack updates");
    // Command tag 2 is GET (the low byte of a Command span's arg).
    for cmd in events
        .iter()
        .filter(|e| e.phase == Phase::Command && e.arg & 0xFF == 2)
    {
        let end = cmd.start_ns + cmd.dur_ns;
        for u in &updates {
            assert!(
                u.start_ns < cmd.start_ns || u.start_ns >= end,
                "stack update at {} inside GET span [{}, {end})",
                u.start_ns,
                cmd.start_ns
            );
        }
    }
    let drained: u64 = events
        .iter()
        .filter(|e| e.phase == Phase::ProfileDrain)
        .map(|e| e.arg)
        .sum();
    assert_eq!(drained, 400, "drain spans account for every GET");
    server.shutdown();
}
