//! The server writes replies the way Redis does: at once for a lone
//! request, together for a pipelined burst, and never held back while the
//! connection waits on the socket. `server.commands` and
//! `server.reply_flushes` count commands and reply writes.

use krr_core::metrics::MetricsRegistry;
use krr_redis::client::Client;
use krr_redis::resp::{read_value, write_value, Value};
use krr_redis::server::Server;
use krr_redis::MiniRedis;
use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

/// A server and its metrics registry.
fn start(seed: u64) -> (Server, Arc<MetricsRegistry>) {
    let store = MiniRedis::new(1 << 20, 5, seed);
    let reg = Arc::clone(store.metrics());
    (Server::start(store).unwrap(), reg)
}

/// (commands, reply flushes) so far.
fn counts(reg: &MetricsRegistry) -> (u64, u64) {
    (reg.server_commands.get(), reg.server_reply_flushes.get())
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

#[test]
fn burst_in_one_write_is_answered_in_order_with_few_writes() {
    let (mut server, reg) = start(1);
    let (mut stream, mut reader) = raw_conn(&server);
    // 100 SET+GET pairs with 64-byte values: ~15 KiB, more than one
    // 8 KiB read buffer.
    let mut burst = Vec::new();
    for key in 0..100u64 {
        let k = key.to_string();
        write_value(
            &mut burst,
            &Value::command(&[b"SET", k.as_bytes(), &[b'v'; 64]]),
        )
        .unwrap();
        write_value(&mut burst, &Value::command(&[b"GET", k.as_bytes()])).unwrap();
    }
    let before = counts(&reg);
    stream.write_all(&burst).unwrap();
    for key in 0..100u64 {
        let set = read_value(&mut reader).unwrap();
        assert!(
            matches!(&set, Value::Simple(s) if s == "OK"),
            "SET {key}: {set:?}"
        );
        assert_eq!(
            read_value(&mut reader).unwrap(),
            Value::bulk(b"1".to_vec()),
            "GET {key}"
        );
    }
    let after = counts(&reg);
    assert_eq!(after.0 - before.0, 200, "commands");
    let flushes = after.1 - before.1;
    let bound = burst.len() as u64 / 8192 + 1;
    assert!(
        (1..=bound).contains(&flushes),
        "{flushes} reply writes for a {}-byte burst (bound {bound})",
        burst.len()
    );
    server.shutdown();
}

#[test]
fn request_reply_round_trips_flush_every_reply() {
    let (mut server, reg) = start(2);
    let mut client = Client::connect(server.addr()).unwrap();
    let before = counts(&reg);
    for key in 0..50u64 {
        let _ = client.get(key).unwrap();
    }
    let after = counts(&reg);
    assert_eq!(after.0 - before.0, 50, "commands");
    assert_eq!(after.1 - before.1, 50, "one write per lone reply");
    server.shutdown();
}

#[test]
fn reply_is_sent_while_the_next_frame_is_incomplete() {
    let (mut server, _reg) = start(3);
    let (mut stream, mut reader) = raw_conn(&server);
    stream
        .set_read_timeout(Some(Duration::from_secs(2)))
        .unwrap();
    // PING and the first half of a GET in one write: the PONG must arrive
    // while the server waits for the rest of the GET.
    stream
        .write_all(b"*1\r\n$4\r\nPING\r\n*2\r\n$3\r\nGET\r\n$2\r\n")
        .unwrap();
    let pong = read_value(&mut reader).expect("PONG within 2 s");
    assert!(matches!(&pong, Value::Simple(s) if s == "PONG"), "{pong:?}");
    stream.write_all(b"77\r\n").unwrap();
    assert_eq!(read_value(&mut reader).unwrap(), Value::null());
    server.shutdown();
}

#[test]
fn shutdown_mid_pipeline_still_answers_what_came_before() {
    let (mut server, _reg) = start(4);
    let (mut stream, mut reader) = raw_conn(&server);
    // SHUTDOWN is followed by more buffered input, so its reply is not
    // flushed right after it runs; the connection must still send it.
    stream
        .write_all(b"*1\r\n$4\r\nPING\r\n*1\r\n$8\r\nSHUTDOWN\r\n*1\r\n$4\r\nPING\r\n")
        .unwrap();
    let pong = read_value(&mut reader).unwrap();
    assert!(matches!(&pong, Value::Simple(s) if s == "PONG"), "{pong:?}");
    let ok = read_value(&mut reader).unwrap();
    assert!(matches!(&ok, Value::Simple(s) if s == "OK"), "{ok:?}");
    server.shutdown();
}
