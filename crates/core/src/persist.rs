//! Plain-text persistence for analysis artifacts: MRCs as
//! `cache_size,miss_ratio` CSV and metrics snapshots as `krr-metrics-v1`
//! JSON lines.
//!
//! These are meant to be read by humans and scripts: the CLI writes MRCs
//! with [`write_mrc`], `krr partition` reads them back with [`read_mrc`],
//! and `/mrc?format=csv` serves the same bytes. For crash-safe, bit-exact
//! profiler state (RNG streams, stacks, histograms, counters) use the
//! binary [`checkpoint`](crate::checkpoint) format instead.

use crate::metrics::MetricsSnapshot;
use crate::mrc::Mrc;
use std::io::{self, BufRead, Write};

/// Writes a metrics snapshot as one JSON document (`krr-metrics-v1`
/// schema, see [`MetricsSnapshot::to_json`]) followed by a newline, so a
/// checkpoint file of snapshots is newline-delimited JSON.
pub fn write_metrics_json<W: Write>(mut w: W, snap: &MetricsSnapshot) -> io::Result<()> {
    w.write_all(snap.to_json().as_bytes())?;
    writeln!(w)
}

/// Writes an MRC as `cache_size,miss_ratio` CSV.
pub fn write_mrc<W: Write>(mut w: W, mrc: &Mrc) -> io::Result<()> {
    writeln!(w, "cache_size,miss_ratio")?;
    for &(x, y) in mrc.points() {
        writeln!(w, "{x},{y}")?;
    }
    Ok(())
}

/// Reads an MRC written by [`write_mrc`].
pub fn read_mrc<R: BufRead>(r: R) -> io::Result<Mrc> {
    let mut points = Vec::new();
    for (i, line) in r.lines().enumerate() {
        let line = line?;
        let line = line.trim();
        if line.is_empty() || line == "cache_size,miss_ratio" || line.starts_with('#') {
            continue;
        }
        let (x, y) = line.split_once(',').ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("line {}: no comma", i + 1),
            )
        })?;
        let parse = |s: &str| {
            s.trim().parse::<f64>().map_err(|_| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("line {}: bad number", i + 1),
                )
            })
        };
        points.push((parse(x)?, parse(y)?));
    }
    Ok(Mrc::from_points(points))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mrc_roundtrip() {
        let mrc = Mrc::from_points(vec![(0.0, 1.0), (10.0, 0.5), (100.0, 0.125)]);
        let mut buf = Vec::new();
        write_mrc(&mut buf, &mrc).unwrap();
        let back = read_mrc(buf.as_slice()).unwrap();
        assert_eq!(back.points(), mrc.points());
    }

    #[test]
    fn mrc_rejects_garbage() {
        assert!(read_mrc("1;2\n".as_bytes()).is_err());
        assert!(read_mrc("1,notanumber\n".as_bytes()).is_err());
    }

    #[test]
    fn metrics_json_is_newline_terminated() {
        let reg = crate::metrics::MetricsRegistry::new();
        reg.accesses.add(3);
        reg.chain_len.record(5);
        let mut buf = Vec::new();
        write_metrics_json(&mut buf, &reg.snapshot()).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.ends_with('\n'));
        assert!(
            !text[..text.len() - 1].contains('\n'),
            "one line per snapshot"
        );
        assert!(text.contains("\"schema\":\"krr-metrics-v1\""));
    }
}
