//! The client end of the wire protocol: one [`Client`] per server.

use crate::protocol::{SubmitClientOpts, SubmitHeader};
use crate::transport::ServerAddr;
use mdh_lowering::asm::DeviceKind;
use std::fmt::Display;
use std::io::{BufRead, BufReader, Write};
use std::path::Path;

/// A client of one server, over either transport: every call is one
/// connection and returns the server's reply lines.
#[derive(Debug, Clone)]
pub struct Client {
    addr: ServerAddr,
}

impl Client {
    pub fn new(addr: ServerAddr) -> Client {
        Client { addr }
    }

    /// A client of the server on the unix socket at `path`.
    pub fn unix(path: &Path) -> Client {
        Client::new(ServerAddr::Unix(path.to_path_buf()))
    }

    /// Submit `source` `count` times as one SUBMIT command.
    pub fn submit(
        &self,
        source: &str,
        device: DeviceKind,
        count: usize,
        opts: &SubmitClientOpts,
    ) -> std::io::Result<Vec<String>> {
        let header = SubmitHeader {
            device,
            count,
            len: source.len(),
            opts: opts.clone(),
            id: None,
        };
        self.call(header, source)
    }

    /// Submit `count` launches as `count` pipelined frames (one launch each)
    /// over a single multiplexed connection — the amortised replacement for
    /// `count` sequential connections.
    ///
    /// Replies are re-ordered by frame id and their `id=<n> ` prefixes
    /// stripped, so the returned lines read like `count` sequential submits:
    /// per frame, its `ok`/`err` lines then `done <served>`. Any terminal
    /// (unprefixed) protocol error line is kept last.
    pub fn submit_pipelined(
        &self,
        source: &str,
        device: DeviceKind,
        count: usize,
        opts: &SubmitClientOpts,
    ) -> std::io::Result<Vec<String>> {
        let stream = self.addr.connect()?;
        let raw = stream.try_clone()?;
        // concurrent reader: replies stream back while frames are still being
        // written, so neither side's socket buffer has to hold everything
        let reader =
            std::thread::Builder::new().spawn(move || -> std::io::Result<Vec<String>> {
                BufReader::new(stream).lines().collect()
            })?;
        // buffered writes: many small frames coalesce into few syscalls
        let mut w = std::io::BufWriter::new(raw);
        writeln!(w, "PIPE")?;
        let mut header = SubmitHeader {
            device,
            count: 1,
            len: source.len(),
            opts: opts.clone(),
            id: None,
        };
        for id in 1..=count as u64 {
            header.id = Some(id);
            writeln!(w, "{header}")?;
            w.write_all(source.as_bytes())?;
        }
        w.flush()?;
        w.into_inner()
            .map_err(|e| std::io::Error::other(e.to_string()))?
            .shutdown_write()?; // end of frames
        let lines = reader
            .join()
            .map_err(|_| std::io::Error::other("reply reader panicked"))??;
        Ok(order_pipelined_replies(lines))
    }

    /// The server's stats line.
    pub fn stats(&self) -> std::io::Result<Vec<String>> {
        self.call("STATS", "")
    }

    /// The machine-readable stats snapshot (`stats-json {...}`).
    pub fn stats_json(&self) -> std::io::Result<Vec<String>> {
        self.call("STATS json", "")
    }

    /// Ask the server to shut down.
    pub fn shutdown(&self) -> std::io::Result<Vec<String>> {
        self.call("SHUTDOWN", "")
    }

    /// One command line and body on a fresh connection; every reply line.
    fn call(&self, command: impl Display, body: &str) -> std::io::Result<Vec<String>> {
        let mut stream = self.addr.connect()?;
        writeln!(stream, "{command}")?;
        stream.write_all(body.as_bytes())?;
        BufReader::new(stream).lines().collect()
    }
}

/// Group pipelined reply lines by frame id, order frames by id, strip
/// the `id=<n> ` prefixes. The `ok pipelined ...` banner is dropped;
/// unprefixed lines (terminal protocol errors) sort last, in order.
fn order_pipelined_replies(lines: Vec<String>) -> Vec<String> {
    let mut frames: std::collections::BTreeMap<u64, Vec<String>> = Default::default();
    let mut trailing = Vec::new();
    for line in lines {
        if line.starts_with("ok pipelined") {
            continue;
        }
        let parsed = line.strip_prefix("id=").and_then(|rest| {
            let (id, body) = rest.split_once(' ')?;
            Some((id.parse::<u64>().ok()?, body.to_string()))
        });
        match parsed {
            Some((id, body)) => frames.entry(id).or_default().push(body),
            None => trailing.push(line),
        }
    }
    let mut out: Vec<String> = frames.into_values().flatten().collect();
    out.extend(trailing);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_pipelined_replies_sorts_by_id_and_strips_prefixes() {
        let lines = vec![
            "ok pipelined depth=32".to_string(),
            "id=2 ok second".to_string(),
            "id=2 done 1".to_string(),
            "id=1 ok first".to_string(),
            "id=1 done 1".to_string(),
            "err id must increase (got 2 after 2)".to_string(),
        ];
        assert_eq!(
            order_pipelined_replies(lines),
            vec![
                "ok first",
                "done 1",
                "ok second",
                "done 1",
                "err id must increase (got 2 after 2)",
            ]
        );
    }
}
