//! The newline-delimited JSON wire protocol between sweep clients and the
//! sweep server.
//!
//! Every message is one compact JSON document on one line ([`write_line`] /
//! [`read_line`]), built on the in-tree [`ar_types::json`] model — the
//! workspace builds offline, so there is no serde and no framing library.
//! Clients send [`Request`]s; the server answers with a stream of
//! [`Event`]s. The only multi-event exchange is [`Request::Run`]: the server
//! first acknowledges every requested cell with [`Event::Accepted`] (saying
//! whether it was a cache hit, a fresh enqueue, or joined an in-flight run),
//! then streams [`Event::Running`] / [`Event::Progress`] / [`Event::Done`]
//! per cell as the scheduler gets to them, and closes the exchange with
//! [`Event::SweepDone`]. Cells are identified by their *index into the
//! request* so that duplicate cells in one request stay unambiguous.

use ar_system::{CellKey, SimReport};
use ar_types::json::{Json, JsonError};
use std::io::{self, BufRead, Read, Write};

/// Wire-protocol revision. Bumped on any incompatible message change;
/// [`Event::Hello`] carries it so clients can fail fast on mismatch.
pub const PROTOCOL_VERSION: u32 = 1;

/// The longest request line the server reads, in bytes before the newline.
/// Without a bound, a peer that never sends a newline would grow the
/// server's buffer without limit; past it the server answers with
/// [`Event::Error`] and closes the connection. A 45-cell figure matrix is
/// about 6 KB, so this leaves room for about 100k cells.
pub const MAX_REQUEST_LINE: usize = 16 << 20;

/// A client-to-server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness check; answered with [`Event::Pong`].
    Ping,
    /// Scheduler counters; answered with [`Event::Stats`].
    Stats,
    /// Asks the server to stop: queued cells are failed, running cells
    /// finish, the listener closes. Answered with [`Event::ShuttingDown`].
    Shutdown,
    /// Runs (or serves from cache) a batch of sweep cells.
    Run {
        /// Whether the client wants per-cell [`Event::Progress`] samples.
        progress: bool,
        /// The cells, in client order; event `index` fields refer to this
        /// vector.
        cells: Vec<CellKey>,
    },
}

impl Request {
    /// Encodes the request as one JSON document.
    pub fn to_json(&self) -> Json {
        match self {
            Request::Ping => Json::obj([("type", Json::from("ping"))]),
            Request::Stats => Json::obj([("type", Json::from("stats"))]),
            Request::Shutdown => Json::obj([("type", Json::from("shutdown"))]),
            Request::Run { progress, cells } => Json::obj([
                ("type", Json::from("run")),
                ("progress", Json::from(*progress)),
                ("cells", Json::arr(cells.iter().map(CellKey::to_json))),
            ]),
        }
    }

    /// Decodes a request document.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] on an unknown type tag or malformed fields.
    pub fn from_json(doc: &Json) -> Result<Request, JsonError> {
        match doc.get("type").and_then(Json::as_str) {
            Some("ping") => Ok(Request::Ping),
            Some("stats") => Ok(Request::Stats),
            Some("shutdown") => Ok(Request::Shutdown),
            Some("run") => {
                let progress = doc.get("progress").and_then(Json::as_bool).unwrap_or(false);
                let cells = doc
                    .get("cells")
                    .and_then(Json::as_array)
                    .ok_or_else(|| err("run request needs a cells array"))?
                    .iter()
                    .map(CellKey::from_json)
                    .collect::<Result<Vec<CellKey>, JsonError>>()?;
                Ok(Request::Run { progress, cells })
            }
            _ => Err(err("unknown request type")),
        }
    }
}

/// How the server disposed of one requested cell at accept time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellStatus {
    /// Served immediately from the on-disk cache.
    Hit,
    /// Enqueued as a fresh simulation run.
    Queued,
    /// Attached to an already queued or running job for the same cell
    /// (in-flight dedup: the run is shared, executed once).
    Joined,
}

impl CellStatus {
    /// The status's wire name (`"hit"`, `"queued"`, `"joined"`).
    pub fn name(self) -> &'static str {
        match self {
            CellStatus::Hit => "hit",
            CellStatus::Queued => "queued",
            CellStatus::Joined => "joined",
        }
    }

    fn parse(name: &str) -> Option<Self> {
        match name {
            "hit" => Some(CellStatus::Hit),
            "queued" => Some(CellStatus::Queued),
            "joined" => Some(CellStatus::Joined),
            _ => None,
        }
    }
}

/// A snapshot of the server's scheduler counters ([`Event::Stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Simulations actually executed (cache misses).
    pub runs: u64,
    /// Requests answered from the cache (including worker-side re-checks).
    pub cache_hits: u64,
    /// Requests that joined an in-flight run instead of starting their own.
    pub dedup_joins: u64,
    /// Jobs currently queued or running.
    pub in_flight: u64,
}

/// A server-to-client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// Sent once per connection, before any request is read.
    Hello {
        /// Wire-protocol revision ([`PROTOCOL_VERSION`]).
        proto: u32,
        /// Cache-key schema revision ([`ar_system::CACHE_SCHEMA_VERSION`]).
        schema: u32,
        /// Content hash of the server's base configuration, so a client can
        /// tell two servers apart.
        base_hash: u64,
    },
    /// Answer to [`Request::Ping`].
    Pong,
    /// Answer to [`Request::Stats`].
    Stats(StatsSnapshot),
    /// Answer to [`Request::Shutdown`].
    ShuttingDown,
    /// Acknowledges one requested cell.
    Accepted {
        /// Index into the request's cell vector.
        index: usize,
        /// The cell's cache address (content hash of its canonical key).
        key_hash: u64,
        /// How the cell was disposed of.
        status: CellStatus,
    },
    /// The cell's simulation started executing.
    Running {
        /// Index into the request's cell vector.
        index: usize,
    },
    /// A periodic IPC sample from the cell's running simulation (only sent
    /// when the request asked for progress).
    Progress {
        /// Index into the request's cell vector.
        index: usize,
        /// Memory-network cycle of the sample.
        network_cycle: u64,
        /// IPC over the window that just closed.
        window_ipc: f64,
    },
    /// The cell's report is ready.
    Done {
        /// Index into the request's cell vector.
        index: usize,
        /// True when the report came from the cache rather than a run.
        cached: bool,
        /// True when the report came from a run shared with another request.
        shared: bool,
        /// The report itself.
        report: Box<SimReport>,
    },
    /// The cell failed (unknown workload, invalid configuration, shutdown).
    CellError {
        /// Index into the request's cell vector.
        index: usize,
        /// Human-readable reason.
        message: String,
    },
    /// Closes a [`Request::Run`] exchange.
    SweepDone {
        /// Cells served from the cache.
        hits: usize,
        /// Cells enqueued as fresh runs.
        runs: usize,
        /// Cells that joined in-flight runs.
        joined: usize,
    },
    /// A request-level failure (malformed message); the server closes the
    /// connection after sending it.
    Error {
        /// Human-readable reason.
        message: String,
    },
}

impl Event {
    /// Encodes the event as one JSON document.
    pub fn to_json(&self) -> Json {
        match self {
            Event::Hello { proto, schema, base_hash } => Json::obj([
                ("event", Json::from("hello")),
                ("proto", Json::from(*proto)),
                ("schema", Json::from(*schema)),
                ("base_hash", Json::from(format!("{base_hash:016x}"))),
            ]),
            Event::Pong => Json::obj([("event", Json::from("pong"))]),
            Event::Stats(s) => Json::obj([
                ("event", Json::from("stats")),
                ("runs", Json::from(s.runs)),
                ("cache_hits", Json::from(s.cache_hits)),
                ("dedup_joins", Json::from(s.dedup_joins)),
                ("in_flight", Json::from(s.in_flight)),
            ]),
            Event::ShuttingDown => Json::obj([("event", Json::from("shutting_down"))]),
            Event::Accepted { index, key_hash, status } => Json::obj([
                ("event", Json::from("accepted")),
                ("index", Json::from(*index)),
                ("key", Json::from(format!("{key_hash:016x}"))),
                ("status", Json::from(status.name())),
            ]),
            Event::Running { index } => {
                Json::obj([("event", Json::from("running")), ("index", Json::from(*index))])
            }
            Event::Progress { index, network_cycle, window_ipc } => Json::obj([
                ("event", Json::from("progress")),
                ("index", Json::from(*index)),
                ("network_cycle", Json::from(*network_cycle)),
                ("window_ipc", Json::from(*window_ipc)),
            ]),
            Event::Done { index, cached, shared, report } => Json::obj([
                ("event", Json::from("done")),
                ("index", Json::from(*index)),
                ("cached", Json::from(*cached)),
                ("shared", Json::from(*shared)),
                ("report", report.to_json()),
            ]),
            Event::CellError { index, message } => Json::obj([
                ("event", Json::from("cell_error")),
                ("index", Json::from(*index)),
                ("message", Json::from(message.clone())),
            ]),
            Event::SweepDone { hits, runs, joined } => Json::obj([
                ("event", Json::from("sweep_done")),
                ("hits", Json::from(*hits)),
                ("runs", Json::from(*runs)),
                ("joined", Json::from(*joined)),
            ]),
            Event::Error { message } => Json::obj([
                ("event", Json::from("error")),
                ("message", Json::from(message.clone())),
            ]),
        }
    }

    /// Decodes an event document.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] on an unknown event tag or malformed fields.
    pub fn from_json(doc: &Json) -> Result<Event, JsonError> {
        let index = || {
            doc.get("index")
                .and_then(Json::as_u64)
                .map(|i| i as usize)
                .ok_or_else(|| err("event needs an index"))
        };
        let string = |key: &str| {
            doc.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| err("missing string field"))
        };
        match doc.get("event").and_then(Json::as_str) {
            Some("hello") => Ok(Event::Hello {
                proto: doc.get("proto").and_then(Json::as_u64).unwrap_or(0) as u32,
                schema: doc.get("schema").and_then(Json::as_u64).unwrap_or(0) as u32,
                base_hash: doc
                    .get("base_hash")
                    .and_then(Json::as_str)
                    .and_then(|s| u64::from_str_radix(s, 16).ok())
                    .ok_or_else(|| err("hello needs a base_hash"))?,
            }),
            Some("pong") => Ok(Event::Pong),
            Some("stats") => {
                let counter = |key: &str| doc.get(key).and_then(Json::as_u64).unwrap_or(0);
                Ok(Event::Stats(StatsSnapshot {
                    runs: counter("runs"),
                    cache_hits: counter("cache_hits"),
                    dedup_joins: counter("dedup_joins"),
                    in_flight: counter("in_flight"),
                }))
            }
            Some("shutting_down") => Ok(Event::ShuttingDown),
            Some("accepted") => Ok(Event::Accepted {
                index: index()?,
                key_hash: doc
                    .get("key")
                    .and_then(Json::as_str)
                    .and_then(|s| u64::from_str_radix(s, 16).ok())
                    .ok_or_else(|| err("accepted needs a key"))?,
                status: doc
                    .get("status")
                    .and_then(Json::as_str)
                    .and_then(CellStatus::parse)
                    .ok_or_else(|| err("accepted needs a status"))?,
            }),
            Some("running") => Ok(Event::Running { index: index()? }),
            Some("progress") => Ok(Event::Progress {
                index: index()?,
                network_cycle: doc
                    .get("network_cycle")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| err("progress needs a network_cycle"))?,
                window_ipc: doc
                    .get("window_ipc")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| err("progress needs a window_ipc"))?,
            }),
            Some("done") => Ok(Event::Done {
                index: index()?,
                cached: doc
                    .get("cached")
                    .and_then(Json::as_bool)
                    .ok_or_else(|| err("done needs a cached flag"))?,
                shared: doc.get("shared").and_then(Json::as_bool).unwrap_or(false),
                report: Box::new(SimReport::from_json(
                    doc.get("report").ok_or_else(|| err("done needs a report"))?,
                )?),
            }),
            Some("cell_error") => {
                Ok(Event::CellError { index: index()?, message: string("message")? })
            }
            Some("sweep_done") => {
                let counter = |key: &str| doc.get(key).and_then(Json::as_u64).unwrap_or(0) as usize;
                Ok(Event::SweepDone {
                    hits: counter("hits"),
                    runs: counter("runs"),
                    joined: counter("joined"),
                })
            }
            Some("error") => Ok(Event::Error { message: string("message")? }),
            _ => Err(err("unknown event type")),
        }
    }
}

fn err(message: &str) -> JsonError {
    JsonError { message: message.to_string(), offset: 0 }
}

/// Writes one message as a single JSON line and flushes.
///
/// # Errors
///
/// Propagates the underlying I/O error.
pub fn write_line(writer: &mut impl Write, doc: &Json) -> io::Result<()> {
    let mut line = doc.render();
    line.push('\n');
    writer.write_all(line.as_bytes())?;
    writer.flush()
}

/// Reads one JSON line. Returns `Ok(None)` at end of stream; a malformed
/// line is an `InvalidData` error.
///
/// # Errors
///
/// Propagates the underlying I/O error; malformed JSON maps to
/// [`io::ErrorKind::InvalidData`].
pub fn read_line(reader: &mut impl BufRead) -> io::Result<Option<Json>> {
    read_line_within(reader, u64::MAX)
}

/// [`read_line`] for the server's request reads: a line longer than
/// [`MAX_REQUEST_LINE`] is an `InvalidData` error once `MAX_REQUEST_LINE + 1`
/// of its bytes have been read.
pub(crate) fn read_request_line(reader: &mut impl BufRead) -> io::Result<Option<Json>> {
    read_line_within(reader, MAX_REQUEST_LINE as u64)
}

/// [`read_line`] for lines of at most `max` bytes before the newline.
fn read_line_within(reader: &mut impl BufRead, max: u64) -> io::Result<Option<Json>> {
    let invalid = |message: String| io::Error::new(io::ErrorKind::InvalidData, message);
    let mut line = Vec::new();
    loop {
        line.clear();
        let read = reader.by_ref().take(max.saturating_add(1)).read_until(b'\n', &mut line)?;
        if read == 0 {
            return Ok(None);
        }
        if line.last() != Some(&b'\n') && read as u64 > max {
            return Err(invalid(format!("line longer than {max} bytes")));
        }
        let text = std::str::from_utf8(&line).map_err(|e| invalid(e.to_string()))?;
        if text.trim().is_empty() {
            continue; // Tolerate blank keep-alive lines.
        }
        return Json::parse(text.trim()).map(Some).map_err(|e| invalid(e.to_string()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ar_system::{CellKey, CellKnobs};
    use ar_types::config::NamedConfig;
    use ar_workloads::SizeClass;

    #[test]
    fn requests_round_trip_the_wire_encoding() {
        let cell = CellKey::new("pagerank", NamedConfig::ArfTid, SizeClass::Tiny)
            .with_knobs(CellKnobs { cycle_limit: Some(1000), ..CellKnobs::default() });
        for request in [
            Request::Ping,
            Request::Stats,
            Request::Shutdown,
            Request::Run { progress: true, cells: vec![cell.clone(), cell] },
        ] {
            let doc = Json::parse(&request.to_json().render()).expect("valid JSON");
            assert_eq!(Request::from_json(&doc).expect("well-formed"), request);
        }
        assert!(Request::from_json(&Json::obj([("type", Json::from("nope"))])).is_err());
        assert!(Request::from_json(&Json::obj([("type", Json::from("run"))])).is_err());
    }

    #[test]
    fn events_round_trip_the_wire_encoding() {
        let report =
            SimReport { workload: "mac".into(), network_cycles: 7, ..SimReport::default() };
        for event in [
            Event::Hello { proto: 1, schema: 3, base_hash: 0xdead_beef },
            Event::Pong,
            Event::Stats(StatsSnapshot { runs: 1, cache_hits: 2, dedup_joins: 3, in_flight: 4 }),
            Event::ShuttingDown,
            Event::Accepted { index: 2, key_hash: 42, status: CellStatus::Joined },
            Event::Accepted { index: 0, key_hash: u64::MAX, status: CellStatus::Hit },
            Event::Running { index: 1 },
            Event::Progress { index: 0, network_cycle: 4096, window_ipc: 1.25 },
            Event::Done { index: 3, cached: true, shared: false, report: Box::new(report) },
            Event::CellError { index: 0, message: "unknown workload".into() },
            Event::SweepDone { hits: 5, runs: 2, joined: 1 },
            Event::Error { message: "bad request".into() },
        ] {
            let doc = Json::parse(&event.to_json().render()).expect("valid JSON");
            assert_eq!(Event::from_json(&doc).expect("well-formed"), event);
        }
        assert!(Event::from_json(&Json::obj([("event", Json::from("nope"))])).is_err());
    }

    #[test]
    fn line_io_frames_messages_and_survives_blank_lines() {
        let mut buf = Vec::new();
        write_line(&mut buf, &Request::Ping.to_json()).unwrap();
        buf.extend_from_slice(b"\n");
        write_line(&mut buf, &Request::Stats.to_json()).unwrap();
        let mut reader = io::BufReader::new(&buf[..]);
        assert_eq!(
            Request::from_json(&read_line(&mut reader).unwrap().unwrap()).unwrap(),
            Request::Ping
        );
        assert_eq!(
            Request::from_json(&read_line(&mut reader).unwrap().unwrap()).unwrap(),
            Request::Stats
        );
        assert!(read_line(&mut reader).unwrap().is_none(), "EOF is None");
        let mut garbage = io::BufReader::new(&b"{oops\n"[..]);
        assert!(read_line(&mut garbage).is_err(), "malformed lines are InvalidData");
    }

    #[test]
    fn bounded_reads_fail_one_byte_past_the_bound() {
        let mut fits = io::BufReader::new(&b"[1,22]\n"[..]);
        let doc = read_line_within(&mut fits, 6).expect("six bytes fit").expect("one line");
        assert_eq!(doc.render(), "[1,22]");

        // Seven bytes without a newline: the read fails having consumed
        // exactly those seven, and nothing after them.
        let mut over = io::BufReader::new(&b"[1,222]\n{}\n"[..]);
        let err = read_line_within(&mut over, 6).expect_err("seven bytes overflow a bound of six");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("longer than 6 bytes"), "{err}");
        let mut rest = Vec::new();
        over.read_to_end(&mut rest).unwrap();
        assert_eq!(rest, b"\n{}\n");
    }
}
