//! All socket I/O for the service, in one file.
//!
//! This is the crate's designated I/O sink under lint rule I1: every
//! `std::io` / `std::net` touch lives here, and the rest of the crate
//! (scheduler, job machine, daemon logic, client) works with the typed
//! [`LineReader`] / [`ConnWriter`] handles. That keeps the "what can
//! happen to a socket" surface auditable in one place — the same
//! confinement discipline the core crate applies to its telemetry sinks.
//!
//! # Wire latency
//!
//! Every socket this module hands out has `TCP_NODELAY` set, and every
//! frame leaves in one `write_all` of `line + '\n'`. Both halves matter:
//!
//! - **write-write-read.** Sending a frame as two writes (payload, then a
//!   1-byte newline) puts the second segment behind Nagle's algorithm:
//!   it waits for the ACK of the first, and the peer delays that ACK for
//!   up to 40 ms because it has not yet seen a complete frame to answer.
//!   One buffer per frame means there is no trailing small write.
//! - **`accepted`-then-`done` from two threads.** The connection handler
//!   sends `accepted` and a worker sends `done` moments later. Without
//!   `TCP_NODELAY` the second small frame waits for the first one's ACK,
//!   which the client delays — so a 2 ms solve reached the client after
//!   about 20–40 ms. With `TCP_NODELAY` each frame is its own segment and
//!   leaves as soon as it is written.
//!
//! The remaining timers were audited as latency floors (DESIGN.md §11,
//! "Wire latency"): the daemon's connection read timeout (`CONN_POLL`)
//! and a client's read tick only bound how often an *idle* reader polls
//! a flag — a frame wakes a blocked read at once — and the divergence
//! retry backoff delays only jobs that diverged.

use sfq_partition::witness::{self, Mutex};
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::Arc;
use std::time::Duration;

/// One read attempt on a connection.
#[derive(Debug, PartialEq, Eq)]
pub enum ReadLine {
    /// A complete frame line (without the newline).
    Line(String),
    /// The configured read timeout elapsed with no complete line; the
    /// connection is still healthy. Lets reader loops poll shutdown flags.
    Timeout,
    /// The peer closed the connection (or it broke).
    Eof,
}

/// Buffered line reader over a socket.
#[derive(Debug)]
pub struct LineReader {
    reader: BufReader<TcpStream>,
    /// Partial line carried across timeout ticks. Bytes, not a `String`:
    /// `read_until` keeps already-consumed bytes in its buffer when a read
    /// times out mid-line, whereas `read_line`'s UTF-8 guard would discard
    /// them.
    partial: Vec<u8>,
}

impl LineReader {
    fn new(stream: TcpStream) -> Self {
        LineReader {
            reader: BufReader::new(stream),
            partial: Vec::new(),
        }
    }

    /// Sets (or clears) the read timeout that turns blocking reads into
    /// [`ReadLine::Timeout`] ticks.
    ///
    /// # Errors
    ///
    /// Propagates the socket error, e.g. on a closed descriptor.
    pub fn set_timeout(&mut self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.reader.get_ref().set_read_timeout(timeout)
    }

    /// Reads the next frame line.
    pub fn next_line(&mut self) -> ReadLine {
        loop {
            match self.reader.read_until(b'\n', &mut self.partial) {
                Ok(n) => {
                    if self.partial.last() == Some(&b'\n') {
                        let bytes = std::mem::take(&mut self.partial);
                        let mut line = String::from_utf8_lossy(&bytes).into_owned();
                        line.truncate(line.trim_end_matches(['\n', '\r']).len());
                        return ReadLine::Line(line);
                    }
                    // No delimiter means EOF. A trailing unterminated
                    // fragment still parses as a final frame; a bare EOF
                    // ends the connection.
                    if n == 0 && self.partial.is_empty() {
                        return ReadLine::Eof;
                    }
                    if n == 0 {
                        let bytes = std::mem::take(&mut self.partial);
                        return ReadLine::Line(String::from_utf8_lossy(&bytes).into_owned());
                    }
                }
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    return ReadLine::Timeout;
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return ReadLine::Eof,
            }
        }
    }
}

#[derive(Debug)]
struct WriterState {
    stream: TcpStream,
    /// Sticky: once a write fails the connection is considered gone and
    /// every further send is a silent no-op. Job execution never depends
    /// on a deliverable client — results are simply dropped.
    dead: bool,
}

/// Shared, thread-safe frame writer for one connection.
///
/// Clones share the socket: the connection handler and any number of
/// worker/progress threads interleave whole frames (the mutex spans the
/// one write of a frame, so frames never tear).
#[derive(Debug, Clone)]
pub struct ConnWriter {
    inner: Arc<Mutex<WriterState>>,
}

impl ConnWriter {
    fn new(stream: TcpStream) -> Self {
        ConnWriter {
            inner: Arc::new(witness::mutex(
                "serviced:connwriter::inner",
                WriterState {
                    stream,
                    dead: false,
                },
            )),
        }
    }

    /// Sends one frame line (newline appended) in a single write.
    /// Returns whether the connection still looked alive.
    pub fn send_line(&self, line: &str) -> bool {
        // Assembled before locking: the critical section is the write.
        let frame = [line.as_bytes(), b"\n"].concat();
        let mut state = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        if state.dead {
            return false;
        }
        let ok = state.stream.write_all(&frame).is_ok();
        if !ok {
            state.dead = true;
        }
        ok
    }

    /// Whether a send has already failed on this connection.
    #[must_use]
    pub fn is_dead(&self) -> bool {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).dead
    }
}

/// The daemon's listening socket.
#[derive(Debug)]
pub struct Listener {
    listener: TcpListener,
}

impl Listener {
    /// Binds to `addr` (`127.0.0.1:0` for an ephemeral test port).
    ///
    /// # Errors
    ///
    /// Propagates bind failures (port in use, permission).
    pub fn bind(addr: &str) -> std::io::Result<Listener> {
        Ok(Listener {
            listener: TcpListener::bind(addr)?,
        })
    }

    /// The bound address (resolves ephemeral ports).
    ///
    /// # Errors
    ///
    /// Propagates the socket error.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Accepts one connection, applying `read_timeout` so the daemon's
    /// per-connection reader loop can poll its shutdown flag.
    ///
    /// # Errors
    ///
    /// Propagates accept failures.
    pub fn accept(
        &self,
        read_timeout: Option<Duration>,
    ) -> std::io::Result<(LineReader, ConnWriter)> {
        let (stream, _peer) = self.listener.accept()?;
        split(stream, read_timeout)
    }
}

/// Configures a fresh connection (no-delay, read timeout) and splits it
/// into its reader and shared-writer halves.
fn split(
    stream: TcpStream,
    read_timeout: Option<Duration>,
) -> std::io::Result<(LineReader, ConnWriter)> {
    stream.set_nodelay(true)?;
    stream.set_read_timeout(read_timeout)?;
    let write_half = stream.try_clone()?;
    Ok((LineReader::new(stream), ConnWriter::new(write_half)))
}

/// Connects a client to a daemon.
///
/// # Errors
///
/// Propagates connect/clone failures.
pub fn connect<A: ToSocketAddrs>(
    addr: A,
    read_timeout: Option<Duration>,
) -> std::io::Result<(LineReader, ConnWriter)> {
    split(TcpStream::connect(addr)?, read_timeout)
}

/// Opens and immediately drops a connection to `addr` — used by drain to
/// wake an accept loop blocked in [`Listener::accept`].
pub fn poke(addr: SocketAddr) {
    let _ = TcpStream::connect_timeout(&addr, Duration::from_millis(500));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lines_cross_the_socket_whole() {
        // A 64 KiB frame spans many TCP segments; a 1-byte frame is one.
        let big: String = (0..64 * 1024)
            .map(|i| char::from(b'a' + (i % 26) as u8))
            .collect();
        let frames = [
            "one".to_string(),
            "two {\"k\":1}".to_string(),
            big,
            "x".to_string(),
        ];
        let listener = Listener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut reader, writer) = listener.accept(None).unwrap();
            while let ReadLine::Line(line) = reader.next_line() {
                writer.send_line(&format!("echo {line}"));
            }
        });
        let (mut reader, writer) = connect(addr, None).unwrap();
        for frame in &frames {
            assert!(writer.send_line(frame));
            assert_eq!(reader.next_line(), ReadLine::Line(format!("echo {frame}")));
        }
        drop(reader);
        drop(writer);
        server.join().unwrap();
    }

    /// Whether a connection's socket has `TCP_NODELAY` set, read through
    /// both halves (they share one descriptor).
    fn nodelay(reader: &LineReader, writer: &ConnWriter) -> (bool, bool) {
        let read_half = reader.reader.get_ref().nodelay().unwrap();
        let write_half = writer.inner.lock().unwrap().stream.nodelay().unwrap();
        (read_half, write_half)
    }

    #[test]
    fn accepted_and_connected_sockets_are_nodelay() {
        let listener = Listener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (client_reader, client_writer) = connect(addr, None).unwrap();
        let (server_reader, server_writer) = listener.accept(None).unwrap();
        assert_eq!(nodelay(&client_reader, &client_writer), (true, true));
        assert_eq!(nodelay(&server_reader, &server_writer), (true, true));
    }

    #[test]
    fn cloned_writers_on_two_threads_never_tear_a_frame() {
        const FRAMES: usize = 200;
        const LEN: usize = 20_000;
        let listener = Listener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (mut reader, _client_writer) = connect(addr, None).unwrap();
        let (_server_reader, writer) = listener.accept(None).unwrap();
        let senders: Vec<_> = [b'a', b'b']
            .into_iter()
            .map(|fill| {
                let writer = writer.clone();
                std::thread::spawn(move || {
                    let frame = String::from_utf8(vec![fill; LEN]).unwrap();
                    for _ in 0..FRAMES {
                        assert!(writer.send_line(&frame));
                    }
                })
            })
            .collect();
        let mut counts = [0usize; 2];
        for _ in 0..2 * FRAMES {
            let ReadLine::Line(line) = reader.next_line() else {
                panic!("connection ended early");
            };
            assert_eq!(line.len(), LEN, "frame torn or merged");
            let first = line.as_bytes()[0];
            assert!(line.bytes().all(|b| b == first), "frames interleaved");
            counts[usize::from(first - b'a')] += 1;
        }
        for sender in senders {
            sender.join().unwrap();
        }
        assert_eq!(counts, [FRAMES, FRAMES]);
    }

    #[test]
    fn timeout_ticks_do_not_lose_data() {
        let listener = Listener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut reader, _writer) = listener.accept(Some(Duration::from_millis(10))).unwrap();
            let mut ticks = 0;
            loop {
                match reader.next_line() {
                    ReadLine::Line(line) => return (ticks, line),
                    ReadLine::Timeout => ticks += 1,
                    ReadLine::Eof => panic!("peer vanished"),
                }
            }
        });
        let (_reader, writer) = connect(addr, None).unwrap();
        std::thread::sleep(Duration::from_millis(60));
        assert!(writer.send_line("late"));
        let (ticks, line) = server.join().unwrap();
        assert!(ticks >= 1, "reader observed timeout ticks");
        assert_eq!(line, "late");
    }

    #[test]
    fn writer_death_is_sticky_and_silent() {
        let listener = Listener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (_reader, writer) = connect(addr, None).unwrap();
        let (server_reader, server_writer) = listener.accept(None).unwrap();
        // Both halves share the fd via try_clone; drop both to close it.
        drop(server_reader);
        drop(server_writer);
        // The peer is gone; sends eventually fail and then stay failed.
        let mut saw_dead = false;
        for _ in 0..100 {
            if !writer.send_line("into the void") {
                saw_dead = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(saw_dead, "send to a closed peer must eventually fail");
        assert!(writer.is_dead());
        assert!(!writer.send_line("still dead"));
    }

    #[test]
    fn eof_on_peer_close() {
        let listener = Listener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (reader, writer) = connect(addr, None).unwrap();
        let (mut server_reader, _sw) = listener.accept(None).unwrap();
        drop(reader);
        drop(writer);
        assert_eq!(server_reader.next_line(), ReadLine::Eof);
    }
}
