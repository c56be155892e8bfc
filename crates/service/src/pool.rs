//! Per-backend keep-alive connection pool — the router data plane's
//! replacement for one `TcpStream::connect` per proxied request.
//!
//! PR 8 showed the router's hot path is plumbing, not scheduling: every
//! proxied request, health probe, and migration call paid a fresh TCP
//! handshake. The [`ConnectionPool`] keeps a bounded shelf of idle
//! keep-alive connections per backend address and hands them out for
//! single requests:
//!
//! * **Checkout/checkin.** [`ConnectionPool::request`] pops an idle
//!   connection (LIFO — the warmest one), or dials a new one while the
//!   shelf is under [`PoolConfig::capacity`]. At capacity the checkout
//!   is *refused* with [`io::ErrorKind::WouldBlock`] — the caller sheds
//!   instead of queueing, so a saturated backend never grows an
//!   unbounded connection herd.
//! * **Stale detection + safe resend.** A pooled connection the backend
//!   closed while idle fails with an EOF/reset on first use. The pool
//!   retries exactly once on a *freshly dialed* connection (every other
//!   idle connection to that backend is just as dead) — and only when
//!   resending is safe: always for GET/DELETE, for POST only when zero
//!   response bytes arrived. This module owns that rule;
//!   [`Client`](crate::client::Client) is a single-address user of the
//!   pool and resends through it.
//! * **Flush on death.** Breaker trips, retire, and failover call
//!   [`ConnectionPool::flush`] for the dead backend's address: idle
//!   connections are dropped and the shelf's *epoch* is bumped, so
//!   checked-out connections returning late are discarded instead of
//!   being reshelved against a respawned backend.
//! * **Idle reaping.** [`ConnectionPool::reap_idle`] (called from the
//!   router's probe tick) drops connections idle past
//!   [`PoolConfig::idle_max`], ahead of the backend's own idle timeout.
//! * **Deadlines on change.** Each connection remembers the deadline last
//!   applied to it, so a caller re-using it with the same timeout pays no
//!   `setsockopt`; a different timeout is applied before the request.
//!
//! The shelf map sits behind one [`OrderedMutex`] at
//! [`rank::BACKEND_POOL`], held only for map surgery — never across
//! `connect`, a write, or a read — so the pool adds a leaf-like rank to
//! the lock order (recovery holds the backend handle/addr locks while
//! flushing, which is why the rank sits above them).
//!
//! The pool itself never reports failures to the supervisor: callers
//! own the breaker accounting, which is what keeps a failed probe or
//! proxy call counting toward the breaker exactly once.

use std::collections::HashMap;
use std::io::{self, BufRead, BufReader};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crate::client::{read_response, send_request, HttpAnswer};
use crate::sync::{rank, OrderedMutex};

/// Sizing and lifetime knobs of a [`ConnectionPool`].
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// Maximum connections (idle + checked out) per backend address.
    /// Checkouts beyond it are refused with
    /// [`io::ErrorKind::WouldBlock`].
    pub capacity: usize,
    /// Idle connections older than this are dropped by
    /// [`ConnectionPool::reap_idle`]. Keep it under the backend's own
    /// keep-alive idle timeout so the pool retires connections before
    /// the server does.
    pub idle_max: Duration,
}

impl Default for PoolConfig {
    fn default() -> Self {
        Self { capacity: 8, idle_max: Duration::from_secs(10) }
    }
}

/// A pooled connection and the read/write deadline last applied to it
/// (`None` until its first request).
#[derive(Debug)]
struct Conn {
    io: BufReader<TcpStream>,
    deadline: Option<Duration>,
}

impl Conn {
    /// Makes `timeout` the read and write deadline, with no syscall when
    /// it already is.
    fn set_deadline(&mut self, timeout: Duration) -> io::Result<()> {
        if self.deadline != Some(timeout) {
            let stream = self.io.get_ref();
            stream.set_read_timeout(Some(timeout))?;
            stream.set_write_timeout(Some(timeout))?;
            self.deadline = Some(timeout);
        }
        Ok(())
    }
}

/// One parked keep-alive connection.
#[derive(Debug)]
struct Idle {
    conn: Conn,
    since: Instant,
}

/// Per-backend shelf: parked connections plus checkout accounting.
#[derive(Debug, Default)]
struct Shelf {
    /// Bumped by [`ConnectionPool::flush`]; a checkin whose checkout
    /// epoch is older is discarded (the backend died in between).
    epoch: u64,
    /// Connections currently checked out against this epoch.
    outstanding: usize,
    idle: Vec<Idle>,
}

/// A bounded keep-alive connection pool keyed by backend address. See
/// the [module docs](self) for the protocol.
#[derive(Debug)]
pub struct ConnectionPool {
    cfg: PoolConfig,
    shelves: OrderedMutex<HashMap<SocketAddr, Shelf>>,
    opened: AtomicU64,
    reused: AtomicU64,
}

/// A checked-out connection: the stream plus the receipt needed to
/// return or discard it correctly.
#[derive(Debug)]
struct Checkout {
    conn: Conn,
    epoch: u64,
    reused: bool,
}

impl ConnectionPool {
    /// An empty pool with the given knobs.
    #[must_use]
    pub fn new(cfg: PoolConfig) -> Self {
        Self {
            cfg,
            shelves: OrderedMutex::new(rank::BACKEND_POOL, HashMap::new()),
            opened: AtomicU64::new(0),
            reused: AtomicU64::new(0),
        }
    }

    /// This pool's configuration.
    #[must_use]
    pub fn config(&self) -> &PoolConfig {
        &self.cfg
    }

    /// Fresh connections dialed so far (reuse observability).
    #[must_use]
    pub fn connections_opened(&self) -> u64 {
        self.opened.load(Ordering::Relaxed)
    }

    /// Requests served on a reshelved (reused) connection so far.
    #[must_use]
    pub fn requests_reused(&self) -> u64 {
        self.reused.load(Ordering::Relaxed)
    }

    /// Idle connections currently parked for `addr` (test observability).
    #[must_use]
    pub fn idle_count(&self, addr: SocketAddr) -> usize {
        self.shelves.lock_recover().get(&addr).map_or(0, |s| s.idle.len())
    }

    /// Connections currently checked out against `addr`'s live epoch.
    #[must_use]
    pub fn outstanding_count(&self, addr: SocketAddr) -> usize {
        self.shelves.lock_recover().get(&addr).map_or(0, |s| s.outstanding)
    }

    /// One pooled request with a per-request deadline on connect, write,
    /// and read. Transparently retries once on a fresh connection when a
    /// *reused* connection turns out stale and resending is safe (see
    /// the module docs).
    ///
    /// # Errors
    /// [`io::ErrorKind::WouldBlock`] when the shelf is at capacity (the
    /// caller should shed, not count it as a backend failure unless its
    /// protocol says so); otherwise socket/parse errors as in
    /// [`crate::client::request_answer`].
    pub fn request(
        &self,
        addr: SocketAddr,
        method: &str,
        path: &str,
        body: Option<&str>,
        timeout: Duration,
    ) -> io::Result<HttpAnswer> {
        let checkout = self.checkout(addr, timeout, false)?;
        let reused = checkout.reused;
        match self.drive(addr, checkout, method, path, body, timeout) {
            Err((got_bytes, e)) if reused && is_stale(&e) && resend_safe(method, got_bytes) => {
                // Every idle connection to this backend predates ours, so
                // the one retry must be on a freshly dialed connection.
                let fresh = self.checkout(addr, timeout, true)?;
                self.drive(addr, fresh, method, path, body, timeout).map_err(|(_, e)| e)
            }
            Err((_, e)) => Err(e),
            Ok(ans) => Ok(ans),
        }
    }

    /// Sends one request on a checked-out connection and settles the
    /// checkout: reshelve on clean keep-alive, discard on close/error.
    fn drive(
        &self,
        addr: SocketAddr,
        mut checkout: Checkout,
        method: &str,
        path: &str,
        body: Option<&str>,
        timeout: Duration,
    ) -> Result<HttpAnswer, (bool, io::Error)> {
        let conn = &mut checkout.conn;
        let (got_bytes, outcome) = match conn
            .set_deadline(timeout)
            .and_then(|()| send_request(conn.io.get_mut(), addr, method, path, body, false))
        {
            Ok(()) => read_response_probed(&mut conn.io),
            Err(e) => (false, Err(e)),
        };
        match outcome {
            Ok(ans) => {
                if checkout.reused {
                    self.reused.fetch_add(1, Ordering::Relaxed);
                }
                if ans.close {
                    self.discard(addr, checkout.epoch);
                } else {
                    self.checkin(addr, checkout);
                }
                Ok(ans)
            }
            Err(e) => {
                self.discard(addr, checkout.epoch);
                Err((got_bytes, e))
            }
        }
    }

    /// Pops an idle connection or dials a fresh one (outside the shelf
    /// lock). `force_fresh` skips the idle shelf — the stale-retry path.
    fn checkout(
        &self,
        addr: SocketAddr,
        timeout: Duration,
        force_fresh: bool,
    ) -> io::Result<Checkout> {
        let epoch = {
            let mut shelves = self.shelves.lock_recover();
            let shelf = shelves.entry(addr).or_default();
            if !force_fresh {
                if let Some(idle) = shelf.idle.pop() {
                    shelf.outstanding += 1;
                    return Ok(Checkout { conn: idle.conn, epoch: shelf.epoch, reused: true });
                }
            }
            if shelf.outstanding + shelf.idle.len() >= self.cfg.capacity {
                return Err(io::Error::new(
                    io::ErrorKind::WouldBlock,
                    format!("connection pool for {addr} is at capacity"),
                ));
            }
            shelf.outstanding += 1;
            shelf.epoch
        };
        match Self::dial(addr, timeout) {
            Ok(stream) => {
                self.opened.fetch_add(1, Ordering::Relaxed);
                let conn = Conn { io: BufReader::new(stream), deadline: None };
                Ok(Checkout { conn, epoch, reused: false })
            }
            Err(e) => {
                self.discard(addr, epoch);
                Err(e)
            }
        }
    }

    fn dial(addr: SocketAddr, timeout: Duration) -> io::Result<TcpStream> {
        let stream = TcpStream::connect_timeout(&addr, timeout)?;
        // A request is one write, but nodelay still keeps a keep-alive
        // exchange from waiting on a delayed ACK; see
        // `client::request_answer` for why that matters double here.
        let _ = stream.set_nodelay(true);
        Ok(stream)
    }

    /// Reshelves a healthy connection — unless the shelf was flushed
    /// while it was out (epoch mismatch), in which case it is dropped.
    fn checkin(&self, addr: SocketAddr, checkout: Checkout) {
        let mut shelves = self.shelves.lock_recover();
        if let Some(shelf) = shelves.get_mut(&addr) {
            if shelf.epoch == checkout.epoch {
                shelf.outstanding = shelf.outstanding.saturating_sub(1);
                if shelf.idle.len() < self.cfg.capacity {
                    shelf.idle.push(Idle { conn: checkout.conn, since: Instant::now() });
                }
            }
        }
    }

    /// Releases a checkout slot without reshelving the connection.
    fn discard(&self, addr: SocketAddr, epoch: u64) {
        let mut shelves = self.shelves.lock_recover();
        if let Some(shelf) = shelves.get_mut(&addr) {
            if shelf.epoch == epoch {
                shelf.outstanding = shelf.outstanding.saturating_sub(1);
            }
        }
    }

    /// Drops every idle connection to `addr` and invalidates checked-out
    /// ones (they are discarded on return instead of reshelved). Called
    /// when a backend's breaker trips, it is retired, or failover
    /// replaces it. Returns how many idle connections were dropped.
    pub fn flush(&self, addr: SocketAddr) -> usize {
        let mut shelves = self.shelves.lock_recover();
        match shelves.get_mut(&addr) {
            Some(shelf) => {
                shelf.epoch += 1;
                shelf.outstanding = 0;
                let n = shelf.idle.len();
                shelf.idle.clear();
                n
            }
            None => 0,
        }
    }

    /// Drops idle connections older than [`PoolConfig::idle_max`]
    /// (called from the router's probe tick). Returns how many were
    /// dropped.
    pub fn reap_idle(&self) -> usize {
        let mut reaped = 0;
        let mut shelves = self.shelves.lock_recover();
        for shelf in shelves.values_mut() {
            let before = shelf.idle.len();
            shelf.idle.retain(|idle| idle.since.elapsed() < self.cfg.idle_max);
            reaped += before - shelf.idle.len();
        }
        reaped
    }
}

/// Reads one response off the wire, reporting whether *any* response
/// bytes arrived before the outcome was decided. The distinction drives
/// resend safety on pooled connections: a keep-alive connection the
/// server closed while idle yields zero bytes (the request was never
/// processed — resending is safe even for a POST), whereas a connection
/// that died mid-response may have committed the request's effects.
fn read_response_probed(reader: &mut BufReader<TcpStream>) -> (bool, io::Result<HttpAnswer>) {
    match reader.fill_buf() {
        Ok([]) => {
            (false, Err(io::Error::new(io::ErrorKind::UnexpectedEof, "connection closed")))
        }
        Ok(_) => (true, read_response(reader)),
        Err(e) => (false, Err(e)),
    }
}

/// Whether resending `method` after a stale-connection failure is safe.
/// GET and DELETE are idempotent — always safe. POST (create,
/// checkpoint, admin actions) is safe only when the failure arrived
/// before any response byte: the server either never saw the request or
/// closed the connection without starting to answer it.
fn resend_safe(method: &str, got_response_bytes: bool) -> bool {
    matches!(method, "GET" | "DELETE") || !got_response_bytes
}

/// Errors consistent with "the server closed the idle keep-alive
/// connection between our requests".
fn is_stale(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::UnexpectedEof
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::BrokenPipe
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::{HttpConfig, HttpServer, Response};
    use std::io::{BufRead, Write};
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    const TIMEOUT: Duration = Duration::from_secs(5);

    fn echo_server(workers: usize) -> HttpServer {
        HttpServer::bind_with(
            "127.0.0.1:0",
            HttpConfig { workers, ..HttpConfig::default() },
            Arc::new(AtomicBool::new(false)),
            |req| Response::text(200, format!("echo {}", req.path)),
        )
        .unwrap()
    }

    #[test]
    fn resend_safety_is_method_and_bytes_aware() {
        // Idempotent verbs are always safe to resend.
        assert!(resend_safe("GET", true));
        assert!(resend_safe("GET", false));
        assert!(resend_safe("DELETE", true));
        // POST is safe only before the first response byte.
        assert!(resend_safe("POST", false));
        assert!(!resend_safe("POST", true));
    }

    #[test]
    fn requests_reuse_pooled_connections() {
        let server = echo_server(1);
        let pool = ConnectionPool::new(PoolConfig::default());
        for i in 0..16 {
            let ans =
                pool.request(server.addr(), "GET", &format!("/r{i}"), None, TIMEOUT).unwrap();
            assert_eq!(ans.status, 200);
            assert_eq!(ans.body, format!("echo /r{i}"));
        }
        assert_eq!(pool.connections_opened(), 1, "one dial serves the whole series");
        assert_eq!(pool.requests_reused(), 15);
        assert_eq!(pool.idle_count(server.addr()), 1);
        assert_eq!(pool.outstanding_count(server.addr()), 0);
    }

    #[test]
    fn capacity_refuses_with_would_block() {
        let server = echo_server(1);
        let pool = ConnectionPool::new(PoolConfig { capacity: 2, ..PoolConfig::default() });
        let addr = server.addr();
        // Fill the shelf to capacity with parked connections, then
        // poison the accounting by pretending both are checked out.
        pool.request(addr, "GET", "/warm", None, TIMEOUT).unwrap();
        {
            let mut shelves = pool.shelves.lock_recover();
            let shelf = shelves.get_mut(&addr).unwrap();
            shelf.outstanding = 2;
            shelf.idle.clear();
        }
        let err = pool.request(addr, "GET", "/full", None, TIMEOUT).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WouldBlock);
    }

    #[test]
    fn flush_empties_only_the_victim_backend() {
        let a = echo_server(1);
        let b = echo_server(1);
        let pool = ConnectionPool::new(PoolConfig::default());
        pool.request(a.addr(), "GET", "/a", None, TIMEOUT).unwrap();
        pool.request(b.addr(), "GET", "/b", None, TIMEOUT).unwrap();
        assert_eq!(pool.flush(a.addr()), 1);
        assert_eq!(pool.idle_count(a.addr()), 0);
        assert_eq!(pool.idle_count(b.addr()), 1, "the survivor's shelf is untouched");
    }

    #[test]
    fn stale_pooled_connection_is_retried_fresh_for_gets() {
        let mut server = echo_server(1);
        let addr = server.addr();
        let pool = ConnectionPool::new(PoolConfig::default());
        assert_eq!(pool.request(addr, "GET", "/one", None, TIMEOUT).unwrap().status, 200);
        // Kill the server: the parked connection is now stale. Rebinding
        // on the same port isn't portable, so drive the stale path by
        // asserting the reconnect attempt happens (and fails cleanly).
        server.shutdown();
        let err = pool.request(addr, "GET", "/two", None, TIMEOUT).unwrap_err();
        // The stale idle connection was tried and the fresh redial then
        // failed to connect — two distinct failure modes both fine; what
        // matters is nothing reshelved and accounting is clean.
        assert!(err.kind() != io::ErrorKind::WouldBlock);
        assert_eq!(pool.idle_count(addr), 0);
        assert_eq!(pool.outstanding_count(addr), 0);
    }

    #[test]
    fn a_changed_deadline_is_applied_to_a_reused_connection() {
        // A peer that answers the first request, then reads the second
        // and never answers it.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (release, released) = std::sync::mpsc::channel::<()>();
        let peer = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream);
            let read_head = |reader: &mut BufReader<TcpStream>| {
                let mut line = String::new();
                while reader.read_line(&mut line).unwrap() > 0 && line != "\r\n" {
                    line.clear();
                }
            };
            read_head(&mut reader);
            reader
                .get_mut()
                .write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok")
                .unwrap();
            read_head(&mut reader);
            let _ = released.recv();
        });
        let pool = ConnectionPool::new(PoolConfig::default());
        let ans = pool.request(addr, "GET", "/one", None, Duration::from_secs(10)).unwrap();
        assert_eq!(ans.status, 200);
        let t0 = Instant::now();
        let err =
            pool.request(addr, "GET", "/two", None, Duration::from_millis(200)).unwrap_err();
        assert!(t0.elapsed() < Duration::from_secs(1), "waited {:?}: {err}", t0.elapsed());
        assert_eq!(pool.connections_opened(), 1, "the second request reused the connection");
        drop(release);
        peer.join().unwrap();
    }

    #[test]
    fn reap_drops_connections_idle_past_the_limit() {
        let server = echo_server(1);
        let pool = ConnectionPool::new(PoolConfig {
            idle_max: Duration::ZERO,
            ..PoolConfig::default()
        });
        pool.request(server.addr(), "GET", "/one", None, TIMEOUT).unwrap();
        assert_eq!(pool.idle_count(server.addr()), 1);
        assert_eq!(pool.reap_idle(), 1);
        assert_eq!(pool.idle_count(server.addr()), 0);
        // The next request simply dials again.
        assert_eq!(
            pool.request(server.addr(), "GET", "/two", None, TIMEOUT).unwrap().status,
            200
        );
        assert_eq!(pool.connections_opened(), 2);
    }
}
