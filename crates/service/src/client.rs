//! A minimal blocking HTTP/1.1 client for the service.
//!
//! Two tiers live here:
//!
//! * The free functions ([`request`], [`get`], [`post`], [`delete`]) send
//!   one request per connection with `Connection: close` — small enough to
//!   double as a reference for driving the service from any language.
//!   [`request_answer`] is the same one-shot call with an explicit
//!   deadline and the full parsed [`HttpAnswer`]. A one-shot request is
//!   never resent.
//! * [`Client`] sends every request through a private [`ConnectionPool`]
//!   for its one address, as the router's proxy and the supervisor's
//!   probes do: a keep-alive connection is reused across requests, and a
//!   stale one is resent under the pool's rule. On top of that it applies
//!   a per-request deadline and retries **idempotent GETs only** with
//!   seeded exponential backoff plus jitter — so retry schedules in tests
//!   and benches are reproducible. When a `503`/`429` answer carries a
//!   `Retry-After` header, the client honors the server's hint instead of
//!   its own exponential schedule, capped at [`ClientConfig::backoff_max`].
//!
//! The request writer and response parser here are the codec both tiers
//! and the pool share.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use crate::faultio::XorShift64;
use crate::http::write_message;
use crate::pool::{ConnectionPool, PoolConfig};

const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// One fully-parsed HTTP response: status, body, and the headers the
/// service's clients act on.
#[derive(Debug, Clone)]
pub struct HttpAnswer {
    /// HTTP status code.
    pub status: u16,
    /// UTF-8 body.
    pub body: String,
    /// `Content-Type` header value, if present.
    pub content_type: Option<String>,
    /// `Retry-After` header in whole seconds, if present and numeric.
    pub retry_after: Option<u64>,
    /// Whether the server announced it will close the connection.
    pub close: bool,
}

/// Sends one request on a fresh `Connection: close` connection and
/// returns `(status, body)`.
///
/// # Errors
/// Propagates socket errors; malformed responses surface as
/// [`io::ErrorKind::InvalidData`].
pub fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> io::Result<(u16, String)> {
    request_answer(addr, method, path, body, IO_TIMEOUT).map(|ans| (ans.status, ans.body))
}

/// Sends one request on a fresh `Connection: close` connection with an
/// explicit deadline applied to connect, write, and read, and returns
/// the parsed [`HttpAnswer`].
///
/// # Errors
/// Propagates socket errors (including connect timeouts); malformed
/// responses surface as [`io::ErrorKind::InvalidData`].
pub fn request_answer(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
    timeout: Duration,
) -> io::Result<HttpAnswer> {
    let stream = TcpStream::connect_timeout(&addr, timeout)?;
    // A request is one write, but without nodelay Nagle can still park
    // it behind the peer's delayed ACK of the segment before it (~40 ms,
    // doubled through the router's proxy hop).
    let _ = stream.set_nodelay(true);
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    let mut reader = BufReader::new(stream);
    send_request(reader.get_mut(), addr, method, path, body, true)?;
    read_response(&mut reader)
}

/// `GET path` → `(status, body)`.
///
/// # Errors
/// See [`request`].
pub fn get(addr: SocketAddr, path: &str) -> io::Result<(u16, String)> {
    request(addr, "GET", path, None)
}

/// `POST path` with a body → `(status, body)`.
///
/// # Errors
/// See [`request`].
pub fn post(addr: SocketAddr, path: &str, body: &str) -> io::Result<(u16, String)> {
    request(addr, "POST", path, Some(body))
}

/// `DELETE path` → `(status, body)`.
///
/// # Errors
/// See [`request`].
pub fn delete(addr: SocketAddr, path: &str) -> io::Result<(u16, String)> {
    request(addr, "DELETE", path, None)
}

/// Writes one request, head and body in a single write
/// ([`crate::http::write_message`]).
pub(crate) fn send_request(
    stream: &mut impl Write,
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
    close: bool,
) -> io::Result<()> {
    let payload = body.unwrap_or("");
    let connection = if close { "close" } else { "keep-alive" };
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: {connection}\r\n\r\n",
        payload.len(),
    );
    write_message(stream, head.as_bytes(), payload.as_bytes())
}

/// Reads one response off the wire.
pub(crate) fn read_response(reader: &mut BufReader<TcpStream>) -> io::Result<HttpAnswer> {
    let mut status_line = String::new();
    if reader.read_line(&mut status_line)? == 0 {
        return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "connection closed"));
    }
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;

    let mut content_length: Option<usize> = None;
    let mut content_type: Option<String> = None;
    let mut retry_after: Option<u64> = None;
    let mut close = false;
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "truncated head"));
        }
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            let name = name.trim();
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.parse().ok();
            } else if name.eq_ignore_ascii_case("content-type") {
                content_type = Some(value.to_string());
            } else if name.eq_ignore_ascii_case("retry-after") {
                retry_after = value.parse().ok();
            } else if name.eq_ignore_ascii_case("connection")
                && value.eq_ignore_ascii_case("close")
            {
                close = true;
            }
        }
    }

    let body = match content_length {
        Some(n) => {
            let mut buf = vec![0u8; n];
            reader.read_exact(&mut buf)?;
            buf
        }
        // Only legal without keep-alive: read to EOF.
        None => {
            let mut buf = Vec::new();
            reader.read_to_end(&mut buf)?;
            buf
        }
    };
    let body = String::from_utf8(body)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-UTF-8 body"))?;
    Ok(HttpAnswer { status, body, content_type, retry_after, close })
}

/// Tunables for [`Client`].
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Per-request connect, read and write deadline.
    pub timeout: Duration,
    /// Retry attempts (beyond the first try) for idempotent GETs.
    pub retries: u32,
    /// Base backoff; attempt `i` sleeps `base * 2^i` plus jitter in
    /// `[0, base * 2^i)` — unless the server sent a `Retry-After` hint,
    /// which takes precedence.
    pub backoff_base: Duration,
    /// Upper bound on any single retry sleep, whether computed from the
    /// exponential schedule or taken from a `Retry-After` header (a
    /// misbehaving server must not park the client for an hour).
    pub backoff_max: Duration,
    /// Seed for the jitter PRNG — fixed seed, reproducible schedule.
    pub seed: u64,
}

impl Default for ClientConfig {
    fn default() -> Self {
        Self {
            timeout: Duration::from_secs(30),
            retries: 3,
            backoff_base: Duration::from_millis(20),
            backoff_max: Duration::from_secs(2),
            seed: 0x1ce_b00da,
        }
    }
}

/// A keep-alive HTTP client bound to one server address.
///
/// Requests go through a private [`ConnectionPool`] for that address: the
/// connection is opened lazily, reused across requests, and
/// re-established transparently when the server closes it (request caps,
/// idle timeouts, restarts). [`Client::get`] retries on socket errors,
/// `503`, and `429` with seeded exponential backoff — honoring the
/// server's `Retry-After` hint when one is sent; non-idempotent verbs
/// never retry.
#[derive(Debug)]
pub struct Client {
    addr: SocketAddr,
    cfg: ClientConfig,
    pool: ConnectionPool,
    rng: XorShift64,
}

impl Client {
    /// A client for `addr` with default settings.
    #[must_use]
    pub fn new(addr: SocketAddr) -> Self {
        Self::with_config(addr, ClientConfig::default())
    }

    /// A client for `addr` with explicit settings.
    #[must_use]
    pub fn with_config(addr: SocketAddr, cfg: ClientConfig) -> Self {
        let rng = XorShift64::new(cfg.seed);
        Self { addr, cfg, pool: ConnectionPool::new(PoolConfig::default()), rng }
    }

    /// Connections this client has opened so far (observability for
    /// tests asserting keep-alive reuse).
    #[must_use]
    pub fn connections_opened(&self) -> u64 {
        self.pool.connections_opened()
    }

    /// One request on the kept-alive connection, no retries. A stale
    /// reused connection is resent once, when the pool's rule says that
    /// is safe (see the [`crate::pool`] module docs).
    fn request_once(
        &self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> io::Result<HttpAnswer> {
        self.pool.request(self.addr, method, path, body, self.cfg.timeout)
    }

    /// The sleep before retry number `attempt` (0-based): the server's
    /// `Retry-After` hint when present, otherwise the seeded exponential
    /// schedule; either way capped at [`ClientConfig::backoff_max`].
    fn backoff_delay(&mut self, attempt: u32, retry_after: Option<u64>) -> Duration {
        let delay = match retry_after {
            Some(secs) => Duration::from_secs(secs),
            None => {
                let base = self.cfg.backoff_base.saturating_mul(1 << attempt.min(16));
                let jitter_nanos = self.rng.below(base.as_nanos().max(1) as u64);
                base.saturating_add(Duration::from_nanos(jitter_nanos))
            }
        };
        delay.min(self.cfg.backoff_max)
    }

    /// `GET path` with retries: socket failures and `503`/`429` answers
    /// back off up to [`ClientConfig::retries`] extra attempts — sleeping
    /// the server's `Retry-After` hint when the answer carried one,
    /// otherwise the seeded exponential schedule. GET is idempotent, so
    /// resending is always safe.
    ///
    /// # Errors
    /// The last attempt's socket error.
    pub fn get(&mut self, path: &str) -> io::Result<(u16, String)> {
        let mut attempt = 0u32;
        loop {
            match self.request_once("GET", path, None) {
                Ok(ans) if !matches!(ans.status, 429 | 503) => {
                    return Ok((ans.status, ans.body))
                }
                outcome => {
                    if attempt >= self.cfg.retries {
                        return outcome.map(|ans| (ans.status, ans.body));
                    }
                    let hint = outcome.as_ref().ok().and_then(|ans| ans.retry_after);
                    let delay = self.backoff_delay(attempt, hint);
                    // lint:allow(no-sleep-in-service) the retry backoff is the point
                    std::thread::sleep(delay);
                    attempt += 1;
                }
            }
        }
    }

    /// `GET path` without retries.
    ///
    /// # Errors
    /// Propagates socket errors.
    pub fn get_once(&mut self, path: &str) -> io::Result<(u16, String)> {
        self.request_once("GET", path, None).map(|ans| (ans.status, ans.body))
    }

    /// `POST path` with a body — never retried (not idempotent).
    ///
    /// # Errors
    /// Propagates socket errors.
    pub fn post(&mut self, path: &str, body: &str) -> io::Result<(u16, String)> {
        self.request_once("POST", path, Some(body)).map(|ans| (ans.status, ans.body))
    }

    /// `DELETE path` — never retried automatically.
    ///
    /// # Errors
    /// Propagates socket errors.
    pub fn delete(&mut self, path: &str) -> io::Result<(u16, String)> {
        self.request_once("DELETE", path, None).map(|ans| (ans.status, ans.body))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::{HttpConfig, HttpServer, Response};
    use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
    use std::sync::Arc;

    fn test_client(backoff_max: Duration) -> Client {
        let cfg = ClientConfig {
            backoff_base: Duration::from_millis(10),
            backoff_max,
            ..ClientConfig::default()
        };
        // The address is never dialed by backoff_delay.
        Client::with_config("127.0.0.1:1".parse().unwrap(), cfg)
    }

    #[test]
    fn backoff_honors_retry_after_hint() {
        let mut c = test_client(Duration::from_secs(10));
        assert_eq!(c.backoff_delay(0, Some(3)), Duration::from_secs(3));
        // An early attempt's exponential delay would be ~10ms; the hint
        // wins regardless of attempt number.
        assert_eq!(c.backoff_delay(5, Some(2)), Duration::from_secs(2));
        // Retry-After: 0 means "retry immediately".
        assert_eq!(c.backoff_delay(0, Some(0)), Duration::ZERO);
    }

    #[test]
    fn backoff_caps_retry_after_at_configured_max() {
        let mut c = test_client(Duration::from_millis(50));
        // A server asking for an hour must not park the client.
        assert_eq!(c.backoff_delay(0, Some(3600)), Duration::from_millis(50));
    }

    #[test]
    fn backoff_exponential_schedule_is_capped_too() {
        let mut c = test_client(Duration::from_millis(80));
        let mut last = Duration::ZERO;
        for attempt in 0..8 {
            let d = c.backoff_delay(attempt, None);
            assert!(d <= Duration::from_millis(80), "attempt {attempt} slept {d:?}");
            assert!(d >= last.min(Duration::from_millis(80)));
            last = d;
        }
        // By attempt 8 the uncapped schedule would be 2.56s+jitter.
        assert_eq!(c.backoff_delay(8, None), Duration::from_millis(80));
    }

    /// Reads one HTTP request off a test connection (head + body).
    fn read_request(reader: &mut BufReader<std::net::TcpStream>) -> io::Result<()> {
        let mut content_length = 0usize;
        let mut line = String::new();
        loop {
            line.clear();
            if reader.read_line(&mut line)? == 0 {
                return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "peer went away"));
            }
            let t = line.trim_end();
            if t.is_empty() {
                break;
            }
            if let Some((k, v)) = t.split_once(':') {
                if k.trim().eq_ignore_ascii_case("content-length") {
                    content_length = v.trim().parse().unwrap_or(0);
                }
            }
        }
        let mut body = vec![0u8; content_length];
        reader.read_exact(&mut body)
    }

    #[test]
    fn stale_idle_connection_resends_post_when_no_bytes_received() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            // First connection: answer one request, then close it while
            // the client believes it is still good.
            let (a, _) = listener.accept().unwrap();
            let mut a = BufReader::new(a);
            read_request(&mut a).unwrap();
            a.get_mut()
                .write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nfirst")
                .unwrap();
            drop(a);
            // Second connection: the transparently resent POST.
            let (b, _) = listener.accept().unwrap();
            let mut b = BufReader::new(b);
            read_request(&mut b).unwrap();
            b.get_mut()
                .write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 6\r\n\r\nsecond")
                .unwrap();
        });
        let mut client = Client::new(addr);
        let (s1, b1) = client.post("/one", "{}").unwrap();
        assert_eq!((s1, b1.as_str()), (200, "first"));
        // The server closed the idle connection without reading this
        // request: zero response bytes → safe to resend, even as a POST.
        let (s2, b2) = client.post("/two", "{}").unwrap();
        assert_eq!((s2, b2.as_str()), (200, "second"));
        assert_eq!(client.connections_opened(), 2, "exactly one transparent reconnect");
        server.join().unwrap();
    }

    #[test]
    fn post_that_died_mid_response_surfaces_the_error() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (a, _) = listener.accept().unwrap();
            let mut a = BufReader::new(a);
            read_request(&mut a).unwrap();
            a.get_mut()
                .write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nfirst")
                .unwrap();
            // Second request on the same connection: start answering,
            // then die mid-head — the request's effects may have landed.
            read_request(&mut a).unwrap();
            a.get_mut().write_all(b"HTTP/1.1 500 Inter").unwrap();
        });
        let mut client = Client::new(addr);
        let (s1, _) = client.post("/one", "{}").unwrap();
        assert_eq!(s1, 200);
        // Response bytes arrived before the connection died: resending
        // the POST could double-apply it, so the error must surface.
        let err = client.post("/two", "{}").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        assert_eq!(client.connections_opened(), 1, "no transparent resend");
        server.join().unwrap();
    }

    #[test]
    fn get_that_died_mid_response_is_resent_once_and_succeeds() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (a, _) = listener.accept().unwrap();
            let mut a = BufReader::new(a);
            read_request(&mut a).unwrap();
            a.get_mut()
                .write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nfirst")
                .unwrap();
            // Second request on the same connection: start answering,
            // then die mid-head.
            read_request(&mut a).unwrap();
            a.get_mut().write_all(b"HTTP/1.1 200 OK\r\nContent-Le").unwrap();
            drop(a);
            // Second connection: the resent GET.
            let (b, _) = listener.accept().unwrap();
            let mut b = BufReader::new(b);
            read_request(&mut b).unwrap();
            b.get_mut()
                .write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 6\r\n\r\nsecond")
                .unwrap();
        });
        let mut client = Client::new(addr);
        assert_eq!(client.get_once("/one").unwrap(), (200, "first".to_string()));
        // Response bytes arrived before the connection died, but a GET is
        // idempotent: it is resent once, on a fresh connection.
        assert_eq!(client.get_once("/two").unwrap(), (200, "second".to_string()));
        assert_eq!(client.connections_opened(), 2, "exactly one transparent resend");
        server.join().unwrap();
    }

    #[test]
    fn get_retries_on_503_honoring_retry_after_zero() {
        let attempts = Arc::new(AtomicU32::new(0));
        let seen = Arc::clone(&attempts);
        let server = HttpServer::bind_with(
            "127.0.0.1:0",
            HttpConfig { workers: 1, ..HttpConfig::default() },
            Arc::new(AtomicBool::new(false)),
            move |_req| {
                if seen.fetch_add(1, Ordering::SeqCst) < 2 {
                    Response::text(503, "overloaded").with_header("Retry-After", "0")
                } else {
                    Response::text(200, "ok")
                }
            },
        )
        .unwrap();
        let cfg = ClientConfig {
            retries: 3,
            backoff_base: Duration::from_millis(5),
            backoff_max: Duration::from_millis(20),
            ..ClientConfig::default()
        };
        let mut client = Client::with_config(server.addr(), cfg);
        let started = std::time::Instant::now();
        let (status, body) = client.get("/anything").unwrap();
        assert_eq!((status, body.as_str()), (200, "ok"));
        assert_eq!(attempts.load(Ordering::SeqCst), 3, "two 503s then success");
        // Retry-After: 0 → both sleeps were immediate, far under the
        // exponential schedule's floor of ~15ms combined.
        assert!(started.elapsed() < Duration::from_secs(2));
    }
}
