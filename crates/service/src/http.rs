//! A minimal HTTP/1.1 server on `std::net` — no async runtime, no
//! external dependencies.
//!
//! Scope is deliberately narrow: the server parses only what the
//! service's endpoints need (method, path, query string,
//! `Content-Length` bodies, the `Connection` header) and runs a fixed
//! thread pool — an acceptor thread feeding worker threads through a
//! *bounded* channel. The connection lifecycle is explicit:
//!
//! * **keep-alive** — each connection serves up to
//!   [`HttpConfig::max_requests_per_conn`] requests before the server
//!   closes it (`Connection: close` on the final response);
//! * **deadlines** — an idle deadline between requests
//!   ([`HttpConfig::idle_timeout`]) and a read deadline once a request
//!   has started arriving ([`HttpConfig::read_timeout`]); a stalled
//!   mid-request read answers `408`, oversized heads answer `431`,
//!   oversized bodies `413`. The read deadline is armed only when a read
//!   must wait on the socket, so a request that arrives whole costs no
//!   deadline syscall;
//! * **one write per message** — a response's head and body leave in
//!   one vectored write, as do the client's requests;
//! * **load shedding** — when all workers are busy and the accept
//!   backlog ([`HttpConfig::backlog`]) is full, new connections get an
//!   immediate `503` with `Retry-After` instead of waiting forever;
//! * **graceful drain** — a shared drain flag stops the acceptor,
//!   in-flight requests finish (their responses close the connection,
//!   the response to the request that set the flag included), and
//!   [`HttpServer::join`] returns once the pool is empty.
//!
//! The acceptor blocks in `accept` and re-reads the stop and drain flags
//! after every accept; [`HttpServer::shutdown`] and [`HttpServer::join`]
//! wake it with one throwaway loopback connection, so neither a stop nor
//! a new connection waits on a poll interval.

use std::io::{self, BufRead, BufReader, IoSlice, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::json::Json;
use crate::spec::ApiError;
use crate::sync::{rank, OrderedMutex};

/// Connection-lifecycle and parser limits of the HTTP server.
#[derive(Debug, Clone)]
pub struct HttpConfig {
    /// Worker threads handling requests.
    pub workers: usize,
    /// Upper bound on the request head (request line + headers); beyond
    /// it the request is answered with `431`.
    pub max_head_bytes: usize,
    /// Upper bound on request bodies (snapshot documents are the
    /// largest); beyond it the request is answered with `413`.
    pub max_body_bytes: usize,
    /// Deadline for reads once a request has started arriving; a stall
    /// answers `408` and closes the connection.
    pub read_timeout: Duration,
    /// Deadline for writing a response; a stalled reader loses the
    /// connection.
    pub write_timeout: Duration,
    /// Keep-alive idle deadline *between* requests; expiry closes the
    /// connection silently (the client simply went away).
    pub idle_timeout: Duration,
    /// Requests served per connection before the server closes it
    /// (bounds per-connection resource lifetime under keep-alive).
    pub max_requests_per_conn: u64,
    /// Accepted connections queued for workers before new arrivals are
    /// shed with `503 Retry-After`.
    pub backlog: usize,
}

impl Default for HttpConfig {
    fn default() -> Self {
        Self {
            workers: 4,
            max_head_bytes: 64 * 1024,
            max_body_bytes: 64 * 1024 * 1024,
            read_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(30),
            idle_timeout: Duration::from_secs(5),
            max_requests_per_conn: 1000,
            backlog: 1024,
        }
    }
}

/// One parsed request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Upper-case method (`GET`, `POST`, `DELETE`, ...).
    pub method: String,
    /// Decoded path, without the query string.
    pub path: String,
    /// Query parameters in order of appearance (no percent-decoding —
    /// the service's parameters are numeric or keyword-valued).
    pub query: Vec<(String, String)>,
    /// Raw body bytes.
    pub body: Vec<u8>,
    /// Whether the client asked for the connection to close after this
    /// request (`Connection: close`).
    pub close: bool,
}

impl Request {
    /// First value of a query parameter.
    #[must_use]
    pub fn query_param(&self, key: &str) -> Option<&str> {
        self.query.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }

    /// Parses the body as JSON.
    ///
    /// # Errors
    /// [`ApiError`] (400) on invalid UTF-8 or JSON.
    pub fn json_body(&self) -> Result<Json, ApiError> {
        let text = std::str::from_utf8(&self.body)
            .map_err(|_| ApiError::bad_request("body is not valid UTF-8"))?;
        Json::parse(text).map_err(|e| {
            ApiError::bad_request(format!("invalid JSON at byte {}: {}", e.at, e.msg))
        })
    }
}

/// One response to write back.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Extra headers (name, value) appended to the response head.
    pub headers: Vec<(&'static str, String)>,
    /// Body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// A JSON response.
    #[must_use]
    pub fn json(status: u16, value: &Json) -> Self {
        Self {
            status,
            content_type: "application/json",
            headers: Vec::new(),
            body: value.encode().into_bytes(),
        }
    }

    /// A plain-text response.
    #[must_use]
    pub fn text(status: u16, body: impl Into<String>) -> Self {
        Self {
            status,
            content_type: "text/plain; charset=utf-8",
            headers: Vec::new(),
            body: body.into().into_bytes(),
        }
    }

    /// A CSV response.
    #[must_use]
    pub fn csv(body: String) -> Self {
        Self {
            status: 200,
            content_type: "text/csv; charset=utf-8",
            headers: Vec::new(),
            body: body.into_bytes(),
        }
    }

    /// Appends a header.
    #[must_use]
    pub fn with_header(mut self, name: &'static str, value: impl Into<String>) -> Self {
        self.headers.push((name, value.into()));
        self
    }
}

impl From<ApiError> for Response {
    fn from(e: ApiError) -> Self {
        let retry_after = e.retry_after;
        let mut resp =
            Response::json(e.status, &Json::Obj(vec![("error".into(), Json::Str(e.message))]));
        if let Some(secs) = retry_after {
            resp = resp.with_header("Retry-After", secs.to_string());
        }
        resp
    }
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        204 => "No Content",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        413 => "Payload Too Large",
        431 => "Request Header Fields Too Large",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    }
}

fn parse_query(raw: &str) -> Vec<(String, String)> {
    raw.split('&')
        .filter(|s| !s.is_empty())
        .map(|pair| match pair.split_once('=') {
            Some((k, v)) => (k.to_string(), v.to_string()),
            None => (pair.to_string(), String::new()),
        })
        .collect()
}

/// Why reading a request off a connection failed. Maps to a response
/// status (`408`/`413`/`431`/`400`) or to silently closing the
/// connection — stalled or vanished clients must never take a worker
/// down, and protocol violations must be *told* their violation instead
/// of being dropped without a trace.
#[derive(Debug)]
pub enum ReadError {
    /// Clean EOF (or reset) before any byte of a request: the peer is
    /// done with the connection. Close silently.
    Closed,
    /// The keep-alive idle deadline expired with no request started.
    /// Close silently.
    IdleTimeout,
    /// The read deadline expired mid-request (slow-loris) → `408`.
    TimedOut,
    /// The head exceeded [`HttpConfig::max_head_bytes`] → `431`.
    HeadTooLarge,
    /// The declared body exceeds [`HttpConfig::max_body_bytes`] → `413`.
    BodyTooLarge,
    /// The bytes were not a parseable request → `400`.
    Malformed(String),
    /// Some other socket error; nothing sensible to answer.
    Io(io::Error),
}

impl ReadError {
    /// The response owed for this failure, if any (`None` = just close).
    #[must_use]
    pub fn response(&self) -> Option<Response> {
        match self {
            ReadError::Closed | ReadError::IdleTimeout | ReadError::Io(_) => None,
            ReadError::TimedOut => {
                Some(Response::from(ApiError::new(408, "request read timed out")))
            }
            ReadError::HeadTooLarge => {
                Some(Response::from(ApiError::new(431, "request head too large")))
            }
            ReadError::BodyTooLarge => {
                Some(Response::from(ApiError::new(413, "request body too large")))
            }
            ReadError::Malformed(why) => {
                Some(Response::from(ApiError::bad_request(format!("malformed request: {why}"))))
            }
        }
    }
}

/// Whether a socket read deadline expired: Unix reports it as
/// `WouldBlock`, Windows as `TimedOut`.
fn is_timeout(e: &io::Error) -> bool {
    matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut)
}

/// Reads and parses one request. Generic over the stream so the chaos
/// suite can drive it with fault-injected readers. When `sock` is given,
/// it carries the idle deadline on entry; once the request line is in,
/// the deadline is tightened to the read timeout just before a read that
/// must wait on the socket (the buffer lacks the next head line or the
/// whole body), and restored before the request is returned.
///
/// # Errors
/// [`ReadError`] classifying how the connection misbehaved.
pub fn read_request<R: Read>(
    reader: &mut BufReader<R>,
    cfg: &HttpConfig,
    sock: Option<&TcpStream>,
) -> Result<Request, ReadError> {
    // Request line first: its absence distinguishes "idle keep-alive
    // connection went away" from "request torn mid-flight".
    let mut request_line = Vec::new();
    let n = reader
        .by_ref()
        .take(cfg.max_head_bytes as u64)
        .read_until(b'\n', &mut request_line)
        .map_err(|e| {
            if is_timeout(&e) {
                if request_line.is_empty() {
                    ReadError::IdleTimeout
                } else {
                    ReadError::TimedOut
                }
            } else if e.kind() == io::ErrorKind::ConnectionReset && request_line.is_empty() {
                ReadError::Closed
            } else {
                ReadError::Io(e)
            }
        })?;
    if n == 0 {
        return Err(ReadError::Closed);
    }
    if !request_line.ends_with(b"\n") {
        return Err(if request_line.len() >= cfg.max_head_bytes {
            ReadError::HeadTooLarge
        } else {
            ReadError::Malformed("truncated request line".into())
        });
    }
    // A request is in flight: a read that must wait on the socket for the
    // rest of the head or the body runs under the read deadline.
    let mut armed = false;
    let mut before_read = |buffered: bool| {
        if !buffered && !armed {
            armed = true;
            if let Some(s) = sock {
                let _ = s.set_read_timeout(Some(cfg.read_timeout));
            }
        }
    };

    let mut head = request_line;
    loop {
        let mut line = Vec::new();
        before_read(reader.buffer().contains(&b'\n'));
        let budget = cfg.max_head_bytes.saturating_sub(head.len());
        let n =
            reader.by_ref().take(budget as u64).read_until(b'\n', &mut line).map_err(|e| {
                if is_timeout(&e) {
                    ReadError::TimedOut
                } else {
                    ReadError::Io(e)
                }
            })?;
        if n == 0 {
            return Err(if budget == 0 {
                ReadError::HeadTooLarge
            } else {
                ReadError::Malformed("truncated request head".into())
            });
        }
        if line == b"\r\n" || line == b"\n" {
            break;
        }
        head.extend_from_slice(&line);
        if head.len() >= cfg.max_head_bytes {
            return Err(ReadError::HeadTooLarge);
        }
    }

    let head = String::from_utf8(head)
        .map_err(|_| ReadError::Malformed("non-UTF-8 request head".into()))?;
    let mut lines = head.lines();
    let request_line =
        lines.next().ok_or_else(|| ReadError::Malformed("empty request".into()))?;
    let mut parts = request_line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| ReadError::Malformed("missing method".into()))?
        .to_ascii_uppercase();
    let target = parts.next().ok_or_else(|| ReadError::Malformed("missing path".into()))?;
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), parse_query(q)),
        None => (target.to_string(), Vec::new()),
    };

    let mut content_length = 0usize;
    let mut close = false;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            let name = name.trim();
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| ReadError::Malformed("bad content-length".into()))?;
            } else if name.eq_ignore_ascii_case("connection")
                && value.trim().eq_ignore_ascii_case("close")
            {
                close = true;
            }
        }
    }
    if content_length > cfg.max_body_bytes {
        return Err(ReadError::BodyTooLarge);
    }
    before_read(reader.buffer().len() >= content_length);
    let mut body = vec![0u8; content_length];
    // A peer that reset or vanished mid-body is an `Io` error too: nobody is
    // listening for an answer.
    reader.read_exact(&mut body).map_err(|e| {
        if is_timeout(&e) {
            ReadError::TimedOut
        } else {
            ReadError::Io(e)
        }
    })?;
    // Back to idle for the next request, if this one moved the deadline.
    if let Some(s) = sock.filter(|_| armed) {
        let _ = s.set_read_timeout(Some(cfg.idle_timeout));
    }
    Ok(Request { method, path, query, body, close })
}

fn write_response(
    stream: &mut impl Write,
    resp: &Response,
    keep_alive: bool,
) -> io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\n",
        resp.status,
        reason(resp.status),
        resp.content_type,
        resp.body.len(),
    );
    for (name, value) in &resp.headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str(if keep_alive {
        "Connection: keep-alive\r\n\r\n"
    } else {
        "Connection: close\r\n\r\n"
    });
    write_message(stream, head.as_bytes(), &resp.body)
}

/// Sends one HTTP message, head and body, in one vectored write, so a
/// message costs one syscall and leaves as one segment, and the body is
/// never copied. A partial or `Interrupted` write is finished here.
pub(crate) fn write_message(
    stream: &mut impl Write,
    mut head: &[u8],
    mut body: &[u8],
) -> io::Result<()> {
    while !head.is_empty() || !body.is_empty() {
        match stream.write_vectored(&[IoSlice::new(head), IoSlice::new(body)]) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => {
                let from_head = n.min(head.len());
                head = &head[from_head..];
                body = &body[n - from_head..];
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    stream.flush()
}

/// Serves one connection until it closes: a keep-alive loop over
/// `read_request` → handler → `write_response`, bounded by the
/// per-connection request cap and the drain flag.
fn serve_connection<F>(stream: &TcpStream, cfg: &HttpConfig, closing: &AtomicBool, handler: &F)
where
    F: Fn(&Request) -> Response,
{
    // Between requests the connection is idle: the idle deadline stays
    // in force, and `read_request` tightens it only while a request must
    // wait on the socket.
    let _ = stream.set_read_timeout(Some(cfg.idle_timeout));
    let _ = stream.set_write_timeout(Some(cfg.write_timeout));
    let Ok(read_half) = stream.try_clone() else { return };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    let mut served: u64 = 0;
    loop {
        let (resp, keep) = match read_request(&mut reader, cfg, Some(stream)) {
            Ok(req) => {
                served += 1;
                let resp = handler(&req);
                // Read the drain flag after the handler: the request that
                // set it (`POST /v1/admin/drain`) must close too.
                let keep = !req.close
                    && served < cfg.max_requests_per_conn
                    && !closing.load(Ordering::Relaxed);
                (resp, keep)
            }
            Err(e) => match e.response() {
                Some(resp) => (resp, false),
                None => break,
            },
        };
        if write_response(&mut writer, &resp, keep).is_err() || !keep {
            break;
        }
    }
    let _ = stream.shutdown(Shutdown::Both);
}

/// Active connections, severed on [`HttpServer::shutdown`] so a hard
/// kill is a crash, not a drain: without this, a keep-alive peer (the
/// router's connection pool pumping probes and proxied requests) keeps a
/// worker serving long after `stop` is set, and `shutdown` blocks in
/// `join` while the supposedly-dead server answers. Slots are reused so
/// the vec stays bounded by peak concurrency.
#[derive(Debug, Default)]
struct ConnRegistry {
    conns: Vec<Option<TcpStream>>,
}

impl ConnRegistry {
    fn register(&mut self, stream: &TcpStream) -> Option<usize> {
        let clone = stream.try_clone().ok()?;
        match self.conns.iter_mut().enumerate().find(|(_, slot)| slot.is_none()) {
            Some((i, slot)) => {
                *slot = Some(clone);
                Some(i)
            }
            None => {
                self.conns.push(Some(clone));
                Some(self.conns.len() - 1)
            }
        }
    }

    fn deregister(&mut self, slot: Option<usize>) {
        if let Some(i) = slot {
            self.conns[i] = None;
        }
    }

    fn sever_all(&mut self) {
        for slot in &mut self.conns {
            if let Some(stream) = slot.take() {
                let _ = stream.shutdown(Shutdown::Both);
            }
        }
    }
}

/// Sheds one connection with a canned `503 Retry-After` (used by the
/// acceptor when the worker backlog is full). Best-effort and bounded by
/// a short write timeout so a slow peer cannot stall accepting.
fn shed(mut stream: &TcpStream) {
    let _ = stream.set_write_timeout(Some(Duration::from_millis(250)));
    let _ = write_response(&mut stream, &overloaded(), false);
    let _ = stream.shutdown(Shutdown::Both);
}

/// The canned answer of [`shed`].
fn overloaded() -> Response {
    Response::from(ApiError::unavailable("server overloaded, retry later", 1))
}

/// Wakes an acceptor blocked in `accept` with one throwaway connection
/// to its bound port, so it re-reads the stop and drain flags. An
/// unspecified bind address (`0.0.0.0`, `[::]`) is dialled on the
/// loopback address of its family. The result is ignored: a refused
/// connect means the acceptor has already exited.
fn wake_acceptor(mut addr: SocketAddr) {
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    let _ = TcpStream::connect(addr);
}

/// A running HTTP server: an acceptor thread plus a worker pool.
///
/// Two ways down: [`HttpServer::shutdown`] stops accepting immediately
/// and joins (also invoked on drop), or an external drain flag (see
/// [`HttpServer::bind_with`]) stops the acceptor while letting queued
/// and in-flight requests finish — pair it with [`HttpServer::join`].
#[derive(Debug)]
pub struct HttpServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    active: Arc<OrderedMutex<ConnRegistry>>,
    threads: Vec<JoinHandle<()>>,
}

impl HttpServer {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts serving
    /// `handler` on `workers` threads with default limits.
    ///
    /// # Errors
    /// Propagates the bind failure.
    pub fn bind<F>(addr: &str, workers: usize, handler: F) -> io::Result<Self>
    where
        F: Fn(&Request) -> Response + Send + Sync + 'static,
    {
        let cfg = HttpConfig { workers, ..HttpConfig::default() };
        Self::bind_with(addr, cfg, Arc::new(AtomicBool::new(false)), handler)
    }

    /// Binds `addr` with explicit limits. `drain` is a shared flag the
    /// owner (or a request handler) may set to initiate a graceful
    /// drain: connections accepted from then on are dropped, workers
    /// finish queued connections (responses carry `Connection: close`),
    /// and [`HttpServer::join`] wakes the acceptor and returns once the
    /// pool is idle.
    ///
    /// # Errors
    /// Propagates the bind failure.
    pub fn bind_with<F>(
        addr: &str,
        cfg: HttpConfig,
        drain: Arc<AtomicBool>,
        handler: F,
    ) -> io::Result<Self>
    where
        F: Fn(&Request) -> Response + Send + Sync + 'static,
    {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let workers = cfg.workers.max(1);

        let (tx, rx) = mpsc::sync_channel::<TcpStream>(cfg.backlog.max(1));
        let rx = Arc::new(OrderedMutex::new(rank::HTTP_CONN_QUEUE, rx));
        let active =
            Arc::new(OrderedMutex::new(rank::HTTP_ACTIVE_CONNS, ConnRegistry::default()));
        let handler = Arc::new(handler);
        let cfg = Arc::new(cfg);

        let mut threads = Vec::with_capacity(workers + 1);
        for _ in 0..workers {
            let rx = Arc::clone(&rx);
            let handler = Arc::clone(&handler);
            let cfg = Arc::clone(&cfg);
            let closing = Arc::clone(&drain);
            let stop_worker = Arc::clone(&stop);
            let active = Arc::clone(&active);
            threads.push(std::thread::spawn(move || loop {
                // Hold the receiver lock only while dequeuing. Recovery
                // acquisition: a worker that panicked while *dequeuing*
                // cannot have corrupted the receiver.
                let next = rx.lock_recover().recv();
                match next {
                    Ok(stream) => {
                        let slot = active.lock_recover().register(&stream);
                        // Re-check stop *after* registering: a shutdown
                        // that ran its sever pass before this insert has
                        // already set the flag, so the connection cannot
                        // slip through unsevered.
                        if stop_worker.load(Ordering::SeqCst) {
                            // Hard shutdown: drop queued connections.
                            let _ = stream.shutdown(Shutdown::Both);
                        } else {
                            serve_connection(&stream, &cfg, &closing, handler.as_ref());
                        }
                        active.lock_recover().deregister(slot);
                    }
                    Err(_) => break, // acceptor gone and queue drained
                }
            }));
        }

        let stop_accept = Arc::clone(&stop);
        let drain_accept = Arc::clone(&drain);
        threads.push(std::thread::spawn(move || {
            // `tx` and `listener` move in here; dropping them on exit
            // stops the workers once the queue is drained and refuses
            // new connections.
            loop {
                let accepted = listener.accept();
                // Whatever woke the acceptor after stop or drain (the
                // wake connection of `join`, or a late client) is dropped
                // unserved, as a closed listener would have refused it.
                if stop_accept.load(Ordering::SeqCst) || drain_accept.load(Ordering::SeqCst) {
                    break;
                }
                let Ok((stream, _)) = accepted else { continue };
                // A response is one write, but nodelay still keeps a
                // keep-alive exchange from waiting on the client's
                // delayed ACK of the segment before it.
                let _ = stream.set_nodelay(true);
                match tx.try_send(stream) {
                    Ok(()) => {}
                    Err(TrySendError::Full(stream)) => shed(&stream),
                    Err(TrySendError::Disconnected(_)) => break,
                }
            }
        }));

        Ok(Self { addr, stop, active, threads })
    }

    /// The bound address (resolves ephemeral ports).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Waits for the server to wind down on its own — meaningful after
    /// the drain flag passed to [`HttpServer::bind_with`] has been set,
    /// since the acceptor is woken once, here, to see it. In-flight and
    /// queued requests finish first.
    pub fn join(&mut self) {
        if self.threads.is_empty() {
            return;
        }
        wake_acceptor(self.addr);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }

    /// Stops accepting, drops queued connections, severs every active
    /// connection mid-exchange, and joins all threads. This is the crash
    /// contract: keep-alive peers see a reset, not a drained reply —
    /// without the sever, a connection pool pumping requests would keep
    /// workers serving for up to `max_requests_per_conn` more exchanges.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        self.active.lock_recover().sever_all();
        self.join();
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client;
    use std::net::IpAddr;

    #[test]
    fn serves_requests_and_shuts_down() {
        let mut server = HttpServer::bind("127.0.0.1:0", 2, |req| {
            assert_eq!(req.method, "POST");
            assert_eq!(req.path, "/echo");
            assert_eq!(req.query_param("x"), Some("1"));
            Response::text(200, String::from_utf8(req.body.clone()).unwrap())
        })
        .unwrap();
        let addr = server.addr();
        for i in 0..4 {
            let payload = format!("hello {i}");
            let (status, body) = client::post(addr, "/echo?x=1", &payload).unwrap();
            assert_eq!(status, 200);
            assert_eq!(body, payload);
        }
        server.shutdown();
    }

    /// A `Write` double that counts write calls and takes at most `chunk`
    /// bytes per call, failing its first call with `Interrupted` when
    /// `interrupt` is set.
    struct Wire {
        bytes: Vec<u8>,
        calls: usize,
        chunk: usize,
        interrupt: bool,
    }

    impl Wire {
        fn new(chunk: usize, interrupt: bool) -> Self {
            Self { bytes: Vec::new(), calls: 0, chunk, interrupt }
        }
    }

    impl Write for Wire {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            self.calls += 1;
            if std::mem::take(&mut self.interrupt) {
                return Err(io::ErrorKind::Interrupted.into());
            }
            let mut taken = 0;
            for buf in bufs {
                let n = buf.len().min(self.chunk - taken);
                self.bytes.extend_from_slice(&buf[..n]);
                taken += n;
            }
            Ok(taken)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn each_message_is_one_write_with_unchanged_bytes() {
        let resp = Response::text(200, "ok").with_header("Retry-After", "1");
        let mut wire = Wire::new(usize::MAX, false);
        write_response(&mut wire, &resp, true).unwrap();
        assert_eq!(wire.calls, 1, "a response is one write");
        assert_eq!(
            String::from_utf8(wire.bytes).unwrap(),
            "HTTP/1.1 200 OK\r\nContent-Type: text/plain; charset=utf-8\r\nContent-Length: 2\r\n\
             Retry-After: 1\r\nConnection: keep-alive\r\n\r\nok"
        );

        let mut wire = Wire::new(usize::MAX, false);
        let addr = "127.0.0.1:8177".parse().unwrap();
        client::send_request(
            &mut wire,
            addr,
            "POST",
            "/v1/s/1/step",
            Some(r#"{"count":4}"#),
            false,
        )
        .unwrap();
        assert_eq!(wire.calls, 1, "a request is one write");
        assert_eq!(
            String::from_utf8(wire.bytes).unwrap(),
            "POST /v1/s/1/step HTTP/1.1\r\nHost: 127.0.0.1:8177\r\nContent-Length: 11\r\n\
             Connection: keep-alive\r\n\r\n{\"count\":4}"
        );

        // The acceptor's canned shed answer keeps its bytes too.
        let mut wire = Wire::new(usize::MAX, false);
        write_response(&mut wire, &overloaded(), false).unwrap();
        assert_eq!(
            String::from_utf8(wire.bytes).unwrap(),
            "HTTP/1.1 503 Service Unavailable\r\nContent-Type: application/json\r\n\
             Content-Length: 42\r\nRetry-After: 1\r\nConnection: close\r\n\r\n\
             {\"error\":\"server overloaded, retry later\"}"
        );
    }

    #[test]
    fn short_and_interrupted_writes_deliver_exactly_head_and_body() {
        // Sends one message twice: to a wire that takes everything, and to
        // one that is interrupted once and then takes 3 bytes per call.
        fn trickle(send: impl Fn(&mut Wire) -> io::Result<()>) {
            let mut whole = Wire::new(usize::MAX, false);
            let mut trickle = Wire::new(3, true);
            send(&mut whole).unwrap();
            send(&mut trickle).unwrap();
            assert_eq!(trickle.bytes, whole.bytes);
            // Chunks run across the head/body boundary.
            assert_eq!(trickle.calls, 1 + whole.bytes.len().div_ceil(3));
        }
        let resp = Response::text(200, "a body longer than one chunk");
        trickle(|w| write_response(w, &resp, true));
        let addr = "127.0.0.1:8177".parse().unwrap();
        trickle(|w| client::send_request(w, addr, "POST", "/x", Some(r#"{"count":4}"#), false));
    }

    #[test]
    fn malformed_requests_get_a_400() {
        let server =
            HttpServer::bind("127.0.0.1:0", 1, |_| Response::text(200, "unreachable")).unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream.write_all(b"NONSENSE\r\n\r\n").unwrap();
        let mut out = String::new();
        stream.read_to_string(&mut out).unwrap();
        assert!(out.starts_with("HTTP/1.1 400"), "{out}");
    }

    #[test]
    fn keep_alive_serves_multiple_requests_on_one_connection() {
        let server = HttpServer::bind("127.0.0.1:0", 1, |req| {
            Response::text(200, format!("pong:{}", String::from_utf8_lossy(&req.body)))
        })
        .unwrap();
        let mut c = client::Client::new(server.addr());
        for i in 0..5 {
            let (status, body) = c.post("/ping", &format!("{i}")).unwrap();
            assert_eq!(status, 200);
            assert_eq!(body, format!("pong:{i}"));
        }
        assert_eq!(c.connections_opened(), 1, "all requests must reuse one connection");
    }

    #[test]
    fn shutdown_severs_parked_keep_alive_connections_promptly() {
        let mut server =
            HttpServer::bind("127.0.0.1:0", 2, |_| Response::text(200, "ok")).unwrap();
        let addr = server.addr();
        // Park a keep-alive conversation in every worker: one exchange
        // each, then leave the connections open so both workers sit in
        // the between-requests read with the full idle deadline ahead.
        let mut parked: Vec<TcpStream> = (0..2)
            .map(|_| {
                let mut s = TcpStream::connect(addr).unwrap();
                s.write_all(
                    b"GET /x HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\n\
                      Connection: keep-alive\r\n\r\n",
                )
                .unwrap();
                s.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
                let mut got = Vec::new();
                let mut buf = [0u8; 256];
                while !got.ends_with(b"ok") {
                    let n = s.read(&mut buf).unwrap();
                    assert!(n > 0, "response must arrive before EOF");
                    got.extend_from_slice(&buf[..n]);
                }
                s
            })
            .collect();
        // The crash contract: shutdown severs the parked conversations
        // instead of waiting out their idle deadlines (or, with a pumping
        // peer, their request caps).
        let t0 = std::time::Instant::now();
        server.shutdown();
        assert!(
            t0.elapsed() < Duration::from_secs(2),
            "shutdown blocked {:?} on parked keep-alive peers",
            t0.elapsed()
        );
        for s in &mut parked {
            let mut buf = [0u8; 64];
            match s.read(&mut buf) {
                Ok(0) | Err(_) => {}
                Ok(n) => panic!("severed connection still delivered {n} bytes"),
            }
        }
    }

    /// Binds `bind` (an unspecified address), serves one request through
    /// `loopback`, then stops the server — with `shutdown()`, or with the
    /// drain flag set and `join()` — and checks that it returned promptly
    /// and that the port now refuses connections.
    fn stop_unspecified_bind(bind: &str, loopback: IpAddr, drain: bool) {
        let flag = Arc::new(AtomicBool::new(false));
        let cfg = HttpConfig { workers: 1, ..HttpConfig::default() };
        let mut server =
            HttpServer::bind_with(bind, cfg, Arc::clone(&flag), |_| Response::text(200, "ok"))
                .unwrap();
        assert!(server.addr().ip().is_unspecified());
        let dial = SocketAddr::new(loopback, server.addr().port());
        assert_eq!(client::get(dial, "/x").unwrap(), (200, "ok".to_string()));
        let t0 = std::time::Instant::now();
        if drain {
            flag.store(true, Ordering::SeqCst);
            server.join();
        } else {
            server.shutdown();
        }
        assert!(
            t0.elapsed() < Duration::from_secs(2),
            "stopping {bind} took {:?}",
            t0.elapsed()
        );
        assert!(TcpStream::connect(dial).is_err(), "{bind} still accepts after stopping");
    }

    #[test]
    fn wake_reaches_an_acceptor_bound_to_an_unspecified_address() {
        // IPv6 may be missing on the host: cover `[::]` where a listener
        // there is reachable through `[::1]`.
        let v6 = TcpListener::bind("[::]:0")
            .and_then(|l| TcpStream::connect((Ipv6Addr::LOCALHOST, l.local_addr()?.port())))
            .is_ok();
        for drain in [false, true] {
            stop_unspecified_bind("0.0.0.0:0", Ipv4Addr::LOCALHOST.into(), drain);
            if v6 {
                stop_unspecified_bind("[::]:0", Ipv6Addr::LOCALHOST.into(), drain);
            }
        }
    }

    #[test]
    fn request_cap_closes_the_connection() {
        let cfg = HttpConfig { workers: 1, max_requests_per_conn: 3, ..HttpConfig::default() };
        let server =
            HttpServer::bind_with("127.0.0.1:0", cfg, Arc::new(AtomicBool::new(false)), |_| {
                Response::text(200, "ok")
            })
            .unwrap();
        let mut c = client::Client::new(server.addr());
        for _ in 0..6 {
            let (status, _) = c.get_once("/x").unwrap();
            assert_eq!(status, 200);
        }
        // 3 requests per connection → 6 requests need 2 connections.
        assert_eq!(c.connections_opened(), 2);
    }
}
