//! Line-protocol clients: a configurable connector ([`ClientConfig`])
//! and the single-socket [`Client`] it hands out.
//!
//! [`Client::connect`] is the one-socket constructor over the default
//! [`ClientConfig`]; code that cares about connect retries, backoff, or
//! read timeouts builds a [`ClientConfig`] explicitly.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use crate::protocol::{Request, Response};

/// Connection policy: how many connect attempts, how the pause between
/// them grows, and the read timeout installed on the socket. Builder
/// style — start from [`ClientConfig::new`] and chain.
///
/// ```no_run
/// use std::time::Duration;
/// use amnesiac_serve::ClientConfig;
/// # fn main() -> std::io::Result<()> {
/// let mut client = ClientConfig::new()
///     .attempts(5)
///     .backoff(Duration::from_millis(10), Duration::from_millis(200))
///     .read_timeout(Some(Duration::from_secs(30)))
///     .connect("127.0.0.1:7700")?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Total connect attempts before giving up. At least 1.
    pub attempts: u32,
    /// Pause before the second attempt (doubles per attempt).
    pub backoff: Duration,
    /// Ceiling of the backoff growth.
    pub backoff_max: Duration,
    /// Read timeout installed on the connected socket (`None` = block
    /// forever, the default).
    pub read_timeout: Option<Duration>,
}

impl Default for ClientConfig {
    fn default() -> ClientConfig {
        ClientConfig {
            attempts: 1,
            backoff: Duration::from_millis(10),
            backoff_max: Duration::from_millis(250),
            read_timeout: None,
        }
    }
}

impl ClientConfig {
    /// The default policy: one attempt, no read timeout.
    pub fn new() -> ClientConfig {
        ClientConfig::default()
    }

    /// Sets the total number of connect attempts (clamped to ≥ 1).
    pub fn attempts(mut self, attempts: u32) -> ClientConfig {
        self.attempts = attempts.max(1);
        self
    }

    /// Sets the initial and maximum pause between connect attempts (the
    /// pause doubles per failed attempt up to the maximum).
    pub fn backoff(mut self, initial: Duration, max: Duration) -> ClientConfig {
        self.backoff = initial;
        self.backoff_max = max.max(initial);
        self
    }

    /// Sets the read timeout installed on connected sockets.
    pub fn read_timeout(mut self, timeout: Option<Duration>) -> ClientConfig {
        self.read_timeout = timeout;
        self
    }

    /// Connects a raw stream under this policy (retry + backoff), with
    /// the read timeout already installed and `TCP_NODELAY` set, so a
    /// pipelined request is sent at once instead of waiting for the one
    /// before it to be acknowledged. The building block for
    /// [`ClientConfig::connect`] and for router worker lanes that manage
    /// their own framing.
    ///
    /// # Errors
    ///
    /// Returns the last connect failure after all attempts are spent.
    pub fn connect_stream(&self, addr: impl ToSocketAddrs) -> io::Result<TcpStream> {
        let mut pause = self.backoff;
        let mut last_err = None;
        for attempt in 0..self.attempts.max(1) {
            if attempt > 0 {
                std::thread::sleep(pause);
                pause = (pause * 2).min(self.backoff_max);
            }
            match TcpStream::connect(&addr) {
                Ok(stream) => {
                    stream.set_read_timeout(self.read_timeout)?;
                    stream.set_nodelay(true)?;
                    return Ok(stream);
                }
                Err(e) => last_err = Some(e),
            }
        }
        Err(last_err.unwrap_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                "no connect attempts configured",
            )
        }))
    }

    /// Connects a [`Client`] under this policy.
    ///
    /// # Errors
    ///
    /// See [`ClientConfig::connect_stream`]; also propagates the
    /// stream-clone failure.
    pub fn connect(&self, addr: impl ToSocketAddrs) -> io::Result<Client> {
        let writer = self.connect_stream(addr)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Client { writer, reader })
    }
}

/// A connected client. One request/response exchange at a time via
/// [`Client::call`], or pipeline explicitly with [`Client::send`] and
/// [`Client::recv`] (responses arrive in request order).
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    /// Connects to a running server with the default single-attempt
    /// policy — a thin wrapper over [`ClientConfig::connect`]; build a
    /// [`ClientConfig`] when you need retries, backoff, or timeouts.
    ///
    /// # Errors
    ///
    /// Propagates connect/clone failures.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        ClientConfig::default().connect(addr)
    }

    /// Bounds how long [`Client::recv`] blocks waiting for a response
    /// line (`None` = forever, the default).
    ///
    /// # Errors
    ///
    /// Propagates the socket-option failure.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.reader.get_ref().set_read_timeout(timeout)
    }

    /// Sends one request line without waiting for the response.
    ///
    /// # Errors
    ///
    /// Propagates write failures.
    pub fn send(&mut self, request: &Request) -> io::Result<()> {
        let mut line = request.to_json().compact();
        line.push('\n');
        self.writer.write_all(line.as_bytes())?;
        self.writer.flush()
    }

    /// Reads the next response line (responses arrive in request order).
    ///
    /// # Errors
    ///
    /// Read failures are propagated; a closed connection or a malformed
    /// response line surfaces as [`io::ErrorKind::UnexpectedEof`] /
    /// [`io::ErrorKind::InvalidData`].
    pub fn recv(&mut self) -> io::Result<Response> {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Response::parse_line(line.trim())
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
    }

    /// One request/response exchange.
    ///
    /// # Errors
    ///
    /// See [`Client::send`] and [`Client::recv`]. A transported service
    /// error is **not** an `Err` here — inspect [`Response::result`].
    pub fn call(&mut self, request: &Request) -> io::Result<Response> {
        self.send(request)?;
        self.recv()
    }

    /// Pipelines a whole batch: sends every request, then collects the
    /// responses in order.
    ///
    /// # Errors
    ///
    /// See [`Client::send`] and [`Client::recv`].
    pub fn batch(&mut self, requests: &[Request]) -> io::Result<Vec<Response>> {
        for request in requests {
            self.send(request)?;
        }
        requests.iter().map(|_| self.recv()).collect()
    }
}
