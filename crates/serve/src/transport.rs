//! One connection surface for every byte stream the service speaks.
//!
//! The server, router, client and tests all move NDJSON lines over a
//! [`Transport`]: TCP, or a Unix-domain socket on unix targets.
//! [`Endpoint`] names a connectable destination; [`Listener`] is the
//! accept side. A stream is a `Box<dyn Transport>` everywhere, so the
//! server's event loop and the client carry no per-transport match arms.

use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::io::{AsRawFd, RawFd};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
#[cfg(unix)]
use std::path::{Path, PathBuf};
use std::time::Duration;

/// A bidirectional byte stream carrying NDJSON request/response lines.
///
/// Implementations: [`TcpStream`] and [`UnixStream`] (unix targets).
pub trait Transport: Read + Write + Send {
    /// Sets the read timeout (`None` blocks forever).
    ///
    /// # Errors
    ///
    /// Propagates the socket-option failure.
    fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()>;

    /// Switches blocking/nonblocking mode.
    ///
    /// # Errors
    ///
    /// Propagates the socket-option failure.
    fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()>;

    /// An independently readable/writable handle to the same stream.
    ///
    /// # Errors
    ///
    /// Propagates the clone failure.
    fn try_clone_transport(&self) -> io::Result<Box<dyn Transport>>;

    /// The raw file descriptor the server's event loop polls.
    #[cfg(unix)]
    fn raw_fd(&self) -> RawFd;
}

impl Transport for TcpStream {
    fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        TcpStream::set_read_timeout(self, timeout)
    }

    fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()> {
        TcpStream::set_nonblocking(self, nonblocking)
    }

    fn try_clone_transport(&self) -> io::Result<Box<dyn Transport>> {
        Ok(Box::new(self.try_clone()?))
    }

    #[cfg(unix)]
    fn raw_fd(&self) -> RawFd {
        self.as_raw_fd()
    }
}

#[cfg(unix)]
impl Transport for UnixStream {
    fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        UnixStream::set_read_timeout(self, timeout)
    }

    fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()> {
        UnixStream::set_nonblocking(self, nonblocking)
    }

    fn try_clone_transport(&self) -> io::Result<Box<dyn Transport>> {
        Ok(Box::new(self.try_clone()?))
    }

    fn raw_fd(&self) -> RawFd {
        self.as_raw_fd()
    }
}

/// A connectable destination for [`crate::Client`] and the router.
#[derive(Clone)]
pub enum Endpoint {
    /// A TCP address, e.g. `"127.0.0.1:4085"`.
    Tcp(String),
    /// A Unix-domain socket path (unix targets only).
    #[cfg(unix)]
    Unix(PathBuf),
}

impl std::fmt::Debug for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Endpoint::Tcp(addr) => write!(f, "tcp:{addr}"),
            #[cfg(unix)]
            Endpoint::Unix(path) => write!(f, "unix:{}", path.display()),
        }
    }
}

impl Endpoint {
    /// Opens a fresh stream to this destination.
    ///
    /// # Errors
    ///
    /// Returns the connect failure.
    pub fn connect(&self) -> io::Result<Box<dyn Transport>> {
        match self {
            Endpoint::Tcp(addr) => {
                let stream = TcpStream::connect(addr)?;
                stream.set_nodelay(true).ok();
                Ok(Box::new(stream))
            }
            #[cfg(unix)]
            Endpoint::Unix(path) => Ok(Box::new(UnixStream::connect(path)?)),
        }
    }
}

/// The accept side of a transport: TCP or Unix socket.
pub trait Listener: Send {
    /// Accepts one pending connection.
    ///
    /// # Errors
    ///
    /// `WouldBlock` when nonblocking with nothing pending; otherwise
    /// the accept failure.
    fn accept_transport(&self) -> io::Result<Box<dyn Transport>>;

    /// Switches blocking/nonblocking accepts.
    ///
    /// # Errors
    ///
    /// Propagates the socket-option failure.
    fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()>;
}

impl Listener for TcpListener {
    fn accept_transport(&self) -> io::Result<Box<dyn Transport>> {
        let (stream, _peer) = self.accept()?;
        stream.set_nodelay(true).ok();
        Ok(Box::new(stream))
    }

    fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()> {
        TcpListener::set_nonblocking(self, nonblocking)
    }
}

#[cfg(unix)]
impl Listener for UnixListener {
    fn accept_transport(&self) -> io::Result<Box<dyn Transport>> {
        let (stream, _peer) = self.accept()?;
        Ok(Box::new(stream))
    }

    fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()> {
        UnixListener::set_nonblocking(self, nonblocking)
    }
}

/// Binds a Unix-domain listener at `path`, replacing a stale socket
/// file from a previous run.
///
/// # Errors
///
/// Returns the remove or bind failure.
#[cfg(unix)]
pub fn bind_unix(path: &Path) -> io::Result<UnixListener> {
    if path.exists() {
        std::fs::remove_file(path)?;
    }
    UnixListener::bind(path)
}
