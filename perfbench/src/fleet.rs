//! Child `smith85 serve` processes: spawn, readiness, registry
//! snapshots, peak memory and shutdown.

use smith85_obs::RegistrySnapshot;
use smith85_serve::{Client, Request, Response};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::thread::sleep;
use std::time::{Duration, Instant};

/// How long a server may take to bind and answer `ping`, and to exit
/// after `shutdown`.
const PATIENCE: Duration = Duration::from_secs(20);

/// One running `smith85 serve` child. Dropping it kills the process.
#[derive(Debug)]
pub struct Server {
    /// TCP address it listens on.
    pub addr: String,
    child: Child,
    log: PathBuf,
}

impl Server {
    /// Starts `smith85 serve` on an ephemeral port with `extra` flags,
    /// logging stderr to `<dir>/<name>.log`, and waits until it
    /// answers `ping`.
    ///
    /// # Errors
    ///
    /// Spawn failures, or a server that exits or stays silent.
    pub fn spawn(bin: &Path, name: &str, extra: &[String], dir: &Path) -> io::Result<Server> {
        let log = dir.join(format!("{name}.log"));
        let child = Command::new(bin)
            .args(["serve", "--addr", "127.0.0.1:0"])
            .args(extra)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(fs::File::create(&log)?)
            .spawn()?;
        let mut server = Server {
            addr: String::new(),
            child,
            log,
        };
        let deadline = Instant::now() + PATIENCE;
        while server.addr.is_empty() {
            let banner = fs::read_to_string(&server.log).unwrap_or_default();
            match listen_addr(&banner) {
                Some(addr) => server.addr = addr,
                None => server.wait_a_little(deadline, "print its address")?,
            }
        }
        while !matches!(server.call(&Request::Ping), Ok(Response::Pong)) {
            server.wait_a_little(deadline, "answer ping")?;
        }
        Ok(server)
    }

    fn wait_a_little(&mut self, deadline: Instant, what: &str) -> io::Result<()> {
        let exited = self.child.try_wait()?;
        if exited.is_some() || Instant::now() > deadline {
            let log = fs::read_to_string(&self.log).unwrap_or_default();
            return Err(io::Error::other(format!(
                "server {} did not {what} ({exited:?}): {log}",
                self.log.display()
            )));
        }
        sleep(Duration::from_millis(2));
        Ok(())
    }

    /// A fresh client connection.
    ///
    /// # Errors
    ///
    /// Connection failures.
    pub fn client(&self) -> io::Result<Client> {
        Client::builder()
            .addr(self.addr.as_str())
            .connect()
            .map_err(|e| io::Error::other(e.to_string()))
    }

    /// One request on a fresh connection.
    ///
    /// # Errors
    ///
    /// Connection or protocol failures.
    pub fn call(&self, request: &Request) -> io::Result<Response> {
        self.client()?.call_raw(request)
    }

    /// The server's registry snapshot, via the `metrics` request.
    ///
    /// # Errors
    ///
    /// Connection failures or a reply of another type.
    pub fn metrics(&self) -> io::Result<RegistrySnapshot> {
        match self.call(&Request::Metrics)? {
            Response::Metrics(snapshot) => Ok(snapshot),
            other => Err(io::Error::other(format!(
                "metrics answered {}",
                other.encode()
            ))),
        }
    }

    /// The process's peak resident set (VmHWM) in MiB.
    ///
    /// # Errors
    ///
    /// When `/proc` has no usable status for the child.
    pub fn peak_rss_mib(&self) -> io::Result<f64> {
        crate::host::peak_rss_mib(&format!("/proc/{}/status", self.child.id()))
    }

    /// Asks the server to drain and exit, and waits until it has.
    ///
    /// # Errors
    ///
    /// A refused shutdown or a server that does not exit in time (it
    /// is killed either way when dropped).
    pub fn stop(mut self) -> io::Result<()> {
        let reply = self.call(&Request::Shutdown)?;
        if reply != Response::Ok {
            return Err(io::Error::other(format!(
                "shutdown answered {}",
                reply.encode()
            )));
        }
        let status = wait_for_exit(&mut self.child, Instant::now() + PATIENCE)?;
        if status.success() {
            Ok(())
        } else {
            Err(io::Error::other(format!(
                "server {} exited with {status}",
                self.log.display()
            )))
        }
    }
}

/// Waits until `child` exits, polling, and returns its status.
///
/// # Errors
///
/// A child still running at `deadline`.
fn wait_for_exit(child: &mut Child, deadline: Instant) -> io::Result<ExitStatus> {
    loop {
        if let Some(status) = child.try_wait()? {
            return Ok(status);
        }
        if Instant::now() > deadline {
            return Err(io::Error::other("the server did not exit after shutdown"));
        }
        sleep(Duration::from_millis(2));
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// The address in the server's `listening on <addr> (...)` banner.
fn listen_addr(banner: &str) -> Option<String> {
    let rest = banner.split("listening on ").nth(1)?;
    let addr = rest.split_whitespace().next()?;
    addr.contains(':').then(|| addr.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_banner_names_the_bound_address() {
        let banner = "smith85-serve: listening on 127.0.0.1:40123 (2 workers, queue bound 64)\n";
        assert_eq!(listen_addr(banner).as_deref(), Some("127.0.0.1:40123"));
        assert_eq!(listen_addr("smith85-serve: store st — recovery"), None);
    }

    #[test]
    fn an_exit_while_waiting_is_the_awaited_exit() {
        let mut child = Command::new("sh")
            .args(["-c", "sleep 0.05"])
            .spawn()
            .unwrap();
        let deadline = Instant::now() + Duration::from_secs(20);
        assert!(wait_for_exit(&mut child, deadline).unwrap().success());
        let mut stuck = Command::new("sleep").arg("5").spawn().unwrap();
        assert!(wait_for_exit(&mut stuck, Instant::now()).is_err());
        stuck.kill().unwrap();
        stuck.wait().unwrap();
    }
}
