//! Minimal poll(2) readiness multiplexing without a libc dependency
//! (unix only).
//!
//! The crate denies `unsafe_code`; like [`crate::signal`], this module
//! carries the one allowance because the syscall needs an `extern "C"`
//! declaration. The wrapper owns the only raw-pointer handoff — callers
//! work with a safe `&mut [PollFd]` slice — and `pollfd` is declared
//! `#[repr(C)]` to match the kernel ABI.

#![allow(unsafe_code)]

use std::io;
use std::os::unix::io::RawFd;

/// Readable data (or a pending accept on a listener).
pub const POLLIN: i16 = 0x001;
/// Writable without blocking.
pub const POLLOUT: i16 = 0x004;

/// One entry of a poll set, ABI-compatible with `struct pollfd`.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub struct PollFd {
    fd: RawFd,
    events: i16,
    revents: i16,
}

impl PollFd {
    /// An entry watching `fd` for `events` (a mask of [`POLLIN`] /
    /// [`POLLOUT`]).
    pub fn new(fd: RawFd, events: i16) -> PollFd {
        PollFd {
            fd,
            events,
            revents: 0,
        }
    }

    /// Whether the kernel reported any of `mask` for this entry.
    pub fn ready(&self, mask: i16) -> bool {
        self.revents & mask != 0
    }
}

// `nfds_t` is `unsigned long` on Linux and `unsigned int` elsewhere on
// the unix targets we build for.
#[cfg(target_os = "linux")]
type NFds = u64;
#[cfg(not(target_os = "linux"))]
type NFds = u32;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: NFds, timeout: i32) -> i32;
}

/// Blocks until at least one entry is ready, `timeout_ms` elapses
/// (`-1` blocks forever), or a signal arrives. Returns the number of
/// ready entries (0 on timeout); inspect each entry's `revents` via
/// [`PollFd::ready`].
///
/// # Errors
///
/// The syscall failure; `EINTR` is reported as `Interrupted` so the
/// caller can recheck its shutdown flag and continue.
pub fn poll_fds(fds: &mut [PollFd], timeout_ms: i32) -> io::Result<usize> {
    // SAFETY: the slice is a valid `pollfd` array for the duration of
    // the call (`PollFd` is repr(C) with the kernel's layout), and the
    // length is passed alongside it.
    let ready = unsafe { poll(fds.as_mut_ptr(), fds.len() as NFds, timeout_ms) };
    if ready < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(ready as usize)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::os::unix::io::AsRawFd;
    use std::os::unix::net::UnixStream;
    use std::time::Instant;

    #[test]
    fn timeout_expires_with_nothing_ready() {
        let (a, _b) = UnixStream::pair().expect("socketpair");
        let mut fds = [PollFd::new(a.as_raw_fd(), POLLIN)];
        let start = Instant::now();
        let ready = poll_fds(&mut fds, 25).expect("poll");
        assert_eq!(ready, 0);
        assert!(!fds[0].ready(POLLIN));
        assert!(start.elapsed().as_millis() >= 20, "must actually wait");
    }

    #[test]
    fn readable_end_reports_pollin() {
        let (a, mut b) = UnixStream::pair().expect("socketpair");
        b.write_all(b"x").expect("write");
        let mut fds = [PollFd::new(a.as_raw_fd(), POLLIN)];
        let ready = poll_fds(&mut fds, 1_000).expect("poll");
        assert_eq!(ready, 1);
        assert!(fds[0].ready(POLLIN));
    }

    #[test]
    fn hangup_is_reported_on_peer_drop() {
        let (a, b) = UnixStream::pair().expect("socketpair");
        drop(b);
        let mut fds = [PollFd::new(a.as_raw_fd(), POLLIN)];
        let ready = poll_fds(&mut fds, 1_000).expect("poll");
        assert_eq!(ready, 1);
        // The loop reads a dropped peer's EOF through POLLIN alone.
        assert!(
            fds[0].ready(POLLIN),
            "peer close must wake the poll as readable: {:?}",
            fds[0]
        );
    }

    #[test]
    fn idle_writable_socket_reports_pollout() {
        let (a, _b) = UnixStream::pair().expect("socketpair");
        let mut fds = [PollFd::new(a.as_raw_fd(), POLLOUT)];
        let ready = poll_fds(&mut fds, 1_000).expect("poll");
        assert_eq!(ready, 1);
        assert!(fds[0].ready(POLLOUT));
    }
}
