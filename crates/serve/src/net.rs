//! Dependency-free Linux readiness primitives for the serve event loop.
//!
//! The workspace has no external crates, so the epoll and eventfd calls
//! are `extern "C"` declarations of the libc functions std already links
//! (`epoll_create1`, `epoll_ctl`, `epoll_wait`, `eventfd`, `read`,
//! `write`, `close`), the way `perfbench/src/host.rs` declares
//! `getrusage`. Errors come from `errno` through
//! `std::io::Error::last_os_error`. Everything above this module is safe
//! code: the wrappers own their fds, close them on drop, and expose
//! `std::io::Result` like any other I/O handle.
#![allow(unsafe_code)]

#[cfg(not(target_os = "linux"))]
compile_error!("powerchop-serve's event loop drives epoll directly and requires Linux");

use std::ffi::{c_int, c_uint, c_void};
use std::io::{Error, ErrorKind};

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
    fn eventfd(initval: c_uint, flags: c_int) -> c_int;
    fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
    fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
    fn close(fd: c_int) -> c_int;
}

/// Readable (there is input, or the peer closed).
pub const EPOLLIN: u32 = 0x001;
/// Writable (the send buffer has room again).
pub const EPOLLOUT: u32 = 0x004;
/// Error condition on the fd (always reported, never requested).
pub const EPOLLERR: u32 = 0x008;
/// Hangup (always reported, never requested).
pub const EPOLLHUP: u32 = 0x010;

const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_DEL: c_int = 2;
const EPOLL_CTL_MOD: c_int = 3;
const EPOLL_CLOEXEC: c_int = 0x80000;
const EFD_NONBLOCK: c_int = 0x800;
const EFD_CLOEXEC: c_int = 0x80000;

/// One readiness report from [`Epoll::wait`]. The kernel's layout: on
/// x86-64 the struct is packed (a 12-byte record); elsewhere it is
/// naturally aligned.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy, Default)]
pub struct EpollEvent {
    /// Ready-event bitmask (`EPOLLIN` | `EPOLLOUT` | ...).
    pub events: u32,
    /// The token registered with the fd.
    pub data: u64,
}

/// Converts a libc return value into an `io::Result`: negative means
/// failure, with the reason in `errno`.
fn check(ret: c_int) -> std::io::Result<c_int> {
    if ret < 0 {
        Err(Error::last_os_error())
    } else {
        Ok(ret)
    }
}

fn close_fd(fd: c_int) {
    // SAFETY: `fd` is owned by the wrapper being dropped and is closed
    // exactly once.
    unsafe { close(fd) };
}

/// An owned epoll instance: register fds with a `u64` token, then
/// [`wait`](Epoll::wait) for readiness.
pub struct Epoll {
    fd: c_int,
}

impl Epoll {
    /// Creates the epoll instance (`EPOLL_CLOEXEC`).
    ///
    /// # Errors
    ///
    /// Propagates the kernel's refusal (fd exhaustion, mostly).
    pub fn new() -> std::io::Result<Self> {
        // SAFETY: `epoll_create1` takes no pointers.
        let fd = check(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
        Ok(Self { fd })
    }

    fn ctl(&self, op: c_int, fd: i32, events: u32, token: u64) -> std::io::Result<()> {
        let mut ev = EpollEvent {
            events,
            data: token,
        };
        let ptr = if op == EPOLL_CTL_DEL {
            std::ptr::null_mut()
        } else {
            &raw mut ev
        };
        // SAFETY: `ptr` is null (allowed for `EPOLL_CTL_DEL`) or points
        // at `ev`, a live `EpollEvent` in the kernel's layout that the
        // call only reads.
        check(unsafe { epoll_ctl(self.fd, op, fd, ptr) }).map(|_| ())
    }

    /// Registers `fd` for `events`, delivering `token` on readiness.
    ///
    /// # Errors
    ///
    /// Propagates `EPOLL_CTL_ADD` failures (`EEXIST`, `EBADF`, ...).
    pub fn add(&self, fd: i32, events: u32, token: u64) -> std::io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, events, token)
    }

    /// Changes the registered interest mask for `fd`.
    ///
    /// # Errors
    ///
    /// Propagates `EPOLL_CTL_MOD` failures.
    pub fn modify(&self, fd: i32, events: u32, token: u64) -> std::io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, events, token)
    }

    /// Removes `fd` from the interest set (a no-op if already gone:
    /// closing an fd deregisters it implicitly).
    pub fn del(&self, fd: i32) {
        let _ = self.ctl(EPOLL_CTL_DEL, fd, 0, 0);
    }

    /// Waits up to `timeout_ms` (`-1` = forever) for readiness, filling
    /// `events` and returning how many entries are valid. A signal
    /// interruption reports zero events rather than an error.
    ///
    /// # Errors
    ///
    /// Propagates genuine `epoll_wait` failures (`EBADF`, `EFAULT`).
    pub fn wait(&self, events: &mut [EpollEvent], timeout_ms: i32) -> std::io::Result<usize> {
        let max = c_int::try_from(events.len()).unwrap_or(c_int::MAX);
        // SAFETY: the kernel writes at most `max <= events.len()` entries
        // of the `EpollEvent` layout into the buffer `events` borrows
        // mutably for the call.
        let ret = unsafe { epoll_wait(self.fd, events.as_mut_ptr(), max, timeout_ms) };
        match check(ret) {
            Ok(n) => Ok(n as usize),
            Err(e) if e.kind() == ErrorKind::Interrupted => Ok(0),
            Err(e) => Err(e),
        }
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        close_fd(self.fd);
    }
}

/// The worker→event-loop wakeup channel: an eventfd the workers'
/// completion callbacks [`ring`](WakeFd::ring) after pushing a completion, so a blocked
/// `epoll_wait` returns immediately. Cheap enough to ring on every
/// completion; the loop drains the counter in one read.
pub struct WakeFd {
    fd: c_int,
}

impl WakeFd {
    /// Creates the non-blocking eventfd.
    ///
    /// # Errors
    ///
    /// Propagates the kernel's refusal.
    pub fn new() -> std::io::Result<Self> {
        // SAFETY: `eventfd` takes no pointers.
        let fd = check(unsafe { eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC) })?;
        Ok(Self { fd })
    }

    /// The fd to register with [`Epoll::add`].
    #[must_use]
    pub fn raw(&self) -> i32 {
        self.fd
    }

    /// Signals the event loop. Best effort: the eventfd counter cannot
    /// realistically saturate, and a failed ring only delays delivery
    /// until the next loop iteration's drain.
    pub fn ring(&self) {
        let one: u64 = 1;
        // SAFETY: the call reads the 8 bytes of `one`, which outlives it.
        unsafe { write(self.fd, (&raw const one).cast(), 8) };
    }

    /// Clears the pending wakeup count (one read resets an eventfd).
    pub fn drain(&self) {
        let mut buf: u64 = 0;
        // SAFETY: the call writes at most the 8 bytes of `buf`, which
        // outlives it.
        unsafe { read(self.fd, (&raw mut buf).cast(), 8) };
    }
}

impl Drop for WakeFd {
    fn drop(&mut self) {
        close_fd(self.fd);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eventfd_wakes_epoll_and_drains() {
        let ep = Epoll::new().expect("epoll_create1");
        let wake = WakeFd::new().expect("eventfd2");
        ep.add(wake.raw(), EPOLLIN, 42).expect("ctl add");
        let mut events = [EpollEvent::default(); 4];
        // Nothing rung yet: a zero-timeout wait reports no readiness.
        assert_eq!(ep.wait(&mut events, 0).expect("wait"), 0);
        wake.ring();
        wake.ring();
        let n = ep.wait(&mut events, 1000).expect("wait");
        assert_eq!(n, 1, "two rings coalesce into one readable event");
        let (got_events, got_data) = (events[0].events, events[0].data);
        assert_ne!(got_events & EPOLLIN, 0);
        assert_eq!(got_data, 42, "token rides back on the event");
        wake.drain();
        assert_eq!(ep.wait(&mut events, 0).expect("wait"), 0, "drained");
    }

    #[test]
    fn interest_can_be_modified_and_removed() {
        let ep = Epoll::new().expect("epoll_create1");
        let wake = WakeFd::new().expect("eventfd2");
        ep.add(wake.raw(), EPOLLIN, 7).expect("add");
        wake.ring();
        // Mask out EPOLLIN: the pending readability must not surface.
        ep.modify(wake.raw(), 0, 7).expect("mod");
        let mut events = [EpollEvent::default(); 4];
        assert_eq!(ep.wait(&mut events, 0).expect("wait"), 0);
        ep.modify(wake.raw(), EPOLLIN, 9).expect("mod back");
        let n = ep.wait(&mut events, 1000).expect("wait");
        assert_eq!(n, 1);
        assert_eq!({ events[0].data }, 9, "token updates with the mask");
        ep.del(wake.raw());
        assert_eq!(ep.wait(&mut events, 0).expect("wait"), 0);
    }
}
