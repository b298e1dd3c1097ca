//! Dependency-free Linux readiness primitives for the serve event loop.
//!
//! The workspace has no external crates, so the three epoll syscalls
//! (`epoll_create1`, `epoll_ctl`, `epoll_wait`) and the eventfd wakeup
//! channel are issued directly via inline asm, mirroring the JIT code
//! arena's raw `mmap`/`mprotect`/`munmap` style
//! (`crates/bt/src/jit/backend/arena.rs`). Everything above this module
//! is safe code: the wrappers own their fds, close them on drop, and
//! expose `std::io::Result` like any other I/O handle.
//!
//! Only the syscall layer differs per architecture; x86-64 and aarch64
//! Linux are both covered (aarch64 has no `epoll_wait`, so both arches
//! go through `epoll_pwait` with a null sigmask).
#![allow(unsafe_code)]

#[cfg(not(target_os = "linux"))]
compile_error!("powerchop-serve's event loop drives epoll directly and requires Linux");

#[cfg(target_arch = "x86_64")]
mod sys {
    pub const READ: usize = 0;
    pub const WRITE: usize = 1;
    pub const CLOSE: usize = 3;
    pub const EPOLL_CTL: usize = 233;
    pub const EPOLL_PWAIT: usize = 281;
    pub const EVENTFD2: usize = 290;
    pub const EPOLL_CREATE1: usize = 291;

    /// One raw syscall. Unused argument registers carry zeros, which
    /// every syscall used here ignores.
    pub unsafe fn syscall6(
        nr: usize,
        a1: usize,
        a2: usize,
        a3: usize,
        a4: usize,
        a5: usize,
        a6: usize,
    ) -> isize {
        let ret: isize;
        unsafe {
            core::arch::asm!(
                "syscall",
                inlateout("rax") nr as isize => ret,
                in("rdi") a1,
                in("rsi") a2,
                in("rdx") a3,
                in("r10") a4,
                in("r8") a5,
                in("r9") a6,
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack),
            );
        }
        ret
    }
}

#[cfg(target_arch = "aarch64")]
mod sys {
    pub const READ: usize = 63;
    pub const WRITE: usize = 64;
    pub const CLOSE: usize = 57;
    pub const EPOLL_CTL: usize = 21;
    pub const EPOLL_PWAIT: usize = 22;
    pub const EVENTFD2: usize = 19;
    pub const EPOLL_CREATE1: usize = 20;

    pub unsafe fn syscall6(
        nr: usize,
        a1: usize,
        a2: usize,
        a3: usize,
        a4: usize,
        a5: usize,
        a6: usize,
    ) -> isize {
        let ret: isize;
        unsafe {
            core::arch::asm!(
                "svc 0",
                inlateout("x0") a1 as isize => ret,
                in("x1") a2,
                in("x2") a3,
                in("x3") a4,
                in("x4") a5,
                in("x5") a6,
                in("x8") nr,
                options(nostack),
            );
        }
        ret
    }
}

use sys::syscall6;

/// Readable (there is input, or the peer closed).
pub const EPOLLIN: u32 = 0x001;
/// Writable (the send buffer has room again).
pub const EPOLLOUT: u32 = 0x004;
/// Error condition on the fd (always reported, never requested).
pub const EPOLLERR: u32 = 0x008;
/// Hangup (always reported, never requested).
pub const EPOLLHUP: u32 = 0x010;

const EPOLL_CTL_ADD: usize = 1;
const EPOLL_CTL_DEL: usize = 2;
const EPOLL_CTL_MOD: usize = 3;
const EPOLL_CLOEXEC: usize = 0x80000;
const EFD_NONBLOCK: usize = 0x800;
const EFD_CLOEXEC: usize = 0x80000;
const EINTR: isize = -4;

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

/// Converts a raw syscall return into an `io::Result`.
fn check(ret: isize) -> std::io::Result<isize> {
    if (-4095..0).contains(&ret) {
        Err(std::io::Error::from_raw_os_error(-ret as i32))
    } else {
        Ok(ret)
    }
}

fn close_fd(fd: i32) {
    unsafe { syscall6(sys::CLOSE, fd as usize, 0, 0, 0, 0, 0) };
}

/// An owned epoll instance: register fds with a `u64` token, then
/// [`wait`](Epoll::wait) for readiness.
pub struct Epoll {
    fd: i32,
}

impl Epoll {
    /// Creates the epoll instance (`EPOLL_CLOEXEC`).
    ///
    /// # Errors
    ///
    /// Propagates the kernel's refusal (fd exhaustion, mostly).
    pub fn new() -> std::io::Result<Self> {
        let fd = check(unsafe { syscall6(sys::EPOLL_CREATE1, EPOLL_CLOEXEC, 0, 0, 0, 0, 0) })?;
        Ok(Self { fd: fd as i32 })
    }

    fn ctl(&self, op: usize, fd: i32, events: u32, token: u64) -> std::io::Result<()> {
        let mut ev = EpollEvent {
            events,
            data: token,
        };
        let ptr = if op == EPOLL_CTL_DEL {
            std::ptr::null_mut()
        } else {
            &mut ev as *mut EpollEvent
        };
        check(unsafe {
            syscall6(
                sys::EPOLL_CTL,
                self.fd as usize,
                op,
                fd as usize,
                ptr as usize,
                0,
                0,
            )
        })
        .map(|_| ())
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
        let ret = unsafe {
            syscall6(
                sys::EPOLL_PWAIT,
                self.fd as usize,
                events.as_mut_ptr() as usize,
                events.len(),
                timeout_ms as isize as usize,
                0, // null sigmask: plain epoll_wait semantics
                0,
            )
        };
        if ret == EINTR {
            return Ok(0);
        }
        check(ret).map(|n| n as usize)
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
    fd: i32,
}

impl WakeFd {
    /// Creates the non-blocking eventfd.
    ///
    /// # Errors
    ///
    /// Propagates the kernel's refusal.
    pub fn new() -> std::io::Result<Self> {
        let fd =
            check(unsafe { syscall6(sys::EVENTFD2, 0, EFD_NONBLOCK | EFD_CLOEXEC, 0, 0, 0, 0) })?;
        Ok(Self { fd: fd as i32 })
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
        unsafe {
            syscall6(
                sys::WRITE,
                self.fd as usize,
                (&raw const one) as usize,
                8,
                0,
                0,
                0,
            )
        };
    }

    /// Clears the pending wakeup count (one read resets an eventfd).
    pub fn drain(&self) {
        let mut buf: u64 = 0;
        unsafe {
            syscall6(
                sys::READ,
                self.fd as usize,
                (&raw mut buf) as usize,
                8,
                0,
                0,
                0,
            )
        };
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
