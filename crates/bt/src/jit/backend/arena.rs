//! The executable code arena: mmap'd chunks with a strict W^X lifecycle.
//!
//! Chunks are mapped `PROT_READ|PROT_WRITE`, filled, then flipped to
//! `PROT_READ|PROT_EXEC`; appending to a partially-used chunk flips the
//! whole chunk back to RW for the copy and to RX afterwards. A page is
//! never writable and executable at the same time. Flipping the whole
//! chunk is safe because compilation happens between machine steps on one
//! thread — no native code is executing while code is installed.
//!
//! The workspace is dependency-free, so the three calls needed (`mmap`,
//! `mprotect`, `munmap`) are `extern "C"` declarations of the libc
//! functions std already links.
#![allow(unsafe_code)]

use std::ffi::{c_int, c_void};
use std::sync::Arc;

extern "C" {
    fn mmap(
        addr: *mut c_void,
        len: usize,
        prot: c_int,
        flags: c_int,
        fd: c_int,
        offset: i64,
    ) -> *mut c_void;
    fn mprotect(addr: *mut c_void, len: usize, prot: c_int) -> c_int;
    fn munmap(addr: *mut c_void, len: usize) -> c_int;
}

const PROT_READ: c_int = 0x1;
const PROT_WRITE: c_int = 0x2;
const PROT_EXEC: c_int = 0x4;
const MAP_PRIVATE: c_int = 0x02;
const MAP_ANONYMOUS: c_int = 0x20;
/// `mmap`'s failure value, `(void *) -1`.
const MAP_FAILED: *mut c_void = std::ptr::without_provenance_mut(usize::MAX);

const PAGE: usize = 4096;
/// Default chunk size; most traces are well under 2 KiB of code, so one
/// chunk holds hundreds of translations.
const CHUNK: usize = 256 * 1024;

/// One mmap'd region of executable code. Owned jointly by the arena (for
/// appending) and every compiled trace inside it (for lifetime): the
/// mapping is released when the last owner drops.
pub(crate) struct Chunk {
    base: *mut u8,
    cap: usize,
}

// The chunk is an exclusively-owned anonymous mapping; the raw pointer is
// not aliased mutably outside `Arena::install`, which holds `&mut` on the
// engine that owns every handle.
unsafe impl Send for Chunk {}
unsafe impl Sync for Chunk {}

impl Chunk {
    /// Sets the whole chunk's protection; `false` if the kernel refused.
    fn protect(&self, prot: c_int) -> bool {
        // SAFETY: `base..base + cap` is this chunk's own live mapping.
        unsafe { mprotect(self.base.cast(), self.cap, prot) == 0 }
    }
}

impl Drop for Chunk {
    fn drop(&mut self) {
        // SAFETY: the last owner unmaps the mapping it was created with;
        // no trace in it can run after that owner is gone.
        let rc = unsafe { munmap(self.base.cast(), self.cap) };
        debug_assert_eq!(rc, 0, "munmap of an arena chunk failed");
    }
}

/// Bump allocator over [`Chunk`]s. Full chunks are released to their
/// traces' ownership; the arena only retains the chunk it is filling.
pub(crate) struct Arena {
    current: Option<Arc<Chunk>>,
    used: usize,
}

impl Arena {
    pub(crate) fn new() -> Self {
        Arena {
            current: None,
            used: 0,
        }
    }

    /// Copies `code` into executable memory and returns its entry point
    /// plus a keep-alive handle on the backing chunk. Returns `None` if
    /// the kernel refuses the mapping (the caller falls back to the
    /// interpreter — the JIT must never be able to abort a run).
    pub(crate) fn install(
        &mut self,
        code: &[u8],
    ) -> Option<(
        unsafe extern "C" fn(*mut super::runtime::JitCtx),
        Arc<Chunk>,
    )> {
        // Align each entry point for the decoder's benefit.
        let len = code.len().checked_add(15)? & !15;
        let need_new = match &self.current {
            Some(chunk) => self.used + len > chunk.cap,
            None => true,
        };
        if need_new {
            let cap = CHUNK.max((len + PAGE - 1) & !(PAGE - 1));
            // SAFETY: an anonymous private mapping at an address the
            // kernel picks touches no existing memory.
            let base = unsafe {
                mmap(
                    std::ptr::null_mut(),
                    cap,
                    PROT_READ | PROT_WRITE,
                    MAP_PRIVATE | MAP_ANONYMOUS,
                    -1,
                    0,
                )
            };
            if base == MAP_FAILED || base.is_null() {
                return None;
            }
            self.current = Some(Arc::new(Chunk {
                base: base.cast(),
                cap,
            }));
            self.used = 0;
        }
        let chunk = Arc::clone(self.current.as_ref()?);
        // W^X: writable (not executable) for the copy…
        if self.used > 0 && !chunk.protect(PROT_READ | PROT_WRITE) {
            return None;
        }
        let entry_ptr = unsafe { chunk.base.add(self.used) };
        unsafe { std::ptr::copy_nonoverlapping(code.as_ptr(), entry_ptr, code.len()) };
        // …then executable (not writable) for good.
        if !chunk.protect(PROT_READ | PROT_EXEC) {
            return None;
        }
        self.used += len;
        let entry = unsafe {
            std::mem::transmute::<*mut u8, unsafe extern "C" fn(*mut super::runtime::JitCtx)>(
                entry_ptr,
            )
        };
        Some((entry, chunk))
    }
}
