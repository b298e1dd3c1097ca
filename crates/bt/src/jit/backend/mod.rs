//! The x86-64/Linux JIT backend: code arena, encoder, trace compiler and
//! trampoline runtime. This is the one corner of the workspace allowed to
//! use `unsafe` (scoped `allow`s in [`arena`] and [`runtime`]); everything
//! above it is safe Rust.

mod arena;
mod compile;
mod encoder;
mod runtime;

use std::sync::Arc;

use powerchop_gisa::{Cpu, GisaError, Inst, Memory, Pc};
use powerchop_uarch::core::CoreModel;

use crate::region_cache::TranslationId;

pub(super) const SUPPORTED: bool = true;

/// Result of a compile attempt.
pub(super) enum CompileOutcome {
    /// Native code was emitted and installed in the arena.
    Compiled { code_bytes: usize },
    /// The trace is not worth (or not able to be) compiled; the
    /// interpreter handles it. Remembered so dispatches don't retry.
    Ineligible,
}

/// Outcome of a single-lookup dispatch attempt (the hot path runs one
/// indexed load, not a residency check followed by a second lookup).
pub(super) enum RunAttempt {
    /// Native code ran to completion (or faulted); here is the count of
    /// guest instructions it executed.
    Ran(Result<u64, GisaError>),
    /// The trace is memoized as not compilable; interpret it.
    Ineligible,
    /// Never seen; the caller may compile on demand and retry.
    Unknown,
}

enum Entry {
    Compiled(runtime::CompiledTrace),
    Ineligible,
}

/// The native code cache: one compiled trace per translation ID, backed
/// by a W^X [`arena::Arena`].
pub(super) struct NativeEngine {
    arena: arena::Arena,
    /// Entries indexed by translation ID (the head PC). Grows on demand
    /// to the highest head compiled; IDs come from the region cache,
    /// which only holds heads inside the program.
    traces: Vec<Option<Entry>>,
    fp_delta: i32,
    fma: bool,
}

impl NativeEngine {
    pub(super) fn new() -> Self {
        let fp_delta = Cpu::jit_fp_delta();
        // The register files sit adjacently inside `Cpu`; templates encode
        // fp accesses as `[int_base + fp_delta + 8*idx]` disp32s.
        assert!(
            fp_delta > 0 && fp_delta < i64::from(i32::MAX >> 1) as isize,
            "fp register file must follow the int file within disp32 range"
        );
        NativeEngine {
            arena: arena::Arena::new(),
            traces: Vec::new(),
            fp_delta: fp_delta as i32,
            fma: std::arch::is_x86_feature_detected!("fma"),
        }
    }

    #[inline]
    pub(super) fn try_run(
        &mut self,
        id: TranslationId,
        cpu: &mut Cpu,
        mem: &mut Memory,
        core: &mut CoreModel,
    ) -> RunAttempt {
        match self.entry(id) {
            Some(Entry::Compiled(ct)) => RunAttempt::Ran(runtime::run_compiled(ct, cpu, mem, core)),
            Some(Entry::Ineligible) => RunAttempt::Ineligible,
            None => RunAttempt::Unknown,
        }
    }

    fn entry(&self, id: TranslationId) -> Option<&Entry> {
        self.traces.get(id.0 as usize)?.as_ref()
    }

    fn insert(&mut self, id: TranslationId, entry: Entry) {
        let index = id.0 as usize;
        if index >= self.traces.len() {
            self.traces.resize_with(index + 1, || None);
        }
        self.traces[index] = Some(entry);
    }

    pub(super) fn compile(
        &mut self,
        id: TranslationId,
        trace: &Arc<[Pc]>,
        insts: &Arc<[Inst]>,
    ) -> CompileOutcome {
        let compiled =
            compile::compile_trace(trace, insts, self.fp_delta, self.fma).and_then(|code| {
                self.arena
                    .install(&code)
                    .map(|(entry, chunk)| (code, entry, chunk))
            });
        match compiled {
            Some((code, entry, chunk)) => {
                let code_bytes = code.len();
                self.insert(
                    id,
                    Entry::Compiled(runtime::CompiledTrace::new(
                        entry,
                        chunk,
                        code_bytes,
                        trace.clone(),
                        insts.clone(),
                    )),
                );
                CompileOutcome::Compiled { code_bytes }
            }
            None => {
                self.insert(id, Entry::Ineligible);
                CompileOutcome::Ineligible
            }
        }
    }

    pub(super) fn code_len(&self, id: TranslationId) -> Option<usize> {
        match self.entry(id)? {
            Entry::Compiled(ct) => Some(ct.code_len()),
            Entry::Ineligible => None,
        }
    }

    pub(super) fn resident(&self) -> usize {
        self.traces.iter().flatten().count()
    }

    pub(super) fn remove(&mut self, id: TranslationId) {
        if let Some(entry) = self.traces.get_mut(id.0 as usize) {
            *entry = None;
        }
    }

    pub(super) fn clear(&mut self) {
        self.traces.clear();
        // Dropping the arena's handle frees each chunk as its last
        // compiled trace goes away (they just did).
        self.arena = arena::Arena::new();
    }
}
